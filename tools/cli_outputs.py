"""Fingerprint the output of the nullcore command line.

Runs a fixed set of nullcore commands against the package in the given
src directory and prints one line per command:

    <sha256 prefix>  <exit code>  <argv>

The hash covers the exit code, stdout, stderr and every counterexample
file the command wrote, so two checkouts that print the same lines
behave the same on every command listed.  The graphs are written by
`nullcore gen` of the same checkout (each gen is a row of its own) into
a temporary directory, which is also the working directory of every
command; a planted-twin graph is a gen graph plus a twin of vertex 0.
The child environment is fixed (PATH, PYTHONPATH, PYTHONHASHSEED=0,
LC_ALL=C, PYTHONUTF8=1, PYTHONDONTWRITEBYTECODE=1), so nothing is
written into the checkout.

Usage (standard library only):

    python3 tools/cli_outputs.py PARENT/src > parent.txt
    python3 tools/cli_outputs.py src > change.txt
    diff parent.txt change.txt
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

# (kind, sizes) for the random generators, each at every seed in _SEEDS
_RANDOM = (
    ("tree", (1, 2, 9, 16, 32, 64)),
    ("graph", (8, 16, 24, 32, 48, 64)),
    ("unicyclic", (12, 32)),
    ("bipartite", (7, 9, 11, 32, 40)),
)
_SEEDS = (0, 3)
# G(n, 1/2) from `gen graph` at every seed in _SEEDS, plus a twin of
# vertex 0 (a new last vertex with the same neighbours and no edge to
# vertex 0), as the benchmark plants them: analyze then takes det of the
# remote block M, 14-15 rows at n = 31 and dense with 22-36 rows above
_TWIN_SIZES = (31, 47, 63)
_FIXED = (("path", 7), ("cycle", 4), ("cycle", 8), ("star", 5))
# (kind, sizes, commands) for list-route graphs beyond the benchmark's
# sizes, each at every seed in _SEEDS, with only the commands given
_LARGE = (
    ("tree", (200, 300), (("analyze",), ("reduce", "--slim"), ("mc",))),
    ("unicyclic", (128,), (("analyze",),)),
)
# perturb runs on graphs up to this order, tree-16 included (9 and 24
# CV-NCV candidates at the two seeds).  Densify costs one elimination
# per accepted edge; checkouts that screen each CV-NCV candidate by an
# elimination of its own take seconds per row above this order.  No
# graph of this order lies above the _is_dense line, so perturb --list
# also runs on every planted-twin graph, whose screen reads the
# bordered reduction
_PERTURB_MAX_N = 16
# the planted-twin graphs on which perturb also runs --densify, whose
# re-check after each accepted edge reads a bordered reduction (seed 0
# adds 238 edges)
_DENSIFY_TWINS = "twin-32-"
_PER_GRAPH = (("analyze",), ("analyze", "--dot"), ("mc",),
              ("reduce", "--slim"), ("reduce", "--pendant"))
_VERIFY_SEEDS = (0, 5, 9)
_FORMS = (
    (),
    ("--help",),
    ("analyze", "--help"),
    ("bogus",),
    ("analyze", "missing.g"),
    ("analyze", "loop.g"),
    ("perturb", "path-7.g", "--preserve", "cv", "--list", "--densify"),
    ("perturb", "path-7.g", "--preserve", "kernel", "--list"),
    ("gen", "path", "-3"),
    ("verify", "--max-n", "0"),
    ("verify", "--suite", "trees", "--trials", "2", "--max-n", "65"),
)


def _graphs():
    """(file name, gen argv, commands) for every graph, in a fixed
    order."""
    out = []
    kinds = [(kind, sizes, _PER_GRAPH) for kind, sizes in _RANDOM]
    for kind, sizes, commands in kinds + list(_LARGE):
        for n in sizes:
            for seed in _SEEDS:
                out.append(("%s-%d-s%d.g" % (kind, n, seed),
                            ("gen", kind, str(n), str(seed)), commands))
    for kind, n in _FIXED:
        out.append(("%s-%d.g" % (kind, n), ("gen", kind, str(n)),
                    _PER_GRAPH))
    # a twin graph's row is the gen of its base, which main extends
    for n in _TWIN_SIZES:
        for seed in _SEEDS:
            out.append(("twin-%d-s%d.g" % (n + 1, seed),
                        ("gen", "graph", str(n), str(seed)), _PER_GRAPH))
    return out


def _with_twin(text):
    """The edge list text plus a twin of vertex 0."""
    head, *lines = text.decode().splitlines()
    n = int(head.split()[0])
    edges = [tuple(map(int, line.split())) for line in lines]
    edges += [(u if w == 0 else w, n) for u, w in edges if 0 in (u, w)]
    return "".join(["%d %d\n" % (n + 1, len(edges))]
                   + ["%d %d\n" % edge for edge in edges]).encode()


def _run(argv, cwd, env):
    """(fingerprint, exit code, stdout) of one command run in cwd; the
    files it wrote are hashed, then removed."""
    before = set(os.listdir(cwd))
    proc = subprocess.run(
        [sys.executable, "-m", "nullcore.cli", *argv],
        cwd=cwd, env=env, capture_output=True, check=False,
    )
    digest = hashlib.sha256()
    for part in (str(proc.returncode).encode(), proc.stdout, proc.stderr):
        digest.update(len(part).to_bytes(8, "big") + part)
    for name in sorted(set(os.listdir(cwd)) - before):
        path = pathlib.Path(cwd, name)
        data = path.read_bytes()
        digest.update(name.encode() + len(data).to_bytes(8, "big") + data)
        path.unlink()
    return digest.hexdigest()[:16], proc.returncode, proc.stdout


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: cli_outputs.py SRC_DIR", file=sys.stderr)
        return 1
    src = pathlib.Path(argv[1]).resolve()
    if not (src / "nullcore" / "cli.py").is_file():
        print("no nullcore package in %s" % src, file=sys.stderr)
        return 1
    env = {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(src),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C",
        "PYTHONUTF8": "1",
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    with tempfile.TemporaryDirectory() as cwd:

        def row(command):
            fingerprint, code, stdout = _run(command, cwd, env)
            print("%s  %d  %s" % (fingerprint, code, " ".join(command)),
                  flush=True)
            return code, stdout

        graphs = _graphs()
        small = []
        for name, gen, _ in graphs:
            code, text = row(gen)
            if code != 0:
                print("gen failed: %s" % " ".join(gen), file=sys.stderr)
                return 1
            if name.startswith("twin-"):
                text = _with_twin(text)
            pathlib.Path(cwd, name).write_bytes(text)
            if int(text.split()[0]) <= _PERTURB_MAX_N:
                small.append(name)
        pathlib.Path(cwd, "loop.g").write_text("2 1\n0 0\n")
        for name, _, commands in graphs:
            for command in commands:
                row((command[0], name) + command[1:])
        for name in small:
            for mode in ("nullity", "cv", "nullspace"):
                for action in ("--list", "--densify"):
                    row(("perturb", name, "--preserve", mode, action))
        for name, _, _ in graphs:
            if name.startswith("twin-"):
                actions = (("--list", "--densify")
                           if name.startswith(_DENSIFY_TWINS) else ("--list",))
                for mode in ("nullity", "cv", "nullspace"):
                    for action in actions:
                        row(("perturb", name, "--preserve", mode, action))
        for seed in _VERIFY_SEEDS:
            row(("verify", "--suite", "all", "--trials", "30",
                 "--max-n", "12", "--seed", str(seed)))
        for command in _FORMS:
            row(command)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
