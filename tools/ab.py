"""A/B check of two nullcore src trees: first that both give the same
outputs, then what each library layer costs on each.

Usage (standard library only; writes into the current directory):

    python3 tools/ab.py SRC LABEL PARENT_SRC PARENT_LABEL

1. Outputs.  Every row of plan() runs `python -m nullcore.cli` of each
   tree in a temporary directory.  A row's fingerprint hashes the exit
   code, stdout, stderr and every file the command wrote.  The graphs
   are written by `gen` rows of the same tree; a planted twin is a gen
   graph plus a twin of vertex 0 (_with_twin).  A child of each tree
   also takes one SHA-256 over the library's exact results on a fixed
   sweep (_digest), among them what the reduction's d and T decide:
   the classes and the addition screen, not d and T themselves, which
   differ by route.  The verdict is equal when the rows and the digests
   are; otherwise every differing row is printed.
2. Timing.  There are RUNS runs, an even number.  A run times every case
   of _cases once in a child process per tree, and each tree goes first
   in half of the runs, so both trees see the same drift in the host's
   speed and the same cost of going first.  A case is timed over a
   number of calls chosen from its first call so that the run lasts
   about RUN_TARGET_S, or by that first call alone when it takes longer.
3. Records.  BENCH_<LABEL>.json and BENCH_<PARENT_LABEL>.json hold the
   verdict and, per case, the raw time per call of every run in run
   order (runs_s), with their min and median; run r of one record was
   timed back to back with run r of the other.  The printout gives the
   ratio of LABEL's min to PARENT_LABEL's for every case; compare mins.
   Next to it, _verdict reads the paired runs: a case is faster (slower)
   when LABEL wins (loses) at least 9 of every 10 runs and the medians
   differ by more than the distance between PARENT_LABEL's quartiles,
   and overlap otherwise.  The summary counts the flagged cases.  Each
   record keeps its own tree's paired wins as "wins".

Every child runs in a fixed environment (PATH, PYTHONPATH=src,
PYTHONHASHSEED=0, LC_ALL=C, PYTHONUTF8=1, and PYTHONPYCACHEPREFIX in a
temporary directory that the run removes), so nothing is written into
either checkout and no child but the first compiles a module.  The exit
code is 1 when the outputs differ, after both records are written, or
when a child process fails, and 2 on a usage error.
"""

import difflib
import hashlib
import json
import os
import pathlib
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import timeit
import tracemalloc

TOOLS = pathlib.Path(__file__).resolve().parent

# Fingerprint rows.  (kind, sizes) for the random generators, each at
# every seed in _SEEDS
_RANDOM = (
    ("tree", (1, 2, 9, 16, 32, 64)),
    ("graph", (8, 16, 24, 32, 48, 64)),
    ("unicyclic", (12, 32)),
    ("bipartite", (7, 9, 11, 32, 40)),
)
_SEEDS = (0, 3)
# G(n, 1/2) from `gen graph` at every seed in _SEEDS, plus a twin of
# vertex 0, as the benchmark plants them: analyze then takes det of the
# remote block M, 14-15 rows at n = 31 and dense with 22-36 rows above
_TWIN_SIZES = (31, 47, 63)
_FIXED = (("path", 7), ("cycle", 4), ("cycle", 8), ("star", 5))
# (kind, sizes, commands) for list-route graphs beyond the benchmark's
# sizes, each at every seed in _SEEDS, with only the commands given
_LARGE = (
    ("tree", (200, 300), (("analyze",), ("reduce", "--slim"), ("mc",))),
    ("unicyclic", (128,), (("analyze",),)),
)
# perturb runs in every mode on graphs up to this order, tree-16
# included (9 and 24 CV-NCV candidates at the two seeds): densify costs
# one elimination per accepted edge.  perturb --list also runs on every
# planted twin, whose screen reads the bordered reduction, and --densify
# on the twins named below (seed 0 adds 238 edges)
_PERTURB_MAX_N = 16
_DENSIFY_TWINS = "twin-32-"
_PER_GRAPH = (("analyze",), ("analyze", "--dot"), ("mc",),
              ("reduce", "--slim"), ("reduce", "--pendant"))
_MODES = ("nullity", "cv", "nullspace")
_VERIFY_SEEDS = (0, 5, 9)
# usage errors, help, and valid lists that are not in the plain spelling
# (abbreviations, "=value", a negative value, "--"), which argparse reads
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
    ("perturb", "path-7.g", "--pres", "cv", "--dens"),
    ("verify", "--su=trees", "--tr", "2", "--m", "6", "--se=-5"),
    ("gen", "tree", "8", "-3"),
    ("analyze", "--", "path-7.g"),
)

# The digest's sweep: each family at every size, relabelled, with
# _SMALL_COUNT seeds up to n = 40 and _LARGE_COUNT above
_DIGEST_FAMILIES = (("tree", 2), ("gnp1/8", 2), ("gnp1/2", 2),
                    ("unicyclic", 3), ("gnp2/n", 2))
_DIGEST_SIZES = tuple(range(2, 41)) + (48, 64, 96, 128)
_SMALL_COUNT = 8
_LARGE_COUNT = 2
_MATRICES = 1500

# Timing.  Each tree goes first in RUNS / 2 runs
RUNS = 10
RUN_TARGET_S = 0.02
SIZES = (16, 32, 64, 96)
# classify_vertices at seed 1; gen_random_graph refuses n > 2000
# (MAX_RANDOM_GRAPH_VERTICES), so G(n, 2/n) stops at 1000
CLASSIFY_SIZES = (("tree", (300, 1000, 4000)), ("gnp2/n", (300, 1000)))
DENSIFY_TREE = (32, 11)
DENSIFY_MODES = ("nullity", "cv_set", "nullspace")
# (family, n) at seed 0 for parse_edge_list on the graph's edge-list
# text, induced_subgraph on every vertex but 0 and subdivision: the
# sizes of the benchmark's largest G(n, 1/2), planted twin and tree
BUILD_GRAPHS = (("gnp1/2", 48), ("twins", 64), ("tree", 96))
ROUTE_FAMILIES = ("tree", "unicyclic", "gnp1/2", "gnp1/4", "gnp4/(n-1)",
                  "bipartite", "twins", "twin-rich")
ROUTE_SIZES = (12, 16, 24, 32, 64, 128)
# (suite, trials per command) of the benchmark's verify commands
SUITES = (("trees", 6), ("bipartite", 12), ("subdivisions", 4),
          ("perturbations", 4), ("unicyclic", 12))
VERIFY_MAX_N = 12
VERIFY_SEEDS = tuple(range(8))
# timed last, with its tracemalloc peak
LARGE_TREE = (2000, 1)


def _with_twin(n, edges, source=0):
    """(n + 1, edges plus a twin of vertex source): a new last vertex
    with the same neighbours and no edge to source."""
    edges = list(edges)
    return n + 1, edges + [(u if w == source else w, n)
                           for u, w in edges if source in (u, w)]


def _families(graphs) -> dict:
    """Family name -> generator (n, seed) -> Graph."""
    gnp = graphs.gen_random_graph

    def twin_rich(n, seed):
        """G(n - n // 2, 1/2) and n // 2 twins, two of each of its first
        n // 4 vertices: every twin planted before stays a twin."""
        size = n - n // 2
        edges = gnp(size, 1, 2, seed).edges()
        for i in range(n // 2):
            size, edges = _with_twin(size, edges, i // 2)
        return graphs.Graph(size, edges)

    return {
        "tree": graphs.gen_random_tree,
        "unicyclic": graphs.gen_random_unicyclic,
        "bipartite": graphs.gen_random_bipartite,
        "gnp1/2": lambda n, seed: gnp(n, 1, 2, seed),
        "gnp1/4": lambda n, seed: gnp(n, 1, 4, seed),
        "gnp1/8": lambda n, seed: gnp(n, 1, 8, seed),
        "gnp2/n": lambda n, seed: gnp(n, 2, n, seed),
        "gnp4/(n-1)": lambda n, seed: gnp(n, 4, n - 1, seed),
        "twins": lambda n, seed: graphs.Graph(
            *_with_twin(n - 1, gnp(n - 1, 1, 2, seed).edges())),
        "twin-rich": twin_rich,
    }


def plan() -> list:
    """(argv, file) for every fingerprint row, in order: file is the
    graph file a gen row's stdout becomes, None on every other row."""
    graphs = []  # (file, gen argv, n, commands)
    for kind, sizes, commands in ([(kind, sizes, _PER_GRAPH)
                                   for kind, sizes in _RANDOM]
                                  + list(_LARGE)):
        graphs += [("%s-%d-s%d.g" % (kind, n, seed),
                    ("gen", kind, str(n), str(seed)), n, commands)
                   for n in sizes for seed in _SEEDS]
    graphs += [("%s-%d.g" % (kind, n), ("gen", kind, str(n)), n, _PER_GRAPH)
               for kind, n in _FIXED]
    graphs += [("twin-%d-s%d.g" % (n + 1, seed),
                ("gen", "graph", str(n), str(seed)), n + 1, _PER_GRAPH)
               for n in _TWIN_SIZES for seed in _SEEDS]
    rows = [(gen, name) for name, gen, _, _ in graphs]
    rows += [((command[0], name) + command[1:], None)
             for name, _, _, commands in graphs for command in commands]
    for name, _, n, _ in graphs:
        actions = (("--list", "--densify")
                   if n <= _PERTURB_MAX_N or name.startswith(_DENSIFY_TWINS)
                   else ("--list",) if name.startswith("twin-") else ())
        rows += [(("perturb", name, "--preserve", mode, action), None)
                 for mode in _MODES for action in actions]
    rows += [(("verify", "--suite", "all", "--trials", "30", "--max-n", "12",
               "--seed", str(seed)), None) for seed in _VERIFY_SEEDS]
    return rows + [(form, None) for form in _FORMS]


def _child(src, args, cwd, cache) -> subprocess.CompletedProcess:
    """`python ARGS` in cwd, with nullcore imported from src and its
    bytecode kept under cache."""
    env = {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(src),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C",
        "PYTHONUTF8": "1",
        "PYTHONPYCACHEPREFIX": str(cache),
    }
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, check=False)


def _call(src, function, cwd):
    """What function() of this module prints as JSON, run in a child
    in cwd, which also keeps the bytecode, with nullcore imported from
    src."""
    proc = _child(src, ("-c", "import sys; sys.path.insert(0, %r); import ab; "
                        "ab.%s()" % (str(TOOLS), function)), cwd, cwd)
    if proc.returncode:
        sys.exit("%s failed on %s:\n%s" % (function, src,
                                            proc.stderr.decode()))
    return json.loads(proc.stdout)


def _fingerprints(src, cache) -> list:
    """'<sha256 prefix>  <exit code>  <argv>' for every row of plan(),
    with the bytecode kept under cache."""
    rows = []
    with tempfile.TemporaryDirectory() as cwd:
        pathlib.Path(cwd, "loop.g").write_text("2 1\n0 0\n")
        for argv, name in plan():
            before = set(os.listdir(cwd))
            proc = _child(src, ("-m", "nullcore.cli", *argv), cwd, cache)
            digest = hashlib.sha256()
            for part in (str(proc.returncode).encode(), proc.stdout,
                         proc.stderr):
                digest.update(len(part).to_bytes(8, "big") + part)
            for new in sorted(set(os.listdir(cwd)) - before):
                path = pathlib.Path(cwd, new)
                data = path.read_bytes()
                digest.update(new.encode() + len(data).to_bytes(8, "big")
                              + data)
                path.unlink()
            rows.append("%s  %d  %s" % (digest.hexdigest()[:16],
                                        proc.returncode, " ".join(argv)))
            if name and proc.returncode == 0:
                text = proc.stdout
                if name.startswith("twin-"):
                    head, *lines = text.decode().splitlines()
                    n, edges = _with_twin(int(head.split()[0]), [
                        tuple(map(int, line.split())) for line in lines])
                    text = "".join(["%d %d\n" % (n, len(edges))]
                                   + ["%d %d\n" % e for e in edges]).encode()
                pathlib.Path(cwd, name).write_bytes(text)
    return rows


def _digest() -> None:
    """Print one SHA-256 over: every field of the partition of
    analysis._classified, nullity and safe_additions in each of
    DENSIFY_MODES, screened with that reduction, on the relabelled
    graphs of the sweep; rank, nullspace_basis and, when square, det of
    seeded signed rectangular matrices.  d and T reach outputs only
    through the classes and the screen, so a route that changes them
    and nothing else reads equal."""
    from nullcore import analysis, graphs, linalg, perturb

    digest = hashlib.sha256()
    families = _families(graphs)
    rng = random.Random(26)
    count = 0
    for name, least in _DIGEST_FAMILIES:
        for n in _DIGEST_SIZES[_DIGEST_SIZES.index(least):]:
            for seed in range(_SMALL_COUNT if n <= 40 else _LARGE_COUNT):
                g = families[name](n, seed)
                order = rng.sample(range(n), n)
                h = graphs.Graph(n, [(order[u], order[w])
                                     for u, w in g.edges()])
                reduced = analysis._classified(h)
                value = (h.edges(), tuple(reduced[0]), analysis.nullity(h),
                         tuple(tuple(map(tuple, perturb.safe_additions(
                             h, mode, reduced))) for mode in DENSIFY_MODES))
                digest.update(("%s n=%d seed=%d %r\n"
                               % (name, n, seed, value)).encode())
                count += 1
    rng = random.Random(26)
    for k in range(_MATRICES):
        r, c = rng.randint(1, 14), rng.randint(1, 14)
        if k % 3 == 0:
            c = r
        zero = rng.choice((0.2, 0.5, 0.8))
        rows = [[0 if rng.random() < zero else rng.randint(-3, 3)
                 for _ in range(c)] for _ in range(r)]
        m = linalg.IntMatrix(rows, cols=c)
        value = (rows, linalg.rank(m), linalg.nullspace_basis(m),
                 linalg.det(m) if r == c else None)
        digest.update(("matrix %d %r\n" % (k, value)).encode())
    print(json.dumps({"digest": digest.hexdigest(), "graphs": count,
                      "matrices": _MATRICES}))


def _cases(analysis, graphs, linalg, perturb, verify):
    """Yield (key, function, argument) for every timed case."""
    families = _families(graphs)
    for family in ("tree", "gnp1/2"):
        for n in SIZES:
            g = families[family](n, 0)
            m = graphs.adjacency_matrix(g)
            for layer, fn, arg in (
                    ("linalg.rank", linalg.rank, m),
                    ("linalg.det", linalg.det, m),
                    ("linalg.nullspace_basis", linalg.nullspace_basis, m),
                    ("linalg.char_poly", linalg.char_poly, m),
                    ("analysis.classify_vertices",
                     analysis.classify_vertices, g)):
                yield ({"layer": layer, "family": family, "n": n, "seed": 0},
                       fn, arg)
    for family, n in BUILD_GRAPHS:
        g = families[family](n, 0)
        for layer, fn, arg in (
                ("graphs.parse_edge_list", graphs.parse_edge_list,
                 graphs.serialize_edge_list(g)),
                ("graphs.induced_subgraph",
                 lambda g: graphs.induced_subgraph(g, range(1, g.n)), g),
                ("graphs.subdivision", graphs.subdivision, g)):
            yield ({"layer": layer, "family": family, "n": n, "seed": 0},
                   fn, arg)
    # the labelling and the block checks of analyze, on a partition
    # computed once; every tree of SIZES at seed 0 is singular
    for n in SIZES:
        g = families["tree"](n, 0)
        yield ({"layer": "analysis.verify_block_theorems", "family": "tree",
                "n": n, "seed": 0},
               lambda g, p=analysis.classify_vertices(g):
               analysis.verify_block_theorems(g, p), g)
    for family, sizes in CLASSIFY_SIZES:
        for n in sizes:
            yield ({"layer": "analysis.classify_vertices", "family": family,
                    "n": n, "seed": 1},
                   analysis.classify_vertices, families[family](n, 1))
    tree = graphs.gen_random_tree(*DENSIFY_TREE)
    for preserve in DENSIFY_MODES:
        yield ({"layer": "perturb.greedy_densify", "family": "tree",
                "n": DENSIFY_TREE[0], "seed": DENSIFY_TREE[1],
                "preserve": preserve},
               lambda g, p=preserve: perturb.greedy_densify(g, p), tree)
    for preserve in DENSIFY_MODES:
        yield ({"layer": "perturb.safe_additions", "family": "tree",
                "n": DENSIFY_TREE[0], "seed": DENSIFY_TREE[1],
                "preserve": preserve},
               lambda g, p=preserve: perturb.safe_additions(g, p), tree)
    for suite, trials in SUITES:
        yield ({"layer": "verify.run_suite", "family": suite,
                "n": VERIFY_MAX_N, "trials": trials,
                "seeds": list(VERIFY_SEEDS)},
               lambda configs: [verify.run_suite(c) for c in configs],
               [verify.VerifySuiteConfig(suite, VERIFY_MAX_N, trials, seed)
                for seed in VERIFY_SEEDS])
    # the three reductions of the adjacency matrix, each from fresh dict
    # rows, keyed by the route linalg._is_dense picks
    rows_of = graphs._adjacency_rows

    def kernel_only(g):
        rows = rows_of(g)
        pivots, _, d = linalg._gauss_jordan_int(rows, g.n)
        return linalg._kernel_from_reduced(rows, pivots, d, g.n)

    reductions = (
        ("linalg._reduce_by_elimination",
         lambda g: linalg._reduce_by_elimination(rows_of(g), g.n)),
        ("linalg._gauss_jordan_int+_kernel_from_reduced", kernel_only),
        ("linalg._reduce_by_bordering",
         lambda g: linalg._reduce_by_bordering(rows_of(g), g.n)))
    for family in ROUTE_FAMILIES:
        for n in ROUTE_SIZES:
            g = families[family](n, 0)
            route = ("bordering" if linalg._is_dense(rows_of(g), n)
                     else "elimination")
            for layer, fn in reductions:
                yield ({"layer": layer, "family": family, "n": n, "seed": 0,
                        "edges": g.m, "route": route}, fn, g)
    yield ({"layer": "analysis.classify_vertices", "family": "tree",
            "n": LARGE_TREE[0], "seed": LARGE_TREE[1]},
           analysis.classify_vertices, graphs.gen_random_tree(*LARGE_TREE))


def _per_call(fn, arg):
    """The time per call of fn(arg): the first call alone when it takes
    RUN_TARGET_S or longer, otherwise a run of a fixed number of calls
    after it, with the garbage collector off (timeit).  When fn raises,
    as a tree whose outputs differ may, the error's name and message."""
    timer = timeit.Timer(lambda: fn(arg))
    try:
        first = timer.timeit(1)
        if first >= RUN_TARGET_S:
            return first
        number = max(1, int(RUN_TARGET_S / max(first, 1e-9)))
        return timer.timeit(number) / number
    except Exception as exc:  # recorded in place of the case's times
        return "%s: %s" % (type(exc).__name__, exc)


def _timing() -> None:
    """Print one run over every case, and the tracemalloc peak of
    classifying LARGE_TREE."""
    from nullcore import analysis, graphs, linalg, perturb, verify

    # a suite's first run imports the modules of its checks
    verify.run_suite(verify.VerifySuiteConfig("all", VERIFY_MAX_N, 1, 0))
    cases = [(key, _per_call(fn, arg)) for key, fn, arg
             in _cases(analysis, graphs, linalg, perturb, verify)]
    tree = graphs.gen_random_tree(*LARGE_TREE)
    tracemalloc.start()
    analysis.classify_vertices(tree)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps({"cases": cases, "peak": peak}))


def _src(path) -> pathlib.Path:
    src = pathlib.Path(path).resolve()
    if not (src / "nullcore" / "cli.py").is_file():
        print("no nullcore package in %s" % src, file=sys.stderr)
        sys.exit(2)
    return src


def _git(src) -> dict:
    def git(*args):
        proc = subprocess.run(["git", "-C", str(src), *args],
                              capture_output=True, text=True, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None

    return {"git_sha": git("rev-parse", "HEAD"),
            "git_dirty": bool(git("status", "--porcelain", "--", "."))}


def _verdict(ours, theirs):
    """(wins, verdict) of the per-run times ours against theirs, paired
    by run: wins counts the runs where ours is lower, ties counting for
    neither side.  The verdict is faster (slower) when ours wins (loses)
    at least 9 of every 10 runs and its median is lower (higher) by more
    than the distance between the quartiles of theirs, and overlap
    otherwise: the gain rule for paired runs of two commits."""
    wins = sum(a < b for a, b in zip(ours, theirs))
    losses = sum(a > b for a, b in zip(ours, theirs))
    low, _, high = statistics.quantiles(theirs)
    gap = statistics.median(ours) - statistics.median(theirs)
    if 10 * wins >= 9 * len(ours) and -gap > high - low:
        return wins, "faster"
    if 10 * losses >= 9 * len(ours) and gap > high - low:
        return wins, "slower"
    return wins, "overlap"


def main(argv) -> int:
    if len(argv) != 5 or argv[2] == argv[4]:
        print("usage: ab.py SRC LABEL PARENT_SRC PARENT_LABEL "
              "(two different labels)", file=sys.stderr)
        return 2
    trees = [(_src(argv[1]), argv[2]), (_src(argv[3]), argv[4])]
    with tempfile.TemporaryDirectory() as cwd:
        outputs = []
        for src, label in trees:
            rows = _fingerprints(src, cwd)
            outputs.append((rows, _call(src, "_digest", cwd)))
            print("%s: %d rows, digest %s" % (
                label, len(rows), outputs[-1][1]["digest"]), flush=True)
        (rows, digest), (parent_rows, parent_digest) = outputs
        equal = rows == parent_rows and digest == parent_digest
        print("outputs: %s" % ("equal" if equal else "DIFFER"))
        for line in difflib.unified_diff(parent_rows, rows, argv[4], argv[2],
                                         n=0, lineterm=""):
            print(line)
        runs = ([], [])
        for r in range(RUNS):
            for i in (1, 0) if r % 2 else (0, 1):
                print("run %d of %d: %s" % (r + 1, RUNS, trees[i][1]),
                      flush=True)
                runs[i].append(_call(trees[i][0], "_timing", cwd))
    records = []
    for i, ((src, label), tree_runs) in enumerate(zip(trees, runs)):
        cases = []
        for k, (key, _) in enumerate(tree_runs[0]["cases"]):
            times = [run["cases"][k][1] for run in tree_runs]
            errors = [t for t in times if isinstance(t, str)]
            if errors:
                cases.append(key | {"error": errors[0]})
                continue
            cases.append(key | {"min_s": min(times),
                                "median_s": statistics.median(times),
                                "runs_s": times})
        records.append({
            "label": label, **_git(src),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "outputs": {
                "equal": equal, "against": trees[1 - i][1],
                "cli_rows": len(outputs[i][0]),
                "cli_rows_sha256": hashlib.sha256(
                    "\n".join(outputs[i][0]).encode()).hexdigest(),
                "library": outputs[i][1]},
            "runs": RUNS,
            "classify_large_tree_tracemalloc_peak_mb": min(
                run["peak"] for run in tree_runs) / 1e6,
            "cases": cases})
    ratios = []
    verdicts = []
    for case, parent in zip(records[0]["cases"], records[1]["cases"]):
        name = "%-46s %s" % (case["layer"], " ".join(
            "%s=%s" % item for item in case.items()
            if item[0] in ("family", "n", "route", "preserve")))
        if "error" in case or "error" in parent:
            print("%s  %s" % (name, case.get("error") or parent["error"]))
            continue
        ratios.append(case["min_s"] / parent["min_s"])
        case["wins"], verdict = _verdict(case["runs_s"], parent["runs_s"])
        parent["wins"] = _verdict(parent["runs_s"], case["runs_s"])[0]
        verdicts.append(verdict)
        print("%s  min %.6f s  median %.6f s  ratio %.3f  wins %d/%d  %s" % (
            name, case["min_s"], case["median_s"], ratios[-1], case["wins"],
            RUNS, verdict))
    print("%d min ratios %s / %s: median %.3f, range %.3f to %.3f; "
          "%d flagged (%d faster, %d slower)" % (
              len(ratios), argv[2], argv[4], statistics.median(ratios),
              min(ratios), max(ratios), len(ratios) - verdicts.count("overlap"),
              verdicts.count("faster"), verdicts.count("slower")))
    for record in records:
        out = pathlib.Path("BENCH_%s.json" % record["label"])
        out.write_text(json.dumps(record, indent=1) + "\n")
        print("wrote %s" % out)
    print("outputs: %s" % ("equal" if equal else "DIFFER"))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
