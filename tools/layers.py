"""Time the nullcore library layers of one or two src trees; write
BENCH_<label>.json for each.

Times, on fixed seeded inputs:

- linalg.rank, det, nullspace_basis and char_poly of the adjacency
  matrix, and analysis.classify_vertices of the graph, on
  gen_random_tree(n, 0) and gen_random_graph(n, 1, 2, 0) (G(n, 1/2))
  at n = 16, 32, 64 and 96;
- classify_vertices on gen_random_tree(n, 1) at n = 300, 1000 and
  4000, and on gen_random_tree(2000, 1), whose tracemalloc peak is
  recorded too, after the timed cases;
- verify.run_suite on each of the five suites at max_n = 12, with the
  trials per command of bench/workloads.py's verify commands (trees 6,
  bipartite 12, subdivisions 4, perturbations 4, unicyclic 12), one
  call running the suite once at each seed in VERIFY_SEEDS, after one
  untimed run of every suite has imported the modules of its checks;
- the route table: on random trees, random unicyclic graphs, G(n, 1/2),
  G(n, 1/4), G(n, 4/(n - 1)), random bipartite graphs and planted twins
  (G(n - 1, 1/2) plus a twin of vertex 0), seed 0, at n = 12, 16, 24,
  32, 64 and 128, the three reductions of the adjacency matrix that
  linalg has (linalg._reduce_by_elimination, the kernel-only
  elimination linalg._gauss_jordan_int plus linalg._kernel_from_reduced,
  and linalg._reduce_by_bordering), each from fresh dict rows, with the
  route linalg._is_dense picks for it.

There are RUNS runs (at least 5).  A run times every case once in a
child process per tree, which imports nullcore from that tree's src;
with two trees the children alternate, the second tree first in every
other run, so both trees see the same drift in the host's speed.  In a
child a case is timed over a number of calls chosen from its first call
so that the run lasts about 20 ms, or by that first call alone when it
takes longer.  The record of each tree gives the min and the median over
the runs of the time per call; compare mins.  With two trees the ratio
of the first tree's min to the second's is printed for every case and
route.  Times are also given scaled to the machine's nominal speed, the
way bench/run.py scales its own: bench/probe.py (fixed exact arithmetic
in a fresh interpreter, no nullcore code) is timed PROBES times before
and after the runs, and every time is multiplied by bench/run.py's
NOMINAL_PROBE_S over the median probe.  Each record also holds the
Python version, nproc and the git SHA of its src checkout (with whether
its tree had uncommitted changes).

Usage (standard library only; writes into the current directory):

    python3 tools/layers.py SRC_DIR LABEL [PARENT_SRC_DIR PARENT_LABEL]
"""

import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
import timeit
import tracemalloc

RUNS = 5
PROBES = 5
# bench/run.py's NOMINAL_PROBE_S: the probe's time on an idle core of
# the machine the benchmark's baseline was taken on
NOMINAL_PROBE_S = 0.06
SIZES = (16, 32, 64, 96)
TREE_SIZES = (300, 1000, 4000)
ROUTE_SIZES = (12, 16, 24, 32, 64, 128)
RUN_TARGET_S = 0.02
LARGE_TREE = (2000, 1)
REDUCTIONS = ("elimination_s", "kernel_only_s", "bordering_s")
# (suite, trials per command) of the benchmark's verify commands
SUITES = (("trees", 6), ("bipartite", 12), ("subdivisions", 4),
          ("perturbations", 4), ("unicyclic", 12))
VERIFY_MAX_N = 12
VERIFY_SEEDS = tuple(range(8))
PROBE = pathlib.Path(__file__).resolve().parents[1] / "bench" / "probe.py"


def _probe() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, str(PROBE)], check=True,
                   cwd=PROBE.parent, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _per_call(fn, arg) -> float:
    """The time per call of fn(arg): the first call alone when it takes
    RUN_TARGET_S or longer, otherwise a run of a fixed number of calls
    after it, with the garbage collector off (timeit)."""
    timer = timeit.Timer(lambda: fn(arg))
    first = timer.timeit(1)
    if first >= RUN_TARGET_S:
        return first
    number = max(1, int(RUN_TARGET_S / max(first, 1e-9)))
    return timer.timeit(number) / number


def _summary(times: list, scale: float) -> dict:
    low, mid = min(times), statistics.median(times)
    return {"min_s": low, "median_s": mid,
            "min_scaled_s": low * scale, "median_scaled_s": mid * scale}


def _route_table(graphs, linalg) -> list:
    """One row per family at each n in ROUTE_SIZES, seed 0: the route
    _is_dense picks and the time per call of each reduction."""
    rows_of = graphs._adjacency_rows

    def twins(n):
        g = graphs.gen_random_graph(n - 1, 1, 2, 0)
        return graphs.Graph(n, list(g.edges())
                            + [(w, n - 1) for w in g.adjacency[0]])

    families = (
        ("tree", lambda n: graphs.gen_random_tree(n, 0)),
        ("unicyclic", lambda n: graphs.gen_random_unicyclic(n, 0)),
        ("gnp1/2", lambda n: graphs.gen_random_graph(n, 1, 2, 0)),
        ("gnp1/4", lambda n: graphs.gen_random_graph(n, 1, 4, 0)),
        ("gnp4/(n-1)", lambda n: graphs.gen_random_graph(n, 4, n - 1, 0)),
        ("bipartite", lambda n: graphs.gen_random_bipartite(n, 0)),
        ("twins", twins))

    def kernel_only(g):
        rows = rows_of(g)
        pivots, _, d = linalg._gauss_jordan_int(rows, g.n)
        return linalg._kernel_from_reduced(rows, pivots, d, g.n)

    reductions = tuple(zip(REDUCTIONS, (
        lambda g: linalg._reduce_by_elimination(rows_of(g), g.n),
        kernel_only,
        lambda g: linalg._reduce_by_bordering(rows_of(g), g.n))))
    table = []
    for family, gen in families:
        for n in ROUTE_SIZES:
            g = gen(n)
            dense = linalg._is_dense(rows_of(g), n)
            table.append({"family": family, "n": n, "seed": 0,
                          "edges": g.m,
                          "route": "bordering" if dense else "elimination",
                          **{name: _per_call(fn, g)
                             for name, fn in reductions}})
    return table


def _git(src: pathlib.Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", "-C", str(src), *args],
                              capture_output=True, text=True, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None

    return {"git_sha": git("rev-parse", "HEAD"),
            "git_dirty": bool(git("status", "--porcelain", "--", "."))}


def _child(src: str) -> dict:
    """One run over every case, with nullcore imported from src."""
    sys.path.insert(0, src)
    from nullcore import analysis, graphs, linalg, verify

    cases = []
    for family, gen in (("tree", graphs.gen_random_tree),
                        ("gnp1/2", lambda n, seed: graphs.gen_random_graph(
                            n, 1, 2, seed))):
        for n in SIZES:
            g = gen(n, 0)
            m = graphs.adjacency_matrix(g)
            for layer, fn, arg in (
                    ("linalg.rank", linalg.rank, m),
                    ("linalg.det", linalg.det, m),
                    ("linalg.nullspace_basis", linalg.nullspace_basis, m),
                    ("linalg.char_poly", linalg.char_poly, m),
                    ("analysis.classify_vertices",
                     analysis.classify_vertices, g)):
                cases.append(({"layer": layer, "family": family, "n": n,
                               "seed": 0}, _per_call(fn, arg)))
    for n in TREE_SIZES:
        cases.append(({"layer": "analysis.classify_vertices",
                       "family": "tree", "n": n, "seed": 1},
                      _per_call(analysis.classify_vertices,
                                graphs.gen_random_tree(n, 1))))
    # A suite's first run imports the modules of its checks; time warm runs.
    verify.run_suite(verify.VerifySuiteConfig("all", VERIFY_MAX_N, 1, 0))
    for suite, trials in SUITES:
        configs = [verify.VerifySuiteConfig(suite, VERIFY_MAX_N, trials, seed)
                   for seed in VERIFY_SEEDS]
        cases.append(({"layer": "verify.run_suite", "family": suite,
                       "n": VERIFY_MAX_N, "trials": trials,
                       "seeds": list(VERIFY_SEEDS)},
                      _per_call(lambda c: [verify.run_suite(x) for x in c],
                                configs)))
    routes = _route_table(graphs, linalg)
    tree = graphs.gen_random_tree(*LARGE_TREE)
    large = _per_call(analysis.classify_vertices, tree)
    tracemalloc.start()
    analysis.classify_vertices(tree)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"cases": cases, "routes": routes, "large": large, "peak": peak}


def _run_child(src: pathlib.Path) -> dict:
    """_child(src) in a fresh interpreter."""
    code = ("import json, sys; sys.path.insert(0, %r); import layers; "
            "print(json.dumps(layers._child(%r)))"
            % (str(pathlib.Path(__file__).resolve().parent), str(src)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def _record(label, src, runs, probes, scale) -> dict:
    """The BENCH record of one tree from its runs."""
    cases = [key | _summary([run["cases"][i][1] for run in runs], scale)
             for i, (key, _) in enumerate(runs[0]["cases"])]
    routes = [row | {name: min(run["routes"][i][name] for run in runs)
                     for name in REDUCTIONS}
              for i, row in enumerate(runs[0]["routes"])]
    return {
        "label": label,
        **_git(src),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "runs": len(runs),
        "nominal_probe_s": NOMINAL_PROBE_S,
        "probes_s": probes,
        "scale": scale,
        "cases": cases,
        "classify_large_tree": {
            "layer": "analysis.classify_vertices", "family": "tree",
            "n": LARGE_TREE[0], "seed": LARGE_TREE[1],
            **_summary([run["large"] for run in runs], scale),
            "tracemalloc_peak_mb": min(run["peak"] for run in runs) / 1e6},
        "routes": routes,
    }


def _print(records) -> None:
    """The mins of each record, with the first over the second's when
    there are two."""
    def ratio(a, b):
        return "  ratio %.3f" % (a / b) if b else ""

    first, *other = records
    for i, case in enumerate(first["cases"]):
        print("%-28s %-7s n=%-4d min %.6f s  median %.6f s%s" % (
            case["layer"], case["family"], case["n"], case["min_s"],
            case["median_s"],
            "".join(ratio(case["min_s"], o["cases"][i]["min_s"])
                    for o in other)))
    print("%-10s %4s %5s %-11s %12s %12s %12s" % (
        "family", "n", "edges", "route", "elim ms", "kernel ms",
        "border ms"))
    for i, row in enumerate(first["routes"]):
        print("%-10s %4d %5d %-11s %12.3f %12.3f %12.3f%s" % (
            row["family"], row["n"], row["edges"], row["route"],
            *(1e3 * row[name] for name in REDUCTIONS),
            "".join(ratio(row[name], o["routes"][i][name])
                    for o in other for name in REDUCTIONS)))
    large = first["classify_large_tree"]
    print("classify_vertices tree n=%d: min %.3f s, peak %.1f MB%s" % (
        LARGE_TREE[0], large["min_s"], large["tracemalloc_peak_mb"],
        "".join(ratio(large["min_s"], o["classify_large_tree"]["min_s"])
                for o in other)))


def main(argv) -> int:
    if len(argv) not in (3, 5):
        print("usage: layers.py SRC_DIR LABEL [PARENT_SRC_DIR PARENT_LABEL]",
              file=sys.stderr)
        return 1
    trees = [(pathlib.Path(src).resolve(), label)
             for src, label in zip(argv[1::2], argv[2::2])]
    for src, _ in trees:
        if not (src / "nullcore" / "linalg.py").is_file():
            print("no nullcore package in %s" % src, file=sys.stderr)
            return 1
    probes = [_probe() for _ in range(PROBES)]
    runs = [[] for _ in trees]
    order = list(range(len(trees)))
    for r in range(RUNS):
        for i in order[::-1] if r % 2 else order:
            runs[i].append(_run_child(trees[i][0]))
    probes += [_probe() for _ in range(PROBES)]
    scale = NOMINAL_PROBE_S / statistics.median(probes)
    records = [_record(label, src, tree_runs, probes, scale)
               for (src, label), tree_runs in zip(trees, runs)]
    _print(records)
    for record in records:
        out = pathlib.Path("BENCH_%s.json" % record["label"])
        out.write_text(json.dumps(record, indent=1) + "\n")
        print("wrote %s (scale %.3f)" % (out, scale))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
