"""Digest the exact results of the nullcore library on a fixed sweep.

Imports the nullcore package from the given src directory and prints
one SHA-256 over the library's exact results on:

- relabelled random trees, G(n, 1/8), G(n, 1/2), unicyclic graphs and
  G(n, 2/n), for n = 2 to 40, 48, 64, 96 and 128: every field of
  classify_vertices (the classes and the kernel basis), the d and T of
  the reduction that classified the graph (analysis._classified), T as
  its non-zero rows, which are the rows of B, each read through the
  reduction's entry and tagged with its vertex, and nullity;
- seeded signed rectangular matrices: rank, nullspace_basis and, when
  square, det.

The command line prints neither d nor T, so two checkouts whose
tools/cli_outputs.py lines agree can still differ there; two that
print the same digest here agree on every result listed.

Usage (standard library only):

    python3 tools/partition_digest.py PARENT/src
    python3 tools/partition_digest.py src
"""

import hashlib
import pathlib
import random
import sys

_SIZES = tuple(range(2, 41)) + (48, 64, 96, 128)
# (relabelled graphs per family and size) up to n = 40, and above
_SMALL_COUNT = 8
_LARGE_COUNT = 2
_MATRICES = 1500


def _families(graphs):
    """(name, smallest n, generator (n, seed) -> Graph) per family."""
    return (
        ("tree", 2, graphs.gen_random_tree),
        ("gnp1/8", 2, lambda n, seed: graphs.gen_random_graph(n, 1, 8, seed)),
        ("gnp1/2", 2, lambda n, seed: graphs.gen_random_graph(n, 1, 2, seed)),
        ("unicyclic", 3, graphs.gen_random_unicyclic),
        ("gnp2/n", 2, lambda n, seed: graphs.gen_random_graph(n, 2, n, seed)),
    )


def _graph_results(rng):
    """Yield (label, results) for every graph of the sweep."""
    from nullcore import analysis, graphs

    for name, least, gen in _families(graphs):
        for n in _SIZES:
            if n < least:
                continue
            for seed in range(_SMALL_COUNT if n <= 40 else _LARGE_COUNT):
                g = gen(n, seed)
                order = rng.sample(range(n), n)
                h = graphs.Graph(n, [(order[u], order[w])
                                     for u, w in g.edges()])
                part, d, entry = analysis._classified(h)
                t = [tuple(entry(u, w) for w in range(n)) for u in range(n)]
                yield ("%s n=%d seed=%d" % (name, n, seed),
                       (h.edges(), tuple(part), d,
                        tuple((u, row) for u, row in enumerate(t) if any(row)),
                        analysis.nullity(h)))


def _matrix_results(rng):
    """Yield (label, results) for every signed rectangular matrix."""
    from nullcore import linalg

    for k in range(_MATRICES):
        r, c = rng.randint(1, 14), rng.randint(1, 14)
        if k % 3 == 0:
            c = r
        zero = rng.choice((0.2, 0.5, 0.8))
        rows = [[0 if rng.random() < zero else rng.randint(-3, 3)
                 for _ in range(c)] for _ in range(r)]
        m = linalg.IntMatrix(rows, cols=c)
        yield ("matrix %d" % k,
               (rows, linalg.rank(m), linalg.nullspace_basis(m),
                linalg.det(m) if r == c else None))


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: partition_digest.py SRC_DIR", file=sys.stderr)
        return 1
    src = pathlib.Path(argv[1]).resolve()
    if not (src / "nullcore" / "linalg.py").is_file():
        print("no nullcore package in %s" % src, file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))
    digest = hashlib.sha256()
    counts = []
    for results in (_graph_results, _matrix_results):
        count = 0
        for label, value in results(random.Random(26)):
            text = ("%s %r\n" % (label, value)).encode()
            digest.update(text)
            count += 1
        counts.append(count)
    print("%s  %d graphs  %d matrices" % (digest.hexdigest(), *counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
