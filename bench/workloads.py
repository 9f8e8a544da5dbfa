"""Seeded inputs and fixed command lists for the two benchmark workloads.

Every workload turns a seed into edge-list files and a list of CLI
commands (one "pass").  The graph generators here are the benchmark's own
(stdlib ``random``), so a change to the package's generators never changes
what the benchmark feeds it.  Sizes and counts are fixed per workload and
stratified where one input property dominates the cost, so that every seed
does about the same amount of work.
"""

import heapq
import random
from dataclasses import dataclass, field

from reference import core_of, kernel_basis


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple  # sorted (u, w) pairs with u < w

    def text(self) -> str:
        lines = ["%d %d" % (self.n, len(self.edges))]
        lines.extend("%d %d" % e for e in self.edges)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  ``graph`` names the input file it reads (None
    for verify); ``trials`` is the verify trial count (0 otherwise)."""

    key: str
    argv: tuple
    graph: str = None
    trials: int = 0


@dataclass
class Workload:
    """``tail_pct`` is the percentile ``cmd_tail_s`` reports.  It is fixed
    per workload, so it is the same on every commit, and chosen so that
    the samples beyond it end inside one group of like commands rather
    than at the edge between two groups of different cost."""

    tail_pct: int
    graphs: dict = field(default_factory=dict)  # file name -> Graph
    commands: list = field(default_factory=list)

    def add_graph(self, name: str, g: Graph) -> str:
        self.graphs[name] = g
        return name

    def add(self, argv, graph=None, trials=0):
        self.commands.append(
            Command(" ".join(argv), tuple(argv), graph, trials))


def _canonical(n, edges, rng) -> Graph:
    """Relabel vertices at random so label order carries no structure."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = set()
    for u, w in edges:
        a, b = perm[u], perm[w]
        out.add((min(a, b), max(a, b)))
    return Graph(n, tuple(sorted(out)))


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform labelled tree, decoded from a random Pruefer sequence."""
    if n == 1:
        return Graph(1, ())
    if n == 2:
        return Graph(2, ((0, 1),))
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return _canonical(n, edges, rng)


def random_unicyclic(n: int, rng: random.Random) -> Graph:
    """A uniform tree plus one chord between two non-adjacent vertices."""
    tree = random_tree(n, rng)
    present = set(tree.edges)
    while True:
        u, w = sorted(rng.sample(range(n), 2))
        if (u, w) not in present:
            return Graph(n, tuple(sorted(present | {(u, w)})))


def gnp_half(n: int, rng: random.Random) -> Graph:
    edges = [
        (u, w) for u in range(n) for w in range(u + 1, n)
        if rng.random() < 0.5
    ]
    return Graph(n, tuple(edges))


def planted_twin(n: int, rng: random.Random) -> Graph:
    """G(n-1, 1/2) plus a copy x of a random vertex v: x gets v's
    neighbours and no edge to v, so e_v - e_x is a kernel vector."""
    base = gnp_half(n - 1, rng)
    v = rng.randrange(n - 1)
    x = n - 1
    twins = tuple((u if w == v else w, x) for u, w in base.edges
                  if v in (u, w))
    return _canonical(n, base.edges + twins, rng)


def _forest_matching(adj, skip=-1) -> int:
    """Maximum matching of a forest (minus vertex ``skip``) by repeatedly
    matching a leaf to its neighbour, which is optimal on forests."""
    n = len(adj)
    alive = [v != skip for v in range(n)]
    degree = [sum(alive[w] for w in adj[v]) if alive[v] else 0
              for v in range(n)]
    leaves = [v for v in range(n) if alive[v] and degree[v] == 1]
    size = 0
    while leaves:
        leaf = leaves.pop()
        if not alive[leaf] or degree[leaf] != 1:
            continue
        partner = next(w for w in adj[leaf] if alive[w])
        size += 1
        for gone in (leaf, partner):
            alive[gone] = False
            for w in adj[gone]:
                if alive[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        leaves.append(w)
    return size


def profile(g: Graph) -> tuple:
    """(nullity, core size, core-neighbour count), the input properties
    that set the cost of perturbation screening.  Trees use matching
    numbers (eta = n - 2 nu; v is a core vertex iff nu(T - v) = nu(T));
    other graphs an exact rational kernel."""
    adj = [[] for _ in range(g.n)]
    for u, w in g.edges:
        adj[u].append(w)
        adj[w].append(u)
    if len(g.edges) == g.n - 1:
        nu = _forest_matching(adj)
        eta = g.n - 2 * nu
        core = {v for v in range(g.n) if _forest_matching(adj, v) == nu}
    else:
        basis = kernel_basis(g.n, g.edges)
        eta, core = len(basis), core_of(basis)
    ncv = {v for v in range(g.n)
           if v not in core and any(w in core for w in adj[v])}
    return eta, len(core), len(ncv)


def sample(make, n: int, rng: random.Random, stratum: tuple) -> Graph:
    """Draw make(n, rng) until its profile() equals ``stratum``."""
    while True:
        g = make(n, rng)
        if profile(g) == stratum:
            return g


# Two workloads: ``analyze`` reads graphs of 16-96 vertices (large
# matrices, one elimination pipeline per command) and ``perturb_verify``
# works on graphs of at most 12 vertices (thousands of tiny matrices, the
# perturbation write path and the identity checks).  Each pass takes
# 10-15 seconds, so a run of 45 s makes three or four passes.

# Trees: (n, number of trees, commands) per pass.  The costliest commands,
# reduce --slim and mc, stop below n = 96.  Unicyclic graphs run only
# analyze and mc, because slim_reduce is not guaranteed off trees and
# pendant reduction needs a forest.
_ALL = ("analyze", "slim", "pendant", "mc")
_SPARSE_TREES = ((16, 1, _ALL), (32, 2, _ALL), (64, 1, _ALL),
                 (96, 1, ("analyze", "pendant")))
_SPARSE_UNICYCLIC = ((32, 1),)
_SPARSE_ARGV = {"analyze": ("analyze",), "slim": ("reduce", "--slim"),
                "pendant": ("reduce", "--pendant"), "mc": ("mc",)}

# G(n, 1/2): (n, graphs) per pass; every second graph, starting with the
# first, has a planted twin, so a size with one graph is singular.
_DENSE = ((16, 2), (32, 2), (48, 4), (64, 1))


def analyze(rng: random.Random) -> Workload:
    # beyond p86: the n = 64 and n = 96 analyses and half the n = 48 ones
    w = Workload(tail_pct=86)
    for n, count, commands in _SPARSE_TREES:
        for i in range(count):
            name = w.add_graph("tree%d_%d.g" % (n, i), random_tree(n, rng))
            for cmd in commands:
                verb, *flags = _SPARSE_ARGV[cmd]
                w.add((verb, name, *flags), name)
    for n, count in _SPARSE_UNICYCLIC:
        for i in range(count):
            name = w.add_graph("uni%d_%d.g" % (n, i),
                               random_unicyclic(n, rng))
            w.add(("analyze", name), name)
            w.add(("mc", name), name)
    for n, count in _DENSE:
        for i in range(count):
            if i % 2 == 0:
                name = w.add_graph("twin%d_%d.g" % (n, i),
                                   planted_twin(n, rng))
            else:
                name = w.add_graph("gnp%d_%d.g" % (n, i), gnp_half(n, rng))
            w.add(("analyze", name), name)
    return w


# Densify: (generator, n, (nullity, core size, core-neighbour count),
# graphs per mode) per pass.  Greedy densification cost is set by how many
# candidates the partition admits, so each graph is drawn from a fixed
# stratum: within one the cost varies by about 20 %, across strata by 10x.
# Every mode gets its own graphs, so the six --densify commands on trees,
# the costliest of the workload, run on six independent draws.  A graph
# with nullity 1 and a core of two vertices has the two as non-adjacent
# twins (their columns are equal), so the dense graphs of that stratum are
# drawn as a planted twin on G(7, 1/2), far fewer rejections than drawing
# G(8, 1/2) until one is singular.
# Non-singular trees (2 s for the three modes at n = 8, 13 s at n = 10) and
# trees with n = 10-12 (2-7 s) would take most of a pass.
_DENSIFY = (
    ("tree", random_tree, 9, (1, 2, 1), 2),
    ("twin", planted_twin, 8, (1, 2, 3), 1),
)
_PRESERVE = ("nullity", "cv", "nullspace")

# Verify: (suite, commands, trials per command) per pass.  A perturbations
# trial costs about 30 bipartite ones and varies most from one drawn graph
# to the next, so that suite gets the most commands.  The other suites run
# as short commands, mostly process start-up; with the --list commands
# they make 29 of the 50 commands, so cmd_p50_s falls inside that group of
# like cost instead of at its edge, where it would jump with the seed.
_VERIFY = (("trees", 4, 6), ("bipartite", 6, 12), ("subdivisions", 4, 4),
           ("perturbations", 12, 4), ("unicyclic", 6, 12))
_VERIFY_MAX_N = 12


def perturb_verify(rng: random.Random) -> Workload:
    # beyond p93: about half the --densify commands on the n = 9 trees
    w = Workload(tail_pct=93)
    for mode in _PRESERVE:
        for kind, make, n, stratum, count in _DENSIFY:
            for _ in range(count):
                name = w.add_graph("%s%d_%d.g" % (kind, n, len(w.graphs)),
                                   sample(make, n, rng, stratum))
                for action in ("--list", "--densify"):
                    w.add(("perturb", name, "--preserve", mode, action),
                          name)
    for suite, commands, trials in _VERIFY:
        for _ in range(commands):
            seed = rng.getrandbits(32)
            w.add(("verify", "--suite", suite, "--trials", str(trials),
                   "--max-n", str(_VERIFY_MAX_N), "--seed", str(seed)),
                  trials=trials)
    return w


WORKLOADS = {
    "analyze": analyze,
    "perturb_verify": perturb_verify,
}


def build(workload: str, seed: int) -> Workload:
    """Same (workload, seed) -> same graphs and commands."""
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)))
