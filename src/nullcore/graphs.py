"""Immutable simple-graph model: construction, mutation-by-copy, structural
predicates, deterministic generators, and edge-list/DOT serialization.

Vertices are dense 0-based labels.  Every operation returns new values; a
Graph never changes after construction, so values are safe to share across
threads.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import (
    DuplicateEdgeError,
    EdgeListParseError,
    MalformedHeaderError,
    PreconditionError,
    SelfLoopError,
    VertexRangeError,
)
from .linalg import IntMatrix
from .rng import SplitMix64

# Largest vertex count parse_edge_list accepts.  The header alone sizes
# the adjacency lists, so a larger n is rejected before any allocation.
MAX_VERTICES = 100_000


class Graph:
    """Simple undirected graph: no loops, no multiple edges.

    Adjacency lists are sorted ascending; the structure is frozen at
    construction time.
    """

    __slots__ = ("n", "adjacency", "_edge_count")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [set() for _ in range(n)]
        count = 0
        for u, w in edges:
            if not (0 <= u < n and 0 <= w < n):
                raise ValueError(f"edge ({u},{w}) out of range for n={n}")
            if u == w:
                raise ValueError(f"self-loop at vertex {u}")
            if w in adj[u]:
                raise ValueError(f"duplicate edge ({u},{w})")
            adj[u].add(w)
            adj[w].add(u)
            count += 1
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "adjacency", tuple(tuple(sorted(s)) for s in adj)
        )
        object.__setattr__(self, "_edge_count", count)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def m(self) -> int:
        return self._edge_count

    def neighbours(self, v: int) -> tuple:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, w: int) -> bool:
        if not (0 <= u < self.n and 0 <= w < self.n):
            return False
        return w in self.adjacency[u]

    def edges(self) -> tuple:
        """Edges as (min, max) pairs in lexicographic order."""
        return tuple(
            (u, w) for u in range(self.n) for w in self.adjacency[u] if u < w
        )

    def vertices(self) -> tuple:
        return tuple(range(self.n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adjacency == other.adjacency
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


@dataclass(frozen=True)
class VertexProvenance:
    """Maps each vertex of a derived graph back to its source.

    Entries are ("vertex", old_label) for surviving vertices and
    ("edge", (u, w)) for vertices inserted on an edge.
    """

    to_source: tuple

    def __post_init__(self):
        seen = set()
        for tag in self.to_source:
            if tag[0] == "vertex":
                if tag[1] in seen:
                    raise ValueError("provenance not injective on vertices")
                seen.add(tag[1])

    def source_vertex(self, v: int):
        tag = self.to_source[v]
        return tag[1] if tag[0] == "vertex" else None

    def source_edge(self, v: int):
        tag = self.to_source[v]
        return tag[1] if tag[0] == "edge" else None

    def vertex_map(self) -> dict:
        """new label -> old label, for vertices that survive from the source."""
        return {
            i: tag[1]
            for i, tag in enumerate(self.to_source)
            if tag[0] == "vertex"
        }


@dataclass(frozen=True)
class BipartiteDecomposition:
    """A 2-colouring (V1, V2) plus the cross-edge matrix between the classes.

    cross(i, j) = 1 iff the i-th vertex of sorted V1 is adjacent to the j-th
    vertex of sorted V2.
    """

    v1: tuple
    v2: tuple
    cross: IntMatrix


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" edge-list format; '#' lines are comments.

    Raises a distinct error (with the offending line number) for a malformed
    header, an out-of-range vertex, a self-loop, or a duplicate edge.  A
    header n above MAX_VERTICES counts as malformed.
    """
    meaningful = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        meaningful.append((idx, stripped))
    if not meaningful:
        raise MalformedHeaderError(1, "missing 'n m' header")
    head_no, head = meaningful[0]
    parts = head.split()
    if len(parts) != 2:
        raise MalformedHeaderError(head_no, f"expected 'n m', got {head!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise MalformedHeaderError(head_no, f"expected 'n m', got {head!r}")
    if n < 0 or m < 0:
        raise MalformedHeaderError(head_no, "counts must be non-negative")
    if n > MAX_VERTICES:
        raise MalformedHeaderError(
            head_no, f"vertex count {n} exceeds the limit {MAX_VERTICES}"
        )
    body = meaningful[1:]
    if len(body) != m:
        where = body[m][0] if len(body) > m else head_no
        raise EdgeListParseError(
            where, f"header promises {m} edges, found {len(body)}"
        )
    edges = []
    seen = set()
    for line_no, line in body:
        fields = line.split()
        ok = len(fields) == 2
        u = w = -1
        if ok:
            try:
                u, w = int(fields[0]), int(fields[1])
            except ValueError:
                ok = False
        if not ok:
            raise EdgeListParseError(line_no, f"expected 'u w', got {line!r}")
        if not (0 <= u < n and 0 <= w < n):
            raise VertexRangeError(
                line_no, f"vertex out of range 0..{n - 1}: {line!r}"
            )
        if u == w:
            raise SelfLoopError(line_no, f"self-loop at vertex {u}")
        key = (min(u, w), max(u, w))
        if key in seen:
            raise DuplicateEdgeError(line_no, f"duplicate edge {key}")
        seen.add(key)
        edges.append(key)
    return Graph(n, edges)


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list: header then edges in lexicographic order."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {w}" for u, w in g.edges())
    return "\n".join(lines) + "\n"


def add_edge(g: Graph, u: int, w: int) -> Graph:
    if u == w:
        raise ValueError("cannot add a self-loop")
    if not (0 <= u < g.n and 0 <= w < g.n):
        raise ValueError(f"vertex out of range: ({u},{w})")
    if g.has_edge(u, w):
        raise ValueError(f"edge ({u},{w}) already present")
    return Graph(g.n, g.edges() + ((min(u, w), max(u, w)),))


def delete_edge(g: Graph, u: int, w: int) -> Graph:
    if u == w:
        raise ValueError("no self-loops to delete")
    if not g.has_edge(u, w):
        raise ValueError(f"edge ({u},{w}) not present")
    key = (min(u, w), max(u, w))
    return Graph(g.n, [e for e in g.edges() if e != key])


def induced_subgraph(g: Graph, keep) -> tuple:
    """Subgraph induced on `keep`, labels compacted in ascending order.

    Returns (graph, provenance); provenance maps new labels to the old ones.
    """
    kept = sorted(set(keep))
    for v in kept:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    new_label = {old: i for i, old in enumerate(kept)}
    keep_set = set(kept)
    edges = [
        (new_label[u], new_label[w])
        for u, w in g.edges()
        if u in keep_set and w in keep_set
    ]
    prov = VertexProvenance(tuple(("vertex", old) for old in kept))
    return Graph(len(kept), edges), prov


def delete_vertex(g: Graph, v: int) -> tuple:
    """Graph with v (and its edges) removed; labels compacted."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return induced_subgraph(g, (u for u in range(g.n) if u != v))


def subdivision(g: Graph) -> tuple:
    """Insert one degree-2 vertex into every edge of a connected graph.

    Original vertices keep their labels; inserted vertices follow, in the
    lexicographic order of the edges they split.
    """
    if not is_connected(g):
        raise PreconditionError("subdivision requires a connected graph")
    edges = g.edges()
    new_edges = []
    tags = [("vertex", v) for v in range(g.n)]
    for k, (u, w) in enumerate(edges):
        mid = g.n + k
        tags.append(("edge", (u, w)))
        new_edges.append((u, mid))
        new_edges.append((w, mid))
    return Graph(g.n + len(edges), new_edges), VertexProvenance(tuple(tags))


def is_connected(g: Graph) -> bool:
    return _component_count(g) <= 1


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.m == g.n - 1 and is_connected(g)


def is_forest(g: Graph) -> bool:
    """Acyclic, possibly disconnected."""
    return g.m == g.n - _component_count(g)


def _component_count(g: Graph) -> int:
    seen = [False] * g.n
    count = 0
    for start in range(g.n):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def is_unicyclic(g: Graph):
    """The unique cycle of a connected graph with n = m, else None.

    The cycle is listed from its minimum vertex, proceeding towards that
    vertex's smaller cycle-neighbour.
    """
    if g.n == 0 or g.m != g.n or not is_connected(g):
        return None
    degree = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    queue = [v for v in range(g.n) if degree[v] == 1]
    while queue:
        v = queue.pop()
        alive[v] = False
        for w in g.adjacency[v]:
            if alive[w]:
                degree[w] -= 1
                if degree[w] == 1:
                    queue.append(w)
    cycle_vertices = [v for v in range(g.n) if alive[v]]
    start = min(cycle_vertices)
    on_cycle = set(cycle_vertices)
    first = min(w for w in g.adjacency[start] if w in on_cycle)
    cycle = [start, first]
    prev, cur = start, first
    while cur != start:
        nxt = next(
            w for w in g.adjacency[cur] if w in on_cycle and w != prev
        )
        if nxt == start:
            break
        cycle.append(nxt)
        prev, cur = cur, nxt
    return cycle


def is_bipartite(g: Graph):
    """A BipartiteDecomposition, or None if some cycle is odd.

    Per component, the class containing the lowest-labelled vertex goes
    into V1.
    """
    colour = [None] * g.n
    for start in range(g.n):
        if colour[start] is not None:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.adjacency[v]:
                if colour[w] is None:
                    colour[w] = 1 - colour[v]
                    stack.append(w)
                elif colour[w] == colour[v]:
                    return None
    v1 = tuple(v for v in range(g.n) if colour[v] == 0)
    v2 = tuple(v for v in range(g.n) if colour[v] == 1)
    index2 = {w: j for j, w in enumerate(v2)}
    cross = IntMatrix(
        [
            [1 if w in index2 and g.has_edge(u, w) else 0 for w in v2]
            for u in v1
        ],
        cols=len(v2),
    )
    return BipartiteDecomposition(v1=v1, v2=v2, cross=cross)


def adjacency_matrix(g: Graph) -> IntMatrix:
    rows = []
    for v in range(g.n):
        row = [0] * g.n
        for w in g.adjacency[v]:
            row[w] = 1
        rows.append(row)
    return IntMatrix(rows, cols=g.n)


def incidence_matrix(g: Graph) -> IntMatrix:
    """Vertex-edge incidence matrix, edges in lexicographic order."""
    edges = g.edges()
    rows = [[0] * len(edges) for _ in range(g.n)]
    for k, (u, w) in enumerate(edges):
        rows[u][k] = 1
        rows[w][k] = 1
    return IntMatrix(rows, cols=len(edges))


def gen_path(n: int) -> Graph:
    _positive(n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_star(n: int) -> Graph:
    """Star with centre 0 and n-1 leaves."""
    _positive(n)
    return Graph(n, [(0, i) for i in range(1, n)])


def gen_random_tree(n: int, seed: int) -> Graph:
    """Uniform random labelled tree: random Pruefer sequence, decoded with
    the smallest-leaf rule.  Same (n, seed) always gives the same tree."""
    _positive(n)
    if n == 1:
        return Graph(1)
    if n == 2:
        return Graph(2, [(0, 1)])
    rng = SplitMix64(seed)
    seq = [rng.below(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        v = heapq.heappop(leaves)
        edges.append((min(v, x), max(v, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((min(u, w), max(u, w)))
    return Graph(n, edges)


def gen_random_graph(
    n: int, p_numerator: int, p_denominator: int, seed: int
) -> Graph:
    """Each of the n(n-1)/2 possible edges is kept independently with
    probability p_numerator/p_denominator."""
    _positive(n)
    if p_denominator <= 0 or not 0 <= p_numerator <= p_denominator:
        raise ValueError("edge probability must satisfy 0 <= num <= den")
    rng = SplitMix64(seed)
    edges = []
    for u in range(n):
        for w in range(u + 1, n):
            if rng.below(p_denominator) < p_numerator:
                edges.append((u, w))
    return Graph(n, edges)


def gen_random_bipartite(n: int, seed: int) -> Graph:
    """Random bipartite graph: vertices split by coin flips (both sides kept
    non-empty for n >= 2), each cross pair kept with probability 1/2."""
    _positive(n)
    rng = SplitMix64(seed)
    side = [rng.below(2) for _ in range(n)]
    if n >= 2 and len(set(side)) == 1:
        side[n - 1] ^= 1
    edges = []
    for u in range(n):
        for w in range(u + 1, n):
            if side[u] != side[w] and rng.below(2) == 0:
                edges.append((u, w))
    return Graph(n, edges)


def gen_random_unicyclic(n: int, seed: int) -> Graph:
    """Random tree plus one uniformly chosen extra edge (needs n >= 3)."""
    if n < 3:
        raise ValueError("a unicyclic graph needs n >= 3")
    rng = SplitMix64(seed)
    tree = gen_random_tree(n, rng.next_u64())
    non_edges = [
        (u, w)
        for u in range(n)
        for w in range(u + 1, n)
        if not tree.has_edge(u, w)
    ]
    return add_edge(tree, *non_edges[rng.below(len(non_edges))])


def _positive(n: int):
    if n < 1:
        raise ValueError("generator needs n >= 1")


def to_dot(g: Graph, partition=None) -> str:
    """DOT text; with a partition each vertex carries a "part" attribute.

    When the partition has labelling semantics (independent core vertices)
    the parts are cv/ncv/cfvr, otherwise cv/cfv_mid/cfv_upp.
    """
    lines = ["graph G {"]
    if partition is None:
        lines.extend(f"  {v};" for v in range(g.n))
    else:
        lines.extend(
            f'  {v} [part={partition.part_tag(v)}];' for v in range(g.n)
        )
    lines.extend(f"  {u} -- {w};" for u, w in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
