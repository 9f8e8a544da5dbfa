"""Immutable simple-graph model: construction, mutation-by-copy, structural
predicates, deterministic generators, and edge-list/DOT serialization.

Vertices are dense 0-based labels.  Every operation returns new values; a
Graph never changes after construction, so values are safe to share across
threads.
"""

from .errors import (
    DuplicateEdgeError,
    EdgeListParseError,
    MalformedHeaderError,
    PreconditionError,
    SelfLoopError,
    VertexRangeError,
)
from .linalg import IntMatrix, Record

# Largest n that parse_edge_list and the generators accept; n alone
# sizes the adjacency lists, so a larger n is refused before allocation.
MAX_VERTICES = 100_000
# gen_random_graph and gen_random_bipartite visit all n(n-1)/2 vertex
# pairs, so each refuses n above its own, lower limit; at the limit each
# draws about a million edges in a few seconds.
MAX_RANDOM_GRAPH_VERTICES = 2_000
MAX_RANDOM_BIPARTITE_VERTICES = 2_800


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
        for u, w in edges:
            if not (0 <= u < n and 0 <= w < n):
                raise ValueError(f"edge ({u},{w}) out of range for n={n}")
            if u == w:
                raise ValueError(f"self-loop at vertex {u}")
            if w in adj[u]:
                raise ValueError(f"duplicate edge ({u},{w})")
            adj[u].add(w)
            adj[w].add(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "adjacency", tuple(tuple(sorted(s)) for s in adj)
        )
        object.__setattr__(self, "_edge_count", sum(map(len, adj)) // 2)

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


class VertexProvenance(Record):
    """Maps each vertex of a derived graph back to its source.

    Entries are ("vertex", old_label) for surviving vertices and
    ("edge", (u, w)) for vertices inserted on an edge.
    """

    to_source: tuple

    def __new__(cls, to_source):
        seen = set()
        for tag in to_source:
            if tag[0] == "vertex":
                if tag[1] in seen:
                    raise ValueError("provenance not injective on vertices")
                seen.add(tag[1])
        return super().__new__(cls, to_source)

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


class BipartiteDecomposition(Record):
    """A 2-colouring (V1, V2) plus the cross-edge matrix between the classes.

    cross(i, j) = 1 iff the i-th vertex of sorted V1 is adjacent to the j-th
    vertex of sorted V2.
    """

    v1: tuple
    v2: tuple
    cross: IntMatrix


def _graph(n: int, adjacency, m: int) -> Graph:
    """The Graph with n vertices, m edges and these neighbour lists,
    frozen without checks: each list must be a sorted tuple of distinct
    vertices other than its own, and the lists symmetric.  The package
    builds them from a graph or an input it has checked already."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adjacency", tuple(adjacency))
    object.__setattr__(g, "_edge_count", m)
    return g


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" edge-list format; '#' lines are comments.

    Raises a distinct error (with the offending line number) for a malformed
    header, an out-of-range vertex, a self-loop, or a duplicate edge.  A
    header n above MAX_VERTICES counts as malformed.  A number is ASCII
    digits after an optional minus sign: a line with '+', '_' or any
    non-ASCII character is malformed, though int() would read it.
    """
    meaningful = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        plain = line.isascii() and "_" not in line and "+" not in line
        meaningful.append((idx, line, plain))
    if not meaningful:
        raise MalformedHeaderError(1, "missing 'n m' header")
    # unpacking two ints raises ValueError on a line with another count
    # of fields, as int() does on a field that is not a number
    head_no, head, plain = meaningful[0]
    try:
        n, m = map(int, head.split())
    except ValueError:
        plain = False
    if not plain:
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
    adjacency = [set() for _ in range(n)]
    for line_no, line, plain in body:
        try:
            u, w = map(int, line.split())
        except ValueError:
            plain = False
        if not plain:
            raise EdgeListParseError(line_no, f"expected 'u w', got {line!r}")
        if not (0 <= u < n and 0 <= w < n):
            raise VertexRangeError(
                line_no, f"vertex out of range 0..{n - 1}: {line!r}"
            )
        if u == w:
            raise SelfLoopError(line_no, f"self-loop at vertex {u}")
        if w in adjacency[u]:
            raise DuplicateEdgeError(line_no, "duplicate edge (%d, %d)"
                                     % (min(u, w), max(u, w)))
        adjacency[u].add(w)
        adjacency[w].add(u)
    return _graph(n, [tuple(sorted(s)) for s in adjacency], m)


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list: header then edges in lexicographic order."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {w}" for u, w in g.edges())
    return "\n".join(lines) + "\n"


def _flipped(g: Graph, u: int, w: int) -> Graph:
    """g with the pair uw flipped, added when absent and deleted when
    present, built from g's adjacency lists without checking them again:
    u and w must be distinct vertices of g."""
    adjacency = list(g.adjacency)
    present = w in adjacency[u]
    for a, b in ((u, w), (w, u)):
        row = adjacency[a]
        adjacency[a] = (tuple(x for x in row if x != b) if present
                        else tuple(sorted(row + (b,))))
    return _graph(g.n, adjacency, g.m - 1 if present else g.m + 1)


def add_edge(g: Graph, u: int, w: int) -> Graph:
    """g plus the edge uw (_flipped).  A self-loop, an endpoint out of
    range or an edge already present goes to Graph, which raises its
    ValueError for the edge (min(u, w), max(u, w))."""
    a, b = min(u, w), max(u, w)
    if not 0 <= a < b < g.n or b in g.adjacency[a]:
        return Graph(g.n, g.edges() + ((a, b),))
    return _flipped(g, a, b)


def delete_edge(g: Graph, u: int, w: int) -> Graph:
    """g without the edge uw (_flipped); ValueError when uw is not an
    edge of g, a self-loop or an endpoint out of range included."""
    if not g.has_edge(u, w):
        raise ValueError(f"edge ({u},{w}) not present")
    return _flipped(g, u, w)


def induced_subgraph(g: Graph, keep) -> tuple:
    """Subgraph induced on `keep`, labels compacted in ascending order.

    Returns (graph, provenance); provenance maps new labels to the old ones.
    """
    kept = sorted(set(keep))
    for v in kept:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    # relabelling keeps the order, so every filtered list stays sorted
    new_label = {old: i for i, old in enumerate(kept)}
    adjacency = [
        tuple(new_label[w] for w in g.adjacency[v] if w in new_label)
        for v in kept
    ]
    prov = VertexProvenance(tuple(("vertex", old) for old in kept))
    return _graph(len(kept), adjacency, sum(map(len, adjacency)) // 2), prov


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
    # each vertex meets the inserted vertices in edge order, ascending,
    # and each inserted vertex is adjacent to the ends u < w of its edge
    edges = g.edges()
    adjacency = [[] for _ in range(g.n)]
    for mid, (u, w) in enumerate(edges, start=g.n):
        adjacency[u].append(mid)
        adjacency[w].append(mid)
    h = _graph(g.n + len(edges), [*map(tuple, adjacency), *edges],
               2 * len(edges))
    tags = [("vertex", v) for v in range(g.n)] + [("edge", e) for e in edges]
    return h, VertexProvenance(tuple(tags))


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
    cycle = [start]
    prev, cur = start, first
    while cur != start:
        cycle.append(cur)
        prev, cur = cur, next(
            w for w in g.adjacency[cur] if w in on_cycle and w != prev
        )
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
    return BipartiteDecomposition(v1=v1, v2=v2, cross=_block(g, v1, v2))


def _block(g: Graph, rows, cols) -> IntMatrix:
    """The submatrix of A(g) on the given rows and columns, in order.

    Each row is set from the row vertex's adjacency list, so it costs
    its degree plus the row's allocation.
    """
    column = {w: j for j, w in enumerate(cols)}
    block = []
    for u in rows:
        row = [0] * len(cols)
        for w in g.adjacency[u]:
            if w in column:
                row[column[w]] = 1
        block.append(row)
    return IntMatrix(block, cols=len(cols))


def _adjacency_rows(g: Graph) -> list:
    """The rows of A(g) as new dicts {column: 1}, in column order, for
    an elimination in place."""
    return [dict.fromkeys(neighbours, 1) for neighbours in g.adjacency]


def adjacency_matrix(g: Graph) -> IntMatrix:
    return _block(g, range(g.n), range(g.n))


def incidence_matrix(g: Graph) -> IntMatrix:
    """Vertex-edge incidence matrix, edges in lexicographic order."""
    edges = g.edges()
    rows = [[0] * len(edges) for _ in range(g.n)]
    for k, (u, w) in enumerate(edges):
        rows[u][k] = 1
        rows[w][k] = 1
    return IntMatrix(rows, cols=len(edges))


def gen_path(n: int) -> Graph:
    _check_size(n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    _check_size(n, 3, "a cycle")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_star(n: int) -> Graph:
    """Star with centre 0 and n-1 leaves."""
    _check_size(n)
    return Graph(n, [(0, i) for i in range(1, n)])


def gen_random_tree(n: int, seed: int) -> Graph:
    """Uniform random labelled tree: random Pruefer sequence, decoded with
    the smallest-leaf rule.  Same (n, seed) always gives the same tree.

    The decoder runs in linear time: a pointer moves up through the
    vertices to the next leaf, and a vertex that becomes a leaf below
    the pointer is the smallest leaf at once, so it is taken next.
    """
    _check_size(n)
    if n == 1:
        return Graph(1)
    # the rng is imported by the generators that use it, so the commands
    # that only read a graph never load it
    from .rng import SplitMix64

    rng = SplitMix64(seed)
    seq = [rng.below(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    ptr = degree.index(1)
    leaf = ptr
    edges = []
    for x in seq:
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr = degree.index(1, ptr + 1)
            leaf = ptr
    edges.append((leaf, n - 1))
    return Graph(n, edges)


def gen_random_graph(
    n: int, p_numerator: int, p_denominator: int, seed: int
) -> Graph:
    """Each of the n(n-1)/2 possible edges is kept independently with
    probability p_numerator/p_denominator."""
    _check_size(n, most=MAX_RANDOM_GRAPH_VERTICES)
    if p_denominator <= 0 or not 0 <= p_numerator <= p_denominator:
        raise ValueError("edge probability must satisfy 0 <= num <= den")
    from .rng import SplitMix64

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
    _check_size(n, most=MAX_RANDOM_BIPARTITE_VERTICES)
    from .rng import SplitMix64

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
    """Random tree plus one uniformly chosen extra edge (needs n >= 3).

    The edge is the k-th non-edge (u, w), u < w, in lexicographic order,
    found by walking the rows without listing the others.
    """
    _check_size(n, 3, "a unicyclic graph")
    from .rng import SplitMix64

    rng = SplitMix64(seed)
    tree = gen_random_tree(n, rng.next_u64())
    k = rng.below(n * (n - 1) // 2 - (n - 1))
    for u in range(n):
        later = [w for w in tree.adjacency[u] if w > u]
        free = n - 1 - u - len(later)
        if k < free:
            break
        k -= free
    # the k-th w > u outside later, which is sorted ascending
    w = u + 1 + k
    for x in later:
        if x > w:
            break
        w += 1
    return add_edge(tree, u, w)


def _check_size(n: int, least: int = 1, what: str = "generator", most=None):
    if n < least:
        raise ValueError(f"{what} needs n >= {least}")
    limit = MAX_VERTICES if most is None else min(most, MAX_VERTICES)
    if n > limit:
        raise ValueError(f"vertex count {n} exceeds the limit {limit}")


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
