"""Forest and tree machinery around the adjacency nullspace.

For a tree the nullity is n - 2t where t is the matching number, computed
here by repeated pendant-pair removal.  Odd subdivisions tie trees to
minimal configurations; the routines in this module decide that in both
directions and verify the rank facts that make it work.
"""

from .analysis import (
    VertexPartition,
    classify_vertices,
    nullity,
)
from .errors import PreconditionError
from .graphs import (
    Graph,
    VertexProvenance,
    _block,
    adjacency_matrix,
    incidence_matrix,
    induced_subgraph,
    is_bipartite,
    is_forest,
    is_tree,
    subdivision,
)
from .linalg import Record, char_poly, rank


def _require_tree(g: Graph):
    """Raise PreconditionError unless g is a tree."""
    if not is_tree(g):
        raise PreconditionError("requires a tree")


class ReductionTrace(Record):
    """Record of a pendant-pair elimination run.

    Each step removes a degree-1 vertex and its unique neighbour; the run
    ends when no edges remain.  steps are (end_vertex, neighbour) in
    original labels; t = len(steps) is the matching number of the forest.
    """

    steps: tuple
    isolated_remainder: tuple
    t: int

    def to_json(self) -> dict:
        return {
            "steps": [list(s) for s in self.steps],
            "isolated": list(self.isolated_remainder),
            "t": self.t,
        }


def pendant_reduction(g: Graph) -> ReductionTrace:
    """Repeatedly remove the lowest-labelled end vertex together with its
    unique neighbour.  Accepts any forest; rejects graphs with a cycle.

    The end vertices wait in a heap: a vertex enters when its degree
    falls to 1, at most once, and is skipped when popped after it was
    removed or isolated, so a run takes O(n log n).
    """
    from heapq import heappop, heappush

    if not is_forest(g):
        raise PreconditionError("pendant reduction requires an acyclic graph")
    alive = [True] * g.n
    degree = [g.degree(v) for v in range(g.n)]
    ends = [v for v in range(g.n) if degree[v] == 1]  # sorted, so a heap
    steps = []
    while ends:
        end = heappop(ends)
        if not alive[end] or degree[end] != 1:
            continue
        partner = next(w for w in g.adjacency[end] if alive[w])
        steps.append((end, partner))
        for gone in (end, partner):
            alive[gone] = False
            for w in g.adjacency[gone]:
                if alive[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        heappush(ends, w)
    return ReductionTrace(
        steps=tuple(steps),
        isolated_remainder=tuple(v for v in range(g.n) if alive[v]),
        t=len(steps),
    )


class TreeNullityIdentity(Record):
    eta_reduction: int
    eta_rank: int
    n_minus_2t: int
    all_equal: bool


def tree_nullity_identity(g: Graph) -> TreeNullityIdentity:
    """The tree nullity three ways: isolated remainder of the reduction,
    exact rank, and n - 2t."""
    _require_tree(g)
    trace = pendant_reduction(g)
    eta_reduction = len(trace.isolated_remainder)
    eta_rank = nullity(g)
    n_minus_2t = g.n - 2 * trace.t
    return TreeNullityIdentity(
        eta_reduction,
        eta_rank,
        n_minus_2t,
        eta_reduction == eta_rank == n_minus_2t,
    )


class EndVertexCores(Record):
    vertices: tuple
    non_singular: bool


def end_vertex_core_vertices(
    g: Graph, partition: VertexPartition | None = None
) -> EndVertexCores:
    """End vertices of a tree that are core vertices.

    A singular tree always has at least two.  Non-singular trees have no
    core vertices at all; that case is flagged instead of raising so that
    batch runs over random trees keep going.
    """
    _require_tree(g)
    part = classify_vertices(g) if partition is None else partition
    cv = set(part.cv_set)
    ends = tuple(v for v in range(g.n) if g.degree(v) == 1 and v in cv)
    return EndVertexCores(ends, part.nullity == 0)


def cfvr_perfect_matching(
    g: Graph, partition: VertexPartition | None = None
) -> tuple | None:
    """Perfect matching of the forest induced on the remote vertices of a
    tree, in original labels; None when that forest has no perfect matching
    (never the case for a tree)."""
    _require_tree(g)
    part = classify_vertices(g) if partition is None else partition
    remote, prov = induced_subgraph(g, part.cfvr_set)
    trace = pendant_reduction(remote)
    if trace.isolated_remainder:
        return None
    back = prov.to_source
    return tuple(
        (back[a][1], back[b][1]) if back[a][1] < back[b][1]
        else (back[b][1], back[a][1])
        for a, b in trace.steps
    )


def inverse_subdivision(g: Graph) -> tuple | None:
    """Undo a subdivision: smooth out the inserted degree-2 class.

    A tree T' is a subdivision iff its smaller bipartition class has
    exactly one vertex fewer than the larger and consists of degree-2
    vertices only.  Returns (smoothed tree, provenance to T' labels),
    or None when T' is not a subdivision.
    """
    _require_tree(g)
    decomp = is_bipartite(g)
    v1, v2 = decomp.v1, decomp.v2
    originals, inserted = (v1, v2) if len(v1) > len(v2) else (v2, v1)
    if len(inserted) != len(originals) - 1:
        return None
    if any(g.degree(v) != 2 for v in inserted):
        return None
    new_label = {old: i for i, old in enumerate(originals)}
    edges = []
    for mid in inserted:
        a, b = g.adjacency[mid]
        edges.append((new_label[a], new_label[b]))
    smoothed = Graph(len(originals), edges)
    prov = VertexProvenance(tuple(("vertex", old) for old in originals))
    return smoothed, prov


class McTreeReport(Record):
    """Both routes to the minimal-configuration decision for a tree, plus
    the matching-count and full-column-rank facts that accompany it."""

    is_mc: bool
    by_definition: bool
    by_subdivision: bool
    smoothed: Graph | None
    t: int
    ncv_count: int
    t_matches_ncv: bool
    q_full_column_rank: bool | None


def is_mc_tree(
    g: Graph, partition: VertexPartition | None = None
) -> McTreeReport:
    """Decide whether a tree is a minimal configuration, via the definition
    and via subdivision recognition; the two must agree."""
    # imported here, as the verify trials import their checks, so that
    # the commands that never call this do not load nullcore.minimal
    from .minimal import is_minimal_configuration

    _require_tree(g)
    part = classify_vertices(g) if partition is None else partition
    mc = is_minimal_configuration(g, part)
    inv = inverse_subdivision(g)
    t = pendant_reduction(g).t
    ncv_count = len(part.ncv_set)
    q_full = None
    if part.nullity > 0:
        # tree core vertices are independent, so Q is the cv x ncv block
        q_full = rank(_block(g, part.cv_set, part.ncv_set)) == ncv_count
    return McTreeReport(
        is_mc=mc.is_mc and inv is not None,
        by_definition=mc.is_mc,
        by_subdivision=inv is not None,
        smoothed=inv[0] if inv is not None else None,
        t=t,
        ncv_count=ncv_count,
        t_matches_ncv=t == ncv_count,
        q_full_column_rank=q_full,
    )


def incidence_rank_check(g: Graph) -> bool:
    """Full incidence rank and unit nullity of the subdivision, together."""
    _require_tree(g)
    if rank(incidence_matrix(g)) != g.m:
        return False
    s, _ = subdivision(g)
    return nullity(s) == 1


def subdivision_charpoly_identity(g: Graph) -> bool:
    """The subdivision's characteristic polynomial must factor through the
    incidence Gram matrix: phi(S, x) = x^(n-m) * det(x^2 I - B'B)."""
    s, _ = subdivision(g)
    lhs = char_poly(adjacency_matrix(s))
    b = incidence_matrix(g)
    gram = b.transpose() @ b
    p = char_poly(gram)
    # p(x^2), degree 2m, then shift by x^(n-m)
    stretched = [0] * (2 * gram.rows + 1)
    for i, c in enumerate(p.coefficients):
        stretched[2 * i] = c
    rhs = stretched + [0] * (g.n - g.m)
    return list(lhs.coefficients) == rhs
