"""Vertex classification from the adjacency nullspace.

A vertex is a core vertex when some kernel vector is non-zero there,
equivalently when deleting it drops the nullity by one.  The remaining
vertices are core-forbidden and split by what their deletion does to the
nullity (unchanged vs raised).  When the core vertices form an independent
set the graph admits a three-part labelling (core, neighbours of core,
remote) whose adjacency matrix has the block shape

    [ 0   Q   0 ]
    [ Q'  N   R ]
    [ 0   R'  M ]

and the functions here extract those blocks, reduce away the remote part,
and verify the exact identities that the block shape forces.
"""

from enum import Enum

from .errors import (
    NonIndependentCoreError,
    PreconditionError,
    TheoremViolationError,
)
from .graphs import (
    Graph,
    _adjacency_rows,
    _block,
    induced_subgraph,
    is_unicyclic,
)
from .linalg import (
    IntMatrix,
    KernelBasis,
    Record,
    _canonical_basis,
    _reduce_symmetric,
    _reduced,
    det,
    rank,
)


class VertexClass(Enum):
    CV = "cv"
    CFV_MID = "cfv_mid"
    CFV_UPP = "cfv_upp"


class VertexPartition(Record):
    """Per-vertex classification plus the derived three-part split.

    ncv_set holds the core-forbidden vertices with a core neighbour;
    cfvr_set holds the rest of the core-forbidden vertices.  kernel is
    the canonical basis of ker A, read off classify_vertices' one
    reduction of A (linalg._reduce_symmetric), and the union of its
    supports is cv_set.  The d and T of that reduction depend on the
    route it took, so they stay inside it and are not fields: every
    field is a function of the graph alone, and partitions compare,
    hash and pickle as plain tuples.
    """

    nullity: int
    class_of: tuple
    cv_set: tuple
    ncv_set: tuple
    cfvr_set: tuple
    independent_cv: bool
    kernel: KernelBasis

    def _part(self, v: int) -> str:
        """The part of v: cv, ncv or cfvr."""
        if v in self.cv_set:
            return "cv"
        return "ncv" if v in self.ncv_set else "cfvr"

    def part_tag(self, v: int) -> str:
        """DOT/report tag.  With independent core vertices the three-part
        view applies (cv/ncv/cfvr); otherwise fall back to the raw class."""
        return self._part(v) if self.independent_cv else self.class_of[v].value

    def class_tags(self) -> list:
        return [c.value for c in self.class_of]


class TheoremCheck(Record):
    name: str
    holds: bool
    witness: dict


class CoreLabelling(Record):
    """Relabelling that lists core vertices first, their neighbours next,
    remote vertices last (original order kept inside each part), together
    with the non-trivial blocks of the permuted adjacency matrix."""

    cv: tuple
    ncv: tuple
    remote: tuple
    cv_to_ncv: IntMatrix
    ncv_inner: IntMatrix
    ncv_to_remote: IntMatrix
    remote_inner: IntMatrix

    @property
    def order(self) -> tuple:
        """New position -> old label."""
        return self.cv + self.ncv + self.remote

    def permutation(self) -> dict:
        """Old label -> new position."""
        return {old: new for new, old in enumerate(self.order)}

    def assembled(self) -> IntMatrix:
        """The permuted adjacency matrix rebuilt from the four blocks."""
        a, b = len(self.cv), len(self.ncv)
        n = a + b + len(self.remote)
        rows = [[0] * n for _ in range(n)]
        # N and M are symmetric, so their mirror writes agree
        for r0, c0, block in (
            (0, a, self.cv_to_ncv),
            (a, a, self.ncv_inner),
            (a, a + b, self.ncv_to_remote),
            (a + b, a + b, self.remote_inner),
        ):
            for i, row in enumerate(block.data):
                for j, x in enumerate(row):
                    rows[r0 + i][c0 + j] = rows[c0 + j][r0 + i] = x
        return IntMatrix(rows, cols=n)

    def blocks_json(self) -> dict:
        return {
            "Q": self.cv_to_ncv.to_lists(),
            "N": self.ncv_inner.to_lists(),
            "R": self.ncv_to_remote.to_lists(),
            "M": self.remote_inner.to_lists(),
        }


class AnalysisReport(Record):
    graph: Graph
    partition: VertexPartition
    labelling: CoreLabelling | None
    checks: tuple


def nullity(g: Graph) -> int:
    """Multiplicity of eigenvalue 0, as n - rank over the integers."""
    return g.n - _reduced(_adjacency_rows(g), g.n, False)[0]


def classify_vertices(g: Graph, basis: KernelBasis | None = None) -> VertexPartition:
    """Core vertices and the split of the rest, all read off one
    reduction of A (_classified), the one every consumer of a partition
    reads, both sides of a perturbation report included.

    v is a core vertex exactly when some kernel vector is non-zero at v,
    and then deleting it drops the nullity by one.  Otherwise
    A y = e_v is solvable, and deleting v keeps the nullity
    when the solutions have y_v != 0 (cfv_mid) and raises it by one when
    y_v = 0 (cfv_upp).  A given basis is a claim, checked against the
    canonical basis of that reduction and never stored: unless its
    ambient size is n, it has nullity vectors and their canonical basis
    is the reduction's (_check_claimed_basis), TheoremViolationError is
    raised with a replayable report.
    """
    part = _classified(g)[0]
    if basis is not None:
        _check_claimed_basis(g, basis, part.kernel)
    return part


def _classified(g: Graph) -> tuple:
    """(partition, d, entry) from one reduction of A
    (linalg._reduce_symmetric): the partition classify_vertices returns,
    and the reduction's d and T, read by entry(u, w), which the addition
    screen reads (perturb._keeps).

    The core vertices are the union of the kernel supports, in
    ascending order: the one rule that decides them.  Then come the
    core-forbidden vertices with a core neighbour, the other
    core-forbidden vertices, and whether no two core vertices are
    adjacent.  The classes come from T's diagonal: for v outside the
    kernel supports T_vv = d y_v, with y_v shared by every solution of
    A y = e_v, so only its zero pattern matters, and that is the same
    on both routes."""
    kernel, d, entry = _reduce_symmetric(_adjacency_rows(g), g.n)
    core = kernel.supports()
    cv = tuple(sorted(core))
    class_of = [VertexClass.CV] * g.n
    ncv, cfvr = [], []
    for v in range(g.n):
        if v not in core:
            class_of[v] = (VertexClass.CFV_MID if entry(v, v)
                           else VertexClass.CFV_UPP)
            near = any(w in core for w in g.adjacency[v])
            (ncv if near else cfvr).append(v)
    return VertexPartition(kernel.dimension, tuple(class_of), cv, tuple(ncv),
                           tuple(cfvr), _first_adjacent_pair(g, cv) is None,
                           kernel), d, entry


def _check_claimed_basis(g: Graph, basis: KernelBasis, kernel: KernelBasis):
    """Raise TheoremViolationError unless basis is a basis of ker A(g),
    given the canonical basis kernel of ker A(g).

    The canonical form is unique per subspace and is reached from any
    spanning set (linalg._canonical_basis), so vectors of length n span
    ker A exactly when their canonical basis is kernel, and then they
    are a basis exactly when there are kernel.dimension of them.  The
    report names the first of the ambient size, the dimension and the
    span that is wrong.
    """
    n, claimed, eta = g.n, basis.dimension, kernel.dimension
    context = {"basis": basis.vectors}
    if basis.ambient != n:
        message = (f"basis of ambient dimension {basis.ambient} does not "
                   f"fit {n} vertices")
    elif claimed != eta:
        message = f"basis of dimension {claimed} contradicts nullity {eta}"
        context |= {"nullity": eta, "basis_dimension": claimed}
    elif (any(len(x) != n for x in basis.vectors)
          or _canonical_basis(basis.vectors, n) != kernel):
        message = "basis does not span the kernel"
    else:
        return
    raise TheoremViolationError(message, g, **context)


def _in_kernel(g: Graph, x: tuple) -> bool:
    """Whether A(g) x = 0, row by row over the adjacency lists."""
    return all(sum(x[w] for w in row) == 0 for row in g.adjacency)


def _first_adjacent_pair(g: Graph, vertices) -> tuple | None:
    """The first edge (u, w), u < w, inside the sorted vertex tuple
    vertices, or None when those vertices are pairwise non-adjacent."""
    inside = set(vertices)
    for u in vertices:
        for w in g.adjacency[u]:
            if w > u and w in inside:
                return (u, w)
    return None


def require_independent_cv(g: Graph, partition: VertexPartition):
    """Raise NonIndependentCoreError naming the first adjacent core pair."""
    pair = _first_adjacent_pair(g, partition.cv_set)
    if pair is not None:
        raise NonIndependentCoreError(pair)


def core_labelling(
    g: Graph, partition: VertexPartition | None = None
) -> CoreLabelling:
    """Three-part relabelling and block extraction.

    Requires the core vertices to be pairwise non-adjacent.
    """
    part = classify_vertices(g) if partition is None else partition
    require_independent_cv(g, part)
    lab = CoreLabelling(
        cv=part.cv_set,
        ncv=part.ncv_set,
        remote=part.cfvr_set,
        cv_to_ncv=_block(g, part.cv_set, part.ncv_set),
        ncv_inner=_block(g, part.ncv_set, part.ncv_set),
        ncv_to_remote=_block(g, part.ncv_set, part.cfvr_set),
        remote_inner=_block(g, part.cfvr_set, part.cfvr_set),
    )
    # the zero regions of the block shape (core-core and core-remote)
    # must really be zero in G: every neighbour of a core vertex is ncv
    ncv = set(part.ncv_set)
    if any(w not in ncv for u in part.cv_set for w in g.adjacency[u]):
        raise TheoremViolationError(
            "an edge of G falls in a zero block of the core labelling", g,
            cv=part.cv_set, ncv=part.ncv_set, cfvr=part.cfvr_set)
    return lab


def no_single_core_neighbour_check(
    g: Graph, partition: VertexPartition | None = None
) -> TheoremCheck:
    """No vertex may have exactly one core neighbour (a kernel vector row
    would otherwise reduce to a single non-zero term)."""
    part = classify_vertices(g) if partition is None else partition
    cv = set(part.cv_set)
    for v in range(g.n):
        count = sum(1 for w in g.adjacency[v] if w in cv)
        if count == 1:
            return TheoremCheck(
                "no_single_core_neighbour",
                False,
                {"vertex": v, "core_neighbours": count},
            )
    return TheoremCheck("no_single_core_neighbour", True, {})


def _block_checks(part: VertexPartition, lab: CoreLabelling) -> list:
    eta = part.nullity
    q = lab.cv_to_ncv
    cv_count = len(lab.cv)
    ncv_count = len(lab.ncv)
    rank_q = rank(q)
    # Q' is eliminated separately from Q, so eta_qt is not read off rank_q
    eta_qt = cv_count - rank(q.transpose())
    det_m = det(lab.remote_inner)
    full_column_rank = rank_q == ncv_count
    return [
        TheoremCheck(
            "cross_block_kernel_dimension",
            eta_qt == eta,
            {"kernel_of_q_transpose": eta_qt, "nullity": eta},
        ),
        TheoremCheck(
            "cross_block_rank_deficient",
            rank_q < cv_count,
            {"rank_q": rank_q, "cv_count": cv_count},
        ),
        TheoremCheck(
            "nullity_from_cross_block_rank",
            eta == cv_count - rank_q,
            {"nullity": eta, "cv_count": cv_count, "rank_q": rank_q},
        ),
        TheoremCheck(
            "full_column_rank_iff_count_gap",
            full_column_rank == (eta == cv_count - ncv_count),
            {
                "rank_q": rank_q,
                "ncv_count": ncv_count,
                "nullity": eta,
                "cv_count": cv_count,
            },
        ),
        TheoremCheck(
            "remote_subgraph_nonsingular",
            det_m != 0,
            {"det_m": det_m, "remote_count": len(lab.remote)},
        ),
    ]


def verify_block_theorems(
    g: Graph, partition: VertexPartition | None = None
) -> list:
    """Exact verdicts for the five identities forced by the block shape."""
    part = classify_vertices(g) if partition is None else partition
    if part.nullity == 0:
        raise PreconditionError("block identities require a singular graph")
    lab = core_labelling(g, part)
    return _block_checks(part, lab)


def slim_reduce(
    g: Graph, partition: VertexPartition | None = None
) -> tuple:
    """Drop the remote vertices; keep core and neighbours-of-core.

    The reduction is advertised to disturb neither the nullity nor any
    survivor's class.  That holds for trees but not for every graph with
    independent core vertices, and a singular remote block M decides it
    in neither direction, so both claims are recomputed on the result; a
    violation raises TheoremViolationError carrying a replayable report.
    """
    part = classify_vertices(g) if partition is None else partition
    require_independent_cv(g, part)
    reduced, prov, eta, changed = _delete_and_compare(
        g, part, part.cv_set + part.ncv_set
    )
    if eta != part.nullity or changed:
        raise TheoremViolationError(
            "remote-vertex removal changed the nullity or a survivor's class",
            g, nullity_before=part.nullity, nullity_after=eta,
            class_changes=changed)
    return reduced, prov


def _delete_and_compare(g: Graph, part: VertexPartition, keep) -> tuple:
    """Keep only the vertices in keep and reclassify.

    Returns (subgraph, provenance, its nullity, changes), where changes
    lists (old label, class before, class after) for every survivor whose
    class moved.  part is the partition of g.
    """
    sub, prov = induced_subgraph(g, keep)
    # with nothing deleted the subgraph is g itself, already classified
    sub_part = part if sub.n == g.n else classify_vertices(sub)
    changed = [
        (old, part.class_of[old].value, sub_part.class_of[new].value)
        for new, old in prov.vertex_map().items()
        if sub_part.class_of[new] is not part.class_of[old]
    ]
    return sub, prov, sub_part.nullity, changed


def is_slim(g: Graph) -> bool:
    """Every core-forbidden vertex has a core neighbour."""
    return not classify_vertices(g).cfvr_set


def is_core_graph(g: Graph) -> bool:
    """Singular and every vertex is a core vertex."""
    part = classify_vertices(g)
    return part.nullity > 0 and len(part.cv_set) == g.n


def is_half_core(g: Graph) -> bool:
    """Bipartite with the core vertices as one colour class and the
    core-forbidden vertices as the other."""
    cv = set(classify_vertices(g).cv_set)
    return all((u in cv) != (w in cv) for u, w in g.edges())


class UnicyclicReport(Record):
    cycle: tuple
    cycle_length: int
    length_mod_4: int
    cycle_classes: tuple
    nullity: int
    independent_cv: bool
    checks: tuple


def unicyclic_analysis(g: Graph) -> UnicyclicReport:
    """Classify the cycle vertices of a unicyclic graph and test the
    independence/nullity claims that the cycle length forces.

    Attachment vertices are the cycle vertices themselves: each hangs a
    (possibly trivial) tree off the cycle.
    """
    cycle = is_unicyclic(g)
    if cycle is None:
        raise PreconditionError("graph is not unicyclic")
    part = classify_vertices(g)
    r = len(cycle)
    tags = tuple(part.class_of[v].value for v in cycle)
    if r % 4:
        check = TheoremCheck(
            "off_multiple_cycle_core_independent",
            part.independent_cv,
            {"cycle_length": r},
        )
    elif all(part.class_of[v] is VertexClass.CV for v in cycle):
        check = TheoremCheck(
            "all_core_cycle_nullity_two",
            part.nullity >= 2,
            {"cycle_length": r, "nullity": part.nullity},
        )
    else:
        check = TheoremCheck(
            "forbidden_attachment_core_independent",
            part.independent_cv,
            {"cycle_length": r},
        )
    return UnicyclicReport(
        cycle=tuple(cycle),
        cycle_length=r,
        length_mod_4=r % 4,
        cycle_classes=tags,
        nullity=part.nullity,
        independent_cv=part.independent_cv,
        checks=(check,),
    )


def analyze(g: Graph) -> AnalysisReport:
    """Full report: partition (with its kernel), labelling when
    admissible, and every theorem check that applies to this graph."""
    part = classify_vertices(g)
    checks = [no_single_core_neighbour_check(g, part)]
    labelling = None
    if part.independent_cv:
        labelling = core_labelling(g, part)
        if part.nullity > 0:
            checks.extend(_block_checks(part, labelling))
    return AnalysisReport(
        graph=g,
        partition=part,
        labelling=labelling,
        checks=tuple(checks),
    )


def report_to_json(report: AnalysisReport) -> dict:
    g = report.graph
    part = report.partition
    return {
        "n": g.n,
        "m": g.m,
        "nullity": part.nullity,
        "classes": part.class_tags(),
        "cv": list(part.cv_set),
        "ncv": list(part.ncv_set),
        "cfvr": list(part.cfvr_set),
        "kernel_basis": [list(v) for v in part.kernel.vectors],
        "blocks": report.labelling.blocks_json() if report.labelling else None,
        "checks": [
            {"name": c.name, "holds": c.holds, "witness": c.witness}
            for c in report.checks
        ],
    }
