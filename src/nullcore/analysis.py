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

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import (
    NonIndependentCoreError,
    PreconditionError,
    TheoremViolationError,
)
from .graphs import (
    Graph,
    VertexProvenance,
    adjacency_matrix,
    delete_vertex,
    induced_subgraph,
    is_unicyclic,
)
from .linalg import (
    IntMatrix,
    KernelBasis,
    det,
    nullspace_basis,
    rank,
    symmetric_kernel,
)


class VertexClass(Enum):
    CV = "cv"
    CFV_MID = "cfv_mid"
    CFV_UPP = "cfv_upp"


@dataclass(frozen=True)
class VertexPartition:
    """Per-vertex classification plus the derived three-part split.

    ncv_set holds the core-forbidden vertices with a core neighbour;
    cfvr_set holds the rest of the core-forbidden vertices.  kernel is
    the basis the classes were read from (None for a partition built by
    hand); it does not take part in equality.
    """

    nullity: int
    class_of: tuple
    cv_set: tuple
    ncv_set: tuple
    cfvr_set: tuple
    independent_cv: bool
    kernel: Optional[KernelBasis] = field(default=None, compare=False)

    def part_tag(self, v: int) -> str:
        """DOT/report tag.  With independent core vertices the three-part
        view applies (cv/ncv/cfvr); otherwise fall back to the raw class."""
        if self.independent_cv:
            if v in self.cv_set:
                return "cv"
            return "ncv" if v in self.ncv_set else "cfvr"
        return self.class_of[v].value

    def class_tags(self) -> list:
        return [c.value for c in self.class_of]


@dataclass(frozen=True)
class TheoremCheck:
    name: str
    holds: bool
    witness: dict


@dataclass(frozen=True)
class CoreLabelling:
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
        a, b, c = len(self.cv), len(self.ncv), len(self.remote)
        n = a + b + c
        rows = [[0] * n for _ in range(n)]
        for i in range(a):
            for j in range(b):
                x = self.cv_to_ncv.entry(i, j)
                rows[i][a + j] = x
                rows[a + j][i] = x
        for i in range(b):
            for j in range(b):
                rows[a + i][a + j] = self.ncv_inner.entry(i, j)
            for j in range(c):
                x = self.ncv_to_remote.entry(i, j)
                rows[a + i][a + b + j] = x
                rows[a + b + j][a + i] = x
        for i in range(c):
            for j in range(c):
                rows[a + b + i][a + b + j] = self.remote_inner.entry(i, j)
        return IntMatrix(rows, cols=n)

    def blocks_json(self) -> dict:
        return {
            "Q": self.cv_to_ncv.to_lists(),
            "N": self.ncv_inner.to_lists(),
            "R": self.ncv_to_remote.to_lists(),
            "M": self.remote_inner.to_lists(),
        }


@dataclass(frozen=True)
class AnalysisReport:
    graph: Graph
    partition: VertexPartition
    kernel: KernelBasis
    labelling: Optional[CoreLabelling]
    checks: tuple


def nullity(g: Graph) -> int:
    """Multiplicity of eigenvalue 0, as n - rank over the integers."""
    return g.n - rank(adjacency_matrix(g))


def classify_vertices(g: Graph, basis: Optional[KernelBasis] = None) -> VertexPartition:
    """Core vertices from the kernel-basis supports; the rest split by the
    nullity of the one-vertex-deleted subgraph.

    One elimination of [A | I] gives every deleted nullity: it is
    eta - 1 at a core vertex and, elsewhere, eta + 1 when the solutions
    of A y = e_v have y_v = 0 and eta otherwise.  A given basis is
    checked against those nullities instead of trusted.
    """
    sym = symmetric_kernel(adjacency_matrix(g))
    if basis is None:
        basis = sym.basis
    true_eta = sym.basis.dimension
    eta = basis.dimension
    cv = set(basis.supports())
    class_of = [None] * g.n
    for v in range(g.n):
        if v in cv:
            class_of[v] = VertexClass.CV
            continue
        y_vanishes = sym.y_vanishes[v]
        if y_vanishes is None:
            eta_minus = true_eta - 1
        else:
            eta_minus = true_eta + 1 if y_vanishes else true_eta
        if eta_minus == eta:
            class_of[v] = VertexClass.CFV_MID
        elif eta_minus == eta + 1:
            class_of[v] = VertexClass.CFV_UPP
        else:
            # deleting a vertex outside every kernel support cannot lower
            # the nullity; reaching this line means the basis is wrong
            raise TheoremViolationError(
                f"vertex {v}: nullity {eta} -> {eta_minus} contradicts supports",
                {
                    "edges": g.edges(),
                    "n": g.n,
                    "vertex": v,
                    "nullity": eta,
                    "nullity_after_deletion": nullity(delete_vertex(g, v)[0]),
                    "basis": basis.vectors,
                },
            )
    ncv = tuple(
        v
        for v in range(g.n)
        if v not in cv and any(w in cv for w in g.adjacency[v])
    )
    ncv_set = set(ncv)
    cfvr = tuple(
        v for v in range(g.n) if v not in cv and v not in ncv_set
    )
    cv_sorted = tuple(sorted(cv))
    return VertexPartition(
        nullity=eta,
        class_of=tuple(class_of),
        cv_set=cv_sorted,
        ncv_set=ncv,
        cfvr_set=cfvr,
        independent_cv=_first_adjacent_core_pair(g, cv_sorted) is None,
        kernel=basis,
    )


def cv_by_deletion(g: Graph) -> tuple:
    """Core vertices by the deletion criterion alone: eta drops by one.

    Independent of the kernel-basis route; used to cross-check it.
    """
    eta = nullity(g)
    return tuple(
        v for v in range(g.n) if nullity(delete_vertex(g, v)[0]) == eta - 1
    )


def _first_adjacent_core_pair(g: Graph, cv_sorted) -> Optional[tuple]:
    cv = set(cv_sorted)
    for u in cv_sorted:
        for w in g.adjacency[u]:
            if w > u and w in cv:
                return (u, w)
    return None


def require_independent_cv(g: Graph, partition: VertexPartition):
    """Raise NonIndependentCoreError naming the first adjacent core pair."""
    pair = _first_adjacent_core_pair(g, partition.cv_set)
    if pair is not None:
        raise NonIndependentCoreError(pair)


def core_labelling(
    g: Graph, partition: Optional[VertexPartition] = None
) -> CoreLabelling:
    """Three-part relabelling and block extraction.

    Requires the core vertices to be pairwise non-adjacent.
    """
    part = classify_vertices(g) if partition is None else partition
    require_independent_cv(g, part)

    def block(rows_src, cols_src) -> IntMatrix:
        return IntMatrix(
            [
                [1 if g.has_edge(u, w) else 0 for w in cols_src]
                for u in rows_src
            ],
            cols=len(cols_src),
        )

    lab = CoreLabelling(
        cv=part.cv_set,
        ncv=part.ncv_set,
        remote=part.cfvr_set,
        cv_to_ncv=block(part.cv_set, part.ncv_set),
        ncv_inner=block(part.ncv_set, part.ncv_set),
        ncv_to_remote=block(part.ncv_set, part.cfvr_set),
        remote_inner=block(part.cfvr_set, part.cfvr_set),
    )
    order = lab.order
    permuted = IntMatrix(
        [
            [1 if g.has_edge(order[i], order[j]) else 0 for j in range(g.n)]
            for i in range(g.n)
        ],
        cols=g.n,
    )
    # the zero regions of the block shape must really be zero in G
    if lab.assembled() != permuted:
        raise TheoremViolationError(
            "an edge of G falls in a zero block of the core labelling",
            {
                "edges": g.edges(),
                "n": g.n,
                "cv": part.cv_set,
                "ncv": part.ncv_set,
                "cfvr": part.cfvr_set,
            },
        )
    return lab


def no_single_core_neighbour_check(
    g: Graph, partition: Optional[VertexPartition] = None
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
    eta_qt = nullspace_basis(q.transpose()).dimension
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


def verify_block_theorems(g: Graph) -> list:
    """Exact verdicts for the five identities forced by the block shape."""
    part = classify_vertices(g)
    if part.nullity == 0:
        raise PreconditionError("block identities require a singular graph")
    lab = core_labelling(g, part)
    return _block_checks(part, lab)


def slim_reduce(g: Graph) -> tuple:
    """Drop the remote vertices; keep core and neighbours-of-core.

    The reduction is advertised to disturb neither the nullity nor any
    survivor's class.  That holds for trees but not for every graph with
    independent core vertices (see the remote_subgraph_nonsingular check),
    so both claims are recomputed on the result; a violation raises
    TheoremViolationError carrying a replayable report.
    """
    part = classify_vertices(g)
    require_independent_cv(g, part)
    keep = sorted(set(part.cv_set) | set(part.ncv_set))
    reduced, prov = induced_subgraph(g, keep)
    reduced_part = classify_vertices(reduced)
    changed = [
        (old, part.class_of[old].value, reduced_part.class_of[new].value)
        for new, old in prov.vertex_map().items()
        if reduced_part.class_of[new] is not part.class_of[old]
    ]
    if reduced_part.nullity != part.nullity or changed:
        raise TheoremViolationError(
            "remote-vertex removal changed the nullity or a survivor's class",
            {
                "edges": g.edges(),
                "n": g.n,
                "nullity_before": part.nullity,
                "nullity_after": reduced_part.nullity,
                "class_changes": changed,
            },
        )
    return reduced, prov


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
    part = classify_vertices(g)
    if part.nullity == 0:
        return g.n == 0
    cv = set(part.cv_set)
    return all((u in cv) != (w in cv) for u, w in g.edges())


@dataclass(frozen=True)
class UnicyclicReport:
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
    checks = []
    if r % 4 != 0:
        checks.append(
            TheoremCheck(
                "off_multiple_cycle_core_independent",
                part.independent_cv,
                {"cycle_length": r},
            )
        )
    else:
        if any(part.class_of[v] is not VertexClass.CV for v in cycle):
            checks.append(
                TheoremCheck(
                    "forbidden_attachment_core_independent",
                    part.independent_cv,
                    {"cycle_length": r},
                )
            )
        if all(part.class_of[v] is VertexClass.CV for v in cycle):
            checks.append(
                TheoremCheck(
                    "all_core_cycle_nullity_two",
                    part.nullity >= 2,
                    {"cycle_length": r, "nullity": part.nullity},
                )
            )
    return UnicyclicReport(
        cycle=tuple(cycle),
        cycle_length=r,
        length_mod_4=r % 4,
        cycle_classes=tags,
        nullity=part.nullity,
        independent_cv=part.independent_cv,
        checks=tuple(checks),
    )


def analyze(g: Graph) -> AnalysisReport:
    """Full report: kernel, partition, labelling when admissible, and every
    theorem check that applies to this graph."""
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
        kernel=part.kernel,
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
        "kernel_basis": [list(v) for v in report.kernel.vectors],
        "blocks": report.labelling.blocks_json() if report.labelling else None,
        "checks": [
            {"name": c.name, "holds": c.holds, "witness": c.witness}
            for c in report.checks
        ],
    }
