"""Edge perturbations and what they do to the adjacency nullspace.

Candidate edges are tagged by the classes of their endpoints (core, core
neighbour, remote).  Applying a candidate produces a before/after report
with exact preservation flags; additions inside the core-forbidden part
carry hard structural guarantees that are re-checked on every call.
Each report reads the changed graph through the one reduction that
classifies it (analysis._classified), so both sides of a report are
VertexPartitions.
The safe-addition screen and greedy densification classify no candidate
graph: one rule (_keeps) decides every screened addition from the base
graph's kernel and the d and T of the reduction that classified it
(analysis._classified), read entry by entry.
"""

from operator import attrgetter

from .analysis import (
    VertexPartition,
    _classified,
    _in_kernel,
    classify_vertices,
    require_independent_cv,
)
from .errors import PreconditionError, TheoremViolationError
from .graphs import Graph, add_edge, delete_edge
from .linalg import KernelBasis, Record

_PARTS = ("cv", "ncv", "cfvr")
# _TAGS[i][j] tags an edge between the parts _PARTS[i] and _PARTS[j]:
# their type pair, the earlier part first
_TAGS = tuple(
    tuple("-".join(_PARTS[k] for k in sorted((i, j))).upper()
          for j in range(3))
    for i in range(3)
)


def _type_pair(u: int, w: int, partition: VertexPartition) -> str:
    return _TAGS[_PARTS.index(partition._part(u))][
        _PARTS.index(partition._part(w))]


class EdgeCandidate(Record):
    """A non-edge of the base graph tagged by its endpoint classes.

    type_pair is one of CV-CV, CV-NCV, CV-CFVR, NCV-NCV, NCV-CFVR,
    CFVR-CFVR, always written with the earlier part first.
    """

    u: int
    w: int
    type_pair: str


class PerturbationReport(Record):
    """Exact before/after comparison for a single edge change.

    preserved flags:
      nullity        eta unchanged
      cv_set         core vertex set unchanged
      nullspace      canonical kernel bases identical
      core_labelling cv_set unchanged, still independent, and the
                     core-neighbour / remote split unchanged
    """

    edge: EdgeCandidate
    operation: str  # "add" or "remove"
    eta_before: int
    eta_after: int
    cv_before: tuple
    cv_after: tuple
    kernel_before: KernelBasis
    kernel_after: KernelBasis
    preserved: dict

    def to_json(self) -> dict:
        return {
            "edge": [self.edge.u, self.edge.w],
            "type": self.edge.type_pair,
            "eta": [self.eta_before, self.eta_after],
            "cv": [list(self.cv_before), list(self.cv_after)],
            "preserved": dict(self.preserved),
        }


# What each preserve mode compares between two partitions, in the
# order of the report's flags.
_PRESERVED = {
    "nullity": attrgetter("nullity"),
    "cv_set": attrgetter("cv_set"),
    "nullspace": attrgetter("kernel.vectors"),
}

# Families named by their endpoint tags.  Additions within the
# core-forbidden part obey: eta preserved <=> CV preserved, and eta
# preserved => nullspace and labelling preserved.
CFV_FAMILY = frozenset({"NCV-NCV", "NCV-CFVR", "CFVR-CFVR"})
# The families safe_additions offers
_SCREENED = CFV_FAMILY | {"CV-NCV"}


def candidate_edges(g: Graph, partition: VertexPartition | None = None):
    """All non-adjacent vertex pairs of g, tagged and sorted by (u, w).

    Tags always reflect the current partition; they carry labelling
    semantics only when the core vertices are independent.
    """
    part = classify_vertices(g) if partition is None else partition
    return [EdgeCandidate(*c) for c in _tagged_non_edges(g, part)]


def _tagged_non_edges(g: Graph, part: VertexPartition):
    """(u, w, type pair) for every non-adjacent pair u < w of g, in
    (u, w) order, tagged from the part of each vertex, looked up once."""
    index = [_PARTS.index(part._part(v)) for v in range(g.n)]
    for u in range(g.n):
        row = set(g.adjacency[u])
        tags = _TAGS[index[u]]
        for w in range(u + 1, g.n):
            if w not in row:
                yield u, w, tags[index[w]]


def _build_report(
    g: Graph,
    h: Graph,
    edge: EdgeCandidate,
    operation: str,
    part_before: VertexPartition,
) -> PerturbationReport:
    part_after = _classified(h)[0]
    preserved = {
        mode: read(part_before) == read(part_after)
        for mode, read in _PRESERVED.items()
    }
    preserved["core_labelling"] = (
        preserved["cv_set"]
        and part_after.independent_cv
        and part_before.ncv_set == part_after.ncv_set
    )
    report = PerturbationReport(
        edge, operation, part_before.nullity, part_after.nullity,
        part_before.cv_set, part_after.cv_set,
        part_before.kernel, part_after.kernel, preserved)
    # A single symmetric edge flip is a rank-2 update, so eta moves by
    # at most 2 in either direction.
    if abs(report.eta_after - report.eta_before) > 2:
        raise TheoremViolationError(
            "edge flip (%d, %d) moved the nullity from %d to %d"
            % (edge.u, edge.w, report.eta_before, report.eta_after),
            g, **report.to_json(), operation=operation)
    # Identical bases force identical supports and dimensions.
    if preserved["nullspace"] and not (
        preserved["cv_set"] and preserved["nullity"]
    ):
        raise TheoremViolationError(
            "edge flip (%d, %d) kept the kernel basis but not its core "
            "set or dimension" % (edge.u, edge.w),
            g, **report.to_json(), operation=operation)
    return report


def apply_and_report(
    g: Graph, e: EdgeCandidate, partition: VertexPartition | None = None
) -> PerturbationReport:
    """Add the candidate edge and report exactly what survived.

    For candidates inside the core-forbidden part (NCV-NCV, NCV-CFVR,
    CFVR-CFVR) of a graph with independent core vertices, two structural
    guarantees are re-checked on every call and a TheoremViolationError
    is raised if either fails:
      - nullity is preserved if and only if the core set is preserved;
      - if nullity is preserved, the canonical kernel basis and the
        whole core labelling are preserved too.
    """
    part = classify_vertices(g) if partition is None else partition
    if not (0 <= e.u < g.n and 0 <= e.w < g.n) or e.u == e.w:
        raise PreconditionError(
            "candidate endpoints (%r, %r) invalid for a %d-vertex graph"
            % (e.u, e.w, g.n)
        )
    if g.has_edge(e.u, e.w):
        raise PreconditionError(
            "candidate (%d, %d) is already an edge" % (e.u, e.w)
        )
    expected = _type_pair(e.u, e.w, part)
    if e.type_pair != expected:
        raise PreconditionError(
            "candidate (%d, %d) tagged %s but the partition says %s"
            % (e.u, e.w, e.type_pair, expected)
        )
    report = _build_report(g, add_edge(g, e.u, e.w), e, "add", part)

    if part.independent_cv and e.type_pair in CFV_FAMILY:
        flags = report.preserved
        if flags["nullity"] != flags["cv_set"]:
            raise TheoremViolationError(
                "core-forbidden edge addition broke the nullity/core "
                "biconditional on (%d, %d)" % (e.u, e.w),
                g, **report.to_json())
        if flags["nullity"] and not (
            flags["nullspace"] and flags["core_labelling"]
        ):
            raise TheoremViolationError(
                "nullity-preserving core-forbidden addition (%d, %d) "
                "failed to preserve the nullspace and labelling"
                % (e.u, e.w),
                g, **report.to_json())
    return report


def remove_and_report(g: Graph, u: int, w: int) -> PerturbationReport:
    """Delete an existing edge and report the same preservation flags.

    Deletions carry no structural guarantees; the report is purely
    descriptive and either direction of nullity change is possible.
    """
    part = classify_vertices(g)
    # delete_edge validates existence and range.
    h = delete_edge(g, u, w)
    a, b = (u, w) if u < w else (w, u)
    edge = EdgeCandidate(a, b, _type_pair(a, b, part))
    return _build_report(g, h, edge, "remove", part)


class CvNcvReport(Record):
    """Outcome of checking a core / core-neighbour edge addition.

    When the addition keeps the whole core labelling intact, nullity
    must be unchanged, and two explicit witnesses are exhibited:
    x_witness is a kernel vector of the base graph that leaves the
    kernel after the addition, y_witness a kernel vector of the new
    graph absent from the old kernel.  When the labelling shifts, the
    hypothesis is unmet and no conclusion is drawn.
    """

    report: PerturbationReport
    hypothesis_met: bool
    x_witness: tuple | None
    y_witness: tuple | None


def verify_cv_ncv_theorem(
    g: Graph, e: EdgeCandidate, partition: VertexPartition | None = None
) -> CvNcvReport:
    """Check a CV-NCV addition against its conditional guarantee.

    Requires independent core vertices and a CV-NCV candidate.  If the
    core labelling survives the addition, nullity equality is asserted
    (TheoremViolationError on failure) and both kernel-exchange
    witnesses are produced with exact matrix-vector products.
    """
    part = classify_vertices(g) if partition is None else partition
    require_independent_cv(g, part)
    if e.type_pair != "CV-NCV":
        raise PreconditionError(
            "expected a CV-NCV candidate, got %s" % e.type_pair
        )
    report = apply_and_report(g, e, part)
    if not report.preserved["core_labelling"]:
        return CvNcvReport(report, False, None, None)

    def violation(message, **extra):
        return TheoremViolationError(message, g, **report.to_json(),
                                     **extra)

    if not report.preserved["nullity"]:
        raise violation(
            "labelling-preserving CV-NCV addition (%d, %d) changed the "
            "nullity from %d to %d"
            % (e.u, e.w, report.eta_before, report.eta_after)
        )

    cv_end = e.u if e.u in part.cv_set else e.w

    def hitting(basis):
        for vec in basis.vectors:
            if vec[cv_end]:
                return vec
        raise violation(
            "no kernel vector is non-zero at core vertex %d" % cv_end,
            vertex=cv_end, basis=basis.vectors,
        )

    x = hitting(report.kernel_before)
    y = hitting(report.kernel_after)
    # The new row at the non-core end picks up the core entry, so each
    # witness must leave the other graph's kernel.
    if _in_kernel(add_edge(g, e.u, e.w), x):
        raise violation(
            "old kernel vector unexpectedly survived the addition",
            x_witness=x,
        )
    if _in_kernel(g, y):
        raise violation(
            "new kernel vector unexpectedly lies in the old kernel",
            y_witness=y,
        )
    return CvNcvReport(report, True, x, y)


def _check_preserve(preserve: str):
    if preserve not in _PRESERVED:
        raise PreconditionError(
            "preserve must be one of %s, got %r"
            % ("/".join(_PRESERVED), preserve)
        )


def _keeps(part: VertexPartition, d: int, entry, u: int, w: int,
           preserve: str) -> bool:
    """Whether adding uw keeps the preserve property, for a CV-NCV
    candidate or one with both ends core-forbidden, read off the kernel
    of part and the d and T of the reduction that classified it
    (analysis._classified), T_xy = entry(x, y).

    Adding uw adds E_uw = U C U' to A, with U = [e_u e_w] and C the 2 x 2
    swap.  When u and w are both core-forbidden, e_u and e_w lie in the
    column space of A, and rank additivity (Marsaglia and Styan 1974)
    gives eta(G + uw) = eta(G) + nullity(K), K = C^-1 + U' Y U for any Y
    with A Y A = A.  With Y = T / d,
    d K = [[T_uu, d + T_uw], [d + T_wu, T_ww]], so eta is kept exactly
    when that determinant is non-zero.  Every kernel vector vanishes at
    u and w, so ker A lies in ker(A + E_uw): a kept eta keeps the kernel,
    its canonical basis and the core set, and a raised one brings a
    kernel vector that is non-zero at u or w.  One verdict serves every
    mode.

    For core u and core-forbidden w, take b in ker A with b_u != 0.  A
    solution x of (A + E_uw) x = 0 has b' A x = -b_u x_w = 0, so
    x = k - x_u y_w for a k in ker A, and x_w = -x_u T_ww / d.  So eta is
    kept exactly when T_ww = 0 (w is cfv_upp) and otherwise drops by one.
    A kernel vector k with k_u != 0 gives (A + E_uw) k = k_u e_w, so the
    kernel is never kept.  When eta is, the new kernel is spanned by the
    b_u k - k_u b for k in ker A, which vanish at u, and by
    x = (d + T_wu) b - b_u T_w, which is d b_u at u; its core set is the
    union of their supports.  Only this last branch reads a whole row
    of T; the others read at most four entries.
    """
    cv = part.cv_set
    if u not in cv and w not in cv:
        return (entry(u, u) * entry(w, w)
                != (d + entry(u, w)) * (d + entry(w, u)))
    if w in cv:
        u, w = w, u
    if entry(w, w) or preserve == "nullspace":
        return False
    if preserve == "nullity":
        return True
    kernel = part.kernel.vectors
    b = next(k for k in kernel if k[u])
    bu = b[u]
    spanning = [[bu * x - k[u] * y for x, y in zip(k, b)] for k in kernel]
    spanning.append([(d + entry(w, u)) * y - bu * entry(w, v)
                     for v, y in enumerate(b)])
    return {v for x in spanning for v, a in enumerate(x) if a} == set(cv)


def _safe_candidates(g: Graph, reduced: tuple, preserve: str):
    """The candidates of safe_additions, one at a time in (u, w) order,
    each decided by _keeps from reduced = (partition, d, entry) alone."""
    for u, w, tag in _tagged_non_edges(g, reduced[0]):
        if tag in _SCREENED and _keeps(*reduced, u, w, preserve):
            yield EdgeCandidate(u, w, tag)


def safe_additions(g: Graph, preserve: str, reduced: tuple | None = None):
    """Candidates whose addition keeps the requested property.

    preserve is one of nullity, cv_set, nullspace.  CV-CV and CV-CFVR
    candidates are never offered: an edge inside the core or from the
    core to the remote part invalidates the labelling scheme itself,
    whatever it does to the chosen flag.  Every other candidate is
    decided by _keeps from the kernel, d and T of one reduction of g,
    so the screen costs one elimination, for g, and none when reduced
    is passed in; that must be analysis._classified(g), the triple
    (partition, d, entry).
    """
    _check_preserve(preserve)
    reduced = _classified(g) if reduced is None else reduced
    return list(_safe_candidates(g, reduced, preserve))


def greedy_densify(g: Graph, preserve: str, reduced: tuple | None = None):
    """Add safe edges lexicographically-first until none remains.

    Returns (final graph, tuple of added edges).  The preserved
    property is re-checked against the original graph after every
    accepted edge, so the result is maximal by inclusion, not a claimed
    maximum-cardinality optimum.  That re-check reduces the new graph
    once (analysis._classified), and the same reduction screens the
    next step, so the run costs one elimination for g (none when
    reduced = analysis._classified(g) is passed in) plus one per
    accepted edge.
    """
    _check_preserve(preserve)
    read = _PRESERVED[preserve]
    reduced = _classified(g) if reduced is None else reduced
    base = reduced[0]
    current = g
    added = []
    while True:
        first = next(_safe_candidates(current, reduced, preserve), None)
        if first is None:
            break
        current = add_edge(current, first.u, first.w)
        added.append((first.u, first.w))
        # Per-step flags compare equalities, so preservation against
        # the previous graph chains back to the original; verify that
        # directly anyway.
        reduced = _classified(current)
        before, after = read(base), read(reduced[0])
        if before != after:
            raise TheoremViolationError(
                "densification step (%d, %d) lost the %s property"
                % (first.u, first.w, preserve),
                g, preserve=preserve, added=added, before=before,
                after=after)
    return current, tuple(added)
