"""Minimal configurations and the bipartite structure around nullity 1.

A minimal configuration is K1, or a graph on three or more vertices with
nullity 1 whose core-forbidden vertices (the periphery) are pairwise
non-adjacent and number one fewer than the nullity of the subgraph induced
on the core.  Bipartite graphs of nullity 1 carry extra structure (odd
order, class sizes differing by one, core inside the larger class) that
the reports here verify exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .analysis import (
    TheoremCheck,
    classify_vertices,
    nullity,
)
from .errors import PreconditionError
from .graphs import (
    Graph,
    induced_subgraph,
    is_bipartite,
    is_connected,
)
from .linalg import rank


@dataclass(frozen=True)
class MCReport:
    is_mc: bool
    nullity: int
    core_subgraph: Graph
    periphery: tuple
    periphery_independent: bool
    core_nullity: int
    size_identity: bool
    failures: tuple

    def to_json(self) -> dict:
        return {
            "is_mc": self.is_mc,
            "nullity": self.nullity,
            "periphery": list(self.periphery),
            "eta_core": self.core_nullity,
            "failures": list(self.failures),
        }


def is_minimal_configuration(g: Graph) -> MCReport:
    """Evaluate the three axioms exactly and report every violation.

    The defining dichotomy covers K1 and graphs on >= 3 vertices; order 2
    is excluded outright.
    """
    part = classify_vertices(g)
    cv = set(part.cv_set)
    periphery = tuple(v for v in range(g.n) if v not in cv)
    periphery_set = set(periphery)
    independent = all(
        w not in periphery_set
        for v in periphery
        for w in g.adjacency[v]
    )
    core, _ = induced_subgraph(g, part.cv_set)
    core_nullity = nullity(core)
    size_identity = len(periphery) + 1 == core_nullity
    failures = []
    if part.nullity != 1:
        failures.append(f"nullity is {part.nullity}, not 1")
    if not independent:
        failures.append("periphery induces at least one edge")
    if not size_identity:
        failures.append(
            f"periphery size {len(periphery)} + 1 != core nullity {core_nullity}"
        )
    if g.n == 2:
        failures.append("definition excludes |V|=2")
    # a single vertex is K1 and always qualifies; order 2 never does
    is_mc = g.n == 1 or (g.n >= 3 and not failures)
    return MCReport(
        is_mc=is_mc,
        nullity=part.nullity,
        core_subgraph=core,
        periphery=periphery,
        periphery_independent=independent,
        core_nullity=core_nullity,
        size_identity=size_identity,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class BipartiteNullity1Report:
    v1: tuple
    v2: tuple
    larger: tuple
    smaller: tuple
    cv_set: tuple
    checks: tuple

    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def bipartite_nullity1_structure(g: Graph) -> BipartiteNullity1Report:
    """Structure forced on a bipartite graph of nullity 1: odd order,
    class sizes n//2 and n//2 + 1, core vertices inside the larger class,
    and an admissible core-labelling."""
    decomp = is_bipartite(g)
    if decomp is None:
        raise PreconditionError("graph is not bipartite")
    part = classify_vertices(g)
    if part.nullity != 1:
        raise PreconditionError(f"nullity is {part.nullity}, not 1")
    v1, v2 = decomp.v1, decomp.v2
    larger, smaller = (v1, v2) if len(v1) >= len(v2) else (v2, v1)
    n = g.n
    cv = set(part.cv_set)
    checks = (
        TheoremCheck("odd_vertex_count", n % 2 == 1, {"n": n}),
        TheoremCheck(
            "class_sizes_differ_by_one",
            len(larger) == len(smaller) + 1 and len(smaller) == (n - 1) // 2,
            {"larger": len(larger), "smaller": len(smaller)},
        ),
        TheoremCheck(
            "core_inside_larger_class",
            cv <= set(larger),
            {"cv": sorted(cv)},
        ),
        TheoremCheck(
            "admits_core_labelling",
            part.independent_cv,
            {},
        ),
    )
    return BipartiteNullity1Report(
        v1=v1,
        v2=v2,
        larger=larger,
        smaller=smaller,
        cv_set=part.cv_set,
        checks=checks,
    )


@dataclass(frozen=True)
class McSlimEquivalence:
    hypothesis_met: bool
    lhs: Optional[bool]
    rhs: Optional[bool]
    equal: Optional[bool]


def bipartite_mc_slim_equivalence(g: Graph) -> McSlimEquivalence:
    """For bipartite graphs with classes of different sizes: being a
    minimal configuration must coincide with being a connected slim graph
    of nullity 1 whose core is the larger class."""
    decomp = is_bipartite(g)
    if decomp is None:
        raise PreconditionError("graph is not bipartite")
    v1, v2 = decomp.v1, decomp.v2
    if len(v1) == len(v2):
        return McSlimEquivalence(False, None, None, None)
    larger = v1 if len(v1) > len(v2) else v2
    lhs = is_minimal_configuration(g).is_mc
    part = classify_vertices(g)
    rhs = (
        is_connected(g)
        and part.nullity == 1
        and part.independent_cv
        and not part.cfvr_set
        and part.cv_set == larger
    )
    return McSlimEquivalence(True, lhs, rhs, lhs == rhs)


def bipartite_parity_check(g: Graph) -> bool:
    """Nullity and order of a bipartite graph share parity; verified via
    the cross-matrix identity eta = n - 2 rank(S)."""
    decomp = is_bipartite(g)
    if decomp is None:
        raise PreconditionError("graph is not bipartite")
    eta = nullity(g)
    eta_cross = g.n - 2 * rank(decomp.cross)
    return eta == eta_cross and (eta - g.n) % 2 == 0
