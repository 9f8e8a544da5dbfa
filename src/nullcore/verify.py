"""Randomized verification battery for the structural guarantees.

Each suite draws reproducible random graphs, evaluates every guarantee
that applies, and tallies exact pass/fail counts, keeping failing
graphs for replay.  Per-trial seeds come from one master stream in a
fixed order, so equal inputs and seeds give identical summaries.
"""

from .analysis import (
    _delete_and_compare,
    classify_vertices,
    no_single_core_neighbour_check,
    nullity,
    slim_reduce,
    unicyclic_analysis,
    verify_block_theorems,
)
from .errors import TheoremViolationError
from .graphs import (
    gen_cycle,
    gen_random_bipartite,
    gen_random_graph,
    gen_random_tree,
    gen_random_unicyclic,
    subdivision,
)
from .linalg import Record
from .rng import SplitMix64

# Each trial imports the modules of its own checks (perturb, trees,
# minimal), so a suite loads only the modules it runs.

_COUNTEREXAMPLE_CAP = 100
# Largest max_n a suite accepts.  A trial classifies graphs of up to
# max_n vertices by an elimination on n x n rows, cubic on a general
# graph, on several graphs per trial: one perturbations trial on a tree
# drawn at n = max_n takes 0.8-1.1 s at 64 and 13-14 s at 128 (2-vCPU
# Xeon).
_MAX_N = 64


class VerifySuiteConfig(Record):
    suite: str
    max_n: int
    trials: int
    seed: int

    def __new__(cls, suite, max_n, trials, seed):
        if suite != "all" and suite not in SUITES:
            raise ValueError("unknown suite %r" % suite)
        if max_n < 1:
            raise ValueError("max_n must be at least 1")
        if max_n > _MAX_N:
            raise ValueError("max_n must be at most %d" % _MAX_N)
        if trials < 1:
            raise ValueError("trials must be at least 1")
        return super().__new__(cls, suite, max_n, trials, seed)


class SuiteResult(Record):
    config: VerifySuiteConfig
    tallies: dict  # check name -> [passes, fails]
    counterexamples: tuple  # (check name, Graph), capped

    @property
    def ok(self) -> bool:
        return all(fails == 0 for _, fails in self.tallies.values())

    def summary_lines(self) -> list:
        lines = []
        for name in sorted(self.tallies):
            passes, fails = self.tallies[name]
            lines.append("%s: %d pass, %d fail" % (name, passes, fails))
        return lines


def _size(rng: SplitMix64, lo: int, max_n: int) -> int:
    return lo + rng.below(max_n - lo + 1)


def _holds(check, *args) -> bool:
    """Whether check(*args) returns without a TheoremViolationError."""
    try:
        check(*args)
    except TheoremViolationError:
        return False
    return True


def _trial_trees(seed: int, max_n: int, index: int) -> list:
    from .trees import (
        cfvr_perfect_matching,
        end_vertex_core_vertices,
        is_mc_tree,
        tree_nullity_identity,
    )

    if max_n < 2:
        return []
    rng = SplitMix64(seed)
    t = gen_random_tree(_size(rng, 2, max_n), rng.next_u64())
    part = classify_vertices(t)
    mc_tree = is_mc_tree(t, part)
    out = [
        ("nullity_three_way", tree_nullity_identity(t).all_equal, t),
        ("core_independent", part.independent_cv, t),
        ("mc_routes_agree",
         mc_tree.by_definition == mc_tree.by_subdivision, t),
    ]
    # Pendant-pair deletions keep the nullity and every survivor's class.
    pair_ok = True
    for u in range(t.n):
        if t.degree(u) != 1:
            continue
        pair = (u, t.adjacency[u][0])
        keep = [v for v in range(t.n) if v not in pair]
        _, _, eta, changed = _delete_and_compare(t, part, keep)
        if eta != part.nullity or changed:
            pair_ok = False
            break
    out.append(("pendant_pair_classes", pair_ok, t))
    if part.nullity > 0:
        out.append(
            ("two_core_end_vertices",
             len(end_vertex_core_vertices(t, part).vertices) >= 2, t)
        )
        out.append(
            ("no_single_core_neighbour",
             no_single_core_neighbour_check(t, part).holds, t)
        )
        blocks_ok = all(c.holds for c in verify_block_theorems(t, part))
        out.append(("block_identities", blocks_ok, t))
        out.append(
            ("remote_perfect_matching",
             cfvr_perfect_matching(t, part) is not None, t)
        )
        out.append(
            ("slim_reduction_faithful", _holds(slim_reduce, t, part), t)
        )
    return out


def _trial_bipartite(seed: int, max_n: int, index: int) -> list:
    from .minimal import (
        bipartite_mc_slim_equivalence,
        bipartite_nullity1_structure,
        bipartite_parity_check,
    )

    if max_n < 2:
        return []
    rng = SplitMix64(seed)
    g = gen_random_bipartite(_size(rng, 2, max_n), rng.next_u64())
    part = classify_vertices(g)
    out = [("nullity_parity", bipartite_parity_check(g, part), g)]
    if part.nullity == 1:
        out.append(
            ("nullity1_structure",
             bipartite_nullity1_structure(g, part).all_hold(), g)
        )
    eq = bipartite_mc_slim_equivalence(g, part)
    if eq.hypothesis_met:
        out.append(("mc_slim_equivalence", eq.equal, g))
    return out


def _trial_subdivisions(seed: int, max_n: int, index: int) -> list:
    from .trees import (
        incidence_rank_check,
        is_mc_tree,
        subdivision_charpoly_identity,
    )

    rng = SplitMix64(seed)
    t = gen_random_tree(_size(rng, 1, max_n), rng.next_u64())
    s, _ = subdivision(t)
    part = classify_vertices(s)
    inserted = tuple(range(t.n, t.n + t.m))
    mc_tree = is_mc_tree(s, part)
    periphery = tuple(sorted(part.ncv_set + part.cfvr_set))
    out = [
        ("unit_nullity", part.nullity == 1, s),
        ("core_set_is_original", part.cv_set == tuple(range(t.n)), s),
        (
            "periphery_is_inserted",
            mc_tree.by_definition and periphery == inserted, s,
        ),
        (
            "matching_count_is_ncv",
            mc_tree.t_matches_ncv and mc_tree.q_full_column_rank is True, s,
        ),
        ("incidence_rank", incidence_rank_check(t), t),
    ]
    out.append(("inverse_roundtrip", mc_tree.smoothed == t, s))
    if s.n <= 16:
        out.append(
            ("charpoly_factorization", subdivision_charpoly_identity(t), t)
        )
    return out


def _trial_unicyclic(seed: int, max_n: int, index: int) -> list:
    if max_n < 3:
        return []
    rng = SplitMix64(seed)
    g = gen_random_unicyclic(_size(rng, 3, max_n), rng.next_u64())
    out = [
        (report_check.name, report_check.holds, g)
        for report_check in unicyclic_analysis(g).checks
    ]
    r = _size(rng, 3, max_n)
    cycle = gen_cycle(r)
    expected = 2 if r % 4 == 0 else 0
    out.append(("cycle_nullity_rule", nullity(cycle) == expected, cycle))
    return out


def _independent_cv_graph(rng: SplitMix64, max_n: int):
    """A random graph with independent core vertices, or a tree fallback
    so the trial always has a subject; returned with its partition."""
    n = _size(rng, 2, max_n)
    for _ in range(20):
        g = gen_random_graph(n, 1, 2, rng.next_u64())
        part = classify_vertices(g)
        if part.independent_cv:
            return g, part
    t = gen_random_tree(n, rng.next_u64())
    return t, classify_vertices(t)


def _trial_perturbations(seed: int, max_n: int, index: int) -> list:
    from .perturb import (
        CFV_FAMILY,
        apply_and_report,
        candidate_edges,
        verify_cv_ncv_theorem,
    )

    if max_n < 2:
        return []
    rng = SplitMix64(seed)
    if index % 2 == 0:
        g = gen_random_tree(_size(rng, 2, max_n), rng.next_u64())
        part = classify_vertices(g)
    else:
        g, part = _independent_cv_graph(rng, min(max_n, 10))
    out = []
    for cand in candidate_edges(g, part):
        if cand.type_pair in CFV_FAMILY:
            ok = _holds(apply_and_report, g, cand, part)
            out.append(("cfv_addition_theorems", ok, g))
        elif cand.type_pair == "CV-NCV" and part.independent_cv:
            ok = _holds(verify_cv_ncv_theorem, g, cand, part)
            out.append(("cv_ncv_conditional", ok, g))
    return out


# Suite name -> trial(seed, max_n, index), in the order "all" runs them.
# index is the trial's position within its suite; only the perturbation
# suite uses it, to alternate trees and general graphs.
_TRIALS = {
    "trees": _trial_trees,
    "bipartite": _trial_bipartite,
    "subdivisions": _trial_subdivisions,
    "perturbations": _trial_perturbations,
    "unicyclic": _trial_unicyclic,
}
SUITES = tuple(_TRIALS)


def run_suite(config: VerifySuiteConfig) -> SuiteResult:
    suites = SUITES if config.suite == "all" else (config.suite,)
    master = SplitMix64(config.seed)
    tallies = {}
    counterexamples = []
    for suite in suites:
        for index in range(config.trials):
            trial = _TRIALS[suite](master.next_u64(), config.max_n, index)
            for check, ok, graph in trial:
                key = suite + "/" + check
                cell = tallies.setdefault(key, [0, 0])
                cell[0 if ok else 1] += 1
                if not ok and len(counterexamples) < _COUNTEREXAMPLE_CAP:
                    counterexamples.append((key, graph))
    return SuiteResult(config, tallies, tuple(counterexamples))
