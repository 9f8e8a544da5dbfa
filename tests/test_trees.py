"""Pendant reduction, tree nullity, remote matchings, subdivisions."""

import pytest
from hypothesis import given, settings, strategies as st

from nullcore.analysis import classify_vertices, nullity
from nullcore.errors import PreconditionError
from nullcore.graphs import (
    Graph,
    gen_path,
    gen_cycle,
    gen_random_tree,
    gen_star,
    subdivision,
)
from nullcore.rng import SplitMix64
from nullcore.trees import (
    cfvr_perfect_matching,
    end_vertex_core_vertices,
    incidence_rank_check,
    inverse_subdivision,
    is_mc_tree,
    pendant_reduction,
    subdivision_charpoly_identity,
    tree_nullity_identity,
)

import nullcore.minimal
import nullcore.trees
import oracle

T9 = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
               (1, 7), (7, 8)])


def test_pendant_reduction_fixtures():
    trace = pendant_reduction(gen_path(7))
    assert trace.steps == ((0, 1), (2, 3), (4, 5))
    assert trace.isolated_remainder == (6,)
    assert trace.t == 3
    assert trace.to_json() == {
        "steps": [[0, 1], [2, 3], [4, 5]], "isolated": [6], "t": 3}

    k2 = pendant_reduction(Graph(2, [(0, 1)]))
    assert k2.steps == ((0, 1),) and k2.isolated_remainder == ()

    star = pendant_reduction(gen_star(4))
    assert star.t == 1
    assert len(star.isolated_remainder) == 2


def test_pendant_reduction_requires_forest():
    with pytest.raises(PreconditionError):
        pendant_reduction(gen_cycle(4))


def test_pendant_reduction_counts_matching_on_random_forests():
    # On forests the greedy end-vertex rule attains the maximum matching.
    rng = SplitMix64(217)
    for _ in range(80):
        n = 1 + rng.below(11)
        t = gen_random_tree(n, rng.next_u64())
        trace = pendant_reduction(t)
        assert trace.t == oracle.max_matching(n, list(t.edges()))
        # steps really are disjoint edges of t
        used = set()
        for u, w in trace.steps:
            assert t.has_edge(u, w)
            assert u not in used and w not in used
            used.update((u, w))


def _min_scan_reduction(g):
    """The rule pendant_reduction keeps, run the quadratic way: scan all
    live vertices for the lowest-labelled end vertex at every step."""
    alive = set(range(g.n))
    degree = [g.degree(v) for v in range(g.n)]
    steps = []
    while True:
        end = min((v for v in alive if degree[v] == 1), default=None)
        if end is None:
            return tuple(steps), tuple(sorted(alive))
        partner = next(w for w in g.adjacency[end] if w in alive)
        steps.append((end, partner))
        for gone in (end, partner):
            alive.remove(gone)
            for w in g.adjacency[gone]:
                if w in alive:
                    degree[w] -= 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_pendant_reduction_matches_the_min_scan_rule(data):
    # forests with isolated vertices, relabelled at random: vertex v > 0
    # hangs off an earlier vertex or starts a component of its own
    n = data.draw(st.integers(0, 40))
    parents = [data.draw(st.integers(-1, v - 1)) for v in range(1, n)]
    order = data.draw(st.permutations(range(n)))
    g = Graph(n, [(order[p], order[v])
                  for v, p in enumerate(parents, 1) if p >= 0])
    trace = pendant_reduction(g)
    assert (trace.steps, trace.isolated_remainder) == _min_scan_reduction(g)
    assert trace.t == len(trace.steps)


def test_tree_nullity_identity_three_ways():
    rng = SplitMix64(88)
    for _ in range(120):
        t = gen_random_tree(2 + rng.below(12), rng.next_u64())
        ident = tree_nullity_identity(t)
        assert ident.all_equal
        assert ident.eta_rank == oracle.nullity_of(t.n, list(t.edges()))
    with pytest.raises(PreconditionError):
        tree_nullity_identity(gen_cycle(4))


def test_end_vertex_cores():
    ends = end_vertex_core_vertices(gen_path(7))
    assert ends.vertices == (0, 6)
    assert not ends.non_singular
    star = end_vertex_core_vertices(gen_star(4))
    assert star.vertices == (1, 2, 3)
    p4 = end_vertex_core_vertices(gen_path(4))
    assert p4.vertices == () and p4.non_singular


def test_singular_tree_has_two_core_ends():
    rng = SplitMix64(3131)
    seen = 0
    while seen < 60:
        t = gen_random_tree(2 + rng.below(12), rng.next_u64())
        if nullity(t) == 0:
            continue
        seen += 1
        assert len(end_vertex_core_vertices(t).vertices) >= 2


def test_cfvr_perfect_matching_fixtures():
    assert cfvr_perfect_matching(gen_path(7)) == ()
    assert cfvr_perfect_matching(T9) == ((7, 8),)


def test_cfvr_perfect_matching_reports_none_on_a_forged_partition():
    # the remote forest of a tree's own partition always has a perfect
    # matching, so a forged partition of P4 makes it P3, which has none
    forged = classify_vertices(gen_path(4))._replace(cfvr_set=(0, 1, 2))
    assert cfvr_perfect_matching(gen_path(4), forged) is None


def test_cfvr_perfect_matching_is_valid_on_random_singular_trees():
    rng = SplitMix64(77)
    seen = 0
    while seen < 60:
        t = gen_random_tree(2 + rng.below(12), rng.next_u64())
        part = classify_vertices(t)
        if part.nullity == 0:
            continue
        seen += 1
        matching = cfvr_perfect_matching(t)
        assert matching is not None
        covered = set()
        remote = set(part.cfvr_set)
        for u, w in matching:
            assert t.has_edge(u, w)
            assert u in remote and w in remote
            assert u not in covered and w not in covered
            covered.update((u, w))
        assert covered == remote


def test_inverse_subdivision_round_trip():
    rng = SplitMix64(99)
    for _ in range(60):
        t = gen_random_tree(1 + rng.below(10), rng.next_u64())
        s, _ = subdivision(t)
        back = inverse_subdivision(s)
        assert back is not None
        smoothed, prov = back
        assert smoothed == t
        assert [prov.source_vertex(v) for v in range(t.n)] == list(
            range(t.n))


def test_inverse_subdivision_fixtures():
    smoothed, _ = inverse_subdivision(gen_path(7))
    assert smoothed == gen_path(4)
    smoothed, _ = inverse_subdivision(gen_path(5))
    assert smoothed == gen_path(3)
    assert inverse_subdivision(gen_path(4)) is None  # equal classes
    assert inverse_subdivision(T9) is None
    k1, _ = inverse_subdivision(Graph(1))
    assert k1 == Graph(1)
    # right class sizes but the smaller class is not all degree 2
    assert inverse_subdivision(gen_star(5)) is None


def test_is_mc_tree_fixtures():
    p7 = is_mc_tree(gen_path(7))
    assert p7.is_mc and p7.by_definition and p7.by_subdivision
    assert p7.smoothed == gen_path(4)
    assert p7.t == 3 and p7.ncv_count == 3 and p7.t_matches_ncv
    assert p7.q_full_column_rank is True

    p5 = is_mc_tree(gen_path(5))
    assert p5.is_mc

    k2 = is_mc_tree(Graph(2, [(0, 1)]))
    assert not k2.is_mc
    assert k2.q_full_column_rank is None  # non-singular, no cores

    t9 = is_mc_tree(T9)
    assert not t9.is_mc and not t9.by_definition and not t9.by_subdivision


def test_mc_tree_routes_agree_on_random_trees():
    rng = SplitMix64(4242)
    for _ in range(150):
        t = gen_random_tree(1 + rng.below(12), rng.next_u64())
        rep = is_mc_tree(t)
        assert rep.by_definition == rep.by_subdivision
        assert rep.is_mc == (rep.by_definition and rep.by_subdivision)


def test_incidence_rank_check():
    assert incidence_rank_check(gen_path(4))
    assert incidence_rank_check(Graph(1))
    rng = SplitMix64(606)
    for _ in range(40):
        assert incidence_rank_check(
            gen_random_tree(1 + rng.below(10), rng.next_u64()))


def test_subdivision_charpoly_identity():
    assert subdivision_charpoly_identity(gen_path(4))
    assert subdivision_charpoly_identity(Graph(1))
    rng = SplitMix64(1111)
    for _ in range(25):
        t = gen_random_tree(1 + rng.below(8), rng.next_u64())
        assert subdivision_charpoly_identity(t)


def test_subdivision_charpoly_identity_via_oracle():
    # cross-check the packaged identity against interpolation on one tree
    t = gen_random_tree(6, 321)
    s, _ = subdivision(t)
    from nullcore.graphs import adjacency_matrix
    from nullcore.linalg import char_poly
    lhs = list(char_poly(adjacency_matrix(s)).coefficients)
    assert lhs == oracle.charpoly_coefficients(
        oracle.adjacency_rows(s.n, list(s.edges())))


def test_is_mc_tree_classifies_once(monkeypatch):
    # is_minimal_configuration reads the partition is_mc_tree made
    calls = []

    def counted(g, basis=None):
        calls.append(g)
        return classify_vertices(g, basis)

    for module in (nullcore.trees, nullcore.minimal):
        monkeypatch.setattr(module, "classify_vertices", counted)
    for g in (gen_path(7), gen_path(4), subdivision(T9)[0]):
        calls.clear()
        is_mc_tree(g)
        assert calls == [g]



# C4 has a cycle and two disjoint edges are not connected; C5 is odd.
_NOT_TREES = {"C4": gen_cycle(4), "2K2": Graph(4, [(0, 1), (2, 3)])}
_TREE_CHECKS = (
    tree_nullity_identity, end_vertex_core_vertices, cfvr_perfect_matching,
    inverse_subdivision, is_mc_tree, incidence_rank_check)
_BIPARTITE_CHECKS = (
    nullcore.minimal.bipartite_nullity1_structure,
    nullcore.minimal.bipartite_mc_slim_equivalence,
    nullcore.minimal.bipartite_parity_check)


@pytest.mark.parametrize("check, g, message", [
    pytest.param(check, g, "requires a tree", id=f"{check.__name__}-{name}")
    for check in _TREE_CHECKS for name, g in _NOT_TREES.items()
] + [
    pytest.param(check, gen_cycle(5), "graph is not bipartite",
                 id=f"{check.__name__}-C5")
    for check in _BIPARTITE_CHECKS
])
def test_graph_family_guards(check, g, message):
    with pytest.raises(PreconditionError, match=message):
        check(g)
