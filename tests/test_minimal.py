"""Minimal configurations and bipartite structure results."""

import pytest

import nullcore.minimal
from nullcore.errors import PreconditionError
from nullcore.graphs import (
    Graph,
    gen_cycle,
    gen_path,
    gen_random_bipartite,
    gen_random_tree,
    gen_star,
    subdivision,
)
from nullcore.minimal import (
    bipartite_mc_slim_equivalence,
    bipartite_nullity1_structure,
    bipartite_parity_check,
    is_minimal_configuration,
)
from nullcore.analysis import nullity
from nullcore.rng import SplitMix64

import oracle

T9 = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
               (1, 7), (7, 8)])


def test_mc_fixtures():
    k1 = is_minimal_configuration(Graph(1))
    assert k1.is_mc and k1.nullity == 1
    assert k1.to_json() == {
        "is_mc": True, "nullity": 1, "periphery": [],
        "eta_core": 1, "failures": []}

    p7 = is_minimal_configuration(gen_path(7))
    assert p7.to_json() == {
        "is_mc": True, "nullity": 1, "periphery": [1, 3, 5],
        "eta_core": 4, "failures": []}

    star = is_minimal_configuration(gen_star(4))
    assert not star.is_mc
    assert "nullity is 2, not 1" in star.failures


def test_mc_failure_messages():
    c4 = is_minimal_configuration(gen_cycle(4))
    assert not c4.is_mc
    assert "nullity is 2, not 1" in c4.failures
    assert "periphery size 0 + 1 != core nullity 2" in c4.failures

    k2 = is_minimal_configuration(Graph(2, [(0, 1)]))
    assert not k2.is_mc
    assert "definition excludes |V|=2" in k2.failures

    # nullity 1 but adjacent periphery vertices
    g = Graph(7, [(0, 1), (0, 3), (0, 6), (1, 2), (1, 4), (1, 5),
                  (2, 3), (2, 5), (2, 6), (3, 4), (4, 5)])
    rep = is_minimal_configuration(g)
    assert rep.nullity == 1 and not rep.periphery_independent
    assert "periphery induces at least one edge" in rep.failures


def test_mc_subdivisions_always_qualify():
    rng = SplitMix64(31337)
    for _ in range(50):
        t = gen_random_tree(1 + rng.below(9), rng.next_u64())
        s, _ = subdivision(t)
        rep = is_minimal_configuration(s)
        assert rep.is_mc
        assert rep.periphery == tuple(range(t.n, t.n + t.m))
        assert rep.core_nullity == t.n
        assert rep.size_identity


def test_bipartite_nullity1_structure_p7():
    rep = bipartite_nullity1_structure(gen_path(7))
    assert rep.larger == (0, 2, 4, 6)
    assert rep.smaller == (1, 3, 5)
    assert rep.cv_set == (0, 2, 4, 6)
    assert rep.all_hold()
    names = {c.name for c in rep.checks}
    assert names == {
        "odd_vertex_count",
        "class_sizes_differ_by_one",
        "core_inside_larger_class",
        "admits_core_labelling",
    }


def test_bipartite_nullity1_structure_preconditions():
    with pytest.raises(PreconditionError):
        bipartite_nullity1_structure(gen_cycle(5))  # odd cycle
    with pytest.raises(PreconditionError):
        bipartite_nullity1_structure(gen_path(4))  # nullity 0


def test_bipartite_nullity1_structure_random():
    rng = SplitMix64(2020)
    seen = 0
    while seen < 40:
        g = gen_random_bipartite(3 + rng.below(8), rng.next_u64())
        if nullity(g) != 1:
            continue
        seen += 1
        assert bipartite_nullity1_structure(g).all_hold()


def test_mc_slim_equivalence_fixtures():
    p7 = bipartite_mc_slim_equivalence(gen_path(7))
    assert p7.hypothesis_met and p7.lhs and p7.rhs and p7.equal

    t9 = bipartite_mc_slim_equivalence(T9)
    assert t9.hypothesis_met and not t9.lhs and not t9.rhs and t9.equal

    k2 = bipartite_mc_slim_equivalence(Graph(2, [(0, 1)]))
    assert not k2.hypothesis_met  # equal class sizes


def test_mc_slim_equivalence_random_bipartite():
    rng = SplitMix64(555)
    checked = 0
    for _ in range(400):
        g = gen_random_bipartite(2 + rng.below(9), rng.next_u64())
        eq = bipartite_mc_slim_equivalence(g)
        if eq.hypothesis_met:
            checked += 1
            assert eq.equal
    assert checked > 100


def test_mc_slim_equivalence_classifies_once(monkeypatch):
    # both sides of the equivalence read one partition of g
    calls = []
    real = nullcore.minimal.classify_vertices

    def counted(g, basis=None):
        calls.append(g)
        return real(g, basis)

    monkeypatch.setattr(nullcore.minimal, "classify_vertices", counted)
    rng = SplitMix64(555)
    checked = 0
    for _ in range(60):
        g = gen_random_bipartite(2 + rng.below(9), rng.next_u64())
        calls.clear()
        if bipartite_mc_slim_equivalence(g).hypothesis_met:
            checked += 1
            assert calls == [g]
    assert checked > 10


def test_bipartite_checks_reuse_a_given_partition(monkeypatch):
    # Handed the partition, the three bipartite checks classify nothing
    # and agree with their stand-alone runs.
    rng = SplitMix64(556)
    graphs = [gen_path(7), T9, Graph(3)] + [
        gen_random_bipartite(2 + rng.below(9), rng.next_u64())
        for _ in range(40)]
    parts = [nullcore.minimal.classify_vertices(g) for g in graphs]
    alone = []
    for g, part in zip(graphs, parts):
        alone.append((
            bipartite_parity_check(g),
            bipartite_mc_slim_equivalence(g),
            bipartite_nullity1_structure(g) if part.nullity == 1 else None,
        ))

    def refuse(g, basis=None):
        raise AssertionError("classified a graph it was handed")

    monkeypatch.setattr(nullcore.minimal, "classify_vertices", refuse)
    nullity1 = 0
    for g, part, expected in zip(graphs, parts, alone):
        nullity1 += part.nullity == 1
        assert (
            bipartite_parity_check(g, part),
            bipartite_mc_slim_equivalence(g, part),
            bipartite_nullity1_structure(g, part)
            if part.nullity == 1 else None,
        ) == expected
    assert nullity1 >= 5


def test_bipartite_parity():
    assert bipartite_parity_check(gen_path(7))
    assert bipartite_parity_check(gen_cycle(4))
    assert bipartite_parity_check(Graph(3))
    with pytest.raises(PreconditionError):
        bipartite_parity_check(gen_cycle(5))
    rng = SplitMix64(808)
    for _ in range(80):
        g = gen_random_bipartite(2 + rng.below(9), rng.next_u64())
        assert bipartite_parity_check(g)
        # parity statement double-checked against the oracle rank
        eta = oracle.nullity_of(g.n, list(g.edges()))
        assert (g.n - eta) % 2 == 0


def test_mc_on_orders_zero_to_two():
    cases = (
        (Graph(0), False,
         ("nullity is 0, not 1", "periphery size 0 + 1 != core nullity 0")),
        (Graph(1), True, ()),
        (Graph(2), False,
         ("nullity is 2, not 1", "periphery size 0 + 1 != core nullity 2",
          "definition excludes |V|=2")),
        (Graph(2, [(0, 1)]), False,
         ("nullity is 0, not 1", "periphery induces at least one edge",
          "periphery size 2 + 1 != core nullity 0",
          "definition excludes |V|=2")),
    )
    for g, is_mc, failures in cases:
        rep = is_minimal_configuration(g)
        assert (rep.is_mc, rep.failures) == (is_mc, failures), g
