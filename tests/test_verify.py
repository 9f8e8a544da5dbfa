"""Randomized suite harness: determinism and tallies."""

import sys

import pytest

import nullcore.analysis
import nullcore.verify
from nullcore.errors import TheoremViolationError
from nullcore.analysis import classify_vertices
from nullcore.graphs import Graph, is_tree
from nullcore.rng import SplitMix64
from nullcore.verify import (
    SUITES,
    SuiteResult,
    VerifySuiteConfig,
    run_suite,
)


def test_config_validation():
    VerifySuiteConfig("trees", 5, 5, 0)
    VerifySuiteConfig("all", 1, 1, 0)
    with pytest.raises(ValueError):
        VerifySuiteConfig("nope", 5, 5, 0)
    with pytest.raises(ValueError):
        VerifySuiteConfig("trees", 0, 5, 0)
    with pytest.raises(ValueError):
        VerifySuiteConfig("trees", 5, 0, 0)


def test_each_suite_runs_clean():
    for suite in SUITES:
        result = run_suite(VerifySuiteConfig(suite, 8, 12, 99))
        assert result.ok, (suite, result.counterexamples)
        assert result.counterexamples == ()
        for name in result.tallies:
            assert name.startswith(suite + "/")


def test_all_suite_covers_everything():
    result = run_suite(VerifySuiteConfig("all", 7, 8, 5))
    assert result.ok
    prefixes = {name.split("/")[0] for name in result.tallies}
    assert prefixes == set(SUITES)
    lines = result.summary_lines()
    assert lines == sorted(lines)
    assert all("pass" in line for line in lines)


def test_runs_are_reproducible():
    cfg = VerifySuiteConfig("trees", 9, 20, 123)
    assert run_suite(cfg).tallies == run_suite(cfg).tallies


def test_different_seeds_differ():
    a = run_suite(VerifySuiteConfig("trees", 10, 25, 1)).tallies
    b = run_suite(VerifySuiteConfig("trees", 10, 25, 2)).tallies
    assert a != b  # singular-tree counts almost surely differ


def test_suite_result_flags_failures():
    bad = SuiteResult(
        VerifySuiteConfig("trees", 5, 1, 0),
        {"trees/x": [3, 1]},
        (),
    )
    assert not bad.ok
    assert bad.summary_lines() == ["trees/x: 3 pass, 1 fail"]


def _classified_graphs(monkeypatch):
    """Record the graph of every classify_vertices call, wherever a
    nullcore module binds the function."""
    calls = []
    real = nullcore.analysis.classify_vertices

    def counted(g, basis=None):
        calls.append(g)
        return real(g, basis)

    for name, module in list(sys.modules.items()):
        if name.startswith("nullcore.") and (
                getattr(module, "classify_vertices", None) is real):
            monkeypatch.setattr(module, "classify_vertices", counted)
    return calls


@pytest.mark.parametrize(
    "suite", ["trees", "bipartite", "subdivisions", "perturbations"])
def test_trial_classifies_its_graph_once(monkeypatch, suite):
    # The trial's graph is classified once; every consumer of that graph
    # is handed the partition instead of classifying again (the
    # pendant-pair, slim and perturbation checks classify other graphs).
    # A perturbation trial on a general graph first classifies the
    # candidates that _independent_cv_graph rejects, so its graph is the
    # one that function returns; elsewhere it is the first classified.
    trial = nullcore.verify._TRIALS[suite]
    calls = _classified_graphs(monkeypatch)
    picked = []
    pick = nullcore.verify._independent_cv_graph

    def recorded_pick(rng, max_n):
        g, part = pick(rng, max_n)
        picked.append(g)
        return g, part

    monkeypatch.setattr(nullcore.verify, "_independent_cv_graph",
                        recorded_pick)
    singular = rejected = 0
    for seed in range(40):
        calls.clear()
        picked.clear()
        trial(seed, 12, seed)
        graph = picked[0] if picked else calls[0]
        assert sum(g == graph for g in calls) == 1, (seed, graph.edges())
        singular += nullcore.analysis.nullity(graph) > 0
        rejected += calls[0] != graph
    assert singular >= 10
    assert (rejected > 0) == (suite == "perturbations")


def test_failing_checks_are_tallied_and_capped(monkeypatch):
    # Each trial fails two checks and passes one; 60 trials give 120
    # failures, of which the first 100 are kept, in trial order.
    def failing_trial(seed, max_n, index):
        g = Graph(index + 1)
        return [("a", False, g), ("b", True, g), ("c", False, g)]

    monkeypatch.setitem(nullcore.verify._TRIALS, "trees", failing_trial)
    result = run_suite(VerifySuiteConfig("trees", 5, 60, 0))
    assert result.tallies == {
        "trees/a": [0, 60], "trees/b": [60, 0], "trees/c": [0, 60]}
    assert result.ok is False
    assert nullcore.verify._COUNTEREXAMPLE_CAP == 100
    assert result.counterexamples == tuple(
        (key, Graph(index + 1))
        for index in range(50) for key in ("trees/a", "trees/c"))


def test_raising_slim_reduction_counts_as_fail(monkeypatch):
    def broken(g, partition=None):
        raise TheoremViolationError("forced", g)

    monkeypatch.setattr(nullcore.verify, "slim_reduce", broken)
    result = run_suite(VerifySuiteConfig("trees", 10, 30, 4))
    singular = sum(result.tallies["trees/two_core_end_vertices"])
    assert singular > 0
    assert result.tallies["trees/slim_reduction_faithful"] == [0, singular]
    assert not result.ok
    failed = [key for key, _ in result.counterexamples]
    assert failed == ["trees/slim_reduction_faithful"] * singular


def test_config_caps_max_n():
    assert VerifySuiteConfig("all", 64, 1, 0).max_n == 64
    with pytest.raises(ValueError, match="max_n must be at most 64"):
        VerifySuiteConfig("all", 65, 1, 0)


def test_trials_below_their_floor_draw_nothing():
    # trees, bipartite and perturbations need 2 vertices and unicyclic 3;
    # only subdivisions draws at max_n = 1
    result = run_suite(VerifySuiteConfig("all", 1, 3, 0))
    assert result.ok
    assert {name.split("/")[0] for name in result.tallies} == {"subdivisions"}


def test_independent_cv_graph_falls_back_to_a_tree(monkeypatch):
    # C4 has adjacent core vertices, so every draw is rejected
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    monkeypatch.setattr(nullcore.verify, "gen_random_graph",
                        lambda n, num, den, seed: c4)
    g, part = nullcore.verify._independent_cv_graph(SplitMix64(5), 10)
    assert is_tree(g) and 2 <= g.n <= 10
    assert part == classify_vertices(g)
