"""Acceptance gate: nine structural criteria, one test (and one verdict
line under pytest -v) per criterion.

Every check is exact; there are no tolerances anywhere.  Each test also
enforces its own wall-clock budget, and all randomness is seeded, so
reruns are bit-identical.

Criterion 4 is expected to stay red on its random-graph half: the
remote-block non-singularity it demands is a tree fact that provably
does not extend to every singular graph with independent core vertices.
See test_analysis.py::test_remote_singular_counterexample_pinned for a
deterministic 7-vertex counterexample; the failure message below
reports the exact per-identity breakdown so the gap stays visible.
"""

import time

from nullcore.analysis import (
    VertexClass,
    classify_vertices,
    no_single_core_neighbour_check,
    nullity,
    verify_block_theorems,
)
from nullcore.graphs import (
    adjacency_matrix,
    add_edge,
    gen_cycle,
    gen_path,
    gen_random_bipartite,
    gen_random_graph,
    gen_random_tree,
    incidence_matrix,
    induced_subgraph,
    subdivision,
)
from nullcore.linalg import nullspace_basis, rank
from nullcore.minimal import bipartite_parity_check, is_minimal_configuration
from nullcore.perturb import (
    CFV_FAMILY,
    apply_and_report,
    candidate_edges,
    greedy_densify,
    safe_additions,
    verify_cv_ncv_theorem,
)
from nullcore.rng import SplitMix64
from nullcore.trees import (
    cfvr_perfect_matching,
    inverse_subdivision,
    pendant_reduction,
    subdivision_charpoly_identity,
    tree_nullity_identity,
)

import oracle


def _check_budget(started: float, limit_s: float, label: str):
    elapsed = time.perf_counter() - started
    assert elapsed < limit_s, (
        "%s took %.1f s, budget is %.0f s" % (label, elapsed, limit_s)
    )


def _singular_trees(count: int, n_lo: int, n_hi: int, seed: int):
    """Deterministic stream of random trees with nullity >= 1, cycling the
    order through [n_lo, n_hi]."""
    rng = SplitMix64(seed)
    span = n_hi - n_lo + 1
    out = []
    i = 0
    while len(out) < count:
        n = n_lo + (i % span)
        i += 1
        t = gen_random_tree(n, rng.next_u64())
        if nullity(t) > 0:
            out.append(t)
    return out


def _independent_core_graphs(count: int, n_lo: int, n_hi: int, seed: int):
    """Random graphs (edge probability 1/2) kept only when singular with
    pairwise non-adjacent core vertices.  Returns (graph, partition)."""
    rng = SplitMix64(seed)
    span = n_hi - n_lo + 1
    out = []
    i = 0
    while len(out) < count:
        n = n_lo + (i % span)
        i += 1
        g = gen_random_graph(n, 1, 2, rng.next_u64())
        if nullity(g) == 0:
            continue
        part = classify_vertices(g)
        if part.independent_cv:
            out.append((g, part))
    return out


def _independent_core_bases(count: int, n_lo: int, n_hi: int, seed: int):
    """Alternating random trees and random graphs, any nullity, filtered
    to independent core vertices.  Returns (graph, partition)."""
    rng = SplitMix64(seed)
    span = n_hi - n_lo + 1
    out = []
    i = 0
    while len(out) < count:
        n = n_lo + (i % span)
        grow_tree = i % 2 == 0
        i += 1
        s = rng.next_u64()
        g = gen_random_tree(n, s) if grow_tree else gen_random_graph(n, 1, 2, s)
        part = classify_vertices(g)
        if part.independent_cv:
            out.append((g, part))
    return out


def test_01_fixture_nullities_and_classes():
    """Paths and cycles with pinned nullities, kernel, and classes."""
    started = time.perf_counter()

    assert nullity(gen_path(4)) == 0

    c4 = classify_vertices(gen_cycle(4))
    assert c4.nullity == 2
    assert c4.cv_set == (0, 1, 2, 3)

    p7 = gen_path(7)
    basis = nullspace_basis(adjacency_matrix(p7))
    assert basis.vectors == ((1, 0, -1, 0, 1, 0, -1),)
    part = classify_vertices(p7, basis)
    assert part.nullity == 1
    assert part.cv_set == (0, 2, 4, 6)

    c6 = classify_vertices(gen_cycle(6))
    assert c6.nullity == 0
    assert all(c is VertexClass.CFV_UPP for c in c6.class_of)

    assert nullity(gen_cycle(8)) == 2
    assert nullity(gen_cycle(12)) == 2

    _check_budget(started, 1.0, "fixture criterion")


def test_02_tree_nullity_three_ways():
    """500 random trees, n in [2, 15]: pendant reduction, exact rank and
    n - 2t give the same nullity."""
    started = time.perf_counter()
    rng = SplitMix64(0xACC2)
    for i in range(500):
        n = 2 + (i % 14)
        t = gen_random_tree(n, rng.next_u64())
        ident = tree_nullity_identity(t)
        assert ident.all_equal, (t.edges(), ident)
    _check_budget(started, 30.0, "tree identity suite")


def test_03_pendant_pair_removal_preserves_classes():
    """300 random singular trees: removing any end vertex together with
    its neighbour keeps the nullity and every survivor's class."""
    started = time.perf_counter()
    for t in _singular_trees(300, 3, 14, 0xACC3):
        part = classify_vertices(t)
        for u in range(t.n):
            if t.degree(u) != 1:
                continue
            v = t.adjacency[u][0]
            keep = [w for w in range(t.n) if w not in (u, v)]
            h, prov = induced_subgraph(t, keep)
            assert nullity(h) == part.nullity, (t.edges(), u, v)
            part_h = classify_vertices(h)
            for new in range(h.n):
                old = prov.to_source[new][1]
                assert part_h.class_of[new] is part.class_of[old], (
                    t.edges(), u, v, old,
                )
    _check_budget(started, 60.0, "pendant pair suite")


def test_04_block_identities():
    """Block identities of the core labelling, on 300 random singular
    trees and 200 random singular independent-core graphs (n <= 12).

    Checked on every input: the cross block passes the nullity through
    (eta(Q^T) = eta(G)), rank(Q) < |CV|, eta = |CV| - rank(Q), the
    remote block is non-singular, full column rank of Q holds exactly
    when eta = |CV| - |N(CV)|, and no vertex has exactly one core
    neighbour.

    The remote-block clause fails on a sizeable fraction of the random
    graphs.  That is a property gap, not an implementation bug, and
    this test reports it honestly instead of hiding it.
    """
    started = time.perf_counter()

    tree_failures = []
    for t in _singular_trees(300, 3, 12, 0xACC4):
        for check in verify_block_theorems(t):
            if not check.holds:
                tree_failures.append((check.name, t.n, t.edges()))
        if not no_single_core_neighbour_check(t).holds:
            tree_failures.append(("no_single_core_neighbour", t.n, t.edges()))
    assert not tree_failures, (
        "block identities failed on trees: %r" % tree_failures[:3]
    )

    graph_failures = []
    graphs = _independent_core_graphs(200, 5, 12, 0xACC4A)
    for g, _part in graphs:
        for check in verify_block_theorems(g):
            if not check.holds:
                graph_failures.append((check.name, g.n, g.edges()))
        if not no_single_core_neighbour_check(g).holds:
            graph_failures.append(("no_single_core_neighbour", g.n, g.edges()))

    if graph_failures:
        by_name = {}
        for name, n, edges in graph_failures:
            by_name.setdefault(name, []).append((n, edges))
        breakdown = ", ".join(
            "%s on %d of %d graphs" % (name, len(cases), len(graphs))
            for name, cases in sorted(by_name.items())
        )
        first_name, first_cases = sorted(by_name.items())[0]
        n, edges = first_cases[0]
        raise AssertionError(
            "block identities on random singular independent-core graphs: "
            + breakdown
            + ".  Every failure is the remote-block non-singularity claim, "
            "which is a theorem for trees but provably not for general "
            "graphs (the ncv rows only force ker R and ker M to intersect "
            "trivially, which does not make M invertible).  Pinned "
            "deterministic counterexample: test_analysis.py::"
            "test_remote_singular_counterexample_pinned.  First failure "
            "here: %s, n=%d, edges=%r" % (first_name, n, edges)
        )

    _check_budget(started, 120.0, "block identity suite")


def test_05_subdivisions_and_bipartite_parity():
    """200 random trees (n <= 12): the subdivision has nullity 1, is a
    minimal configuration, smooths back to the original, has matching
    number equal to its count of inserted vertices, every inserted
    vertex is CFV_UPP, the incidence matrix has rank n - 1, and the
    characteristic polynomial factors through the incidence Gram matrix
    for n <= 8.  Separately, 200 random bipartite graphs have nullity
    of the same parity as their order."""
    started = time.perf_counter()

    rng = SplitMix64(0xACC5)
    for i in range(200):
        n = 2 + (i % 11)
        t = gen_random_tree(n, rng.next_u64())
        s, _prov = subdivision(t)

        assert nullity(s) == 1, t.edges()
        assert is_minimal_configuration(s).is_mc, t.edges()

        smoothed, _sprov = inverse_subdivision(s)
        assert smoothed.n == t.n and smoothed.edges() == t.edges()

        part_s = classify_vertices(s)
        inserted = tuple(range(t.n, s.n))
        assert part_s.cv_set == tuple(range(t.n)), t.edges()
        assert part_s.ncv_set == inserted, t.edges()
        assert pendant_reduction(s).t == len(inserted) == t.m
        for v in inserted:
            assert part_s.class_of[v] is VertexClass.CFV_UPP, (t.edges(), v)

        assert rank(incidence_matrix(t)) == t.n - 1, t.edges()
        if t.n <= 8:
            assert subdivision_charpoly_identity(t), t.edges()

    parity_rng = SplitMix64(0xACC5B)
    for i in range(200):
        n = 1 + (i % 12)
        b = gen_random_bipartite(n, parity_rng.next_u64())
        assert bipartite_parity_check(b), b.edges()

    _check_budget(started, 120.0, "subdivision and parity suite")


def test_06_remote_forest_perfect_matching():
    """300 random singular trees: the forest induced on the remote
    vertices has a perfect matching along tree edges."""
    started = time.perf_counter()
    for t in _singular_trees(300, 3, 14, 0xACC6):
        part = classify_vertices(t)
        matching = cfvr_perfect_matching(t)
        assert matching is not None, t.edges()
        covered = sorted(x for pair in matching for x in pair)
        assert covered == sorted(part.cfvr_set), (t.edges(), matching)
        for u, w in matching:
            assert t.has_edge(u, w), (t.edges(), u, w)
    _check_budget(started, 30.0, "remote matching suite")


def test_07_edge_addition_theorems_exhaustive():
    """200 random independent-core bases (n <= 10), every candidate edge
    inside the core-forbidden part: nullity is preserved exactly when
    the core set is, and preservation carries the kernel and labelling
    along.  Every core-to-neighbour candidate that keeps the labelling
    keeps the nullity and yields both kernel-exchange witnesses."""
    started = time.perf_counter()
    family_cases = 0
    cvncv_met = 0
    for g, part in _independent_core_bases(200, 2, 10, 0xACC7):
        for cand in candidate_edges(g, part):
            if cand.type_pair in CFV_FAMILY:
                rep = apply_and_report(g, cand, part)
                family_cases += 1
                assert rep.preserved["nullity"] == rep.preserved["cv_set"]
                if rep.preserved["nullity"]:
                    assert rep.preserved["nullspace"], (g.edges(), cand)
                    assert rep.preserved["core_labelling"], (g.edges(), cand)
            elif cand.type_pair == "CV-NCV":
                res = verify_cv_ncv_theorem(g, cand, part)
                if res.hypothesis_met:
                    cvncv_met += 1
                    assert res.report.preserved["nullity"], (g.edges(), cand)
                    assert res.x_witness is not None, (g.edges(), cand)
                    assert res.y_witness is not None, (g.edges(), cand)
    # The sweep must actually exercise both theorem paths.
    assert family_cases > 500, family_cases
    assert cvncv_met > 20, cvncv_met
    _check_budget(started, 300.0, "edge addition suite")


def test_08_densification_keeps_property_each_step():
    """greedy_densify, replayed edge by edge against the original graph,
    for all three preserve modes on 50 random bases."""
    started = time.perf_counter()
    rng = SplitMix64(0xACC8)
    for i in range(50):
        n = 4 + (i % 5)
        s = rng.next_u64()
        g = gen_random_tree(n, s) if i % 2 == 0 else gen_random_graph(n, 1, 2, s)
        base_eta = nullity(g)
        base_cv = classify_vertices(g).cv_set
        base_kernel = nullspace_basis(adjacency_matrix(g)).vectors
        for mode in ("nullity", "cv_set", "nullspace"):
            final, added = greedy_densify(g, mode)
            current = g
            for u, w in added:
                current = add_edge(current, u, w)
                if mode == "nullity":
                    assert nullity(current) == base_eta, (g.edges(), added)
                elif mode == "cv_set":
                    assert classify_vertices(current).cv_set == base_cv
                else:
                    now = nullspace_basis(adjacency_matrix(current)).vectors
                    assert now == base_kernel, (g.edges(), added)
            assert current.n == final.n
            assert current.edges() == final.edges()
            assert safe_additions(final, mode) == [], (g.edges(), mode)
    _check_budget(started, 60.0, "densification suite")


def test_09_core_by_support_equals_core_by_deletion():
    """2100 random graphs, n <= 7: the kernel-support core set equals the
    set of vertices whose deletion drops the nullity by one."""
    started = time.perf_counter()
    rng = SplitMix64(0xACC9)
    for i in range(2100):
        n = 1 + (i % 7)
        g = gen_random_graph(n, 1, 2, rng.next_u64())
        assert classify_vertices(g).cv_set == oracle.cv_by_deletion(g), (
            g.edges())
    _check_budget(started, 120.0, "core equivalence suite")
