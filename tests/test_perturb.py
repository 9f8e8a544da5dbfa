"""Edge perturbation reports, guarantees, and greedy densification."""

import pytest
from hypothesis import given, settings, strategies as st

from nullcore.analysis import (
    VertexClass,
    VertexPartition,
    _classified,
    classify_vertices,
)
from nullcore.errors import PreconditionError, TheoremViolationError
from nullcore.graphs import (
    Graph,
    _adjacency_rows,
    add_edge,
    delete_edge,
    gen_cycle,
    gen_path,
    gen_random_graph,
    gen_random_tree,
)
from nullcore.perturb import (
    CFV_FAMILY,
    EdgeCandidate,
    apply_and_report,
    candidate_edges,
    greedy_densify,
    remove_and_report,
    safe_additions,
    verify_cv_ncv_theorem,
)
from nullcore.linalg import KernelBasis
from nullcore.rng import SplitMix64
import nullcore.linalg
import nullcore.perturb

import oracle

T9 = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
               (1, 7), (7, 8)])

# Tree found by deterministic search: adding the core/neighbour edge
# (0, 3) keeps the whole labelling, so the nullity must survive and both
# kernel-exchange witnesses exist.
MET_TREE = Graph(11, [(0, 1), (1, 7), (1, 10), (2, 7), (3, 6), (3, 7),
                      (3, 9), (4, 7), (4, 8), (5, 7)])


def test_candidate_edges_p4():
    cands = candidate_edges(gen_path(4))
    assert [(c.u, c.w) for c in cands] == [(0, 2), (0, 3), (1, 3)]
    assert all(c.type_pair == "CFVR-CFVR" for c in cands)


def test_candidate_edges_c4_all_core():
    cands = candidate_edges(gen_cycle(4))
    assert [(c.u, c.w, c.type_pair) for c in cands] == [
        (0, 2, "CV-CV"), (1, 3, "CV-CV")]


def test_candidate_edges_empty_cases():
    assert candidate_edges(Graph(1)) == []
    # complete graph has no candidates
    assert candidate_edges(gen_random_graph(4, 1, 1, 0)) == []


def test_candidate_tags_cover_all_parts():
    tags = {c.type_pair for c in candidate_edges(T9)}
    assert tags == {"CV-CV", "CV-NCV", "CV-CFVR", "NCV-NCV", "NCV-CFVR"}


def test_apply_cfvr_edge_creates_cycle():
    cands = candidate_edges(gen_path(4))
    report = apply_and_report(gen_path(4), cands[1])  # {0,3} closes C4
    assert report.eta_before == 0 and report.eta_after == 2
    assert report.cv_before == () and report.cv_after == (0, 1, 2, 3)
    assert report.preserved == {
        "nullity": False, "cv_set": False,
        "nullspace": False, "core_labelling": False}
    assert report.to_json() == {
        "edge": [0, 3], "type": "CFVR-CFVR", "eta": [0, 2],
        "cv": [[], [0, 1, 2, 3]],
        "preserved": {"nullity": False, "cv_set": False,
                      "nullspace": False, "core_labelling": False}}


def test_apply_core_diagonal_drops_nullity():
    c4 = gen_cycle(4)
    report = apply_and_report(c4, candidate_edges(c4)[0])
    assert report.eta_before == 2 and report.eta_after == 1
    assert report.kernel_after.vectors == ((0, 1, 0, -1),)
    assert report.cv_after == (1, 3)


def test_apply_preserving_addition_t9():
    cand = next(
        c for c in candidate_edges(T9) if (c.u, c.w) == (1, 8))
    assert cand.type_pair == "NCV-CFVR"
    report = apply_and_report(T9, cand)
    assert report.preserved == {
        "nullity": True, "cv_set": True,
        "nullspace": True, "core_labelling": True}
    assert report.kernel_before.vectors == (
        (1, 0, -1, 0, 1, 0, -1, 0, 0),)
    assert report.kernel_before.vectors == report.kernel_after.vectors


def test_apply_rejects_bad_candidates():
    p4 = gen_path(4)
    with pytest.raises(PreconditionError):
        apply_and_report(p4, EdgeCandidate(0, 1, "CFVR-CFVR"))
    with pytest.raises(PreconditionError):
        apply_and_report(p4, EdgeCandidate(0, 2, "CV-CV"))
    with pytest.raises(PreconditionError):
        apply_and_report(p4, EdgeCandidate(0, 9, "CFVR-CFVR"))
    with pytest.raises(PreconditionError):
        apply_and_report(p4, EdgeCandidate(2, 2, "CFVR-CFVR"))


def test_remove_and_report_round_trip():
    diamond = add_edge(gen_cycle(4), 0, 2)
    report = remove_and_report(diamond, 2, 0)
    assert report.operation == "remove"
    assert (report.edge.u, report.edge.w) == (0, 2)
    assert report.eta_before == 1 and report.eta_after == 2
    with pytest.raises(ValueError):
        remove_and_report(diamond, 1, 3)  # not an edge


def test_cfv_family_guarantees_hold_across_random_graphs():
    # nullity preserved <=> core set preserved, and a preserved nullity
    # drags the whole nullspace and labelling along; the call itself
    # raises if either guarantee breaks.
    rng = SplitMix64(727)
    checked = 0
    for trial in range(120):
        if trial % 2 == 0:
            g = gen_random_tree(2 + rng.below(10), rng.next_u64())
        else:
            g = gen_random_graph(2 + rng.below(7), 1, 2, rng.next_u64())
        part = classify_vertices(g)
        if not part.independent_cv:
            continue
        for cand in candidate_edges(g, part):
            if cand.type_pair in ("NCV-NCV", "NCV-CFVR", "CFVR-CFVR"):
                report = apply_and_report(g, cand, part)
                checked += 1
                assert report.preserved["nullity"] == report.preserved[
                    "cv_set"]
    assert checked > 300


def test_verify_cv_ncv_met_case():
    part = classify_vertices(MET_TREE)
    assert part.cv_set == (0, 2, 5, 6, 9, 10)
    assert tuple(oracle.core_vertices(11, list(MET_TREE.edges()))) == (
        0, 2, 5, 6, 9, 10)
    cand = next(
        c for c in candidate_edges(MET_TREE, part) if (c.u, c.w) == (0, 3))
    assert cand.type_pair == "CV-NCV"
    rep = verify_cv_ncv_theorem(MET_TREE, cand)
    assert rep.hypothesis_met
    assert rep.report.preserved["nullity"]
    assert rep.x_witness is not None and rep.y_witness is not None
    # witnesses leave the other kernel exactly as advertised
    a_before = oracle.adjacency_rows(11, list(MET_TREE.edges()))
    g2 = add_edge(MET_TREE, 0, 3)
    a_after = oracle.adjacency_rows(11, list(g2.edges()))
    assert rep.x_witness[0] != 0
    assert any(
        sum(r[i] * rep.x_witness[i] for i in range(11)) != 0
        for r in a_after)
    assert any(
        sum(r[i] * rep.y_witness[i] for i in range(11)) != 0
        for r in a_before)


def test_verify_cv_ncv_unmet_case():
    # T9 + {0,3} keeps the nullity but shrinks the core set, so the
    # labelling hypothesis is unmet and no witnesses are claimed.
    cand = next(
        c for c in candidate_edges(T9) if (c.u, c.w) == (0, 3))
    assert cand.type_pair == "CV-NCV"
    rep = verify_cv_ncv_theorem(T9, cand)
    assert not rep.hypothesis_met
    assert rep.x_witness is None and rep.y_witness is None
    assert rep.report.preserved["nullity"]
    assert not rep.report.preserved["cv_set"]


def test_verify_cv_ncv_wrong_type():
    cand = next(
        c for c in candidate_edges(T9) if c.type_pair == "NCV-CFVR")
    with pytest.raises(PreconditionError):
        verify_cv_ncv_theorem(T9, cand)


def test_verify_cv_ncv_sweep_random_trees():
    rng = SplitMix64(99)
    met = unmet = 0
    for _ in range(60):
        t = gen_random_tree(4 + rng.below(8), rng.next_u64())
        part = classify_vertices(t)
        if part.nullity == 0:
            continue
        for cand in candidate_edges(t, part):
            if cand.type_pair != "CV-NCV":
                continue
            rep = verify_cv_ncv_theorem(t, cand, part)
            if rep.hypothesis_met:
                met += 1
                assert rep.report.eta_before == rep.report.eta_after
            else:
                unmet += 1
    assert met > 0 and unmet > 0


def _count_calls(monkeypatch, module, *names):
    """Wrap each module.name so every call is appended to the one
    returned list."""
    calls = []

    def counting(real):
        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    return calls


def _count_eliminations(monkeypatch):
    """Every elimination linalg runs, on dict rows or bordered."""
    return _count_calls(monkeypatch, nullcore.linalg, "_gauss_jordan_int",
                        "_reduce_by_bordering")


def _planted_twins(n, copies, seed):
    """G(n - copies, 1/2) in which each of the first copies vertices gets
    a twin (a new vertex with its neighbours and no edge to it), so the
    twins are core and their neighbours core-forbidden."""
    base = n - copies
    edges = list(gen_random_graph(base, 1, 2, seed).edges())
    for source in range(copies):
        edges += [(u if w == source else w, base + source)
                  for u, w in edges if source in (u, w)]
    return Graph(n, edges)


_TWINS_17 = _planted_twins(17, 2, 4)


def test_safe_additions_eliminates_once_per_graph(monkeypatch):
    # The base graph is eliminated once, on dict rows (T9) or bordered
    # (_TWINS_17), and every candidate, CV-NCV or inside the
    # core-forbidden part, is decided from that elimination.
    elims = _count_eliminations(monkeypatch)
    reports = _count_calls(monkeypatch, nullcore.perturb, "apply_and_report")
    assert nullcore.linalg._is_dense(_adjacency_rows(_TWINS_17), 17)
    for g in (T9, _TWINS_17):
        tags = {c.type_pair for c in candidate_edges(g)}
        assert "CV-NCV" in tags and tags & CFV_FAMILY
        for mode in _MODES:
            elims.clear()
            safe_additions(g, mode)
            assert len(elims) == 1
            # a reduction handed in is not made again
            reduced = _classified(g)
            elims.clear()
            safe_additions(g, mode, reduced)
            assert elims == []
    assert reports == []


def test_safe_additions_fixtures():
    assert safe_additions(gen_cycle(4), "nullity") == []
    assert safe_additions(Graph(1), "nullity") == []
    safe = safe_additions(T9, "cv_set")
    assert all(c.type_pair not in ("CV-CV", "CV-CFVR") for c in safe)
    assert any((c.u, c.w) == (1, 8) for c in safe)
    message = "preserve must be one of nullity/cv_set/nullspace, got 'rank'"
    with pytest.raises(PreconditionError, match=message):
        safe_additions(T9, "rank")
    with pytest.raises(PreconditionError, match=message):
        greedy_densify(T9, "rank")


def test_safe_additions_flags_verified_independently():
    base = classify_vertices(T9)
    for cand in safe_additions(T9, "nullity"):
        g2 = add_edge(T9, cand.u, cand.w)
        assert oracle.nullity_of(g2.n, list(g2.edges())) == base.nullity
    for cand in safe_additions(T9, "cv_set"):
        g2 = add_edge(T9, cand.u, cand.w)
        assert tuple(
            oracle.core_vertices(g2.n, list(g2.edges()))) == base.cv_set


def test_scaled_claim_densifies_like_the_canonical_basis():
    # the scaled basis spans the kernel of P7; the partition it gives is
    # the canonical one, so the nullspace re-checks compare equal bases
    p7 = gen_path(7)
    part = classify_vertices(p7, KernelBasis(7, ((2, 0, -2, 0, 2, 0, -2),)))
    reduced = _classified(p7)
    assert part == classify_vertices(p7) == reduced[0]
    assert greedy_densify(p7, "nullspace", reduced)[1] == (
        (1, 3), (1, 5), (3, 5))
    report = apply_and_report(p7, EdgeCandidate(1, 3, "NCV-NCV"), part)
    assert report.preserved["nullspace"]


def test_greedy_densify_c4_is_fixed_point():
    final, added = greedy_densify(gen_cycle(4), "nullity")
    assert final == gen_cycle(4) and added == ()


def test_greedy_densify_p7_preserves_core_set():
    final, added = greedy_densify(gen_path(7), "cv_set")
    assert classify_vertices(final).cv_set == (0, 2, 4, 6)
    assert added == ((0, 5), (1, 3), (1, 5), (2, 5), (3, 5))
    # maximal by inclusion: no further safe edge remains
    assert safe_additions(final, "cv_set") == []
    # every prefix of the sequence also preserved the core set
    g = gen_path(7)
    for u, w in added:
        g = add_edge(g, u, w)
        assert tuple(
            oracle.core_vertices(g.n, list(g.edges()))) == (0, 2, 4, 6)


def test_greedy_densify_nullspace_strictest():
    final, added = greedy_densify(gen_path(7), "nullspace")
    assert added == ((1, 3), (1, 5), (3, 5))
    from nullcore.linalg import nullspace_basis
    from nullcore.graphs import adjacency_matrix
    assert nullspace_basis(adjacency_matrix(final)).vectors == (
        (1, 0, -1, 0, 1, 0, -1),)
    assert safe_additions(final, "nullspace") == []


def test_greedy_densify_complete_graph_unchanged():
    k4 = gen_random_graph(4, 1, 1, 0)
    final, added = greedy_densify(k4, "nullity")
    assert final == k4 and added == ()


def test_densify_sequences_are_deterministic():
    a = greedy_densify(gen_path(7), "cv_set")
    b = greedy_densify(gen_path(7), "cv_set")
    assert a == b


# The guards below raise TheoremViolationError rather than assert, so
# they hold under python -O; these tests use pytest.raises, not assert,
# for the verdict and therefore keep checking under -O as well.


def _unit_basis(n):
    """A wrong kernel: every coordinate vector, so every vertex is core."""
    return KernelBasis(
        n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    )


def _all_core(g):
    """The classification _unit_basis claims: nullity n, every vertex
    core.  The edited graph gets it in place of its true one."""
    n = g.n
    part = VertexPartition(n, (VertexClass.CV,) * n, tuple(range(n)), (),
                           (), g.m == 0, _unit_basis(n))
    return part, 1, lambda u, w: 0


def test_build_report_guards_raise_theorem_violation(monkeypatch):
    p3, p4 = gen_path(3), gen_path(4)
    # The base graphs keep their true partition; every edited graph gets
    # the wrong all-core classification.
    monkeypatch.setattr(nullcore.perturb, "_classified", _all_core)
    # P4 is non-singular, so the fake nullity 4 is a jump of 4.
    with pytest.raises(TheoremViolationError, match="moved the nullity") as info:
        remove_and_report(p4, 0, 1)
    assert info.value.report["n"] == 4
    assert info.value.report["edges"] == [(0, 1), (1, 2), (2, 3)]
    assert info.value.report["eta"] == [0, 4]
    # P3 has nullity 1 and cores {0, 2}; its partition is handed the fake
    # kernel too, so the basis is the same on both sides but the after
    # side claims nullity 3 and every vertex as core.
    forged = classify_vertices(p3)._replace(kernel=_unit_basis(3))
    with pytest.raises(TheoremViolationError, match="kept the kernel basis"):
        apply_and_report(p3, EdgeCandidate(0, 2, "CV-CV"), forged)


def test_greedy_densify_guards_raise_theorem_violation(monkeypatch):
    # Offer every non-edge as safe: on two isolated vertices the only
    # addition drops the nullity from 2 to 0 and empties the core.
    monkeypatch.setattr(
        nullcore.perturb, "_safe_candidates",
        lambda g, part, preserve: iter(candidate_edges(g)),
    )
    for preserve in ("nullity", "cv_set", "nullspace"):
        with pytest.raises(TheoremViolationError, match=preserve) as info:
            greedy_densify(Graph(2, []), preserve)
        assert info.value.report["added"] == [(0, 1)]
        assert info.value.report["edges"] == []


def _forge_after(monkeypatch, g, e, **fields):
    """The report's recheck gives g + e its true partition with fields
    replaced; every other graph gets its true classification."""
    h = add_edge(g, e.u, e.w)
    real = nullcore.perturb._classified
    part, d, entry = real(h)
    forged = part._replace(**fields), d, entry
    monkeypatch.setattr(nullcore.perturb, "_classified",
                        lambda x: forged if x == h else real(x))


def _raises_replayable(g, match, check, *args):
    with pytest.raises(TheoremViolationError, match=match) as info:
        check(g, *args)
    report = info.value.report
    assert Graph(report["n"], report["edges"]) == g
    return report


# P5 has cores {0, 2, 4} and core neighbours {1, 3}; (1, 3) is NCV-NCV.
_P5_NCV = EdgeCandidate(1, 3, "NCV-NCV")
_OTHER_P5_KERNEL = KernelBasis(5, ((1, 0, -1, 0, 0),))


def test_core_forbidden_biconditional_guard(monkeypatch):
    # the forged after side keeps the nullity but loses core vertex 4
    _forge_after(monkeypatch, gen_path(5), _P5_NCV,
                 cv_set=(0, 2), kernel=_OTHER_P5_KERNEL)
    report = _raises_replayable(
        gen_path(5), "broke the nullity/core biconditional",
        apply_and_report, _P5_NCV, classify_vertices(gen_path(5)))
    assert report["cv"] == [[0, 2, 4], [0, 2]]


def test_core_forbidden_nullity_keeps_nullspace_guard(monkeypatch):
    # nullity and core set kept, kernel basis changed
    _forge_after(monkeypatch, gen_path(5), _P5_NCV, kernel=_OTHER_P5_KERNEL)
    report = _raises_replayable(
        gen_path(5), "failed to preserve the nullspace and labelling",
        apply_and_report, _P5_NCV, classify_vertices(gen_path(5)))
    assert report["preserved"]["nullity"] and report["preserved"]["cv_set"]
    assert not report["preserved"]["nullspace"]


_MET_EDGE = EdgeCandidate(0, 3, "CV-NCV")


def test_cv_ncv_nullity_guard(monkeypatch):
    # labelling kept, nullity 3 -> 4 with a different kernel
    met_after = classify_vertices(add_edge(MET_TREE, 0, 3))
    _forge_after(
        monkeypatch, MET_TREE, _MET_EDGE, nullity=4,
        kernel=KernelBasis(11, met_after.kernel.vectors + ((0,) * 11,)),
    )
    report = _raises_replayable(
        MET_TREE, "changed the nullity from 3 to 4",
        verify_cv_ncv_theorem, _MET_EDGE, classify_vertices(MET_TREE))
    assert report["eta"] == [3, 4]


def test_cv_ncv_x_witness_guard():
    # the base partition is handed the kernel of the new graph, so the
    # old witness stays in the kernel after the addition
    part = classify_vertices(MET_TREE)
    after = classify_vertices(add_edge(MET_TREE, 0, 3))
    report = _raises_replayable(
        MET_TREE, "old kernel vector unexpectedly survived",
        verify_cv_ncv_theorem, _MET_EDGE, part._replace(kernel=after.kernel))
    assert report["x_witness"][0] != 0


def test_cv_ncv_y_witness_guard(monkeypatch):
    # the new graph is handed the kernel of the base graph
    part = classify_vertices(MET_TREE)
    _forge_after(monkeypatch, MET_TREE, _MET_EDGE, kernel=part.kernel)
    report = _raises_replayable(
        MET_TREE, "new kernel vector unexpectedly lies in the old kernel",
        verify_cv_ncv_theorem, _MET_EDGE, part)
    assert report["y_witness"][0] != 0


def test_cv_ncv_kernel_vector_hitting_guard():
    # a base kernel with no vector at core vertex 0
    part = classify_vertices(MET_TREE)
    forged = part._replace(kernel=KernelBasis(11, ()))
    report = _raises_replayable(
        MET_TREE, "no kernel vector is non-zero at core vertex 0",
        verify_cv_ncv_theorem, _MET_EDGE, forged)
    assert report["vertex"] == 0 and report["basis"] == ()


_MODES = ("nullity", "cv_set", "nullspace")


@st.composite
def small_graphs(draw):
    """A tree, a G(n, p) graph with p in {1/3, 1/2, 2/3} or a planted-twin
    graph on at most 12 vertices, relabelled by a random permutation;
    G(n, p) and twins give graphs with and without independent cores."""
    kind = draw(st.sampled_from(("tree", "twin", "gnp")))
    n = draw(st.integers(1 if kind != "twin" else 2, 12))
    if kind == "tree":
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    else:
        size = n - 1 if kind == "twin" else n
        num = draw(st.integers(1, 2))
        pairs = [(u, w) for u in range(size) for w in range(u + 1, size)]
        edges = [pair for pair in pairs if draw(st.integers(0, 2)) < num]
        if kind == "twin":
            # vertex n - 1 copies the neighbourhood of source
            source = draw(st.integers(0, n - 2))
            edges += [(w if u == source else u, n - 1)
                      for u, w in edges if source in (u, w)]
    order = draw(st.permutations(range(n)))
    return Graph(n, [(order[u], order[w]) for u, w in edges])


def _screen_against_reports(g):
    """Check the screen's rule against apply_and_report on every CV-NCV
    candidate and every candidate inside the core-forbidden part, in
    every mode, and for n <= 8 its nullity and core-set verdicts against
    the oracle.  Returns the partition and, per candidate, whether it is
    CV-NCV and the nullity and core-set verdicts."""
    part, d, entry = _classified(g)
    assert part == classify_vertices(g)
    verdicts = []
    offered = {}
    for cand in candidate_edges(g, part):
        if cand.type_pair in ("CV-CV", "CV-CFVR"):
            continue
        flags = apply_and_report(g, cand, part).preserved
        offered[cand] = flags
        keeps = {mode: nullcore.perturb._keeps(part, d, entry, cand.u,
                                               cand.w, mode)
                 for mode in _MODES}
        assert keeps == {mode: flags[mode] for mode in _MODES}, cand
        cv_ncv = cand.type_pair == "CV-NCV"
        # a core end always moves the kernel; otherwise one verdict
        assert not keeps["nullspace"] if cv_ncv else (
            len(set(keeps.values())) == 1)
        if g.n <= 8:
            h = add_edge(g, cand.u, cand.w)
            edges = list(h.edges())
            assert (oracle.nullity_of(h.n, edges)
                    == part.nullity) == keeps["nullity"]
            assert (tuple(oracle.core_vertices(h.n, edges))
                    == part.cv_set) == keeps["cv_set"]
        verdicts.append((cv_ncv, keeps["nullity"], keeps["cv_set"]))
    # the listing equals one full report per candidate, in every mode
    for mode in _MODES:
        assert safe_additions(g, mode) == [
            c for c, flags in offered.items() if flags[mode]]
    return part, verdicts


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_graphs())
def test_rank_two_screen_matches_full_report(g):
    _screen_against_reports(g)


# Every outcome of the screen, for (CV-NCV, eta kept, core set kept):
# inside the core-forbidden part the two verdicts agree, and a CV-NCV
# addition that drops eta takes its core end out of the core.
_OUTCOMES = {(False, True, True), (False, False, False),
             (True, True, True), (True, True, False), (True, False, False)}


def test_rank_two_screen_covers_both_outcomes_with_and_without_cores():
    rng = SplitMix64(2024)
    seen = set()
    for i in range(90):
        n = 3 + rng.below(10)
        seed = rng.next_u64()
        if i % 3 == 0:
            g = gen_random_tree(n, seed)
        else:
            g = gen_random_graph(n, 1, 2 + i % 2, seed)
        part, verdicts = _screen_against_reports(g)
        seen.update((part.independent_cv,) + v for v in verdicts)
    assert seen == {(cores,) + outcome for cores in (True, False)
                    for outcome in _OUTCOMES}, seen


def test_screen_matches_full_report_on_bordered_graphs():
    # Planted twins in G(n, 1/2) are dense from n = 18 (below that many
    # fall under the _is_dense line), so their screens read bordering's
    # d and T; two twins give CV-NCV candidates.  None
    # of them keeps the core set through a CV-NCV addition, so MET_TREE
    # beside K_13 adds one that does.
    k13 = gen_random_graph(13, 1, 1, 0)
    graphs = [_planted_twins(n, copies, 10 * n + copies)
              for n in range(18, 25) for copies in (1, 2)]
    graphs.append(Graph(24, list(MET_TREE.edges())
                        + [(u + 11, w + 11) for u, w in k13.edges()]))
    seen = set()
    for g in graphs:
        assert nullcore.linalg._is_dense(_adjacency_rows(g), g.n)
        seen.update(_screen_against_reports(g)[1])
    assert seen == _OUTCOMES, seen


def _dense(g):
    return nullcore.linalg._is_dense(_adjacency_rows(g), g.n)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_graphs().filter(lambda g: g.n <= 8))
def test_reports_match_oracle(g):
    # apply_and_report on every candidate of g and remove_and_report on
    # every edge of g, against the oracle's nullity, core set and kernel
    # basis of g and of the edited graph
    def expected(graph):
        edges = list(graph.edges())
        rows = oracle.adjacency_rows(graph.n, edges)
        return (oracle.nullity_of(graph.n, edges),
                oracle.core_vertices(graph.n, edges),
                oracle.kernel_basis(rows, graph.n))

    part = classify_vertices(g)
    reports = [apply_and_report(g, cand, part)
               for cand in candidate_edges(g, part)]
    reports += [remove_and_report(g, u, w) for u, w in g.edges()]
    before = expected(g)
    for report in reports:
        e = report.edge
        edit = add_edge if report.operation == "add" else delete_edge
        assert (report.eta_before, list(report.cv_before),
                report.kernel_before.vectors) == before
        assert (report.eta_after, list(report.cv_after),
                report.kernel_after.vectors) == expected(
                    edit(g, e.u, e.w)), report


def test_apply_and_report_eliminates_once(monkeypatch):
    # With the base partition handed in, each report reduces the new
    # graph once, by the route that classifies it: bordered when dense,
    # and otherwise eliminated beside the identity, so the rows handed
    # to the elimination carry the keys of T, from n on.
    assert _dense(_TWINS_17)
    graphs = [T9, MET_TREE, gen_random_graph(9, 1, 2, 3), _TWINS_17]
    parts = {g: classify_vertices(g) for g in graphs}
    calls = []
    for name in ("_gauss_jordan_int", "_reduce_by_bordering"):
        real = getattr(nullcore.linalg, name)
        monkeypatch.setattr(
            nullcore.linalg, name,
            lambda rows, n, name=name, real=real: calls.append(
                (name, any(key >= n for row in rows for key in row)))
            or real(rows, n))
    for g in graphs:
        route = "_reduce_by_bordering" if _dense(g) else "_gauss_jordan_int"
        for cand in candidate_edges(g, parts[g]):
            calls.clear()
            apply_and_report(g, cand, parts[g])
            assert calls == [(route, route == "_gauss_jordan_int")], cand


def _densify_one_report_per_candidate(g, preserve):
    """The densify loop before the screen: every step lists every safe
    candidate by a full report each and keeps the first."""
    current, added = g, []
    while True:
        part = classify_vertices(current)
        step = [
            c for c in candidate_edges(current, part)
            if c.type_pair not in ("CV-CV", "CV-CFVR")
            and apply_and_report(current, c, part).preserved[preserve]
        ]
        if not step:
            return current, tuple(added)
        current = add_edge(current, step[0].u, step[0].w)
        added.append((step[0].u, step[0].w))


def test_greedy_densify_matches_one_report_per_candidate():
    rng = SplitMix64(31337)
    total = 0
    for i in range(24):
        n = 4 + rng.below(5)
        seed = rng.next_u64()
        g = gen_random_tree(n, seed) if i % 2 == 0 else gen_random_graph(
            n, 1, 2, seed)
        for mode in _MODES:
            expected = _densify_one_report_per_candidate(g, mode)
            assert greedy_densify(g, mode) == expected, (g.edges(), mode)
            total += len(expected[1])
    assert total > 50


@pytest.mark.parametrize("preserve", _MODES)
def test_greedy_densify_elimination_count(monkeypatch, preserve):
    # One elimination for the base graph and one per accepted edge (its
    # re-check, reused by the next step); no candidate costs one.
    graphs = [T9, MET_TREE, gen_path(7), gen_random_tree(12, 5),
              gen_random_graph(9, 1, 2, 3), _TWINS_17]
    for g in graphs:
        elims = _count_eliminations(monkeypatch)
        reports = _count_calls(monkeypatch, nullcore.perturb,
                               "apply_and_report")
        _, added = greedy_densify(g, preserve)
        monkeypatch.undo()
        assert reports == []
        assert len(elims) == 1 + len(added), g.edges()


def _route_results(g, dense):
    """classify_vertices(g), and safe_additions and greedy_densify of g
    in every mode, with every reduction forced onto one route: bordered
    when dense, eliminated on dict rows otherwise."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nullcore.linalg, "_is_dense", lambda rows, n: dense)
        return (classify_vertices(g),
                [safe_additions(g, mode) for mode in _MODES],
                [greedy_densify(g, mode) for mode in _MODES])


def test_results_do_not_depend_on_the_route():
    # The two routes give d and T of their own, but every public result
    # is a function of the graph: the partition, the screen's listing
    # and the densified graph, on both sides of the _is_dense line.
    graphs = [_planted_twins(n, 1 + n // 2 % 2, n) for n in (16, 18, 20)]
    graphs += [gen_random_graph(24, 1, 2, 7), gen_random_tree(14, 2),
               MET_TREE, gen_random_graph(12, 1, 4, 1),
               gen_random_graph(16, 1, 4, 3)]
    sides = set()
    for g in graphs:
        sides.add(_dense(g))
        assert _route_results(g, False) == _route_results(g, True), (
            g.edges())
    assert sides == {False, True}
