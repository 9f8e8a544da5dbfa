"""Vertex classification, core labelling, block identities, reductions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nullcore import linalg
from nullcore.analysis import (
    VertexClass,
    _classified,
    analyze,
    classify_vertices,
    core_labelling,
    is_core_graph,
    is_half_core,
    is_slim,
    no_single_core_neighbour_check,
    nullity,
    report_to_json,
    require_independent_cv,
    slim_reduce,
    unicyclic_analysis,
    verify_block_theorems,
)
from nullcore.errors import (
    NonIndependentCoreError,
    PreconditionError,
    TheoremViolationError,
)
from nullcore.graphs import (
    Graph,
    _adjacency_rows,
    adjacency_matrix,
    gen_cycle,
    gen_path,
    gen_random_bipartite,
    gen_random_graph,
    gen_random_tree,
    gen_star,
    is_bipartite,
)
from nullcore.linalg import IntMatrix, KernelBasis, det, rank
from nullcore.rng import SplitMix64

import oracle

# A singular graph with independent core vertices whose remote-part
# submatrix M is singular, and whose slim reduction shifts both the
# nullity and the surviving classes.  Kept as a permanent regression
# subject: the structural claims that fail on it are advertised only
# for trees.
REMOTE_SINGULAR = Graph(
    7,
    [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 4), (3, 4), (4, 5), (4, 6)],
)


def test_nullity_fixtures():
    assert nullity(gen_path(4)) == 0
    assert nullity(gen_cycle(4)) == 2
    assert nullity(gen_path(7)) == 1
    assert nullity(gen_cycle(6)) == 0
    assert nullity(Graph(3)) == 3


def test_classify_p7():
    part = classify_vertices(gen_path(7))
    assert part.nullity == 1
    assert part.cv_set == (0, 2, 4, 6)
    assert part.ncv_set == (1, 3, 5)
    assert part.cfvr_set == ()
    assert part.independent_cv
    assert part.class_of[0] is VertexClass.CV
    assert part.class_of[1] is VertexClass.CFV_UPP
    assert part.part_tag(0) == "cv" and part.part_tag(1) == "ncv"


def test_classify_c6_all_upp():
    part = classify_vertices(gen_cycle(6))
    assert part.nullity == 0
    assert part.cv_set == ()
    assert all(c is VertexClass.CFV_UPP for c in part.class_of)


def test_classify_star():
    part = classify_vertices(gen_star(4))
    assert part.nullity == 2
    assert part.cv_set == (1, 2, 3)
    assert part.ncv_set == (0,)
    # removing the centre isolates all three leaves
    assert part.class_of[0] is VertexClass.CFV_UPP


def test_classify_mid_vertex_fixture():
    # deletion of vertex 2 (or 3) keeps the nullity at 1
    g = Graph(6, [(0, 1), (0, 2), (0, 5), (1, 2), (1, 3), (1, 4),
                  (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)])
    part = classify_vertices(g)
    assert part.nullity == 1
    assert [c.value for c in part.class_of] == [
        "cfv_upp", "cv", "cfv_mid", "cfv_mid", "cfv_upp", "cv"]


def test_classes_match_deletion_oracle():
    rng = SplitMix64(404)
    for _ in range(200):
        n = 1 + rng.below(7)
        g = gen_random_graph(n, 1 + rng.below(3), 4, rng.next_u64())
        part = classify_vertices(g)
        assert [c.value for c in part.class_of] == oracle.vertex_classes(
            n, list(g.edges())
        )
        assert list(oracle.cv_by_deletion(g)) == oracle.core_vertices(
            n, list(g.edges())
        )


def test_core_support_equals_core_deletion():
    rng = SplitMix64(11)
    for _ in range(300):
        n = 2 + rng.below(6)
        g = gen_random_graph(n, 1, 2, rng.next_u64())
        assert classify_vertices(g).cv_set == oracle.cv_by_deletion(g)


@st.composite
def drawn_graphs(draw, max_n=14):
    """A tree, a planted-twin graph or a G(n, p) graph on at most max_n
    vertices, relabelled by a random permutation."""
    kind = draw(st.sampled_from(("tree", "twin", "gnp")))
    n = draw(st.integers(1 if kind != "twin" else 2, max_n))
    if kind == "tree":
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    else:
        size = n - 1 if kind == "twin" else n
        pairs = [(u, w) for u in range(size) for w in range(u + 1, size)]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                             max_size=len(pairs)))
        edges = [pair for pair, kept in zip(pairs, keep) if kept]
        if kind == "twin":
            # vertex n - 1 copies the neighbourhood of source
            source = draw(st.integers(0, n - 2))
            edges += [(w if u == source else u, n - 1)
                      for u, w in edges if source in (u, w)]
    order = draw(st.permutations(range(n)))
    return Graph(n, [(order[u], order[w]) for u, w in edges])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn_graphs())
def test_one_elimination_classes_match_deletion_routes(g):
    part = classify_vertices(g)
    assert part.class_tags() == oracle.vertex_classes(g.n, list(g.edges()))
    assert part.cv_set == oracle.cv_by_deletion(g)


@pytest.mark.parametrize("n, twin", [(18, False), (20, True), (24, False),
                                     (28, True)])
def test_dense_classes_match_oracle(n, twin):
    # graphs this dense are eliminated on packed rows; the oracle reads
    # the classes off one Fraction RREF of [A | I]
    g = gen_random_graph(n - twin, 1, 2, 1000 + n)
    if twin:
        # vertex n - 1 copies the neighbourhood of vertex 0
        g = Graph(n, list(g.edges()) + [(w, n - 1) for w in g.adjacency[0]])
    assert linalg._is_dense(_adjacency_rows(g), n)
    rows = oracle.adjacency_rows(n, g.edges())
    kernel = oracle.kernel_basis(rows, n)
    tags = ["cv" if y is None else "cfv_upp" if y == 0 else "cfv_mid"
            for y in oracle.unit_solution_entries(rows)]
    part = classify_vertices(g)
    assert part.kernel.vectors == kernel
    assert part.class_tags() == tags
    assert part.cv_set == tuple(sorted(part.kernel.supports()))
    assert part.nullity == len(kernel) >= twin


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn_graphs())
def test_shared_kernel_matches_oracle(g):
    expected = oracle.kernel_basis(oracle.adjacency_rows(g.n, g.edges()), g.n)
    assert classify_vertices(g).kernel.vectors == expected
    assert analyze(g).partition.kernel.vectors == expected


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(drawn_graphs())
def test_partition_keeps_the_reduction(g):
    # On each route, T read through the reduction's entry is exact in
    # integers: A T_u = d e_u for every core-forbidden u, T is symmetric
    # on that block and T_uu / d is the y_u that every solution of
    # A y = e_u shares; and Y = T / d satisfies A Y A = A on the rows
    # of B, core rows included, with T zero on the other eta rows.
    rows = oracle.adjacency_rows(g.n, g.edges())
    n = g.n
    for dense in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_is_dense", lambda data, size: dense)
            part, d, entry = _classified(g)
        t = [[entry(u, w) for w in range(n)] for u in range(n)]
        forbidden = [u for u in range(n) if u not in part.cv_set]
        for u in forbidden:
            assert [sum(t[u][w] for w in g.adjacency[v])
                    for v in range(n)] == [d * (v == u) for v in range(n)]
            assert Fraction(t[u][u], d) == oracle.unit_solution_entry(
                rows, u)
            assert all(t[u][w] == t[w][u] for w in forbidden)
        assert sum(map(any, t)) == n - part.nullity
        at = [[sum(t[j][w] for j in g.adjacency[v]) for w in range(n)]
              for v in range(n)]
        ata = [[sum(row[j] for j in g.adjacency[w]) for w in range(n)]
               for row in at]
        assert ata == [[d * a for a in row] for row in rows]


@st.composite
def large_graphs(draw):
    """(graph, routes) with n from 64 to 200: a random tree, G(n, 4/n),
    G(n, 4/n) with a planted twin, or, with n up to 128, G(n, 1/2), a
    random bipartite graph (every bordering step 2 x 2) or G(n/2, 1/2)
    with n/2 planted twins, two of each of its first n/4 vertices (eta
    >= n/2, kernel vectors that bordering takes at once), and the values
    of linalg._is_dense to classify it under.  Both routes, but G(n, 1/2) above n = 96 only
    bordered, to keep the test under 10 s."""
    kind = draw(st.sampled_from(("tree", "sparse", "twin", "half",
                                 "bipartite", "twins")))
    dense = kind in ("half", "bipartite", "twins")
    n = draw(st.integers(64, 128 if dense else 200))
    seed = draw(st.integers(0, 2**32))
    sources = ()
    if kind == "tree":
        g = gen_random_tree(n, seed)
    elif kind == "half":
        g = gen_random_graph(n, 1, 2, seed)
    elif kind == "bipartite":
        g = gen_random_bipartite(n, seed)
    elif kind == "twins":
        g = gen_random_graph(n - n // 2, 1, 2, seed)
        sources = [i // 2 for i in range(n // 2)]
    else:
        g = gen_random_graph(n - (kind == "twin"), 4, n, seed)
        if kind == "twin":
            sources = (draw(st.integers(0, n - 2)),)
    for source in sources:
        # a new last vertex with source's neighbours, so every twin
        # planted before stays a twin
        g = Graph(g.n + 1, list(g.edges())
                  + [(w, g.n) for w in g.adjacency[source]])
    return g, (True,) if kind == "half" and n > 96 else (False, True)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(large_graphs())
def test_certificate_proves_large_classifications(drawn):
    # far above the oracle's reach (n <= 28), each route's own d and T
    # prove its partition (oracle.certify), and a reduction with d + 1
    # or one class of a core-forbidden vertex flipped is rejected
    g, routes = drawn
    for dense in routes:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_is_dense", lambda data, size: dense)
            part, d, entry = _classified(g)
        assert oracle.certify(g, part, d, entry)
    assert not oracle.certify(g, part, d + 1, entry)
    v = next(v for v in range(g.n) if v not in part.cv_set)
    flipped = list(part.class_of)
    flipped[v] = (VertexClass.CFV_UPP if flipped[v] is VertexClass.CFV_MID
                  else VertexClass.CFV_MID)
    assert not oracle.certify(g, part._replace(class_of=tuple(flipped)), d,
                              entry)


def test_forged_basis_trips_solvability_guard():
    # The right dimension but the wrong support: no y solves A y = e_0 on
    # P3, so vertex 0 is core whatever the basis claims, and the claim
    # spans another line.  The guard raises rather than asserts, so it
    # also holds under python -O.
    g = gen_path(3)
    forged = KernelBasis(3, ((0, 1, 0),))
    with pytest.raises(TheoremViolationError,
                       match="basis does not span the kernel") as info:
        classify_vertices(g, forged)
    report = info.value.report
    assert report["basis"] == forged.vectors
    assert Graph(report["n"], report["edges"]) == g


def test_short_basis_trips_dimension_guard():
    # A basis one dimension short leaves a core vertex outside every
    # support; it used to be read as cfv_mid.  The report replays.
    for g, short in (
        (Graph(1), KernelBasis(1, ())),
        (Graph(2), KernelBasis(2, ((1, 0),))),
    ):
        with pytest.raises(TheoremViolationError,
                           match="contradicts nullity") as info:
            classify_vertices(g, short)
        report = info.value.report
        assert report["nullity"] == g.n
        assert report["basis_dimension"] == g.n - 1
        assert report["basis"] == short.vectors
        replay = Graph(report["n"], report["edges"])
        assert replay == g
        assert classify_vertices(replay).nullity == report["nullity"]


def test_extra_support_trips_solvability_guard():
    # The right dimension, but the support claims the middle of P3, where
    # A y = e_1 is solvable, so the claim is off the kernel.
    g = gen_path(3)
    claim = KernelBasis(3, ((1, 1, -1),))
    with pytest.raises(TheoremViolationError,
                       match="basis does not span the kernel") as info:
        classify_vertices(g, claim)
    report = info.value.report
    assert report["basis"] == claim.vectors
    assert Graph(report["n"], report["edges"]) == g


def test_basis_of_another_order_is_rejected_before_indexing():
    # a basis for P5 handed in with P3 used to fail with a bare IndexError
    g = gen_path(3)
    wrong = KernelBasis(5, ((1, 0, -1, 0, 1),))
    with pytest.raises(TheoremViolationError,
                       match="ambient dimension 5 does not fit 3") as info:
        classify_vertices(g, wrong)
    report = info.value.report
    assert report["basis"] == wrong.vectors
    assert Graph(report["n"], report["edges"]) == g


def test_off_kernel_claims_are_rejected_at_classification():
    # supports, dimension and deleted nullities all agree with these
    # claims, but A x != 0 (on P3, A x = (0, 6, 0))
    for g, vector in ((gen_path(3), (1, 0, 5)),
                      (gen_path(7), (1, 0, -1, 0, 1, 0, 5))):
        claim = KernelBasis(g.n, (vector,))
        with pytest.raises(TheoremViolationError,
                           match="basis does not span the kernel") as info:
            classify_vertices(g, claim)
        report = info.value.report
        assert report["basis"] == claim.vectors
        assert Graph(report["n"], report["edges"]) == g


def test_dependent_claim_is_rejected():
    # C4: both vectors lie in the kernel and cover every vertex, but they
    # span a line, not the kernel
    g = gen_cycle(4)
    claim = KernelBasis(4, ((1, 1, -1, -1), (2, 2, -2, -2)))
    with pytest.raises(TheoremViolationError,
                       match="basis does not span the kernel") as info:
        classify_vertices(g, claim)
    assert info.value.report["basis"] == claim.vectors
    assert Graph(info.value.report["n"], info.value.report["edges"]) == g


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(drawn_graphs(), st.data())
def test_claim_is_checked_and_never_stored(g, data):
    # a claim made from the canonical basis by a unimodular transform
    # (row swaps, sign changes, adding multiples of one row to another)
    # passes and changes no field of the partition
    part = classify_vertices(g)
    vectors = [list(v) for v in part.kernel.vectors]
    k = len(vectors)
    if k:
        vectors = [vectors[i] for i in data.draw(st.permutations(range(k)))]
        for i, j, c in data.draw(st.lists(
                st.tuples(st.integers(0, k - 1), st.integers(0, k - 1),
                          st.integers(-3, 3)), max_size=6)):
            if i == j:
                vectors[i] = [-x for x in vectors[i]]
            else:
                vectors[i] = [a + c * b for a, b in zip(vectors[i],
                                                        vectors[j])]
    claim = KernelBasis(g.n, tuple(map(tuple, vectors)))
    claimed = classify_vertices(g, claim)
    assert claimed._asdict() == part._asdict() and claimed == part
    # pushed off the kernel at a vertex with a neighbour, the same claim
    # raises with a replayable report
    touched = [v for v in range(g.n) if g.adjacency[v]]
    if not k or not touched:
        return
    i = data.draw(st.integers(0, k - 1))
    v = data.draw(st.sampled_from(touched))
    vectors[i][v] += data.draw(st.sampled_from((-2, -1, 1, 2)))
    off = KernelBasis(g.n, tuple(map(tuple, vectors)))
    with pytest.raises(TheoremViolationError) as info:
        classify_vertices(g, off)
    report = info.value.report
    assert report["basis"] == off.vectors
    assert Graph(report["n"], report["edges"]) == g


CLAIMS = ("combine", "drop", "duplicate", "zero", "perturb", "random",
          "ambient", "length")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(drawn_graphs(max_n=9), st.sampled_from(CLAIMS), st.data())
def test_claims_are_accepted_exactly_when_the_oracle_finds_a_basis(
        g, kind, data):
    # each claim starts from the canonical basis and is mutated once;
    # the oracle's elimination over Fraction decides whether it is a
    # basis of ker A, and classify_vertices must agree either way
    part = classify_vertices(g)
    n = g.n
    vectors = [list(v) for v in part.kernel.vectors]
    k = len(vectors)
    ambient = n
    small = st.integers(-2, 2)
    if kind == "combine":
        # reordered, scaled or mixed; invertible or not
        matrix = data.draw(st.lists(st.lists(small, min_size=k, max_size=k),
                                    min_size=k, max_size=k))
        vectors = [[sum(c * v[j] for c, v in zip(row, vectors))
                    for j in range(n)] for row in matrix]
    elif kind == "drop" and k:
        vectors.pop(data.draw(st.integers(0, k - 1)))
    elif kind == "duplicate" and k:
        vectors.append(list(data.draw(st.sampled_from(vectors))))
    elif kind == "zero":
        vectors.append([0] * n)
    elif kind == "perturb" and k:
        vector = vectors[data.draw(st.integers(0, k - 1))]
        vector[data.draw(st.integers(0, n - 1))] += data.draw(
            st.sampled_from((-2, -1, 1, 2)))
    elif kind == "random":
        vectors = data.draw(st.lists(
            st.lists(small, min_size=n, max_size=n), max_size=3))
    elif kind == "ambient":
        ambient += data.draw(st.sampled_from((-1, 1)))
    elif kind == "length" and k:
        vector = vectors[data.draw(st.integers(0, k - 1))]
        if data.draw(st.booleans()):
            vector.append(0)
        else:
            vector.pop()
    claim = KernelBasis(ambient, tuple(map(tuple, vectors)))
    if oracle.is_kernel_basis(n, g.edges(), ambient, claim.vectors):
        assert classify_vertices(g, claim) == part
        return
    with pytest.raises(TheoremViolationError) as info:
        classify_vertices(g, claim)
    report = info.value.report
    assert report["basis"] == claim.vectors
    assert Graph(report["n"], report["edges"]) == g


def test_core_labelling_block_shape():
    g = gen_path(7)
    lab = core_labelling(g)
    assert lab.cv == (0, 2, 4, 6)
    assert lab.ncv == (1, 3, 5)
    assert lab.remote == ()
    # Q is |CV| x |NCV|, zero blocks are implicit in the assembled form
    assert lab.cv_to_ncv.rows == 4 and lab.cv_to_ncv.cols == 3
    assembled = lab.assembled()
    perm = lab.permutation()
    a = adjacency_matrix(g)
    for old_u in range(7):
        for old_w in range(7):
            assert a.entry(old_u, old_w) == assembled.entry(
                perm[old_u], perm[old_w]
            )
    # core rows meet only the neighbour block
    k = len(lab.cv)
    for i in range(k):
        for j in range(k):
            assert assembled.entry(i, j) == 0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn_graphs())
def test_blocks_hold_the_adjacency_entries(g):
    # entry by entry, not only by shape: S of a bipartite graph, and the
    # four labelling blocks with R and M non-empty
    decomp = is_bipartite(g)
    if decomp is not None:
        for i, u in enumerate(decomp.v1):
            for j, w in enumerate(decomp.v2):
                assert decomp.cross.entry(i, j) == int(g.has_edge(u, w))
    part = classify_vertices(g)
    if part.nullity and part.independent_cv and part.cfvr_set:
        lab = core_labelling(g, part)
        a = adjacency_matrix(g)
        assert lab.assembled() == IntMatrix(
            [[a.entry(u, w) for w in lab.order] for u in lab.order])


def test_core_labelling_rejects_adjacent_cores():
    with pytest.raises(NonIndependentCoreError) as info:
        core_labelling(gen_cycle(4))
    assert info.value.pair == (0, 1)
    with pytest.raises(NonIndependentCoreError):
        require_independent_cv(
            gen_cycle(4), classify_vertices(gen_cycle(4))
        )


def test_wrong_inputs_trip_explicit_guards():
    # An empty basis for P3 hides its core and misses the nullity.
    with pytest.raises(TheoremViolationError,
                       match="basis of dimension 0 contradicts nullity 1"
                       ) as info:
        classify_vertices(gen_path(3), KernelBasis(3, ()))
    report = info.value.report
    assert report["nullity"] == 1 and report["basis_dimension"] == 0
    assert Graph(report["n"], report["edges"]) == gen_path(3)
    # A partition that puts the neighbour of a core vertex in the remote
    # part leaves an edge in a zero block.
    part = classify_vertices(gen_path(2))._replace(
        nullity=1, class_of=(VertexClass.CV, VertexClass.CFV_MID),
        cv_set=(0,), ncv_set=(), cfvr_set=(1,), independent_cv=True)
    with pytest.raises(TheoremViolationError, match="zero block") as info:
        core_labelling(gen_path(2), part)
    assert info.value.report["edges"] == [(0, 1)]


def test_block_identities_on_singular_trees():
    rng = SplitMix64(909)
    seen = 0
    while seen < 60:
        t = gen_random_tree(2 + rng.below(11), rng.next_u64())
        if nullity(t) == 0:
            continue
        seen += 1
        checks = {c.name: c for c in verify_block_theorems(t)}
        assert set(checks) == {
            "cross_block_kernel_dimension",
            "cross_block_rank_deficient",
            "nullity_from_cross_block_rank",
            "full_column_rank_iff_count_gap",
            "remote_subgraph_nonsingular",
        }
        assert all(c.holds for c in checks.values())


def test_block_identities_require_singular():
    with pytest.raises(PreconditionError):
        verify_block_theorems(gen_path(4))


def test_no_single_core_neighbour_everywhere():
    # The exactly-one-core-neighbour exclusion holds for any graph.
    rng = SplitMix64(343)
    for _ in range(250):
        n = 1 + rng.below(8)
        g = gen_random_graph(n, 1 + rng.below(3), 4, rng.next_u64())
        assert no_single_core_neighbour_check(g).holds


def test_single_core_neighbour_is_reported_on_a_forged_partition():
    # no graph breaks the exclusion, so a forged partition of P3 that
    # makes only vertex 0 core reaches the failing branch: vertex 1 then
    # has exactly one core neighbour
    part = classify_vertices(gen_path(3))._replace(
        cv_set=(0,), ncv_set=(1,), cfvr_set=(2,))
    check = no_single_core_neighbour_check(gen_path(3), part)
    assert not check.holds
    assert check.witness == {"vertex": 1, "core_neighbours": 1}


def test_remote_singular_counterexample_pinned():
    """The advertised remote-part facts are not true for every graph with
    independent core vertices; this specific graph breaks exactly the
    remote-nonsingularity identity while the other four block identities
    hold, and its slim reduction shifts the nullity from 1 to 2."""
    g = REMOTE_SINGULAR
    assert nullity(g) == 1
    part = classify_vertices(g)
    assert part.cv_set == (3, 5)
    assert part.independent_cv
    assert part.ncv_set == (1, 4)
    assert part.cfvr_set == (0, 2, 6)

    lab = core_labelling(g, part)
    assert det(lab.remote_inner) == 0  # the singular remote block

    checks = {c.name: c.holds for c in verify_block_theorems(g)}
    assert checks == {
        "cross_block_kernel_dimension": True,
        "cross_block_rank_deficient": True,
        "nullity_from_cross_block_rank": True,
        "full_column_rank_iff_count_gap": True,
        "remote_subgraph_nonsingular": False,
    }

    with pytest.raises(TheoremViolationError) as info:
        slim_reduce(g)
    report = info.value.report
    assert report["nullity_before"] == 1
    assert report["nullity_after"] == 2
    # replayable: the report carries the original edges
    assert Graph(report["n"], report["edges"]) == g


def test_remote_block_does_not_decide_slim_reduction():
    # det M != 0, yet dropping the remote part raises the nullity
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 5), (2, 4), (3, 4)])
    part = classify_vertices(g)
    assert part.independent_cv and part.cfvr_set == (1, 5)
    assert det(core_labelling(g, part).remote_inner) == -1
    with pytest.raises(TheoremViolationError) as info:
        slim_reduce(g, part)
    assert info.value.report["nullity_before"] == 1
    assert info.value.report["nullity_after"] == 2
    # M = [0], yet the reduction keeps the nullity and every class
    g = Graph(7, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3),
                  (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5),
                  (4, 6), (5, 6)])
    part = classify_vertices(g)
    assert part.independent_cv and part.cfvr_set == (1,)
    assert core_labelling(g, part).remote_inner == IntMatrix([[0]])
    reduced, prov = slim_reduce(g, part)
    assert nullity(reduced) == part.nullity == 1
    assert sorted(prov.vertex_map().values()) == [0, 2, 3, 4, 5, 6]


def test_remote_singular_frequency_is_not_negligible():
    # The pinned behaviour is not a freak case: among random singular
    # graphs with independent cores and a non-empty remote part, a
    # visible fraction has a singular remote block.
    rng = SplitMix64(2718)
    bad = total = 0
    for _ in range(2500):
        n = 5 + rng.below(4)
        g = gen_random_graph(n, 1, 2, rng.next_u64())
        part = classify_vertices(g)
        if part.nullity == 0 or not part.independent_cv:
            continue
        if not part.cfvr_set:
            continue
        total += 1
        lab = core_labelling(g, part)
        if det(lab.remote_inner) == 0:
            bad += 1
    assert total > 50
    assert bad > total // 20


def test_slim_reduce_p7():
    reduced, prov = slim_reduce(gen_path(7))
    assert reduced == gen_path(7)  # no remote vertices to drop
    t9 = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                   (1, 7), (7, 8)])
    reduced, prov = slim_reduce(t9)
    assert reduced.n == 7
    assert sorted(prov.vertex_map().values()) == [0, 1, 2, 3, 4, 5, 6]
    assert nullity(reduced) == nullity(t9) == 1
    assert is_slim(reduced)


def test_slim_reduce_requires_independent_cores():
    with pytest.raises(NonIndependentCoreError):
        slim_reduce(gen_cycle(4))


def test_slim_reduce_faithful_on_singular_trees():
    rng = SplitMix64(515)
    seen = 0
    while seen < 80:
        t = gen_random_tree(2 + rng.below(12), rng.next_u64())
        part = classify_vertices(t)
        if part.nullity == 0:
            continue
        seen += 1
        reduced, prov = slim_reduce(t)
        sub = classify_vertices(reduced)
        assert sub.nullity == part.nullity
        for new, old in prov.vertex_map().items():
            assert sub.class_of[new] is part.class_of[old]


def test_structure_predicates():
    assert is_slim(gen_path(7))
    assert is_core_graph(gen_cycle(4))
    assert not is_core_graph(gen_path(7))
    assert is_half_core(gen_path(7))
    assert is_half_core(gen_star(4))
    assert not is_half_core(gen_path(4))  # non-singular
    assert is_half_core(Graph(0))


def test_unicyclic_reports():
    c4 = unicyclic_analysis(gen_cycle(4))
    assert c4.cycle == (0, 1, 2, 3)
    assert c4.cycle_length == 4 and c4.length_mod_4 == 0
    assert {c.name for c in c4.checks} == {"all_core_cycle_nullity_two"}
    assert all(c.holds for c in c4.checks)

    c5 = unicyclic_analysis(gen_cycle(5))
    assert {c.name for c in c5.checks} == {
        "off_multiple_cycle_core_independent"}
    assert all(c.holds for c in c5.checks)

    with pytest.raises(PreconditionError):
        unicyclic_analysis(gen_path(4))


def test_unicyclic_mixed_cycle_case():
    # C4 with a pendant vertex: length a multiple of four but the cycle
    # carries a non-core vertex.
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    rep = unicyclic_analysis(g)
    assert rep.cycle_length == 4
    names = {c.name for c in rep.checks}
    assert "forbidden_attachment_core_independent" in names
    assert all(c.holds for c in rep.checks)


def test_analyze_report_json_schema():
    data = report_to_json(analyze(gen_path(7)))
    assert list(data) == [
        "n", "m", "nullity", "classes", "cv", "ncv", "cfvr",
        "kernel_basis", "blocks", "checks",
    ]
    assert data["n"] == 7 and data["m"] == 6
    assert data["nullity"] == 1
    assert data["cv"] == [0, 2, 4, 6]
    assert data["kernel_basis"] == [[1, 0, -1, 0, 1, 0, -1]]
    assert set(data["blocks"]) == {"Q", "N", "R", "M"}
    for check in data["checks"]:
        assert set(check) == {"name", "holds", "witness"}
        assert check["holds"] is True


def test_analyze_nonsingular_blocks_trivial():
    # Non-singular: the labelling exists but is all remote, and no block
    # identities are asserted.
    data = report_to_json(analyze(gen_path(4)))
    assert data["nullity"] == 0
    assert data["blocks"]["Q"] == [] and data["blocks"]["N"] == []
    assert data["blocks"]["M"] == [[0, 1, 0, 0], [1, 0, 1, 0],
                                   [0, 1, 0, 1], [0, 0, 1, 0]]
    names = [c["name"] for c in data["checks"]]
    assert names == ["no_single_core_neighbour"]


def test_analyze_keeps_checks_for_dependent_cores():
    data = report_to_json(analyze(gen_cycle(4)))
    names = [c["name"] for c in data["checks"]]
    assert names == ["no_single_core_neighbour"]
    assert data["blocks"] is None


def test_eta_equals_cv_minus_rank_q():
    # The nullity always equals |CV| - rank(Q) when cores are independent.
    rng = SplitMix64(1618)
    hits = 0
    while hits < 60:
        n = 4 + rng.below(6)
        g = gen_random_graph(n, 1, 2, rng.next_u64())
        part = classify_vertices(g)
        if part.nullity == 0 or not part.independent_cv:
            continue
        hits += 1
        lab = core_labelling(g, part)
        assert part.nullity == len(part.cv_set) - rank(lab.cv_to_ncv)
        # and full column rank is equivalent to the count gap
        full = rank(lab.cv_to_ncv) == len(lab.ncv)
        assert full == (
            part.nullity == len(part.cv_set) - len(part.ncv_set)
        )


def test_half_core_needs_a_kernel_on_a_non_empty_graph():
    # nullity 0: no core vertex, so every edge has no core end
    for g in (gen_path(4), gen_cycle(6), Graph(2, [(0, 1)])):
        assert nullity(g) == 0
        assert not is_half_core(g)
    assert is_half_core(Graph(0))
