"""Exact linear algebra against an independent Fraction-based oracle."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from nullcore import linalg
from nullcore.analysis import classify_vertices, core_labelling, nullity
from nullcore.linalg import (
    IntMatrix,
    _canonical_basis,
    _gauss_jordan_int,
    _kernel_from_reduced,
    _reduce_symmetric,
    char_poly,
    det,
    nullspace_basis,
    rank,
)
from nullcore.graphs import (
    adjacency_matrix,
    gen_path,
    gen_random_bipartite,
    gen_random_graph,
    gen_random_tree,
    gen_random_unicyclic,
)
from nullcore.rng import SplitMix64

import oracle


def random_int_matrix(rng, rows, cols, bound=3):
    return IntMatrix(
        [[rng.below(2 * bound + 1) - bound for _ in range(cols)]
         for _ in range(rows)],
        cols=cols,
    )


def test_intmatrix_construction_and_equality():
    m = IntMatrix([[1, 2], [3, 4]])
    assert m.rows == 2 and m.cols == 2
    assert m.entry(1, 0) == 3
    assert m.row(0) == (1, 2)
    assert m == IntMatrix([[1, 2], [3, 4]])
    assert m != IntMatrix([[1, 2], [3, 5]])
    assert hash(m) == hash(IntMatrix([[1, 2], [3, 4]]))
    assert m.transpose() == IntMatrix([[1, 3], [2, 4]])
    assert m.to_lists() == [[1, 2], [3, 4]]


def test_intmatrix_ragged_rejected():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])


def test_intmatrix_rejects_non_integer_entries():
    # int() would truncate 0.5 and 3/2 (det -1 instead of -1/4) and
    # parse strings; operator.index refuses all of them
    for data in ([[0.5, 1], [1, Fraction(3, 2)]], [["1", "2"]],
                 [[1.0]], [[Fraction(2, 1)]]):
        with pytest.raises(TypeError):
            IntMatrix(data)
    assert IntMatrix([[True, 0], [0, 1]]).data == ((1, 0), (0, 1))


def test_intmatrix_empty_needs_explicit_cols():
    m = IntMatrix([], cols=3)
    assert m.rows == 0 and m.cols == 3
    assert rank(m) == 0


def test_intmatrix_rejects_negative_column_count():
    # a 0 x -2 matrix used to be built, with a kernel of ambient -2
    with pytest.raises(ValueError, match="negative column count"):
        IntMatrix([], cols=-2)


def test_matmul_identity():
    m = IntMatrix([[1, 2], [3, 4], [5, 6]], cols=2)
    assert IntMatrix.identity(3) @ m == m
    assert m @ IntMatrix.identity(2) == m
    prod = m.transpose() @ m
    assert prod == IntMatrix([[35, 44], [44, 56]])
    assert prod.is_symmetric()


def test_rank_and_det_small_fixtures():
    assert rank(IntMatrix([[0] * 3] * 3)) == 0
    assert rank(IntMatrix.identity(4)) == 4
    assert det(IntMatrix.identity(4)) == 1
    assert det(IntMatrix([[2, 0], [1, 3]])) == 6
    assert det(IntMatrix([[1, 2], [2, 4]])) == 0
    assert det(IntMatrix([[0, 1], [1, 0]])) == -1
    assert det(IntMatrix([[1, 1], [1, 1]])) == 0


def test_det_requires_square():
    with pytest.raises(ValueError):
        det(IntMatrix([[1, 2, 3]], cols=3))


def random_adjacency(rng, n):
    edges = [(u, w) for u in range(n) for w in range(u + 1, n)
             if rng.below(2) == 0]
    return IntMatrix(oracle.adjacency_rows(n, edges), cols=n)


def random_permutation(rng, n):
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def permutation_matrix(perm, n_rows=None):
    n = len(perm)
    rows = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    return IntMatrix(rows[:n_rows], cols=n)


def permutation_sign(perm):
    inversions = sum(
        perm[i] > perm[j]
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
    )
    return -1 if inversions % 2 else 1


def test_rank_and_det_match_oracle_on_random_matrices():
    rng = SplitMix64(2024)
    cases = []
    for _ in range(250):
        n = 1 + rng.below(5)
        cases.append(random_int_matrix(rng, n, n))
    # 0/1 adjacency matrices: unit pivots take the sparse update branch,
    # and a later pivot of 2 or more scales the rows it does not touch.
    cases += [random_adjacency(rng, 1 + rng.below(8)) for _ in range(150)]
    for n in range(2, 9):
        # a single transposition guarantees an odd permutation, det -1
        odd = [1, 0, *range(2, n)]
        for perm in [odd] + [random_permutation(rng, n) for _ in range(6)]:
            m = permutation_matrix(perm)
            assert det(m) == permutation_sign(perm)
            cases.append(m)
    for m in cases:
        rows = m.to_lists()
        assert rank(m) == oracle.gauss_rank(rows)
        assert det(m) == oracle.gauss_det(rows)


def test_rank_on_rectangular_matches_oracle():
    rng = SplitMix64(77)
    cases = []
    for _ in range(150):
        r = 1 + rng.below(5)
        c = 1 + rng.below(5)
        cases.append(random_int_matrix(rng, r, c))
    for _ in range(150):
        r = 1 + rng.below(8)
        c = 1 + rng.below(8)
        cases.append(IntMatrix(
            [[rng.below(2) for _ in range(c)] for _ in range(r)], cols=c
        ))
    for n in range(2, 9):
        perm = random_permutation(rng, n)
        cases.append(permutation_matrix(perm, n_rows=n - 1))
        cases.append(permutation_matrix(perm).transpose())
    for m in cases:
        assert rank(m) == oracle.gauss_rank(m.to_lists())


def test_nullspace_basis_canonical_form():
    # Kernel of the P7 adjacency matrix, a known one-dimensional case.
    edges = [(i, i + 1) for i in range(6)]
    m = IntMatrix(oracle.adjacency_rows(7, edges))
    basis = nullspace_basis(m)
    assert basis.ambient == 7
    assert basis.vectors == ((1, 0, -1, 0, 1, 0, -1),)
    assert basis.dimension == 1
    assert basis.supports() == {0, 2, 4, 6}


def test_nullspace_vectors_are_exact_kernel_members():
    rng = SplitMix64(5150)
    for _ in range(200):
        n = 1 + rng.below(6)
        m = random_int_matrix(rng, n, n)
        basis = nullspace_basis(m)
        assert basis.dimension == n - oracle.gauss_rank(m.to_lists())
        for vec in basis.vectors:
            assert all(
                sum(a * x for a, x in zip(row, vec)) == 0 for row in m.data
            )
            # primitive and sign-normalized
            assert gcd(*vec) == 1
            first = next(x for x in vec if x != 0)
            assert first > 0
        if basis.dimension > 1:
            assert oracle.gauss_rank(
                [list(v) for v in basis.vectors]
            ) == basis.dimension


def test_nullspace_spans_every_small_kernel_vector():
    # Exhaustive box check: every small integer kernel member must lie in
    # the span of the canonical basis.
    rng = SplitMix64(31)
    for _ in range(40):
        n = 2 + rng.below(3)
        m = random_int_matrix(rng, n, n, bound=1)
        basis = [list(v) for v in nullspace_basis(m).vectors]
        for vec in oracle.kernel_members_box(m.to_lists(), 2):
            assert oracle.in_span(basis, list(vec))


@st.composite
def int_matrices(draw):
    """(rows, cols) of an integer matrix, either dimension possibly 0."""
    n_rows = draw(st.integers(0, 7))
    n_cols = draw(st.integers(0, 7))
    row = st.lists(st.integers(-3, 3), min_size=n_cols, max_size=n_cols)
    rows = draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    return rows, n_cols


@st.composite
def planted_twin_adjacency(draw):
    """Adjacency rows of a random graph in which one vertex copies the
    neighbourhood of another, so the pair spans a kernel vector."""
    n = draw(st.integers(2, 14))
    pairs = [(u, w) for u in range(n - 1) for w in range(u + 1, n - 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    edges = [pair for pair, kept in zip(pairs, keep) if kept]
    source = draw(st.integers(0, n - 2))
    edges += [(w if u == source else u, n - 1)
              for u, w in edges if source in (u, w)]
    order = draw(st.permutations(range(n)))
    return oracle.adjacency_rows(n, [(order[u], order[w]) for u, w in edges])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(int_matrices())
@example(([], 0))
@example(([], 4))
@example(([[], [], []], 0))
def test_nullspace_matches_oracle_kernel_basis(case):
    rows, n_cols = case
    basis = nullspace_basis(IntMatrix(rows, cols=n_cols))
    assert basis.ambient == n_cols
    assert basis.vectors == oracle.kernel_basis(rows, n_cols)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(planted_twin_adjacency())
def test_nullspace_matches_oracle_on_planted_twins(rows):
    basis = nullspace_basis(IntMatrix(rows))
    assert basis.dimension >= 1
    assert basis.vectors == oracle.kernel_basis(rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(int_matrices(), st.data())
def test_canonical_basis_of_a_dependent_spanning_set(case, data):
    # a repeat, integer combinations and a zero vector cancel to zero
    # rows in the reduction, which drops them: the span's canonical
    # basis is the kernel's, whatever spans it
    rows, n_cols = case
    kernel = nullspace_basis(IntMatrix(rows, cols=n_cols))
    vectors = [list(v) for v in kernel.vectors]
    spanning = vectors + vectors[:1] + [[0] * n_cols]
    for _ in range(data.draw(st.integers(0, 3))):
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(vectors),
                                    max_size=len(vectors)))
        spanning.append([sum(c * v[j] for c, v in zip(coeffs, vectors))
                         for j in range(n_cols)])
    spanning = data.draw(st.permutations(spanning))
    assert _canonical_basis(spanning, n_cols) == kernel


@st.composite
def symmetric_matrices(draw):
    """Rows of a symmetric integer matrix, n from 0 to 7, entries -2..2."""
    n = draw(st.integers(0, 7))
    upper = draw(st.lists(st.integers(-2, 2), min_size=n * (n + 1) // 2,
                          max_size=n * (n + 1) // 2))
    rows = [[0] * n for _ in range(n)]
    cells = iter(upper)
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(cells)
    return rows


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(symmetric_matrices(), planted_twin_adjacency()))
@example([])
@example([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
def test_symmetric_kernel_matches_oracle(rows):
    n = len(rows)
    m = IntMatrix(rows, cols=n)
    basis, _, y_rows = _y_rows(*_reduce_symmetric(_dict_rows(rows), n))
    assert basis == nullspace_basis(m)
    assert basis.vectors == oracle.kernel_basis(rows, n)
    for v in range(n):
        y_v = oracle.unit_solution_entry(rows, v)
        assert (y_rows[v] is None) == (y_v is None)
        if y_v is not None:
            assert (y_rows[v][v] == 0) == (y_v == 0)


def _dict_rows(rows):
    """List rows as new dict rows {column: non-zero entry}, the form
    every elimination in linalg takes."""
    return [{j: a for j, a in enumerate(row) if a} for row in rows]


def _dropping_pivots(data, pivots):
    """Reduced list rows as the dict rows _gauss_jordan_int leaves: the
    pivoted columns and the zeros dropped."""
    pivot_set = set(pivots)
    return [{j: a for j, a in enumerate(row) if a and j not in pivot_set}
            for row in data]


def _textbook_bareiss(data, n_cols):
    """Fraction-free Gauss-Jordan over the first n_cols columns of list
    rows, in place, that skips nothing: at every step every other row
    takes (pivot * row - factor * pivot row) / previous pivot, over its
    whole width.  Returns (pivots, sign, d, origin, steps): the
    (pivots, sign, d) of _gauss_jordan_int, origin[i] the input index of
    the row that ends at position i, and steps the pivot value of each
    step."""
    n = len(data)
    pivots, sign, prev, steps = [], 1, 1, []
    origin = list(range(n))
    for col in range(n_cols):
        rank_ = len(pivots)
        found = next((i for i in range(rank_, n) if data[i][col]), None)
        if found is None:
            continue
        if found != rank_:
            data[rank_], data[found] = data[found], data[rank_]
            origin[rank_], origin[found] = origin[found], origin[rank_]
            sign = -sign
        row_r, piv = data[rank_], data[rank_][col]
        for i in range(n):
            if i != rank_:
                factor = data[i][col]
                data[i] = [(piv * a - factor * b) // prev
                           for a, b in zip(data[i], row_r)]
        pivots.append(col)
        steps.append(piv)
        prev = piv
    return pivots, sign, prev, origin, steps


def _wide_rows(rows):
    """[A | I] on 2n-wide rows after _textbook_bareiss over A's columns,
    with its (pivots, sign, d, origin, steps)."""
    n = len(rows)
    data = [list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(rows)]
    return data, _textbook_bareiss(data, n)


def _wide_reduction(rows):
    """The [A | I] reduction on 2n-wide rows that _reduce_symmetric
    replaced, kept here as its reference: plain Bareiss Gauss-Jordan
    over both halves (_wide_rows), read out the way the library read
    it."""
    n = len(rows)
    data, (pivots, _, prev, _, _) = _wide_rows(rows)
    row_of = {p: i for i, p in enumerate(pivots)}
    unsolvable = {v for row in data[len(pivots):]
                  for v in range(n) if row[n + v]}
    y_rows = tuple(None if v in unsolvable else tuple(data[row_of[v]][n:])
                   for v in range(n))
    basis = _kernel_from_reduced(_dropping_pivots(data, pivots), pivots,
                                 prev, n)
    return basis, prev, y_rows


def _y_rows(basis, d, entry):
    """(basis, d, y_rows) of a reduction that returned (basis, d, entry),
    with the y rows read through entry: None on the kernel supports and
    row v of T at every other v."""
    core = basis.supports()
    n = basis.ambient
    return basis, d, tuple(
        None if v in core else tuple(entry(v, w) for w in range(n))
        for v in range(n))


def _assert_solutions(rows, d, y_rows):
    """A y_rows[v] = d e_v exactly for every v with a y row, and the y
    rows are symmetric on those v."""
    n = len(rows)
    solvable = [v for v, y in enumerate(y_rows) if y is not None]
    for v in solvable:
        y = y_rows[v]
        assert [sum(a * b for a, b in zip(row, y)) for row in rows] == [
            d * (u == v) for u in range(n)]
        assert all(y[w] == y_rows[w][v] for w in solvable)


@st.composite
def relabelled_graph_adjacency(draw):
    """Adjacency rows of a random tree or G(n, p), n <= 14, under a random
    relabelling (so the elimination swaps rows)."""
    n = draw(st.integers(1, 14))
    if draw(st.booleans()):
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    else:
        quarters = draw(st.integers(1, 3))
        edges = [(u, w) for u in range(n) for w in range(u + 1, n)
                 if draw(st.integers(0, 3)) < quarters]
    order = draw(st.permutations(range(n)))
    return oracle.adjacency_rows(n, [(order[u], order[w]) for u, w in edges])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(relabelled_graph_adjacency(), planted_twin_adjacency(),
                 symmetric_matrices()))
@example([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
@example([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
def test_in_place_reduction_matches_wide_reduction(rows):
    # T rides along at the keys from n on, so nothing is lost against
    # the 2n-wide rows: all three results are tuple-equal, and the y
    # rows read off the kernel supports are the ones the wide reduction
    # reads off the T rows below the rank
    n = len(rows)
    expected = _wide_reduction(rows)
    reduced = _y_rows(*_reduce_symmetric(_dict_rows(rows), n))
    assert reduced == expected
    _assert_solutions(rows, *reduced[1:])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(int_matrices())
@example(([[0, 2, 1], [3, 0, 0]], 3))
@example(([[0, 1], [2, 0], [1, 1]], 2))
def test_elimination_clears_pivot_slots_on_rectangular(case):
    # rank, det and nullspace_basis keep nothing in a pivoted column: it
    # is dropped from every row afterwards, the swap sign is the sign of
    # the row permutation the textbook loop tracks, and the results
    # still match the oracle
    rows, n_cols = case
    data = _dict_rows(rows)
    pivots, sign, d = _gauss_jordan_int(data, n_cols)
    assert not any(p in row for row in data for p in pivots)
    *expected, origin, _ = _textbook_bareiss([list(row) for row in rows],
                                             n_cols)
    assert [pivots, sign, d] == expected
    assert sorted(origin) == list(range(len(rows)))
    assert sign == permutation_sign(origin)
    m = IntMatrix(rows, cols=n_cols)
    assert len(pivots) == rank(m) == oracle.gauss_rank(rows)
    assert nullspace_basis(m).vectors == oracle.kernel_basis(rows, n_cols)
    if len(rows) == n_cols:
        assert det(m) == oracle.gauss_det(rows)
        assert det(m) == (sign * d if len(pivots) == n_cols else 0)


def _flip_cases(steps):
    """(ends flipped, general step while flipped) of a pivot sequence:
    the list-row loop flips its stored rows at each pivot of -prev and
    takes the general update at each pivot other than +-prev."""
    flip, prev, general_flipped = 1, 1, False
    for piv in steps:
        if piv == -prev:
            flip = -flip
        elif piv != prev and flip < 0:
            general_flipped = True
        prev = piv
    return flip < 0, general_flipped


def _cross_check_matrices():
    """Relabelled trees, paths, unicyclic graphs and G(n, 2/n) at
    n = 40, 80 and 120, as adjacency rows, and signed rectangular
    matrices, as (rows, n_cols)."""
    rng = random.Random(25)
    cases = []
    for n in (40, 80, 120):
        for g in (gen_random_tree(n, n), gen_path(n),
                  gen_random_unicyclic(n, n), gen_random_graph(n, 2, n, n)):
            order = rng.sample(range(n), n)
            rows = oracle.adjacency_rows(
                n, [(order[u], order[w]) for u, w in g.edges()])
            cases.append((rows, n))
    for r, c in ((12, 12), (9, 15), (15, 9), (20, 20), (30, 24)):
        for _ in range(4):
            zero = rng.choice((0.3, 0.6, 0.85))
            cases.append(([[0 if rng.random() < zero else rng.randint(-3, 3)
                            for _ in range(c)] for _ in range(r)], c))
    return cases


def test_gauss_jordan_int_matches_textbook_bareiss():
    # both update rules and the carried sign give exactly the rows and
    # (pivots, sign, d) of a Bareiss loop that skips nothing, with the
    # pivoted columns dropped: R alone, or [R | T] of the 2n-wide
    # [A | I] reduction when row v also holds the key n + v
    flip_cases = []
    for rows, n_cols in _cross_check_matrices():
        expected = [list(row) for row in rows]
        *result, _, steps = _textbook_bareiss(expected, n_cols)
        data = _dict_rows(rows)
        assert list(_gauss_jordan_int(data, n_cols)) == result
        assert data == _dropping_pivots(expected, result[0])
        flip_cases.append(_flip_cases(steps))
        if len(rows) != n_cols:
            continue
        n = n_cols
        wide, (*result, _, _) = _wide_rows(rows)
        data = _dict_rows(rows)
        for v, row in enumerate(data):
            row[n + v] = 1
        assert list(_gauss_jordan_int(data, n)) == result
        assert data == _dropping_pivots(wide, result[0])
    assert any(ends for ends, _ in flip_cases)
    assert any(general for _, general in flip_cases)


def _binary(rows):
    """Whether every entry is 0 or 1: the only matrices bordered."""
    return all(a in (0, 1) for row in rows for a in row)


def _bordered_y_matches_elimination(rows):
    """Reduce a symmetric matrix, bordered if it is a {0, 1} matrix and
    through _reduce_symmetric otherwise, and eliminate [A | I] on dict
    rows.

    Both must give the same kernel basis, the same None pattern and the
    same zero pattern of y_v.  The reduction's own d and y must satisfy
    A y = d e_v exactly, with y symmetric on the non-core block.
    Returns the reduction's y_rows.
    """
    n = len(rows)
    reduce = linalg._reduce_by_bordering if _binary(rows) else (
        _reduce_symmetric)
    basis, d, y_rows = _y_rows(*reduce(_dict_rows(rows), n))
    expected, _, expected_y = _y_rows(*linalg._reduce_by_elimination(
        _dict_rows(rows), n))
    assert basis == expected
    assert [y is None for y in y_rows] == [y is None for y in expected_y]
    assert [y is None or y[v] == 0 for v, y in enumerate(y_rows)] == [
        y is None or y[v] == 0 for v, y in enumerate(expected_y)]
    _assert_solutions(rows, d, y_rows)
    return y_rows


@st.composite
def dense_graph_adjacency(draw):
    """Adjacency rows of G(n, p) with n from 16 to 40 and p in 1/4..3/4,
    made from a drawn seed so that a draw stays cheap."""
    n = draw(st.integers(16, 40))
    quarters = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return oracle.adjacency_rows(
        n, [(u, w) for u in range(n) for w in range(u + 1, n)
            if rng.randrange(4) < quarters])


@st.composite
def dense_bipartite_adjacency(draw):
    """Adjacency rows of a random bipartite graph, n from 16 to 40, each
    cross pair kept with probability 1/4..3/4: its Schur complements
    have a zero diagonal, so bordering takes 2 x 2 steps only."""
    n = draw(st.integers(16, 40))
    quarters = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    side = [rng.randrange(2) for _ in range(n)]
    return oracle.adjacency_rows(
        n, [(u, w) for u in range(n) for w in range(u + 1, n)
            if side[u] != side[w] and rng.randrange(4) < quarters])


@st.composite
def dense_twin_adjacency(draw):
    """Adjacency rows of G(n, p), n from 16 to 40, in which one vertex
    copies the neighbourhood of another, so the nullity is positive."""
    rows = draw(dense_graph_adjacency())
    source, copy = draw(st.permutations(range(len(rows))))[:2]
    return _planted_duplicate(rows, source, copy)


@st.composite
def dense_signed_symmetric(draw):
    """A symmetric matrix, n from 16 to 40, with off-diagonal entries in
    -2..2, a diagonal in +-1, +-2 and, in half the draws, a planted
    duplicate row."""
    n = draw(st.integers(16, 40))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice((-2, -1, 1, 2))
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(-2, 2)
    if draw(st.booleans()):
        rows = _planted_duplicate(rows, *rng.sample(range(n), 2))
    return rows


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(dense_graph_adjacency(), dense_bipartite_adjacency(),
                 dense_twin_adjacency(), dense_signed_symmetric()))
def test_bordering_matches_elimination_on_dense_matrices(rows):
    y_rows = _bordered_y_matches_elimination(rows)
    n = len(rows)
    if n <= 28:
        expected = oracle.unit_solution_entries(rows)
        assert [y is None for y in y_rows] == [y is None for y in expected]
        assert all(y is None or (y[v] == 0) == (expected[v] == 0)
                   for v, y in enumerate(y_rows))


def _bordered_primitives_match_elimination(rows):
    """rank, det and nullspace_basis of a symmetric {0, 1} matrix read
    off bordering (rank n - eta, det d when eta = 0, else 0, and
    bordering's basis) must equal the dict-row readout, and so must the
    public functions, whichever kernel they choose, and the basis of
    _reduce_symmetric on any symmetric matrix.  Returns that readout."""
    n = len(rows)
    data = _dict_rows(rows)
    pivots, sign, last = _gauss_jordan_int(data, n)
    expected = (len(pivots), sign * last if len(pivots) == n else 0,
                _kernel_from_reduced(data, pivots, last, n))
    if _binary(rows):
        basis, d, _ = linalg._reduce_by_bordering(_dict_rows(rows), n)
        eta = basis.dimension
        assert (n - eta, 0 if eta else d, basis) == expected
    assert _reduce_symmetric(_dict_rows(rows), n)[0] == expected[2]
    m = IntMatrix(rows, cols=n)
    assert (rank(m), det(m), nullspace_basis(m)) == expected
    return expected


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(dense_graph_adjacency(), dense_bipartite_adjacency(),
                 dense_twin_adjacency(), dense_signed_symmetric(),
                 symmetric_matrices(), planted_twin_adjacency()))
@example([[-3, 3], [3, -3]])
@example([])
def test_bordered_primitives_match_list_rows(rows):
    # the small draws border matrices below the dense rule as well, and
    # keep the checks of y that ran on them
    r, d, basis = _bordered_primitives_match_elimination(rows)
    n = len(rows)
    if n < 16:
        _bordered_y_matches_elimination(rows)
    if n <= 28:
        assert r == oracle.gauss_rank(rows)
        assert d == oracle.gauss_det(rows)
        assert basis.vectors == oracle.kernel_basis(rows, n)


def _sylvester(n):
    h = [[1]]
    while len(h) < n:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


def _planted_duplicate(rows, source, copy):
    """rows with row and column copy made equal to those of source,
    keeping the matrix symmetric, so the two rows are equal."""
    out = [list(row) for row in rows]
    for i in range(len(out)):
        out[i][copy] = out[i][source]
    out[copy] = list(out[source])
    return out


@pytest.mark.parametrize("n", [16, 32])
def test_elimination_at_hadamards_bound(n):
    # a Sylvester Hadamard matrix H is symmetric with entries +-1 and
    # |det H| = n^(n/2), which is Hadamard's bound; H, -H and a twinned
    # H are eliminated, and the {0, 1} matrix below, bordered, reaches
    # the width the packed rows are given, so any narrower slot would
    # spill
    h = _sylvester(n)
    h_entries = oracle.unit_solution_entries(h)
    negated = [[-x for x in row] for row in h]
    twinned = _planted_duplicate(h, 3, n - 2)
    # H without its first row and column, with 1 -> 0 and -1 -> 1, is a
    # symmetric {0, 1} matrix of order n - 1 whose |det| is
    # n^(n/2) / 2^(n-1), the bound that gives a {0, 1} matrix its slots
    binary = [[(1 - x) // 2 for x in row[1:]] for row in h[1:]]
    # H is invertible, and -H y = e_v exactly when H (-y) = e_v
    for rows, entries, extreme in (
            (h, h_entries, n ** (n // 2)),
            (negated, [-y for y in h_entries], n ** (n // 2)),
            (twinned, oracle.unit_solution_entries(twinned), 0),
            (binary, oracle.unit_solution_entries(binary),
             n ** (n // 2) >> (n - 1))):
        order = len(rows)
        m = IntMatrix(rows)
        r, swaps, product = oracle.gauss_eliminate(rows)
        assert rank(m) == r
        assert det(m) == (swaps * product if r == order else 0)
        assert abs(det(m)) == extreme
        kernel = oracle.kernel_basis(rows, order)
        assert nullspace_basis(m).vectors == kernel
        basis, _, y_rows = _y_rows(
            *_reduce_symmetric(_dict_rows(rows), order))
        assert basis.vectors == kernel
        assert [y is None for y in y_rows] == [y is None for y in entries]
        assert all(y is None or (y[v] == 0) == (entries[v] == 0)
                   for v, y in enumerate(y_rows))
        _bordered_primitives_match_elimination(rows)
        _bordered_y_matches_elimination(rows)


def test_route_follows_size_and_fill(monkeypatch):
    taken = []
    for name in ("_gauss_jordan_int", "_reduce_by_bordering"):
        def spy(*args, route=getattr(linalg, name), name=name, **kwargs):
            taken.append(name)
            return route(*args, **kwargs)

        monkeypatch.setattr(linalg, name, spy)
    dense24 = gen_random_graph(24, 1, 2, 5)
    a24 = adjacency_matrix(dense24).to_lists()
    assert linalg._is_dense(_dict_rows(a24), 24)
    classify_vertices(dense24)
    assert taken == ["_reduce_by_bordering"]
    taken.clear()
    rank(adjacency_matrix(dense24))
    assert taken == ["_reduce_by_bordering"]
    # nullity takes the route of rank
    taken.clear()
    nullity(dense24)
    assert taken == ["_reduce_by_bordering"]
    # Q of a dense bipartite graph is as full, but not symmetric
    q = core_labelling(gen_random_bipartite(40, 0)).cv_to_ncv
    assert q.rows >= 16 and not q.is_symmetric()
    assert linalg._is_dense(linalg._sparse(q), q.rows)
    taken.clear()
    rank(q)
    assert taken == ["_gauss_jordan_int"]
    taken.clear()
    # and so is a square one: ones on and above the diagonal
    assert det(IntMatrix([[int(i <= j) for j in range(24)]
                          for i in range(24)])) == 1
    assert taken == ["_gauss_jordan_int"]
    taken.clear()
    tree64 = gen_random_tree(64, 3)
    classify_vertices(tree64)
    assert taken == ["_gauss_jordan_int"]
    taken.clear()
    nullity(tree64)
    assert taken == ["_gauss_jordan_int"]
    taken.clear()
    small = gen_random_graph(12, 1, 2, 5)
    classify_vertices(small)
    rank(IntMatrix([[1] * 12] * 12))
    nullity(small)
    assert taken == ["_gauss_jordan_int"] * 3
    # a dense symmetric matrix with an entry other than 1 is eliminated
    # by every entry, with the oracle's results: 2 A, A with one mirrored
    # pair of entries -1, and a Hadamard matrix
    u, w = dense24.edges()[0]
    signed = [list(row) for row in a24]
    signed[u][w] = signed[w][u] = -1
    for rows in ([[2 * a for a in row] for row in a24], signed,
                 _sylvester(16)):
        n = len(rows)
        assert not linalg._is_dense(_dict_rows(rows), n)
        m = IntMatrix(rows)
        taken.clear()
        assert rank(m) == oracle.gauss_rank(rows)
        assert det(m) == oracle.gauss_det(rows)
        assert nullspace_basis(m).vectors == oracle.kernel_basis(rows, n)
        basis, d, y_rows = _y_rows(*_reduce_symmetric(_dict_rows(rows), n))
        assert taken == ["_gauss_jordan_int"] * 4
        assert basis.vectors == oracle.kernel_basis(rows, n)
        entries = oracle.unit_solution_entries(rows)
        assert [y is None for y in y_rows] == [y is None for y in entries]
        assert all(y is None or (y[v] == 0) == (entries[v] == 0)
                   for v, y in enumerate(y_rows))
        _assert_solutions(rows, d, y_rows)


def test_nullspace_determinism():
    m = IntMatrix(oracle.adjacency_rows(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert nullspace_basis(m) == nullspace_basis(m)


def test_char_poly_fixtures():
    c4 = IntMatrix(oracle.adjacency_rows(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert char_poly(c4).coefficients == (1, 0, -4, 0, 0)
    p3 = IntMatrix(oracle.adjacency_rows(3, [(0, 1), (1, 2)]))
    assert char_poly(p3).coefficients == (1, 0, -2, 0)
    empty = IntMatrix([], cols=0)
    assert char_poly(empty).coefficients == (1,)
    one = char_poly(IntMatrix([[5]]))
    assert one.coefficients == (1, -5)
    assert one.degree == 1
    assert one.constant_term() == -5


def test_char_poly_matches_interpolation_oracle():
    rng = SplitMix64(901)
    matrices = []
    for _ in range(60):
        n = 1 + rng.below(5)
        matrices.append(random_int_matrix(rng, n, n, bound=2))
    # the product skips zero entries, so add mostly-zero adjacency
    # matrices of trees and sparse G(n, p) up to n = 10
    for i in range(30):
        n = 2 + rng.below(9)
        g = (gen_random_tree(n, rng.next_u64()) if i % 2 == 0
             else gen_random_graph(n, 1, 4, rng.next_u64()))
        matrices.append(adjacency_matrix(g))
    for m in matrices:
        assert list(char_poly(m).coefficients) == oracle.charpoly_coefficients(
            m.to_lists()
        )


def test_char_poly_constant_term_is_det_sign():
    # det(tI - M) at t = 0 equals (-1)^n det(M).
    rng = SplitMix64(414)
    for _ in range(60):
        n = 1 + rng.below(5)
        m = random_int_matrix(rng, n, n, bound=2)
        cp = char_poly(m)
        assert cp.constant_term() == (-1) ** n * det(m)


def test_charpoly_trailing_zeros_count_nullity_for_adjacency():
    # For a symmetric matrix the multiplicity of the zero root equals the
    # nullity; check via the number of trailing zero coefficients.
    rng = SplitMix64(6006)
    for _ in range(60):
        n = 2 + rng.below(5)
        g_edges = [
            (u, w)
            for u in range(n)
            for w in range(u + 1, n)
            if rng.below(2) == 0
        ]
        m = IntMatrix(oracle.adjacency_rows(n, g_edges))
        coeffs = char_poly(m).coefficients
        trailing = 0
        for c in reversed(coeffs):
            if c != 0:
                break
            trailing += 1
        assert trailing == n - oracle.gauss_rank(m.to_lists())


def test_intmatrix_shape_guards():
    m = IntMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]], cols=3)
    with pytest.raises(ValueError):
        m @ m
    assert not m.is_symmetric()
    with pytest.raises(ValueError):
        char_poly(m)
    with pytest.raises(AttributeError):
        m.rows = 3
    assert repr(m) == "IntMatrix(2x3)"
