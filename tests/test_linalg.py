"""Exact linear algebra against an independent Fraction-based oracle."""

from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from nullcore.linalg import (
    CharPoly,
    IntMatrix,
    char_poly,
    det,
    is_nonsingular,
    nullspace_basis,
    rank,
    symmetric_kernel,
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


def test_intmatrix_empty_needs_explicit_cols():
    m = IntMatrix([], cols=3)
    assert m.rows == 0 and m.cols == 3
    assert rank(m) == 0


def test_matmul_identity():
    m = IntMatrix([[1, 2], [3, 4], [5, 6]], cols=2)
    assert IntMatrix.identity(3) @ m == m
    assert m @ IntMatrix.identity(2) == m
    prod = m.transpose() @ m
    assert prod == IntMatrix([[35, 44], [44, 56]])
    assert prod.is_symmetric()


def test_rank_and_det_small_fixtures():
    assert rank(IntMatrix.zero(3, 3)) == 0
    assert rank(IntMatrix.identity(4)) == 4
    assert det(IntMatrix.identity(4)) == 1
    assert det(IntMatrix([[2, 0], [1, 3]])) == 6
    assert det(IntMatrix([[1, 2], [2, 4]])) == 0
    assert is_nonsingular(IntMatrix([[0, 1], [1, 0]]))
    assert not is_nonsingular(IntMatrix([[1, 1], [1, 1]]))


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
    sym = symmetric_kernel(m)
    assert sym.basis == nullspace_basis(m)
    assert sym.basis.vectors == oracle.kernel_basis(rows, n)
    for v in range(n):
        y_v = oracle.unit_solution_entry(rows, v)
        assert sym.y_vanishes[v] == (None if y_v is None else y_v == 0)


def test_symmetric_kernel_requires_symmetric():
    with pytest.raises(ValueError):
        symmetric_kernel(IntMatrix([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        symmetric_kernel(IntMatrix([[0, 1, 0]]))


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
    for _ in range(60):
        n = 1 + rng.below(5)
        m = random_int_matrix(rng, n, n, bound=2)
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
