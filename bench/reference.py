"""Exact rational kernel and modular rank of an adjacency matrix, owned by
the benchmark.

Used to generate inputs with a required nullity or core, to recompute the
answers of ``perturb`` independently of the package, and to certify large
nullities.  The basis is the
reduced-row-echelon parametrisation (free variable 1, other free variables
0), which is unique for a given subspace, so two kernels are equal exactly
when their bases are equal.
"""

from fractions import Fraction


def adjacency_rows(n, edges):
    rows = [[0] * n for _ in range(n)]
    for u, w in edges:
        rows[u][w] = rows[w][u] = 1
    return rows


def kernel_basis(n, edges) -> tuple:
    rows = [[Fraction(x) for x in row] for row in adjacency_rows(n, edges)]
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in set(pivots)]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][f]
        basis.append(tuple(vec))
    return tuple(basis)


def rank_mod_p(n, edges, p=(1 << 61) - 1) -> int:
    """Rank of the adjacency matrix over GF(p).  It never exceeds the
    rank over the rationals, so n - rank_mod_p bounds the nullity from
    above."""
    rows = adjacency_rows(n, edges)
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        top = [x * inv % p for x in rows[r]]
        rows[r] = top
        for i in range(r + 1, n):
            f = rows[i][c]
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], top)]
        r += 1
    return r


def core_of(basis) -> frozenset:
    """Core vertices: the union of the kernel vectors' supports."""
    return frozenset(i for vec in basis for i, x in enumerate(vec) if x != 0)
