"""Independent reference implementations used to cross-check the package.

Everything here works on plain (n, edges) data with stdlib imports only.
The algorithms deliberately differ from the package's: row-swap Gaussian
elimination over Fraction (and the kernel read off its reduced form)
instead of fraction-free integer Gauss-Jordan, evaluation
plus Lagrange interpolation instead of a trace recurrence for the
characteristic polynomial, and exhaustive search instead of greedy
reductions for matchings.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm


def adjacency_rows(n, edges):
    rows = [[0] * n for _ in range(n)]
    for u, w in edges:
        rows[u][w] = 1
        rows[w][u] = 1
    return rows


def rref(rows, n_cols=None):
    """Reduced row echelon form over Fraction of a copied matrix.

    Returns (reduced rows, pivot columns, swap_sign, pivot_product).
    n_cols is needed only when rows is empty.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    n_rows = len(m)
    if n_cols is None:
        n_cols = len(m[0]) if m else 0
    pivots = []
    r = 0
    sign = 1
    pivot_product = Fraction(1)
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        pivot_product *= m[r][c]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots, sign, pivot_product


def gauss_eliminate(rows):
    """Returns (rank, swap_sign, pivot_product) of a copied matrix."""
    _, pivots, sign, pivot_product = rref(rows)
    return len(pivots), sign, pivot_product


def kernel_basis(rows, n_cols=None):
    """Nullspace basis in the package's canonical form.

    One vector per free column of the RREF (that entry 1, the other
    free entries 0, pivot entries read off the reduced rows), scaled to
    a primitive integer vector whose first non-zero entry is positive.
    """
    if n_cols is None:
        n_cols = len(rows[0]) if rows else 0
    m, pivots, _, _ = rref(rows, n_cols)
    out = []
    for free in range(n_cols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -m[i][free]
        scale = lcm(*(x.denominator for x in vec))
        ints = [int(x * scale) for x in vec]
        g = gcd(*ints)
        if next(x for x in ints if x != 0) < 0:
            g = -g
        out.append(tuple(x // g for x in ints))
    return tuple(out)


def unit_solution_entry(rows, v):
    """y_v for a solution of rows @ y = e_v, or None when there is none.

    The solution read off the RREF of [rows | e_v] sets every free entry
    to 0; y_v is that solution's entry at v (for a symmetric matrix every
    solution has the same y_v).
    """
    n = len(rows)
    augmented = [list(row) + [int(i == v)] for i, row in enumerate(rows)]
    m, pivots, _, _ = rref(augmented, n + 1)
    if n in pivots:
        return None
    return next((m[i][n] for i, p in enumerate(pivots) if p == v), Fraction(0))


def gauss_rank(rows):
    return gauss_eliminate(rows)[0] if rows else 0


def gauss_det(rows):
    n = len(rows)
    r, sign, pivots = gauss_eliminate(rows)
    if r < n:
        return Fraction(0)
    return sign * pivots


def nullity_of(n, edges):
    return n - gauss_rank(adjacency_rows(n, edges))


def delete_vertex_data(n, edges, v):
    relabel = {old: new for new, old in enumerate(x for x in range(n) if x != v)}
    kept = [
        (relabel[u], relabel[w]) for u, w in edges if u != v and w != v
    ]
    return n - 1, kept


def core_vertices(n, edges):
    eta = nullity_of(n, edges)
    return [
        v for v in range(n)
        if nullity_of(*delete_vertex_data(n, edges, v)) == eta - 1
    ]


def vertex_classes(n, edges):
    """Three-way tags from the deletion rule alone."""
    eta = nullity_of(n, edges)
    tags = []
    for v in range(n):
        gap = nullity_of(*delete_vertex_data(n, edges, v)) - eta
        tags.append({-1: "cv", 0: "cfv_mid", 1: "cfv_upp"}[gap])
    return tags


def in_span(basis_rows, vec):
    if not basis_rows:
        return all(x == 0 for x in vec)
    return gauss_rank(basis_rows) == gauss_rank(list(basis_rows) + [list(vec)])


def kernel_members_box(rows, bound):
    """All integer vectors with entries in [-bound, bound] killed by rows."""
    n = len(rows)
    hits = []
    for vec in product(range(-bound, bound + 1), repeat=n):
        if all(sum(r[i] * vec[i] for i in range(n)) == 0 for r in rows):
            hits.append(vec)
    return hits


def charpoly_coefficients(rows):
    """Monic char poly det(tI - M), coefficients descending, by evaluating
    the determinant at n+1 integer points and interpolating."""
    n = len(rows)
    if n == 0:
        return [1]
    points = list(range(n + 1))
    values = []
    for t in points:
        shifted = [
            [Fraction(t) * (i == j) - Fraction(rows[i][j]) for j in range(n)]
            for i in range(n)
        ]
        values.append(gauss_det(shifted))
    # Lagrange interpolation, then collect coefficients exactly.
    coeffs = [Fraction(0)] * (n + 1)
    for k, t_k in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, t_j in enumerate(points):
            if j == k:
                continue
            denom *= t_k - t_j
            nxt = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d] -= c * t_j
                nxt[d + 1] += c
            basis = nxt
        scale = values[k] / denom
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    out = []
    for c in reversed(coeffs):
        assert c.denominator == 1
        out.append(int(c))
    return out


def max_matching(n, edges):
    """Exhaustive maximum matching over the alive-vertex tuple."""
    adj = {v: [] for v in range(n)}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    cache = {}

    def best(alive):
        if len(alive) < 2:
            return 0
        if alive in cache:
            return cache[alive]
        v = alive[0]
        rest = alive[1:]
        score = best(rest)  # leave v unmatched
        alive_set = set(rest)
        for w in adj[v]:
            if w in alive_set:
                score = max(
                    score,
                    1 + best(tuple(x for x in rest if x != w)),
                )
        cache[alive] = score
        return score

    return best(tuple(range(n)))


def bipartition(n, edges):
    """(side list, True) when 2-colourable, else (None, False)."""
    adj = {v: [] for v in range(n)}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    side = [None] * n
    for start in range(n):
        if side[start] is not None:
            continue
        side[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if side[w] is None:
                    side[w] = side[v] ^ 1
                    queue.append(w)
                elif side[w] == side[v]:
                    return None, False
    return side, True
