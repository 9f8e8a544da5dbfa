"""Exact integer matrix kernel.

Everything here is arbitrary-precision and tolerance-free.  There are
two kernels, and both read a matrix as dict rows {column: non-zero
entry}.  One fraction-free Gauss-Jordan elimination (Bareiss one-step
division, applied above and below each pivot) serves rank, det and
nullspace_basis: rank is the number of pivots, the determinant is the
last pivot times the row-swap sign, and the canonical integer nullspace
basis is read directly off the reduced rows.  A dense symmetric matrix
whose non-zero entries are all 1, an adjacency matrix or a principal
block of one, is bordered instead (the escalator method): the adjugate
of a growing non-singular principal block is kept on packed rows, one
int per row with the entries in signed slots whose width Hadamard's
bound certifies, and grown by 1 x 1 or 2 x 2 steps, at about a third of
the cost of eliminating [A | I].  Its rank is n minus the nullity, its
determinant the block's determinant at full rank, and its kernel basis
the same canonical one.  _reduced picks the kernel for every caller
that reads only the rank, the determinant or the basis.

A symmetric matrix also gets a d and a matrix T whose row at every v
outside the kernel supports (exactly the v with A y = e_v solvable) is
d times one solution y: bordering keeps T as the adjugate of its block,
and any other matrix (sparse, small or with an entry other than 1) is
eliminated beside the identity,
[A | I], whose keys n + v ride along with the elimination of A's
columns and end as T.  T stays inside the reduction, read one entry at
a time.  Neither route decides which vertices those are; the caller
reads them off the basis.  The characteristic polynomial uses the
Faddeev-LeVerrier recurrence (whose divisions are exact for integer
matrices), multiplying by the non-zero entries only.

Record, the base of every result record in the package, lives here too:
every library path imports this module, and a module of its own would
cost each command another import.
"""

from math import gcd, isqrt, prod
from operator import index, itemgetter

try:
    from _collections import _tuplegetter
except ImportError:  # not CPython
    def _tuplegetter(index, doc):
        return property(itemgetter(index), doc=doc)

_tuple_new = tuple.__new__


class _RecordType(type):
    """Reads a record's fields from its class-body annotations.

    This builds what typing.NamedTuple builds, without generating and
    compiling source for each class: the field names, one descriptor
    per field (namedtuple's own) and the repr format.
    """

    def __new__(mcls, name, bases, namespace):
        namespace.setdefault("__slots__", ())
        cls = super().__new__(mcls, name, bases, namespace)
        fields = tuple(cls.__annotations__)
        if not fields:
            return cls
        for index, field in enumerate(fields):
            if field in namespace:
                raise TypeError("record field %r takes no default" % field)
            setattr(cls, field,
                    _tuplegetter(index, "Alias for field number %d" % index))
        cls._fields = cls.__match_args__ = fields
        cls._repr_format = "(" + "=%r, ".join(fields) + "=%r)"
        return cls


class Record(tuple, metaclass=_RecordType):
    """Immutable tuple of named fields, the contract of typing.NamedTuple.

    A subclass lists its fields as class-body annotations, without
    defaults.  It is built by position or by keyword; a missing or
    extra field raises TypeError.  It has _fields, _make, _replace,
    _asdict and __match_args__, and compares and hashes as the plain
    tuple of its fields.  Every construction, _make/_replace/pickle/
    deepcopy included, runs __new__, so a subclass that validates in
    __new__ validates every record of its class.
    """

    _fields = ()

    def __new__(cls, /, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        return _tuple_new(cls, args)

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values for a call with keywords or with the wrong
        number of positions, or raises TypeError for one that misses or
        repeats a field."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError("%s takes %d fields but %d were given"
                            % (cls.__name__, len(fields), len(args)))
        rest = fields[len(args):]
        for name in kwargs:
            if name not in rest:
                if name in fields:
                    raise TypeError("%s got multiple values for field %r"
                                    % (cls.__name__, name))
                raise TypeError("%s got an unexpected field %r"
                                % (cls.__name__, name))
        missing = [name for name in rest if name not in kwargs]
        if missing:
            raise TypeError("%s is missing the fields %s"
                            % (cls.__name__, ", ".join(missing)))
        return args + tuple(map(kwargs.__getitem__, rest))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, /, **changes):
        result = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError("Got unexpected field names: %r" % list(changes))
        return result

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return self.__class__.__name__ + self._repr_format % self


class IntMatrix:
    """Immutable matrix of arbitrary-precision integers.

    Entries are converted by operator.index, so a float, Fraction or
    string raises TypeError instead of being truncated or parsed.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols: int | None = None):
        rows = tuple(tuple(map(index, row)) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            cols = 0
        elif cols < 0:
            raise ValueError("negative column count")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> int:
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self.data), cols=self.rows) if self.data else IntMatrix(
            [() for _ in range(self.cols)], cols=self.rows
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        bt = list(zip(*other.data)) if other.data else [()] * other.cols
        out = [
            tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
            for row in self.data
        ]
        return IntMatrix(out, cols=other.cols)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self.data == tuple(zip(*self.data))

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.data]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


class KernelBasis(Record):
    """Canonical integer basis of a nullspace.

    Vectors are the RREF free-variable parametrization, each scaled to a
    primitive integer vector (entry gcd 1) whose first non-zero entry is
    positive, ordered by free-column index.  Equal matrices always produce
    identical bases, so nullspace equality is plain tuple equality.
    """

    ambient: int
    vectors: tuple

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def supports(self) -> set:
        """Union of the supports of the basis vectors."""
        out = set()
        for vec in self.vectors:
            out.update(i for i, x in enumerate(vec) if x != 0)
        return out


class CharPoly(Record):
    """Monic characteristic polynomial det(tI - M), coefficients descending."""

    coefficients: tuple

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def constant_term(self) -> int:
        return self.coefficients[-1]


def _is_symmetric(rows) -> bool:
    """Whether n dict rows {column: non-zero entry} of n columns form a
    symmetric matrix: every stored entry has its mirror."""
    return all(rows[j].get(i) == a
               for i, row in enumerate(rows) for j, a in row.items())


def _is_dense(rows, n: int) -> bool:
    """Whether a symmetric n x n matrix, given as dict rows, is bordered
    on packed rows (_reduce_by_bordering): at least 16 rows, at least
    4 * (n + 16) non-zero entries, and every one of them 1, so that
    bordering sees only adjacency matrices and their principal blocks.
    The counts are checked first, so a sparse matrix is not scanned.
    The size and count clauses were fitted on an earlier elimination
    loop; tools/ab.py (README) times each reduction on both sides of
    them, keyed by the route this picks."""
    return (n >= 16 and sum(map(len, rows)) >= 4 * (n + 16)
            and all(a == 1 for row in rows for a in row.values()))


def _slot_bytes(rows, n: int) -> int:
    """Bytes per signed slot of the packed rows that bordering keeps
    for a symmetric {0, 1} matrix of order n (_is_dense).

    Every value bordering stores or decodes is a minor of the matrix, of
    order at most n.  Hadamard's bound, the product of the row norms,
    here the square root of the product of the row counts, bounds them
    all; so does (n + 1)^((n + 1) / 2) / 2^n, Hadamard's bound on the
    +-1 matrix of order n + 1 that borders it, which is smaller on dense
    rows.  A slot gets the bit length of twice the smaller bound plus
    two bits, rounded up to whole bytes so that a row unpacks through
    bytes.
    """
    counts = prod(max(1, len(row)) for row in rows)
    bound = min(isqrt(counts), isqrt((n + 1) ** (n + 1)) >> n) + 1
    return ((2 * bound).bit_length() + 9) // 8


def _sparse(m: IntMatrix) -> list:
    """The rows of m as new dicts {column: non-zero entry}."""
    return [{j: a for j, a in enumerate(row) if a} for row in m.data]


def _gauss_jordan_int(rows: list, n_cols: int):
    """Fraction-free reduced echelon of dict rows {column: non-zero
    entry}, in place, pivoting the columns below n_cols.

    Returns (pivots, sign, d).  The pivot is the first row at or below
    the rank with an entry in the current column; sign is the parity of
    the row swaps that brought it up.  Bareiss one-step division is
    applied to every row, above and below the pivot, so every entry
    stays an integer (a minor of the input) and at the end every pivot
    entry of R equals the last pivot d.  pivots[i] is the pivot column
    of row i; rows from len(pivots) on are zero below n_cols.  A pivoted
    column of R is d times a unit column from then on, so it is dropped
    from every row: what is left below n_cols are the free columns of R.
    Keys from n_cols on are never pivoted and ride along with their
    rows, so the rows of [A | I], with I at keys n + v, end as [R | T].
    A zero is never stored, and the keys of a row are in no set order.

    A step takes one of two update rules, and the rows are stored as
    the Bareiss rows times one carried sign, flip.  The pivot row is
    read and written through flip; each factor is read as stored.  When
    the pivot piv is prev or -prev, the Bareiss row is
    (piv / prev) * (row - factor * pivot row / piv): only the rows with
    a non-zero factor change, each at the pivot row's entries by
    factor * pivot row / piv, and a pivot of -prev negates flip instead
    of every other row.  At any other step every other row takes the
    Bareiss update (piv * row - factor * pivot row) / prev.  If flip
    ends at -1, every row is negated once, so the rows and
    (pivots, sign, d) are those of Bareiss steps that skip nothing.  On
    the random trees measured every pivot was +-1, so each step cost
    the pivot search, one pass over the pivot row and the rows it
    changes (README).  Only a dense symmetric {0, 1} matrix (_is_dense)
    is not eliminated: _reduced and _reduce_symmetric border it, and
    eliminate every other matrix, dense symmetric ones included.
    """
    n_rows = len(rows)
    pivots = []
    sign = 1
    prev = 1
    flip = 1
    for col in range(n_cols):
        rank = len(pivots)
        for found in range(rank, n_rows):
            if col in rows[found]:
                break
        else:
            continue
        if found != rank:
            rows[rank], rows[found] = rows[found], rows[rank]
            sign = -sign
        row_r = rows[rank]
        if flip < 0:
            for j in row_r:
                row_r[j] = -row_r[j]
        piv = row_r.pop(col)
        if piv == prev or piv == -prev:
            for row_i in rows:
                if col in row_i:
                    factor = row_i.pop(col)
                    for j, b in row_r.items():
                        a = row_i.get(j, 0) - factor * b // piv
                        if a:
                            row_i[j] = a
                        else:
                            del row_i[j]
            if piv != prev:
                flip = -flip
        else:
            for i, row_i in enumerate(rows):
                if i != rank:
                    factor = row_i.pop(col, 0)
                    keys = row_i.keys() | row_r.keys() if factor else row_i
                    a, b = row_i.get, row_r.get
                    rows[i] = {j: x // prev for j in keys
                               if (x := piv * a(j, 0) - factor * b(j, 0))}
        if flip < 0:
            for j in row_r:
                row_r[j] = -row_r[j]
        pivots.append(col)
        prev = piv
    if flip < 0:
        for row in rows:
            for j in row:
                row[j] = -row[j]
    return pivots, sign, prev


def _primitive(vec) -> tuple:
    """vec divided by its entry gcd and signed so that its first
    non-zero entry is positive."""
    g = gcd(*vec)
    if next(x for x in vec if x != 0) < 0:
        g = -g
    return tuple(x // g for x in vec)


def _kernel_from_reduced(data, pivots, d: int, n_cols: int) -> KernelBasis:
    """Canonical kernel basis read off a fraction-free reduced echelon form.

    For each free column f the kernel vector has d at f, -R[i][f] at the
    pivot column of row i and 0 elsewhere, made primitive (_primitive).
    A pivoted column is in no row (_gauss_jordan_int), so one pass over
    each pivot row writes its entries into the vectors of the free
    columns it holds; keys from n_cols on (T's) are skipped.
    """
    pivot_set = set(pivots)
    vectors = {f: [0] * n_cols for f in range(n_cols) if f not in pivot_set}
    for f, vec in vectors.items():
        vec[f] = d
    for row, p in zip(data, pivots):
        for f, x in row.items():
            if f < n_cols:
                vectors[f][p] = -x
    # each list is dropped as its tuple is made, so one copy is live
    return KernelBasis(n_cols, tuple(_primitive(vectors.pop(f))
                                     for f in list(vectors)))


def _canonical_basis(vectors: list, n: int) -> KernelBasis:
    """The canonical basis of the span of any vectors of length n.

    Column f is free exactly when f is the largest support index of
    some vector of the span, and the canonical vector for f is the one
    that is non-zero at f and zero at every other free column.  So a
    Gauss-Jordan reduction of the vectors, their columns taken from
    right to left, leaves the canonical vectors up to scale, one row per
    free column: O(k eta n) steps for k vectors spanning eta dimensions.
    Each combined row is made primitive at once, which keeps the entries
    small and leaves a row with nothing to eliminate as it is.  A row
    that cancels to zero, or is zero to begin with, never becomes a
    pivot row and is dropped.
    """
    rest = [list(vec) for vec in vectors]
    done = []
    for col in range(n - 1, -1, -1):
        i = next((i for i, row in enumerate(rest) if row[col]), None)
        if i is None:
            continue
        pivot_row = rest.pop(i)
        p = pivot_row[col]
        for row in rest + done:
            f = row[col]
            if f:
                row[:] = [p * a - f * b for a, b in zip(row, pivot_row)]
                if any(row):
                    row[:] = _primitive(row)
        done.append(pivot_row)
    return KernelBasis(n, tuple(map(_primitive, reversed(done))))


def _reduced(rows: list, n_cols: int, want_basis: bool) -> tuple:
    """(rank, det, basis) of the matrix with the given dict rows, which
    it rewrites, from its one reduction: the one place where rank, det,
    nullspace_basis and analysis.nullity choose their kernel.

    A dense symmetric matrix whose non-zero entries are all 1
    (_is_dense, _is_symmetric) is bordered
    (_reduce_by_bordering): the rank is n - eta, det is bordering's
    d = det A[B, B] when eta = 0 and 0 otherwise, and the basis is the
    canonical one bordering returns.  Any other matrix is eliminated on
    dict rows (_gauss_jordan_int): the rank is the number of pivots, det
    the last pivot times the row-swap sign at full rank and 0 otherwise,
    and the basis is read off the reduced rows (_kernel_from_reduced)
    only if want_basis, so rank and det build none; it is None
    otherwise.  det is 0 for a non-square matrix.
    """
    n = len(rows)
    if n == n_cols and _is_dense(rows, n) and _is_symmetric(rows):
        basis, d, _ = _reduce_by_bordering(rows, n)
        eta = basis.dimension
        return n - eta, 0 if eta else d, basis
    pivots, sign, d = _gauss_jordan_int(rows, n_cols)
    r = len(pivots)
    return (r, sign * d if r == n == n_cols else 0,
            _kernel_from_reduced(rows, pivots, d, n_cols) if want_basis
            else None)


def rank(m: IntMatrix) -> int:
    """Exact rank over the rationals."""
    return _reduced(_sparse(m), m.cols, False)[0]


def det(m: IntMatrix) -> int:
    """Exact determinant of a square matrix: fraction-free (Bareiss)
    elimination, or the determinant bordering ends with on a dense
    symmetric matrix."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    return _reduced(_sparse(m), m.cols, False)[1]


def nullspace_basis(m: IntMatrix) -> KernelBasis:
    """Canonical basis of {x : m @ x = 0}; empty iff m has full column rank.

    The fraction-free reduced echelon form R of m has every pivot equal
    to d, so for each free column f the kernel vector with every other
    free entry 0 is d at f and -R[i][f] at the pivot of row i, made
    primitive and sign-normalised.  A dense symmetric m is bordered
    instead, which reaches the same canonical basis (_reduced).
    """
    return _reduced(_sparse(m), m.cols, True)[2]


def _reduce_symmetric(data: list, n: int) -> tuple:
    """The kernel of a symmetric n x n A, given as n dict rows, which it
    rewrites, and d times a solution of A y = e_v for every v outside
    the kernel supports.

    Returns (basis, d, entry): the canonical basis of ker A, a non-zero
    integer d, and a function entry(u, w) that reads T[u][w] of an
    n x n integer T with A T A = d A.  T is zero off the rows of B, the
    n - eta vertices the route made pivots (elimination) or grew its
    block over (bordering); B holds every vertex outside the kernel
    supports and may hold core vertices too.  Row u of T satisfies
    A T_u = d e_u whenever u lies outside every kernel support, so then
    T_uw = d y_w for one solution y of A y = e_u.  A y = e_v is
    solvable exactly when every kernel vector vanishes at v, since ker A
    is the left kernel; which vertices those are is left to the caller.
    A dense A whose non-zero entries are all 1 (_is_dense), an adjacency
    matrix, is bordered (_reduce_by_bordering), any other one eliminated
    beside the identity (_reduce_by_elimination).  The
    two routes give the same basis and the same ratio T_uw / d for
    core-forbidden u and w, but d and T of their own; no row of T is
    built unless a caller reads its entries.
    """
    if _is_dense(data, n):
        return _reduce_by_bordering(data, n)
    return _reduce_by_elimination(data, n)


def _reduce_by_elimination(data: list, n: int) -> tuple:
    """_reduce_symmetric by reducing [A | I] in place to [R | T].

    Row v of A also gets the key n + v, its entry of I, and the keys
    from n on ride along with the elimination of A's columns
    (_gauss_jordan_int).  B is the set of pivot columns, entry(u, w)
    reads T[u][w] off the row whose pivot lies in column u, at its key
    n + w (0 when u is free), and d is the common pivot of R.

    Fraction-free Gauss-Jordan leaves [R | T] with T A = R, R in reduced
    echelon form and every pivot equal to d.  Each free column f gives
    the kernel vector that is d at f and -R[i][f] at the pivot of row i
    (_kernel_from_reduced).  So when every kernel vector vanishes at v,
    v is a pivot column whose row of R is d * e_v, and that row of T A
    is d * e_v too; as A is symmetric, the row of T is d times a
    solution of A y = e_v.
    """
    for v, row in enumerate(data):
        row[n + v] = 1
    pivots, _, d = _gauss_jordan_int(data, n)
    row_of = dict.fromkeys(range(n), {}) | dict(zip(pivots, data))

    def entry(u, w):
        return row_of[u].get(n + w, 0)

    return _kernel_from_reduced(data, pivots, d, n), d, entry


def _reduce_by_bordering(rows: list, n: int) -> tuple:
    """_reduce_symmetric by bordering (the escalator method): grow a
    non-singular principal block A[B, B], keeping d = det A[B, B] and
    T = adj A[B, B].  A is a symmetric {0, 1} matrix (_is_dense), so
    every a below is 0 or 1.

    The vertices are taken once, in index order.  For v outside B let
    b_v = A[B, v] and W = T b_v; then sigma = d a_vv - b_v' W is d times
    the Schur complement of v.  If sigma != 0, v joins B (a 1 x 1 step):
    the bordered block has determinant sigma and adjugate
    [[(sigma T + W W') / d, -W], [-W', d]].  If sigma = 0, as it always
    is on a bipartite graph, v joins together with the first later
    vertex u outside B for which tau = d a_uv - b_u' W != 0 (a 2 x 2
    step, Bunch and Parlett 1971).  With s = sigma_u, the pair's Schur
    complement is [[s, tau], [tau, 0]] / d, the new determinant is
    -tau^2 / d, and the new adjugate is spelled out where the step is
    taken.  Every value stored is an adjugate entry, a minor of A, so
    every division is exact (Sylvester's identity).  If no such u
    exists, v's column of the Schur complement S of A[B, B] is zero: at
    every later u by the search, and at every earlier vertex outside B
    because its own column was zero at its turn and S is symmetric.  A
    later step turns S into S_RR - S_RJ S_JJ^-1 S_JR with S_Jv = 0, so
    the column stays zero and v never joins B.  Then d e_v - W (on B) is
    in the kernel for good, and is taken at once; at the end the Schur
    complement is zero, |B| is the rank of A, and eta vectors were
    taken, which _canonical_basis makes canonical.

    T sits on packed rows, one int per vertex of B: slot j holds the
    j-th vertex of B from the low end, in signed slots of _slot_bytes.
    So T b_v is a plain sum of the rows at the 1s of row v in B, b_u' W
    a sum of W's entries at the 1s of row u, and a row update a few
    big-integer operations, about n^3 / 3 slot operations against n^3
    for the elimination of [A | I].  A vertex v outside every kernel
    support is in B, and its row of T, zero off B, is d times the
    solution of A y = e_v that is supported on B.  entry(u, w) decodes
    one slot of u's packed row, and is 0 when u or w is outside B, so
    rank, det and nullspace_basis, which read none, pay for none.
    """
    width = _slot_bytes(rows, n)
    k = 8 * width
    half = 1 << (k - 1)
    slot = [None] * n  # vertex -> its slot of T, None outside B
    order = []  # the vertices of B, order[j] in slot j
    t = []  # the packed rows of T, by slot
    d = 1
    bias = 0  # half in every slot of B, to decode the signed slots
    kernel = []

    def product(v):
        """T b_v, packed and as the slot values over B."""
        x = 0
        for j in rows[v]:
            i = slot[j]
            if i is not None:
                x += t[i]
        raw = (x + bias).to_bytes(width * len(t), "little")
        return x, [int.from_bytes(raw[i:i + width], "little") - half
                   for i in range(0, len(raw), width)]

    def schur(u, v, support):
        """d a_uv - b_u' W, for W = T b_v given as the (vertex, entry)
        pairs of its non-zero entries; every a is 0 or 1."""
        row = rows[u]
        return d * (v in row) - sum(x for j, x in support if j in row)

    for v in range(n):
        if slot[v] is not None:
            continue
        x_v, w_v = product(v)
        support = [(j, x) for j, x in zip(order, w_v) if x]
        sigma = schur(v, v, support)
        top = 1 << (k * len(t))  # the unit of the next slot
        if sigma:
            x_v -= d * top
            t[:] = [(sigma * r + w * x_v) // d for r, w in zip(t, w_v)]
            t.append(-x_v)
            joined = (v,)
            bias += half * top
            d = sigma
        else:
            for u in range(v + 1, n):
                if slot[u] is None and (tau := schur(u, v, support)):
                    break
            else:  # v's Schur column is zero: a kernel vector
                vec = [0] * n
                vec[v] = d
                for j, x in support:
                    vec[j] = -x
                kernel.append(vec)
                continue
            x_u, w_u = product(u)
            s = schur(u, u, [(j, x) for j, x in zip(order, w_u) if x])
            after = top << k  # the unit of the slot after that
            x_u -= d * top
            x_v -= d * after
            # T_i <- (D T_i + alpha_i x_u + beta_i x_v) / d^2, with
            # D = -tau^2, d times the new determinant,
            # alpha_i = -tau w_v,i and beta_i = s w_v,i - tau w_u,i
            dd = d * d
            square = tau * tau
            t[:] = [(-square * r - tau * wv * x_u
                     + (s * wv - tau * wu) * x_v) // dd
                    for r, wu, wv in zip(t, w_u, w_v)]
            # the rows of u and v: -alpha / d and -beta / d on B, then
            # the adjugate [[0, -tau], [-tau, s]] of the pair
            t.append(tau * x_v // d)
            t.append((tau * x_u - s * x_v) // d)
            joined = (u, v)
            bias += half * (top + after)
            d = -square // d
        for w in joined:
            slot[w] = len(order)
            order.append(w)

    mask = (1 << k) - 1

    def entry(u, w):
        i, j = slot[u], slot[w]
        return 0 if None in (i, j) else ((t[i] + bias) >> k * j & mask) - half

    return _canonical_basis(kernel, n), d, entry


def char_poly(m: IntMatrix) -> CharPoly:
    """Characteristic polynomial det(tI - m) with exact integer coefficients.

    Faddeev-LeVerrier: the trace at step k is always divisible by k for an
    integer matrix, so the whole run stays in the integers.  Each product
    m @ work sums, for row i, the rows of work picked out by the non-zero
    entries of m's row i, so a sparse m costs less.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial requires a square matrix")
    n = m.rows
    coeffs = [1]
    nonzeros = [[(t, x) for t, x in enumerate(row) if x] for row in m.data]
    work = [list(r) for r in m.data]
    for k in range(1, n + 1):
        trace = sum(work[i][i] for i in range(n))
        if trace % k != 0:
            raise ArithmeticError("non-integer trace in exact recurrence")
        c = -(trace // k)
        coeffs.append(c)
        if k == n:
            break
        for i in range(n):
            work[i][i] += c
        product = []
        for row in nonzeros:
            acc = [0] * n
            for t, x in row:
                acc = [p + x * q for p, q in zip(acc, work[t])]
            product.append(acc)
        work = product
    return CharPoly(coefficients=tuple(coeffs))
