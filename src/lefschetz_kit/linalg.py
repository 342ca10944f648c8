"""Exact dense linear algebra over the rationals and over prime fields.

Rational arithmetic is exact and is the final authority. Over Q each row
is scaled to integers and eliminated fraction-free on Python ints; entries
become Fractions only in a returned reduced row echelon form, one division
by the row's pivot each. Prime-field arithmetic is an accelerator: for
integer matrices the rank modulo p never exceeds the rational rank, so a
full-rank verdict modulo p is already exact. Callers who see a
prime-field rank deficit and need certainty must recompute rationally.
One fixed prime below 2^26, FAST_PRIME, serves as such an accelerator:
it certifies map ranks over Q and route two of a witness. FAST_FIELD is
its field tag, bound once.

The field alone picks the representation (_dtype): integer lists over Q,
and an ndarray of residues modulo p, of int64 below 2^31, of uint64
modulo DEFAULT_PRIME = 2^61 - 1, and of Python ints (dtype=object) for
the other primes from 2^31 up. `_from_triplets` builds a matrix in that
representation from (row, column, value) triplets, so callers such as
the quotient module hand over triplets and never see numpy, and
`_eliminate` eliminates it in place. There are two forward-elimination
loops, one per representation: `_forward_int` on integer lists and
`_forward_numpy` on residue arrays of every dtype, which differ only in
how a step scales the pivot row (_unit_pivot) and clears a column
(_clear_column). A rank or a set of pivot columns reads the forward pass
alone; a reduced row echelon form is the forward pass plus a
back-substitution over the pivot rows, and runs only where reduced rows
are read. `_reduce_against` works over Q only: it takes rows modulo the
span of a forward echelon fraction-free, by the same cross-multiplied
update, and returns each remainder as a primitive integer row together
with its scale against the Fraction remainder.

The array kernels clear a column from the rows below or above its pivot
in row blocks of at most _BLOCK_CELLS cells, so the temporaries of a
step stay that small however many rows are still in play. They also
delay reduction modulo p. Entries start as residues in [0, p), each step
works with a reduced pivot row and multiplier column, and so adds or
subtracts at most one product of residues, below p^2, to any other
entry. After k steps an entry is at most p + k p^2 in absolute value,
which stays below 2^63 for k up to (2^63 - 1 - p) // p^2; the kernels
reduce the entries still in play once every that many steps. The bound
depends on p alone: 3411 steps modulo FAST_PRIME, 2 modulo 2^31 - 1.
Python ints cannot overflow, so object arrays are never reduced in
between, and their entries stay below p + k p^2. A product of residues
modulo 2^61 - 1 does not fit in 64 bits, so a uint64 step forms it from
limbs and reduces every entry it updates at once (_mul_mersenne); those
arrays are reduced throughout and need no delayed reduction.

numpy is imported when a residue array is first built or eliminated, not
with this module. _numpy binds it to np, with the uint64 constants of
_mul_mersenne; the kernels that other modules and tests call
(_from_triplets, _eliminate, _dtype, _forward_numpy, _rref_mod_numpy,
_mul_mersenne, _mod_matmul) call it before they read np, and the helpers
they call run only after. Work over Q never calls it, so a process that
builds no residue array never loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

DEFAULT_PRIME = 2**61 - 1
FAST_PRIME = 51999971  # largest prime whose squares stay far inside int64

# numpy and the uint64 constants of _mul_mersenne, bound by _numpy when a
# residue array is first built or eliminated
np = _P61 = _LOW31 = _LOW30 = None


def _numpy() -> None:
    """Import numpy on first use, bind it to np and create the uint64
    constants of _mul_mersenne."""
    global np, _P61, _LOW31, _LOW30
    if np is None:
        import numpy
        _P61 = numpy.uint64(DEFAULT_PRIME)
        _LOW31 = numpy.uint64(2**31 - 1)
        _LOW30 = numpy.uint64(2**30 - 1)
        np = numpy


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if p % q == 0:
            return p == q
    d = p - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in small:
        x = pow(base, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldTag:
    """Coefficient field marker: characteristic 0 or a prime characteristic."""

    characteristic: int

    def __post_init__(self) -> None:
        if self.characteristic and not _is_prime(self.characteristic):
            raise ValueError("characteristic must be 0 or a prime")

    @property
    def is_rational(self) -> bool:
        return self.characteristic == 0

    def __str__(self) -> str:
        return "rational" if self.is_rational else f"prime:{self.characteristic}"


RATIONALS = FieldTag(0)


def prime_field(p: int) -> FieldTag:
    """Field marker for arithmetic modulo the prime p."""
    if p < 2:  # FieldTag(0) is Q, and FieldTag refuses the other non-primes
        raise ValueError(f"need a prime, not {p}")
    return FieldTag(p)


# the field tag of the fixed prime, bound once, since each FieldTag runs
# the primality test of _is_prime
FAST_FIELD = prime_field(FAST_PRIME)


def _residue(x, p: int) -> int:
    if isinstance(x, Fraction):
        den = x.denominator % p
        if den == 0:
            raise ValueError("denominator vanishes modulo p")
        return x.numerator % p * pow(den, -1, p) % p
    return int(x) % p


@dataclass(frozen=True)
class RationalMatrix:
    """Dense exact matrix; entries are Fractions or residues in [0, p)."""

    rows: int
    cols: int
    entries: tuple[tuple, ...]
    field_tag: FieldTag = RATIONALS

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows:
            raise ValueError("row count disagrees with the entries")
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged rows")
        if not self.field_tag.is_rational:
            p = self.field_tag.characteristic
            for r in self.entries:
                for x in r:
                    if not isinstance(x, int) or not 0 <= x < p:
                        raise ValueError("prime-field entries must be residues in [0, p)")

    @classmethod
    def from_rows(cls, row_data: Iterable[Sequence], cols: int | None = None,
                  field_tag: FieldTag = RATIONALS) -> "RationalMatrix":
        """Build from an iterable of rows, normalizing entries into the field."""
        data = [list(r) for r in row_data]
        if cols is None:
            if not data:
                raise ValueError("cols is required for a matrix with no rows")
            cols = len(data[0])
        if any(len(r) != cols for r in data):
            raise ValueError("ragged rows")
        if field_tag.is_rational:
            ent = tuple(tuple(Fraction(x) for x in r) for r in data)
        else:
            p = field_tag.characteristic
            ent = tuple(tuple(_residue(x, p) for x in r) for r in data)
        return cls(rows=len(data), cols=cols, entries=ent, field_tag=field_tag)


@dataclass(frozen=True)
class EchelonResult:
    """Outcome of row reduction: rank, pivot columns and the reduced rows."""

    rank: int
    pivot_columns: tuple[int, ...]
    reduced_rows: RationalMatrix

    def __post_init__(self) -> None:
        if self.rank != len(self.pivot_columns):
            raise ValueError("rank must equal the number of pivot columns")
        if any(b <= a for a, b in zip(self.pivot_columns, self.pivot_columns[1:])):
            raise ValueError("pivot columns must be strictly increasing")
        if self.reduced_rows.rows != self.rank:
            raise ValueError("reduced rows must have exactly rank rows")


def _integer_row(r) -> tuple[list[int], int]:
    """The rational row r times the lcm of its entries' denominators, as
    an int list, and that lcm."""
    den = lcm(*(x.denominator for x in r))
    if den == 1:
        return [x.numerator for x in r], 1
    return [x.numerator * (den // x.denominator) for x in r], den


def _integer_rows(rows) -> list[list[int]]:
    """Each rational row as an integer multiple (_integer_row); the row
    span, the pivots and the RREF are unchanged."""
    return [_integer_row(r)[0] for r in rows]


def _cross_clear(row: list[int], pivot_row: list[int], c: int, start: int,
                 sparse) -> None:
    """Clear column c of the integer row in place with pivot_row,
    fraction-free, and divide the row by its content.

    With a = pivot_row[c], f = row[c] and g = gcd(a, f), the row becomes
    (a/g) row - (f/g) pivot_row, a nonzero multiple of what a Fraction
    elimination leaves. When a divides f, only the nonzero entries of
    pivot_row, given in sparse as (column, value) pairs, change, and the
    Fraction update is applied as is; otherwise the row is rescaled from
    column start on, left of which it is zero. Returns (m, g): the row
    left is m/g times the row a Fraction elimination leaves.
    """
    a, f = pivot_row[c], row[c]
    g = gcd(a, f)
    s, t = a // g, f // g
    if s == 1 or s == -1:
        t *= s
        for j, y in sparse:
            row[j] -= t * y
        s = 1
    else:
        row[start:] = [s * x - t * y
                       for x, y in zip(row[start:], pivot_row[start:])]
    g = gcd(*row)
    if g > 1:
        row[start:] = [x // g for x in row[start:]]
    return s, max(g, 1)


def _forward_int(rows: list[list[int]], ncols: int) -> list[int]:
    """Fraction-free forward elimination in place on integer lists;
    returns the pivot columns.

    Pivots are chosen as in Fraction elimination, and each updated row is
    a nonzero multiple of the Fraction row, so the pivot columns agree.
    Updated rows are kept primitive, which bounds their entries by those
    of Bareiss elimination. Only the rows below the pivot that are
    nonzero in its column are touched, from the pivot column on.
    """
    piv: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        row = rows[r]
        sparse = [(j, y) for j in range(c, ncols) if (y := row[j])]
        for below in rows[r + 1:]:
            if below[c]:
                _cross_clear(below, row, c, c, sparse)
        piv.append(c)
        r += 1
    return piv


def _dtype(p: int):
    """The dtype of residue arrays modulo p: uint64 modulo DEFAULT_PRIME,
    whose products _mul_mersenne forms exactly from limbs; int64 below
    2^31, where a product of residues fits with room for the delayed
    reduction; and Python ints for the other primes. Binds np (_numpy)."""
    _numpy()
    if p == DEFAULT_PRIME:
        return np.uint64
    return np.int64 if p < 2**31 else object


def _reduction_budget(p: int) -> int:
    """How many products of residues modulo p an entry in [0, p) can take,
    added or subtracted, before it could overflow, or 0 for no limit: the
    Python ints of an object array never overflow, and every step leaves
    the entries of a uint64 array reduced."""
    if _dtype(p) is not np.int64:
        return 0
    return (2**63 - 1 - p) // (p * p)


def _reduce(v: np.ndarray, p: int) -> None:
    """Reduce the entries of v modulo p in place; those of a uint64 array
    are reduced already."""
    if v.dtype != np.uint64:
        v %= p


def _mul_mersenne(x, y, out: np.ndarray) -> None:
    """Add x y to out modulo P = 2^61 - 1 in place, leaving out reduced.

    x, y and out hold uint64 residues in [0, P], and x and y broadcast to
    the shape of out. Each factor splits into a low limb of 31 bits and a
    high one of 30, so x y is xl yl + m 2^31 + xh yh 2^62 with m = xl yh +
    xh yl, and every product is below 2^62. As 2^61 = 1 modulo P, 2^62 is
    2 and m 2^31 is (m >> 30) + (m mod 2^30) 2^31, so out becomes a sum
    below 2^61 + 2^62 + 2^61 + 2^32 + 2^61 < 2^64. Folding its bits from
    61 up onto the rest leaves it below P + 5, and one conditional
    subtraction of P, np.minimum(v, v - P), where v - P wraps round for
    v < P, reduces it.
    """
    _numpy()
    xl, xh = x & _LOW31, x >> 31
    yl, yh = y & _LOW31, y >> 31
    m = xl * yh
    m += xh * yl
    out += xl * yl
    out += (xh * yh) << 1
    out += m >> 30
    m &= _LOW30
    m <<= 31
    out += m
    high = out >> 61
    out &= _P61
    out += high
    np.minimum(out, out - _P61, out=out)


def _unit_pivot(row: np.ndarray, p: int) -> None:
    """Scale the pivot row in place so that its first entry, nonzero
    modulo p, is 1, leaving every entry reduced."""
    if row.dtype == np.uint64:
        entries = row.copy()
        row[...] = 0
        inverse = np.array([pow(int(entries[0]), -1, p)], dtype=np.uint64)
        _mul_mersenne(inverse, entries, row)
        return
    row %= p
    row *= pow(int(row[0]), -1, p)
    row %= p


# the most cells of one row block that an elimination step updates at a
# time; a step's temporaries, the gathered block and the products taken
# from it, are each at most this size
_BLOCK_CELLS = 1 << 14


def _clear_column(M: np.ndarray, idx: np.ndarray, c: int,
                  row: np.ndarray) -> None:
    """Subtract from each row idx of M, from column c on, its entry in
    column c times row, whose first entry is 1, in blocks of at most
    _BLOCK_CELLS cells; this clears column c in those rows. The rows idx
    exclude the row that row views.

    The products stay unreduced, except on a uint64 array, where each
    block is reduced by _mul_mersenne as it adds P minus each entry in
    column c times row.
    """
    step = max(1, _BLOCK_CELLS // row.size)
    for s in range(0, idx.size, step):
        block = idx[s:s + step]
        if M.dtype == np.uint64:
            rows = M[block, c:]
            _mul_mersenne(_P61 - rows[:, :1], row, rows)
            M[block, c:] = rows
        else:
            M[block, c:] -= M[block, c, None] * row


def _forward_numpy(M: np.ndarray, p: int) -> list[int]:
    """Forward elimination in place on an array of residues modulo p, of
    the dtype _dtype(p); returns the pivot columns and leaves the array
    reduced.

    Only the rows below the pivot that are nonzero in its column are
    updated, from the pivot column on. Reduction modulo p is delayed: each
    step reduces the pivot column below the pivot row and the pivot row,
    subtracts the products of residues from the trailing block unreduced,
    and the trailing block is reduced once every _reduction_budget(p)
    steps, or never when that is 0. A step clears its column exactly and a
    column without a pivot is reduced to zeros, so the result is reduced
    throughout. Every step leaves the entries of a uint64 array reduced
    (_clear_column, _unit_pivot), so there the reductions are skipped
    (_reduce).
    """
    _numpy()
    nrows, ncols = M.shape
    budget = _reduction_budget(p)
    piv: list[int] = []
    r = pending = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = M[r:, c]
        _reduce(col, p)
        nz = col.nonzero()[0]
        if not nz.size:
            continue
        if nz[0]:
            # the row at r is zero in column c; it trades places with the
            # first row that is not
            pr = r + nz[0]
            M[r, c:], M[pr, c:] = M[pr, c:], M[r, c:].copy()
        row = M[r, c:]
        _unit_pivot(row, p)
        if nz.size > 1:
            # the rows below that are nonzero in column c
            _clear_column(M, r + nz[1:], c, row)
            pending += 1
            if budget and pending == budget:
                M[r + 1:, c + 1:] %= p
                pending = 0
        piv.append(c)
        r += 1
    return piv


def _back_substitute_numpy(M: np.ndarray, piv: list[int], p: int) -> None:
    """Clear above each pivot of a reduced forward echelon array in place,
    bottom up, which leaves the reduced row echelon form.

    Reduction is delayed as in _forward_numpy: a row is reduced when it
    becomes the pivot row, after which no step changes it, and the rows
    above are reduced once every _reduction_budget(p) steps, or never when
    that is 0. The steps before the one at pivot column c change only
    columns right of c, so its multiplier column is still reduced from the
    forward pass. Row 0 is reduced last.
    """
    budget = _reduction_budget(p)
    pending = 0
    for i in range(len(piv) - 1, 0, -1):
        c = piv[i]
        _reduce(M[i, c:], p)
        idx = M[:i, c].nonzero()[0]
        if idx.size:
            _clear_column(M, idx, c, M[i, c:])
            pending += 1
            if budget and pending == budget:
                M[:i, c:] %= p
                pending = 0
    _reduce(M[:1], p)


def _rref_fraction(rows: list[list[int]], ncols: int):
    """Reduced row echelon form over Q of integer lists, eliminated in
    place without fractions; returns Fraction rows and the pivot columns.

    After the forward pass, each pivot row clears its column from the rows
    above it, bottom up, by the same cross-multiplied update. Every entry
    of the result is then divided by its row's pivot, once.
    """
    piv = _forward_int(rows, ncols)
    for i in range(len(piv) - 1, 0, -1):
        c, row = piv[i], rows[i]
        sparse = [(j, y) for j in range(c, ncols) if (y := row[j])]
        for k in range(i):
            if rows[k][c]:
                _cross_clear(rows[k], row, c, piv[k], sparse)
    zero = Fraction(0)
    return [[Fraction(x, row[c]) if x else zero for x in row]
            for row, c in zip(rows, piv)], piv


def _rref_mod_numpy(M: np.ndarray, p: int):
    """Reduced row echelon form of a residue array modulo p, in place."""
    piv = _forward_numpy(M, p)
    M = M[:len(piv)]
    _back_substitute_numpy(M, piv, p)
    return M, piv


def _rref_mod_python(M: np.ndarray, p: int):
    """_rref_mod_numpy on a Python-int array modulo a prime p from 2^31 up
    other than DEFAULT_PRIME, under the name bench/spans.py times."""
    return _rref_mod_numpy(M, p)


def _mod_matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """(A @ B) % p for a sparse residue array A and residues B modulo
    p < 2^31, as one rank-one update per column of A over its nonzero rows.

    The updates add up unreduced and the sum is reduced once every
    _reduction_budget(p) of them, and at the end. Nothing in the package
    calls it; bench/spans.py times it by name.
    """
    _numpy()
    budget = _reduction_budget(p)
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    pending = 0
    for k in range(A.shape[1]):
        idx = np.flatnonzero(A[:, k])
        if idx.size:
            out[idx] += np.outer(A[idx, k], B[k])
            pending += 1
            if pending == budget:
                out %= p
                pending = 0
    out %= p
    return out


def _from_triplets(triplets, nrows: int, ncols: int, field_tag: FieldTag):
    """The nrows x ncols matrix holding the (rows, cols, values) triplets
    and zeros elsewhere, in the field's representation, which _eliminate
    takes without a copy.

    Values are ints over Q and residues modulo p otherwise, with no
    position given twice. The matrix is a list of int lists over Q and a
    residue array of dtype _dtype(p) modulo p.
    """
    rows, cols, vals = triplets
    p = field_tag.characteristic
    if not p:
        M = [[0] * ncols for _ in range(nrows)]
        for r, c, v in zip(rows, cols, vals):
            M[r][c] = v
        return M
    _numpy()
    M = np.zeros((nrows, ncols), dtype=_dtype(p))
    M[rows, cols] = vals
    return M


def _eliminate(rows, ncols: int, field_tag: FieldTag, reduce: bool):
    """Pivot columns of rows and, when reduce is set, their reduced row
    echelon form, by the field's one kernel; returns (rows, pivots).

    Over Q the rows are int lists, which are eliminated in place, and the
    reduced rows returned are Fraction lists. Modulo p an array given as
    rows is taken to hold residues of dtype _dtype(p), as _from_triplets
    returns them, and is eliminated in place; other rows are reduced
    modulo p into such an array. Without reduce, only the forward pass runs and the rows
    returned are a forward echelon with zero rows left at the bottom.
    """
    p = field_tag.characteristic
    if not p:
        return _rref_fraction(rows, ncols) if reduce else (rows, _forward_int(rows, ncols))
    _numpy()
    if isinstance(rows, np.ndarray):
        M = rows
    else:
        M = np.array([[x % p for x in r] for r in rows],
                     dtype=_dtype(p)).reshape(len(rows), ncols)
    if not reduce:
        return M, _forward_numpy(M, p)
    if _dtype(p) is object:
        return _rref_mod_python(M, p)
    return _rref_mod_numpy(M, p)


def _pivots(rows, ncols: int, field_tag: FieldTag) -> list[int]:
    """Pivot columns of rows, from the forward pass alone."""
    return _eliminate(rows, ncols, field_tag, reduce=False)[1]


def _rows_of(M: RationalMatrix):
    """The rows of M as _eliminate takes them: scaled to int lists over Q
    (_integer_rows), the residues themselves otherwise."""
    return _integer_rows(M.entries) if M.field_tag.is_rational else M.entries


def _reduce_against(rows, echelon, piv):
    """Remainders over Q of rows modulo the row span of a forward echelon,
    fraction-free; returns the remainders as integer rows and their scales.

    rows hold ints or Fractions. echelon and piv are the integer rows and
    pivot columns of a forward pass over Q (_eliminate without reduce).
    Each row is scaled to integers, and each echelon row whose pivot
    column the row still holds clears it by the cross-multiplied update of
    _cross_clear, with the whole row in play, since it need not be zero
    left of the pivot. Echelon rows are zero left of their pivots, so
    clearing the pivots in order leaves the remainders zero on every pivot
    column. Each remainder is returned primitive, as an int list r with
    the nonzero Fraction s for which r is s times the Fraction remainder.
    """
    sparse: dict[int, list] = {}
    out, scales = [], []
    for r in rows:
        row, num = _integer_row(r)
        den = 1
        for k, (erow, c) in enumerate(zip(echelon, piv)):
            if row[c]:
                if k not in sparse:
                    sparse[k] = [(j, y) for j in range(c, len(erow)) if (y := erow[j])]
                m, g = _cross_clear(row, erow, c, 0, sparse[k])
                num *= m
                den *= g
        g = gcd(*row)
        if g > 1:
            row = [x // g for x in row]
            den *= g
        out.append(row)
        scales.append(Fraction(num, den))
    return out, scales


def echelonize(M: RationalMatrix) -> EchelonResult:
    """Canonical reduced row echelon form of M.

    Pivots are the leftmost nonzero columns in order, rows are scaled to a
    unit pivot and cleared above and below. There are no pivoting
    heuristics, so equal inputs give identical results.
    """
    red, piv = _eliminate(_rows_of(M), M.cols, M.field_tag, reduce=True)
    if not M.field_tag.is_rational:
        red = red.tolist()
    reduced = RationalMatrix(rows=len(red), cols=M.cols,
                             entries=tuple(map(tuple, red)),
                             field_tag=M.field_tag)
    return EchelonResult(rank=len(piv), pivot_columns=tuple(piv),
                         reduced_rows=reduced)


def matrix_rank(M: RationalMatrix) -> int:
    return len(_pivots(_rows_of(M), M.cols, M.field_tag))


def kernel_basis(M: RationalMatrix) -> list[tuple]:
    """Exact basis of the right null space, one vector per free column."""
    ech = echelonize(M)
    pivset = set(ech.pivot_columns)
    free = [c for c in range(M.cols) if c not in pivset]
    red = ech.reduced_rows.entries
    if M.field_tag.is_rational:
        zero, one = Fraction(0), Fraction(1)

        def neg(x):
            return -x
    else:
        p = M.field_tag.characteristic
        zero, one = 0, 1

        def neg(x):
            return (-x) % p
    out = []
    for f in free:
        v = [zero] * M.cols
        v[f] = one
        for i, c in enumerate(ech.pivot_columns):
            v[c] = neg(red[i][f])
        out.append(tuple(v))
    return out


def in_column_space(M: RationalMatrix, b: Sequence) -> bool:
    """Whether b, with one entry per matrix row, is a combination of columns.

    It is exactly when the appended column of [M | b] holds no pivot.
    """
    vec = list(b)
    if len(vec) != M.rows:
        raise ValueError("b must have one entry per matrix row")
    aug = RationalMatrix.from_rows([list(r) + [v] for r, v in zip(M.entries, vec)],
                                   cols=M.cols + 1, field_tag=M.field_tag)
    return M.cols not in _pivots(_rows_of(aug), aug.cols, aug.field_tag)
