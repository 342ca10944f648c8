"""Exact dense linear algebra over the rationals and over prime fields.

Rational arithmetic is exact and is the final authority. Over Q each row
is scaled to integers and eliminated fraction-free on Python ints; entries
become Fractions only in a returned reduced row echelon form, one division
by the row's pivot each. Prime-field arithmetic is an accelerator: for
integer matrices the rank modulo p never exceeds the rational rank, so a
full-rank verdict modulo p is already exact. Callers who see a
prime-field rank deficit and need certainty must recompute rationally.

One dispatch rule, `_numpy_field`, picks the representation and with it
the elimination kernel: integer lists over Q, int64 numpy arrays modulo
p < 2^31, Python int lists modulo larger primes. `_eliminate` applies it
to its input, and `_from_triplets` applies it when it builds a matrix from
(row, column, value) triplets, so callers such as the quotient module
hand over triplets and never see numpy. Each representation has one
forward-elimination loop. A rank or a set of pivot columns reads the
forward pass alone; a reduced row echelon form is the forward pass plus a
back-substitution over the pivot rows, and runs only where reduced rows
are read. `_reduce_against` works over Q only: it takes rows modulo the
span of a forward echelon by dividing by each integer pivot.

The int64 kernels delay reduction modulo p. Entries start as residues in
[0, p), each step works with a reduced pivot row and multiplier column,
and so adds or subtracts at most one product of residues, below p^2, to
any other entry. After k steps an entry is at most p + k p^2 in absolute
value, which stays below 2^63 for k up to (2^63 - 1 - p) // p^2; the
kernels reduce the entries still in play once every that many steps.
The bound depends on p alone: 3411 steps modulo FAST_PRIME, 2 modulo
2^31 - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

DEFAULT_PRIME = 2**61 - 1
FAST_PRIME = 51999971  # largest prime whose squares stay far inside int64
_NUMPY_PRIME_LIMIT = 2**31


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
        if self.characteristic < 0:
            raise ValueError("characteristic must be 0 or a prime")
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
    return FieldTag(p)


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


def _clear(row, f, top, p: int) -> None:
    """row -= f * top modulo p in place on the nonzero entries of top,
    given as (column, value) pairs."""
    for j, y in top:
        row[j] = (row[j] - f * y) % p


def _forward_list(rows: list[list[int]], ncols: int, p: int) -> list[int]:
    """Forward elimination in place on residue lists modulo p; returns the
    pivot columns.

    Each pivot row is moved to its place and scaled to a unit pivot, and
    only the rows below it are cleared, from the pivot column on.
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
        inv = pow(row[c], -1, p)
        top = [(j, y * inv % p) for j in range(c, ncols) if (y := row[j])]
        for j, y in top:
            row[j] = y
        for below in rows[r + 1:]:
            if below[c]:
                _clear(below, below[c], top, p)
        piv.append(c)
        r += 1
    return piv


def _back_substitute_list(rows: list[list[int]], piv: list[int], p: int) -> None:
    """Clear above each pivot of a forward echelon modulo p in place,
    bottom up, which leaves the reduced row echelon form."""
    for i in range(len(piv) - 1, 0, -1):
        c = piv[i]
        top = [(j, y) for j in range(c, len(rows[i])) if (y := rows[i][j])]
        for above in rows[:i]:
            if above[c]:
                _clear(above, above[c], top, p)


def _integer_rows(rows) -> list[list[int]]:
    """Each rational row times the lcm of its entries' denominators, as
    int lists; the row span, the pivots and the RREF are unchanged."""
    out = []
    for r in rows:
        den = lcm(*(x.denominator for x in r))
        out.append([x.numerator for x in r] if den == 1
                   else [x.numerator * (den // x.denominator) for x in r])
    return out


def _cross_clear(row: list[int], pivot_row: list[int], c: int, start: int,
                 sparse) -> None:
    """Clear column c of the integer row in place with pivot_row,
    fraction-free, and divide the row by its content.

    With a = pivot_row[c], f = row[c] and g = gcd(a, f), the row becomes
    (a/g) row - (f/g) pivot_row, a nonzero multiple of what a Fraction
    elimination leaves. When a divides f, only the nonzero entries of
    pivot_row, given in sparse as (column, value) pairs, change; otherwise
    the row is rescaled from column start on, left of which it is zero.
    """
    a, f = pivot_row[c], row[c]
    g = gcd(a, f)
    s, t = a // g, f // g
    if s == 1 or s == -1:
        t *= s
        for j, y in sparse:
            row[j] -= t * y
    else:
        row[start:] = [s * x - t * y
                       for x, y in zip(row[start:], pivot_row[start:])]
    g = gcd(*row)
    if g > 1:
        row[start:] = [x // g for x in row[start:]]


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


def _reduction_budget(p: int) -> int:
    """How many products of residues modulo p an int64 entry in [0, p) can
    take, added or subtracted, before it could overflow."""
    return (2**63 - 1 - p) // (p * p)


def _forward_numpy(M: np.ndarray, p: int) -> list[int]:
    """Forward elimination in place on an int64 array of residues modulo
    p < 2^31; returns the pivot columns and leaves the array reduced.

    Only the rows below the pivot that are nonzero in its column are
    updated, from the pivot column on. Reduction modulo p is delayed: each
    step reduces the pivot column below the pivot row and the pivot row,
    subtracts the products of residues from the trailing block unreduced,
    and the trailing block is reduced once every _reduction_budget(p)
    steps. A step clears its column exactly and a column without a pivot
    is reduced to zeros, so the result is reduced throughout.
    """
    nrows, ncols = M.shape
    budget = _reduction_budget(p)
    piv: list[int] = []
    r = pending = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = M[r:, c]
        col %= p
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            M[[r, pr], c:] = M[[pr, r], c:]
        row = M[r, c:]
        row %= p
        row *= pow(int(row[0]), -1, p)
        row %= p
        # rows below that are nonzero in column c; the row swapped out of
        # place r was zero there
        idx = r + nz[1:]
        if idx.size:
            M[idx, c:] -= np.outer(M[idx, c], row)
            pending += 1
            if pending == budget:
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
    above are reduced once every _reduction_budget(p) steps. The steps
    before the one at pivot column c change only columns right of c, so
    its multiplier column is still reduced from the forward pass. Row 0
    is reduced last.
    """
    budget = _reduction_budget(p)
    pending = 0
    for i in range(len(piv) - 1, 0, -1):
        c = piv[i]
        M[i, c:] %= p
        idx = np.flatnonzero(M[:i, c])
        if idx.size:
            M[idx, c:] -= np.outer(M[idx, c], M[i, c:])
            pending += 1
            if pending == budget:
                M[:i, c:] %= p
                pending = 0
    M[:1] %= p


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


def _rref_mod_python(rows: list[list[int]], ncols: int, p: int):
    """Reduced row echelon form of residue lists modulo p, in place."""
    piv = _forward_list(rows, ncols, p)
    _back_substitute_list(rows, piv, p)
    return rows[:len(piv)], piv


def _rref_mod_numpy(M: np.ndarray, p: int):
    """Reduced row echelon form of an int64 residue array modulo p < 2^31,
    in place."""
    piv = _forward_numpy(M, p)
    M = M[:len(piv)]
    _back_substitute_numpy(M, piv, p)
    return M, piv


def _mod_matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """(A @ B) % p for a sparse residue array A and residues B modulo
    p < 2^31, as one rank-one update per column of A over its nonzero rows.

    The updates add up unreduced and the sum is reduced once every
    _reduction_budget(p) of them, and at the end. Nothing in the package
    calls it; bench/spans.py times it by name.
    """
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


def _numpy_field(p: int) -> bool:
    """Whether matrices modulo p (0 for Q) are int64 arrays."""
    return 0 < p < _NUMPY_PRIME_LIMIT


def _from_triplets(triplets, nrows: int, ncols: int, field_tag: FieldTag):
    """The nrows x ncols matrix holding the (rows, cols, values) triplets
    and zeros elsewhere, in the representation _eliminate works on.

    Values are Fractions over Q and residues modulo p otherwise, with no
    position given twice. The matrix is an int64 array modulo p < 2^31,
    which _eliminate takes without a copy, and lists otherwise.
    """
    rows, cols, vals = triplets
    if _numpy_field(field_tag.characteristic):
        M = np.zeros((nrows, ncols), dtype=np.int64)
        M[rows, cols] = vals
        return M
    zero = Fraction(0) if field_tag.is_rational else 0
    M = [[zero] * ncols for _ in range(nrows)]
    for r, c, v in zip(rows, cols, vals):
        M[r][c] = v
    return M


def _eliminate(rows, ncols: int, field_tag: FieldTag, reduce: bool):
    """Pivot columns of rows and, when reduce is set, their reduced row
    echelon form, by the field's one kernel; returns (rows, pivots).

    Over Q the rows are eliminated as integer lists and the reduced rows
    returned are Fraction lists; modulo p < 2^31 they are an int64 array,
    and int lists modulo larger primes. An int64 array given as rows is
    taken to hold residues, as _from_triplets returns them, and is
    eliminated in place. Without reduce, only the forward pass runs and
    the rows returned are a forward echelon with zero rows left at the
    bottom.
    """
    p = field_tag.characteristic
    if _numpy_field(p):
        if isinstance(rows, np.ndarray):
            M = rows
        else:
            M = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
            M %= p
        return _rref_mod_numpy(M, p) if reduce else (M, _forward_numpy(M, p))
    if not p:
        M = _integer_rows(rows)
        return _rref_fraction(M, ncols) if reduce else (M, _forward_int(M, ncols))
    M = [[x % p for x in r] for r in rows]
    return _rref_mod_python(M, ncols, p) if reduce else (M, _forward_list(M, ncols, p))


def _pivots(rows, ncols: int, field_tag: FieldTag) -> list[int]:
    """Pivot columns of rows, from the forward pass alone."""
    return _eliminate(rows, ncols, field_tag, reduce=False)[1]


def _reduce_against(rows, echelon, piv):
    """Remainders over Q of rows modulo the row span of a forward echelon.

    echelon and piv are the integer rows and pivot columns of a forward
    pass over Q (_eliminate without reduce). Each echelon row is zero left
    of its pivot, so on the pivot columns before it, and clearing the
    pivots in order leaves the remainders zero on every pivot column.
    """
    out = []
    for row in rows:
        for erow, c in zip(echelon, piv):
            if row[c]:
                f = Fraction(row[c], erow[c])
                row = row[:c] + [x - f * y for x, y in zip(row[c:], erow[c:])]
        out.append(row)
    return out


def echelonize(M: RationalMatrix) -> EchelonResult:
    """Canonical reduced row echelon form of M.

    Pivots are the leftmost nonzero columns in order, rows are scaled to a
    unit pivot and cleared above and below. There are no pivoting
    heuristics, so equal inputs give identical results.
    """
    red, piv = _eliminate(M.entries, M.cols, M.field_tag, reduce=True)
    if isinstance(red, np.ndarray):
        red = red.tolist()
    reduced = RationalMatrix(rows=len(red), cols=M.cols,
                             entries=tuple(map(tuple, red)),
                             field_tag=M.field_tag)
    return EchelonResult(rank=len(piv), pivot_columns=tuple(piv),
                         reduced_rows=reduced)


def matrix_rank(M: RationalMatrix) -> int:
    return len(_pivots(M.entries, M.cols, M.field_tag))


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
    return M.cols not in _pivots(aug.entries, aug.cols, aug.field_tag)
