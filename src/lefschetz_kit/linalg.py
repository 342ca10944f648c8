"""Exact dense linear algebra over the rationals and over prime fields.

Rational arithmetic uses Fraction throughout and is the final authority.
Prime-field arithmetic is an accelerator: for integer matrices the rank
modulo p never exceeds the rational rank, so a full-rank verdict modulo p
is already exact. Callers who see a prime-field rank deficit and need
certainty must recompute rationally.

One dispatch rule picks the elimination kernel, in `_rref` and
`_reduce_against` alone: Fraction lists over Q, int64 numpy arrays modulo
p < 2^31, Python int lists modulo larger primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _rref_fraction(rows: list[list[Fraction]], ncols: int):
    rows = [[Fraction(x) for x in r] for r in rows]
    piv: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
    return rows[:r], piv


def _rref_mod_python(rows: list[list[int]], ncols: int, p: int):
    rows = [[x % p for x in r] for r in rows]
    piv: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
    return rows[:r], piv


def _rref_mod_numpy(mat: np.ndarray, p: int):
    """Reduced row echelon form of an int64 array modulo p < 2^31."""
    M = np.array(mat, dtype=np.int64) % p
    nrows, ncols = M.shape
    piv: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            M[[r, pr]] = M[[pr, r]]
        inv = pow(int(M[r, c]), -1, p)
        M[r] = M[r] * inv % p
        col = M[:, c].copy()
        mask = col != 0
        mask[r] = False
        if mask.any():
            M[mask] = (M[mask] - np.outer(col[mask], M[r])) % p
        piv.append(c)
        r += 1
    return M[:r], piv


def _mod_matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """(A @ B) % p with the inner dimension chunked so int64 never overflows."""
    step = max(1, (2**63 - 1) // ((p - 1) ** 2))
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for s in range(0, A.shape[1], step):
        out = (out + A[:, s:s + step] @ B[s:s + step]) % p
    return out


def _rref(rows, ncols: int, field_tag: FieldTag):
    """Reduced rows and pivot columns of rows, by the field's one kernel.

    The reduced rows are Fraction lists over Q, an int64 array modulo
    p < 2^31 and int lists modulo larger primes.
    """
    if field_tag.is_rational:
        return _rref_fraction(rows, ncols)
    p = field_tag.characteristic
    if p < _NUMPY_PRIME_LIMIT:
        arr = np.asarray(rows, dtype=np.int64).reshape(len(rows), ncols)
        return _rref_mod_numpy(arr, p)
    return _rref_mod_python(rows, ncols, p)


def _reduce_against(rows, red, piv, field_tag: FieldTag):
    """Remainders of non-empty rows after clearing the pivot columns of an
    echelon, which leaves them modulo its row span.

    red and piv are the reduced rows and pivot columns returned by _rref
    for the same field. The remainders vanish on the pivot columns, so they
    are returned in the coordinates of the other columns only.
    """
    ncols = len(rows[0])
    pivset = set(piv)
    free = [c for c in range(ncols) if c not in pivset]
    p = field_tag.characteristic
    if not field_tag.is_rational and p < _NUMPY_PRIME_LIMIT:
        arr = np.array(rows, dtype=np.int64)
        arr -= _mod_matmul(arr[:, piv], red, p)
        arr %= p
        # take keeps the result row-major, which the row operations of
        # _rref_mod_numpy need to run fast; arr[:, free] is column-major
        return arr.take(free, axis=1)
    out = []
    for row in rows:
        for rrow, c in zip(red, piv):
            f = row[c]
            if f:
                row = ([x - f * y for x, y in zip(row, rrow)] if p == 0
                       else [(x - f * y) % p for x, y in zip(row, rrow)])
        out.append([row[c] for c in free])
    return out


def echelonize(M: RationalMatrix) -> EchelonResult:
    """Canonical reduced row echelon form of M.

    Pivots are the leftmost nonzero columns in order, rows are scaled to a
    unit pivot and cleared above and below. There are no pivoting
    heuristics, so equal inputs give identical results.
    """
    red, piv = _rref([list(r) for r in M.entries], M.cols, M.field_tag)
    if isinstance(red, np.ndarray):
        red = red.tolist()
    reduced = RationalMatrix(rows=len(red), cols=M.cols,
                             entries=tuple(map(tuple, red)),
                             field_tag=M.field_tag)
    return EchelonResult(rank=len(piv), pivot_columns=tuple(piv),
                         reduced_rows=reduced)


def matrix_rank(M: RationalMatrix) -> int:
    return echelonize(M).rank


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
    aug_rows = [list(r) + [v] for r, v in zip(M.entries, vec)]
    aug = RationalMatrix.from_rows(aug_rows, cols=M.cols + 1,
                                   field_tag=M.field_tag)
    return M.cols not in echelonize(aug).pivot_columns
