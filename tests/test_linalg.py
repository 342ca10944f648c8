import random
from fractions import Fraction

import numpy as np
import pytest

from lefschetz_kit.linalg import (
    _BLOCK_CELLS,
    DEFAULT_PRIME,
    FAST_PRIME,
    RATIONALS,
    RationalMatrix,
    _dtype,
    _forward_numpy,
    _mod_matmul,
    _mul_mersenne,
    _rref_mod_numpy,
    _rref_mod_python,
    echelonize,
    in_column_space,
    kernel_basis,
    matrix_rank,
    prime_field,
)

FAST = prime_field(FAST_PRIME)


def test_field_tags():
    assert DEFAULT_PRIME == 2 ** 61 - 1
    assert RATIONALS.is_rational
    assert str(RATIONALS) == "rational"
    assert str(prime_field(7)) == "prime:7"
    with pytest.raises(ValueError):
        prime_field(4)
    with pytest.raises(ValueError):
        prime_field(-3)
    # FieldTag(0) is Q and 1 is no characteristic, so neither is a prime field
    with pytest.raises(ValueError):
        prime_field(0)
    with pytest.raises(ValueError):
        prime_field(1)


def test_matrix_construction():
    M = RationalMatrix.from_rows([[1, 2], [3, 4]])
    assert M.rows == 2 and M.cols == 2
    assert M.entries[0][1] == Fraction(2)
    Mp = RationalMatrix.from_rows([[-1, 9]], field_tag=prime_field(7))
    assert Mp.entries[0] == (6, 2)
    with pytest.raises(ValueError):
        RationalMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        RationalMatrix.from_rows([], cols=None)
    empty = RationalMatrix.from_rows([], cols=3)
    assert matrix_rank(empty) == 0


def test_rank_known_values():
    singular = [[1, 2], [2, 4]]
    assert matrix_rank(RationalMatrix.from_rows(singular)) == 1
    assert matrix_rank(RationalMatrix.from_rows(singular, field_tag=FAST)) == 1
    assert matrix_rank(RationalMatrix.from_rows([[1, 0], [0, 1]])) == 2
    third = [[Fraction(1, 3), Fraction(2, 3)], [1, 2]]
    assert matrix_rank(RationalMatrix.from_rows(third)) == 1


def test_echelon_structure():
    M = RationalMatrix.from_rows([[0, 1, 2], [0, 2, 4], [1, 0, 5]])
    ech = echelonize(M)
    assert ech.rank == 2
    assert ech.pivot_columns == (0, 1)
    red = ech.reduced_rows
    for i, pc in enumerate(ech.pivot_columns):
        assert red.entries[i][pc] == 1
        for j in range(red.rows):
            if j != i:
                assert red.entries[j][pc] == 0


def test_kernel_basis():
    M = RationalMatrix.from_rows([[1, 2], [2, 4]])
    basis = kernel_basis(M)
    assert len(basis) == 1
    v = basis[0]
    for row in M.entries:
        assert sum(a * b for a, b in zip(row, v)) == 0
    full = RationalMatrix.from_rows([[1, 0], [0, 1]])
    assert kernel_basis(full) == []


def test_kernel_dimension_matches_rank():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(1, 6)
        n = rng.randint(1, 7)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        for tag in (RATIONALS, FAST):
            M = RationalMatrix.from_rows(rows, field_tag=tag)
            basis = kernel_basis(M)
            assert len(basis) == n - matrix_rank(M)
            p = tag.characteristic
            for v in basis:
                for row in M.entries:
                    s = sum(a * b for a, b in zip(row, v))
                    assert (s % p if p else s) == 0


def test_in_column_space():
    M = RationalMatrix.from_rows([[1], [2]])
    assert in_column_space(M, [2, 4])
    assert not in_column_space(M, [1, 3])
    Mp = RationalMatrix.from_rows([[1], [2]], field_tag=FAST)
    assert in_column_space(Mp, [2, 4])
    assert not in_column_space(Mp, [1, 3])
    # the zero vector lies in every column space
    assert in_column_space(RationalMatrix.from_rows([[1, 2], [2, 4]]), [0, 0])
    assert in_column_space(Mp, [0, 0])
    # with no columns only the zero vector is a combination
    empty = RationalMatrix.from_rows([[], []], cols=0)
    assert in_column_space(empty, [0, 0])
    assert not in_column_space(empty, [0, 1])


def test_rank_agreement_random_sweep():
    # the rational and prime-field ranks of an integer matrix agree except
    # on a vanishing locus; small random entries never land on it for this
    # prime, so exact agreement is asserted
    rng = random.Random(20260816)
    for trial in range(300):
        m = rng.randint(2, 12)
        n = rng.randint(2, 14)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        rq = matrix_rank(RationalMatrix.from_rows(rows))
        rp = matrix_rank(RationalMatrix.from_rows(rows, field_tag=FAST))
        assert rq == rp, (trial, rq, rp)


def test_rank_of_product_is_bounded():
    rng = random.Random(11)
    for _ in range(25):
        B = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(6)]
        C = [[rng.randint(-5, 5) for _ in range(7)] for _ in range(2)]
        prod = [[sum(B[i][k] * C[k][j] for k in range(2)) for j in range(7)]
                for i in range(6)]
        assert matrix_rank(RationalMatrix.from_rows(prod)) <= 2


@pytest.mark.parametrize("p", [2 ** 31 - 1, 1073741789, FAST_PRIME])
def test_mod_matmul_matches_python_ints(p):
    # 40 products of residues near p sum past 2^63 at p = 2^31 - 1, the
    # largest prime on the numpy path, so an unreduced int64 sum overflows;
    # the sum is reduced every 2 updates there and every 8 at 1073741789
    rng = random.Random(p)
    A = [[rng.randrange(p) for _ in range(40)] for _ in range(6)]
    B = [[rng.randrange(p) for _ in range(5)] for _ in range(40)]
    A[0] = [p - 1] * 40
    B = [[p - 1] + r[1:] for r in B]
    for row in A:
        row[7] = 0
    want = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)]
            for row in A]
    got = _mod_matmul(np.array(A, dtype=np.int64), np.array(B, dtype=np.int64), p)
    assert got.tolist() == want


def test_mersenne_products_match_python_ints():
    # every pair of limb extremes: low limbs of 0, 1 and 2^31 - 1, high
    # limbs of 0, 1 and 2^30 - 1, and P itself, which the kernels take as a
    # factor; sums from P - 1 + 1 up need the final subtraction of P
    P = DEFAULT_PRIME
    values = sorted({lo + (hi << 31) for lo in (0, 1, 2**31 - 1)
                     for hi in (0, 1, 2**30 - 1)} | {P - 1, P - 2, 2, 3})
    for acc in (0, 1, P - 1, P - 2):
        x = np.array(values, dtype=np.uint64)[:, None]
        y = np.array(values, dtype=np.uint64)
        out = np.full((len(values), len(values)), acc, dtype=np.uint64)
        _mul_mersenne(x, y, out)
        assert out.tolist() == [[(acc + a * b) % P for b in values] for a in values]


def _mersenne_rows(case):
    """Residues modulo 2^61 - 1 for the uint64 kernel tests."""
    P = DEFAULT_PRIME
    rng = random.Random(case)
    if case == "p-1":
        # P - 1 everywhere but on a perturbed diagonal, so every multiplier
        # and most entries of every pivot row are P - 1 or close to it
        rows = [[P - 1] * 18 for _ in range(16)]
        for i in range(16):
            rows[i][i] = P - 2 - rng.randrange(5)
        return rows
    if case == "dense":
        # every entry nonzero, so the last rows are updated once per pivot
        # above them, about 200 times each; 230 x 220 is 50600 cells
        nrows, ncols = 230, 220
    else:
        # few rows wide enough that each step's rows are split into blocks
        nrows, ncols = 40, 2 * _BLOCK_CELLS // 40
    rows = [[P - 1 - rng.randrange(3) if rng.random() < 0.5 else rng.randrange(1, P)
             for _ in range(ncols)] for _ in range(nrows)]
    # a rank drop: combinations of other rows, and a zero column
    for i in range(4, nrows, 7):
        rows[i] = [(x + 3 * y) % P for x, y in zip(rows[i - 1], rows[i - 2])]
    for r in rows:
        r[ncols // 3] = 0
    return rows


@pytest.mark.parametrize("case", ["p-1", "dense", "blocks"])
def test_mersenne_kernels_match_python_ints(case):
    # modulo 2^61 - 1 residues are uint64 and every step reduces them by
    # limb products; the reference runs the same elimination on Python
    # ints, which the Gauss-Jordan tests check at 2147483659
    P = DEFAULT_PRIME
    assert _dtype(P) is np.uint64
    rows = _mersenne_rows(case)
    if case != "p-1":
        assert len(rows) * len(rows[0]) > _BLOCK_CELLS
    want = np.array(rows, dtype=object)
    want_piv = _forward_numpy(want, P)
    M = np.array(rows, dtype=np.uint64)
    assert _forward_numpy(M, P) == want_piv
    assert M.tolist() == want.tolist()
    want_red, want_piv = _rref_mod_python(np.array(rows, dtype=object), P)
    red, piv = _rref_mod_numpy(np.array(rows, dtype=np.uint64), P)
    assert piv == want_piv
    assert red.tolist() == want_red.tolist()
