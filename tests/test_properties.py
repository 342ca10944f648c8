"""Randomized cross-checks of the elimination kernels against a textbook
Gauss-Jordan, of the fraction-free reduction against a span and the
kernel built on it against Fraction references, of the product-row
builder against a tuple-keyed lookup, and of the projected quotient routes
against the full-basis oracle, over Q and modulo one prime below and one
above 2^31, the two residue dtypes; map ranks and the listing of
`initial` also in characteristics 3 and 5. Powers of linear forms and the
cokernel specs of map ranks, built on integers, are checked against
repeated Fraction products, and the span shapes the map guard reads from
n, a and the form count against the matrices a map rank builds. Span
echelons keep their rows over Q only, and their textbook pivots in every
field. Over Q the paper's kernel element settles a squares rank one
short of injective only when its checks hold for ell's own
coefficients."""

import random
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lefschetz_kit import linalg, quotient, witness
from lefschetz_kit.linalg import (
    DEFAULT_PRIME,
    FAST_PRIME,
    RATIONALS,
    RationalMatrix,
    _dtype,
    _eliminate,
    _forward_numpy,
    _from_triplets,
    _integer_rows,
    _pivots,
    _reduce_against,
    _residue,
    _rref_mod_numpy,
    echelonize,
    in_column_space,
    kernel_basis,
    matrix_rank,
    prime_field,
)
from lefschetz_kit.monomials import (
    Monomial,
    _exponent_str,
    enumerate_degree_piece,
    revlex_sort_key,
)
from lefschetz_kit.quotient import (
    Form,
    IdealSpec,
    _capped_basis,
    _cokernel_spec,
    _form_record,
    _initial_exponents,
    _key,
    _product_rows,
    _radix,
    _reduce_spec,
    _span_echelon,
    form_from_coefficients,
    form_power,
    graded_dimension,
    ideal_degree_basis,
    initial_degree_piece,
    injectivity_threshold_check,
    linear_coefficients,
    linear_form,
    multiplication_kernel,
    multiply_forms,
    multiplication_map_rank,
    random_linear_form,
    standard_monomials,
    wlp_sweep,
)

# Q, then int64 residue arrays (p < 2^31), then Python-int residue arrays
FIELDS = (RATIONALS, prime_field(FAST_PRIME), prime_field(DEFAULT_PRIME))

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)


SMALL_INTEGERS = st.integers(-4, 4)
# fractions with unrelated denominators in one row, and integers large
# enough for coefficient growth to show
RATIONAL_ENTRIES = st.one_of(
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.integers(-10**15, 10**15), SMALL_INTEGERS)


@st.composite
def small_matrices(draw, entries=SMALL_INTEGERS):
    """Small matrices, with zero rows, duplicate rows, rows that combine
    two others and zero columns mixed in."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols,
                                  max_size=ncols), max_size=6))
    for edit in draw(st.lists(st.sampled_from(("zero row", "duplicate",
                                               "combination", "zero column")),
                              max_size=3)):
        if edit == "zero row":
            rows.append([0] * ncols)
        elif edit == "zero column":
            j = draw(st.integers(0, ncols - 1))
            rows = [r[:j] + [0] + r[j + 1:] for r in rows]
        elif rows:
            i = draw(st.integers(0, len(rows) - 1))
            k = draw(st.integers(0, len(rows) - 1))
            f = draw(st.integers(-3, 3)) if edit == "combination" else 0
            rows.append([x + f * y for x, y in zip(rows[i], rows[k])])
    return draw(st.permutations(rows)), ncols


def _gauss_jordan(rows, ncols, p):
    """Textbook reduced row echelon form over Q (p = 0) or F_p: every
    pivot row is scaled to 1 and cleared from all other rows."""
    norm = (lambda x: x % p) if p else Fraction
    inv = (lambda x: pow(x, -1, p)) if p else (lambda x: 1 / x)
    rows = [[norm(x) for x in r] for r in rows]
    piv = []
    for c in range(ncols):
        r = len(piv)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        s = inv(rows[r][c])
        rows[r] = [norm(x * s) for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [norm(x - f * y) for x, y in zip(rows[i], rows[r])]
        piv.append(c)
    return rows[:len(piv)], piv


@PROPERTY
@given(small_matrices())
def test_elimination_matches_gauss_jordan(case):
    rows, ncols = case
    # 2147483659, a prime above 2^31 other than DEFAULT_PRIME, takes the
    # Python-int residue arrays of _rref_mod_python
    for tag in FIELDS + (prime_field(2147483659),):
        # integer rows are eliminated in place over Q, so each call gets a copy
        red, piv = _eliminate([list(r) for r in rows], ncols, tag, reduce=True)
        if isinstance(red, np.ndarray):
            red = red.tolist()
        assert (red, piv) == _gauss_jordan(rows, ncols, tag.characteristic), tag
        M = RationalMatrix.from_rows(rows, cols=ncols, field_tag=tag)
        assert (_pivots([list(r) for r in rows], ncols, tag)
                == list(echelonize(M).pivot_columns)), tag


@PROPERTY
@given(small_matrices(RATIONAL_ENTRIES))
def test_rational_elimination_matches_gauss_jordan(case):
    rows, ncols = case
    red, piv = _eliminate(_integer_rows(rows), ncols, RATIONALS, reduce=True)
    assert (red, piv) == _gauss_jordan(rows, ncols, 0)
    M = RationalMatrix.from_rows(rows, cols=ncols)
    assert (_pivots(_integer_rows(rows), ncols, RATIONALS)
            == list(echelonize(M).pivot_columns))


@PROPERTY
@given(small_matrices(RATIONAL_ENTRIES), st.data())
def test_column_space_matches_ranks(case, data):
    rows, ncols = case
    assume(rows)
    combination = data.draw(st.booleans())
    if combination:
        x = data.draw(st.lists(RATIONAL_ENTRIES, min_size=ncols, max_size=ncols))
        b = [sum(Fraction(e) * y for e, y in zip(r, x)) for r in rows]
    else:
        b = data.draw(st.lists(RATIONAL_ENTRIES, min_size=len(rows),
                               max_size=len(rows)))
    for tag in FIELDS:
        M = RationalMatrix.from_rows(rows, cols=ncols, field_tag=tag)
        aug = RationalMatrix.from_rows([r + [v] for r, v in zip(rows, b)],
                                       cols=ncols + 1, field_tag=tag)
        inside = in_column_space(M, b)
        assert inside == (matrix_rank(M) == matrix_rank(aug)), tag
        assert inside or not combination, tag


def _fraction_reduce_against(rows, echelon, piv):
    """Remainders of rows modulo the span of a forward echelon in Fraction
    arithmetic: each echelon row in turn clears its pivot column."""
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        for erow, c in zip(echelon, piv):
            if row[c]:
                f = row[c] / erow[c]
                row = [x - f * y for x, y in zip(row, erow)]
        out.append(row)
    return out


@PROPERTY
@given(small_matrices(RATIONAL_ENTRIES), st.data())
def test_reduce_against_is_a_multiple_of_the_fraction_remainder(case, data):
    span, ncols = case
    echelon, piv = _eliminate(_integer_rows(span), ncols, RATIONALS, reduce=False)
    echelon = echelon[:len(piv)]
    rows = data.draw(st.lists(st.lists(RATIONAL_ENTRIES, min_size=ncols,
                                       max_size=ncols), max_size=4))
    if span:
        # a combination of span rows leaves a zero remainder
        x = data.draw(st.lists(SMALL_INTEGERS, min_size=len(span),
                               max_size=len(span)))
        rows.append([sum(Fraction(f) * r[j] for f, r in zip(x, span))
                     for j in range(ncols)])
    rems, scales = _reduce_against(rows, echelon, piv)
    for rem, scale, ref in zip(rems, scales, _fraction_reduce_against(rows, echelon, piv)):
        assert all(type(x) is int for x in rem)
        assert scale != 0 and rem == [scale * x for x in ref]
        assert gcd(*rem) in (0, 1)
        assert not any(rem[c] for c in piv)
    assert len(rems) == len(rows)


NUMPY_PRIMES = [2**31 - 1, 1073741789, FAST_PRIME, 2147483659, DEFAULT_PRIME]


@pytest.mark.parametrize("p", NUMPY_PRIMES)
def test_numpy_kernels_match_gauss_jordan(p):
    _check_numpy_kernels(p)


@pytest.mark.parametrize("p", NUMPY_PRIMES)
def test_numpy_kernels_match_gauss_jordan_in_small_row_blocks(monkeypatch, p):
    # blocks of 40 cells hold one or two rows of these arrays, so every
    # step that clears more than two rows runs several blocks
    monkeypatch.setattr(linalg, "_BLOCK_CELLS", 40)
    _check_numpy_kernels(p)


def _check_numpy_kernels(p):
    # on int64 arrays the kernels reduce modulo p only once every
    # (2^63-1-p) // p^2 updates: 2 at 2^31-1 and 8 at 1073741789, fewer
    # than the pivots here, so the periodic reduction runs. Entries near p
    # make the unreduced products as large as they get. At 2147483659, the
    # smallest prime from 2^31 up, the arrays hold Python ints and are
    # never reduced in between; at 2^61-1 they hold uint64 residues, which
    # every step reduces.
    dtype = _dtype(p)
    rng = random.Random(p)

    def entry():
        return p - 1 - rng.randrange(3) if rng.random() < 0.5 else rng.randrange(p)

    for nrows, ncols in ((24, 30), (30, 24), (20, 20)):
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        # a rank drop: combinations of other rows, and a zero column
        for i in range(0, nrows, 3):
            rows[i] = [(x + 3 * y) % p for x, y in zip(rows[i - 1], rows[i - 2])]
        for r in rows:
            r[ncols // 2] = 0
        want_red, want_piv = _gauss_jordan(rows, ncols, p)
        M = np.array(rows, dtype=dtype)
        piv = _forward_numpy(M, p)
        assert piv == want_piv
        assert M.min() >= 0 and M.max() < p
        assert not M[len(piv):].any()
        red, piv = _rref_mod_numpy(np.array(rows, dtype=dtype), p)
        assert (red.tolist(), piv) == (want_red, want_piv)


def _reference_product_rows(forms, mults, basis, p):
    """Product rows by a tuple-keyed lookup of every product exponent, one
    per form and multiplier, zero rows included; over Q, each form's rows
    times the lcm of its denominators."""
    col = {e: i for i, e in enumerate(basis)}
    out = []
    for f in forms:
        den = lcm(*(c.denominator for _, c in f.terms))
        for m in mults:
            row = [0] * len(basis)
            for mm, c in f.terms:
                j = col.get(tuple(x + y for x, y in zip(m, mm.exponents)))
                if j is not None:
                    row[j] = (c.numerator * pow(c.denominator, -1, p) % p
                              if p else c * den)
            out.append(row)
    return out


COEFFICIENTS = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-7, 7), st.sampled_from((1, 2, 4, 5, 7))))


@st.composite
def product_cases(draw):
    """Extra forms with fractional coefficients, some vanishing modulo 3,
    the zero form, n = 1, degrees below a, and pure a-th power terms whose
    products leave the capped basis."""
    n = draw(st.integers(1, 4))
    a = draw(st.sampled_from((2, 3)))
    degree_a = enumerate_degree_piece(n, a)
    forms = [form_from_coefficients(a, {m: draw(COEFFICIENTS) for m in degree_a})
             for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        forms.append(form_from_coefficients(a, {}))
    ell = linear_form([draw(COEFFICIENTS) for _ in range(n)])
    d = draw(st.integers(0, a + 2))
    return IdealSpec(n=n, a=a, extra_forms=tuple(forms)), d, ell


@PROPERTY
@given(product_cases())
def test_product_rows_match_tuple_lookup(case):
    spec, d, ell = case
    radix = _radix(spec.a)
    basis = _capped_basis(spec.n, spec.a, d)
    index = {_key(e, radix): i for i, e in enumerate(basis)}
    # the span rows of _reduce_spec and the lift rows of a kernel
    for forms, below in ((spec.extra_forms, d - spec.a), ((ell,), d - 1)):
        mults = _capped_basis(spec.n, spec.a, below)
        keys = [_key(e, radix) for e in mults]
        for tag in FIELDS + (prime_field(3),):
            records = [_form_record(f, spec.a) for f in forms]
            nrows, triplets = _product_rows(records, keys, index, tag)
            assert nrows == len(forms) * len(mults), tag
            assert all(triplets[2]), tag
            # over Q as well as modulo p, the values are ints
            assert all(type(v) is int for v in triplets[2]), tag
            got = _from_triplets(triplets, nrows, len(basis), tag)
            if isinstance(got, np.ndarray):
                got = got.tolist()
            assert got == _reference_product_rows(
                forms, mults, basis, tag.characteristic), tag


@PROPERTY
@given(product_cases())
def test_span_record_is_its_basis_and_pivots_in_every_field(case):
    # in every field a cached span keeps its basis and the textbook pivots
    # alone; the echelon it is read from returns the index of its basis
    # and the forward echelon of its rows, integer lists over Q, which the
    # kernel reduces against, and residues modulo p
    spec, d, _ = case
    basis = _capped_basis(spec.n, spec.a, d)
    mults = _capped_basis(spec.n, spec.a, d - spec.a)
    radix = _radix(spec.a)
    for tag in FIELDS + (prime_field(3),):
        p = tag.characteristic
        rows = _reference_product_rows(spec.extra_forms, mults, basis, p)
        want = _gauss_jordan(rows, len(basis), p)[1]
        assert _reduce_spec(spec, d, tag) == (basis, want), tag
        got_basis, index, echelon, piv = _span_echelon(spec, d, tag)
        assert (got_basis, piv) == (basis, want), tag
        assert index == {_key(e, radix): i for i, e in enumerate(basis)}, tag
        ints = rows if p else [[int(x) for x in r] for r in rows]
        forward, _ = _eliminate(ints, len(basis), tag, reduce=False)
        if p:
            assert echelon.tolist() == forward[:len(want)].tolist(), tag
        else:
            assert echelon == forward[:len(want)]
            assert all(type(x) is int for r in echelon for x in r)


@st.composite
def map_cases(draw):
    n = draw(st.integers(1, 5))
    a = draw(st.sampled_from((2, 3)))
    degree_a = enumerate_degree_piece(n, a)
    forms = tuple(
        form_from_coefficients(a, {m: draw(st.integers(-3, 3)) for m in degree_a})
        for _ in range(draw(st.integers(1, 2))))
    ell = linear_form([draw(st.integers(-5, 5)) for _ in range(n)])
    d = draw(st.integers(1, a + 2))
    return IdealSpec(n=n, a=a, extra_forms=forms), d, ell


def _oracle_rank(spec, d, ell, field_tag):
    """rank(I_d + ell * R_{d-1}) - rank(I_d) over the full monomial basis."""
    ideal = [list(r) for r in ideal_degree_basis(spec, d).entries]
    col = {m.exponents: i for i, m in enumerate(enumerate_degree_piece(spec.n, d))}
    lifted = []
    for m in enumerate_degree_piece(spec.n, d - 1):
        row = [0] * len(col)
        for mm, c in ell.terms:
            row[col[tuple(x + y for x, y in zip(m.exponents, mm.exponents))]] += c
        lifted.append(row)

    def rank(rows):
        return matrix_rank(RationalMatrix.from_rows(rows, cols=len(col),
                                                    field_tag=field_tag))

    return rank(ideal + lifted) - rank(ideal)


# small characteristics, where coefficients of ell and of the extra forms
# vanish and the quotient differs from the one over Q
MAP_FIELDS = FIELDS + (prime_field(3), prime_field(5))


@PROPERTY
@given(map_cases())
def test_map_rank_matches_full_basis_oracle(case):
    spec, d, ell = case
    for tag in MAP_FIELDS:
        assert (multiplication_map_rank(spec, d, ell, mode=tag)["rank"]
                == _oracle_rank(spec, d, ell, tag)), tag


@pytest.mark.parametrize("n, a, coeffs, tag", [
    (4, 2, [0, 0, 0, 0], RATIONALS),            # ell = 0
    (4, 3, [1, 1, 1, 1], RATIONALS),            # (sum x)^a maps to zero
    (5, 2, [1, 1, 1, 1, 1], prime_field(3)),
    (1, 2, [3], RATIONALS),                     # one variable
    (1, 3, [2], prime_field(5)),
    (4, 2, [0, 2, -1, 3], RATIONALS),           # c_1 = 0 over Q
    (5, 2, [3, 1, 1, 2, 1], prime_field(3)),    # c_1 = 0 only modulo 3
    (4, 3, [3, 1, 1, 1], prime_field(3)),
    (3, 2, [5, 0, 0], prime_field(5)),          # ell = 0 modulo 5
])
def test_map_rank_edge_forms_match_oracle(n, a, coeffs, tag):
    spec, ell = IdealSpec(n=n, a=a), linear_form(coeffs)
    for d in range(1, (a - 1) * n + 2):
        assert (multiplication_map_rank(spec, d, ell, mode=tag)["rank"]
                == _oracle_rank(spec, d, ell, tag)), d


@pytest.mark.parametrize("where", ["extra form", "ell"])
def test_map_rank_of_forms_without_residues_modulo_p_matches_oracle(where):
    # a denominator divisible by FAST_PRIME has no residue there, so over Q
    # such a rank reads the span of A/ell A over Q alone
    n, a = 4, 2
    den = FAST_PRIME if where == "extra form" else 1
    form = form_from_coefficients(a, {
        m: Fraction(i + 1, den if i == 2 else 1)
        for i, m in enumerate(enumerate_degree_piece(n, a))})
    spec = IdealSpec(n=n, a=a, extra_forms=(form,))
    ell = linear_form([3, Fraction(1, FAST_PRIME if where == "ell" else 2), -1, 5])
    for d in range(1, (a - 1) * n + 2):
        assert multiplication_map_rank(spec, d, ell) == {
            "rank": _oracle_rank(spec, d, ell, RATIONALS),
            "dim_below": _oracle_dimension(spec, d - 1, RATIONALS),
            "dim_at": _oracle_dimension(spec, d, RATIONALS)}, d


def _oracle_dimension(spec, d, field_tag):
    """dim A_d as the monomials of degree d less the rank of the ideal's
    full-basis matrix."""
    ideal = ideal_degree_basis(spec, d)
    M = RationalMatrix.from_rows(ideal.entries, cols=ideal.cols,
                                 field_tag=field_tag)
    return ideal.cols - matrix_rank(M)


@pytest.mark.parametrize("n, a", [(3, 2), (4, 2), (3, 3)])
def test_span_of_zero_rows_matches_full_basis_oracle(n, a):
    # the extra form x_1^a is a pure power, so each of its products with a
    # capped multiplier holds an a-th power and projects to a zero row:
    # each span of A has one row per multiplier and no pivot, and A is the
    # quotient by the pure powers alone
    power = Monomial((a,) + (0,) * (n - 1))
    spec = IdealSpec(n=n, a=a, extra_forms=(form_from_coefficients(a, {power: 1}),))
    ell = linear_form(range(1, n + 1))
    for d in range((a - 1) * n + 2):
        full = ideal_degree_basis(spec, d)
        monomials = enumerate_degree_piece(n, d)
        for tag in MAP_FIELDS:
            assert _reduce_spec(spec, d, tag)[1] == [], (d, tag)
            assert graded_dimension(spec, d, tag) == _oracle_dimension(spec, d, tag)
            M = RationalMatrix.from_rows(full.entries, cols=full.cols, field_tag=tag)
            pivots = set(echelonize(M).pivot_columns)
            assert standard_monomials(spec, d, tag) == [
                m for i, m in enumerate(monomials) if i not in pivots], (d, tag)
        if d:
            kernel = multiplication_kernel(spec, d, ell)
            assert len(kernel) == (_oracle_dimension(spec, d - 1, RATIONALS)
                                   - _oracle_rank(spec, d, ell, RATIONALS)), d
            col = {m: i for i, m in enumerate(monomials)}
            base = matrix_rank(full)
            for k in kernel:
                row = [Fraction(0)] * len(col)
                for m, c in multiply_forms(ell, k).terms:
                    row[col[m]] = c
                stacked = RationalMatrix.from_rows([*full.entries, row],
                                                   cols=len(col))
                assert matrix_rank(stacked) == base, d


# characteristic 2, where the span of the squares spec vanishes, and 7
DEFAULT_MAP_FIELDS = MAP_FIELDS + (prime_field(2), prime_field(7))


@pytest.mark.parametrize("n, a, d, seeds", [
    (1, 2, 1, [1]),
    (3, 2, 2, [1, 2]),
    (5, 2, 3, [1, 2]),
    (6, 2, 3, [1, 2]),   # deficient over Q: rank 13 of 14
    (7, 2, 3, [1, 2]),
    (8, 2, 4, [1]),      # deficient over Q: rank 41 of 42
    (4, 3, 4, [1, 2]),   # deficient over Q: rank 14 of 15
    (5, 3, 4, [1, 2]),
    (3, 4, 4, [1]),
])
def test_default_spec_map_rank_matches_full_basis_oracle(n, a, d, seeds):
    # the dimensions of A come from the closed form over Q and, for a = 2,
    # in every field; over Q the rank comes from the cokernel span modulo
    # FAST_PRIME where that leaves the maximal rank, and from the span over
    # Q where it falls short
    spec = IdealSpec(n=n, a=a)
    for s in seeds:
        ell = random_linear_form(n, s)
        for tag in DEFAULT_MAP_FIELDS:
            assert multiplication_map_rank(spec, d, ell, mode=tag) == {
                "rank": _oracle_rank(spec, d, ell, tag),
                "dim_below": _oracle_dimension(spec, d - 1, tag),
                "dim_at": _oracle_dimension(spec, d, tag)}, (s, tag)


@pytest.mark.parametrize("n, a, d, full", [
    (7, 2, 3, True), (5, 3, 4, True), (3, 4, 4, True),
    (6, 2, 3, False), (4, 3, 4, False),
])
@pytest.mark.parametrize("unlucky", [False, True])
def test_rational_rank_reads_the_q_span_only_when_the_bound_falls_short(
        monkeypatch, n, a, d, full, unlucky):
    # the cokernel span modulo FAST_PRIME certifies a maximal rank over Q
    # alone, and at squares (6, 3), one short of injective, the paper's
    # kernel element certifies the rank one below it; one that reports a
    # dimension too many, as an unlucky prime would, leaves the bound
    # short of both, and the span over Q gives the rank
    spans = []
    cokernel_dimension = quotient._cokernel_dimension
    fast = prime_field(FAST_PRIME)

    def read(spec, d, ell, field_tag):
        spans.append(field_tag)
        dim = cokernel_dimension(spec, d, ell, field_tag)
        return dim + 1 if unlucky and field_tag == fast else dim

    monkeypatch.setattr(quotient, "_cokernel_dimension", read)
    spec, ell = IdealSpec(n=n, a=a), random_linear_form(n, 1)
    got = multiplication_map_rank(spec, d, ell)
    assert got["rank"] == _oracle_rank(spec, d, ell, RATIONALS)
    assert (got["rank"] == min(got["dim_below"], got["dim_at"])) == full
    witnessed = (n, a, d) == (6, 2, 3)
    assert spans == ([fast] if (full or witnessed) and not unlucky
                     else [fast, RATIONALS])


def _map_rank_reads(monkeypatch, spec, d, ell):
    """multiplication_map_rank over Q, the fields of the cokernel spans it
    read, and the weights and verdict of each pair of the paper's kernel
    element it asked for."""
    spans, verdicts = [], []
    cokernel_dimension = quotient._cokernel_dimension
    certified = witness._kernel_certified

    def read(spec, d, ell, field_tag):
        spans.append(field_tag)
        return cokernel_dimension(spec, d, ell, field_tag)

    def check(params):
        verdicts.append((params.a_values, certified(params)))
        return verdicts[-1][1]

    monkeypatch.setattr(quotient, "_cokernel_dimension", read)
    monkeypatch.setattr(witness, "_kernel_certified", check)
    return multiplication_map_rank(spec, d, ell), spans, verdicts


@pytest.mark.parametrize("n, d", [(6, 3), (9, 4)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernel_witness_settles_the_rank_one_short_of_injective(
        monkeypatch, n, d, seed):
    # squares cells n = 3d - 3: the bound modulo FAST_PRIME is one short of
    # injective, and the paper's kernel element for ell shows that it is
    # the rank, with no span over Q
    spec, ell = IdealSpec(n=n, a=2), random_linear_form(n, seed)
    got, spans, verdicts = _map_rank_reads(monkeypatch, spec, d, ell)
    assert got["rank"] == _oracle_rank(spec, d, ell, RATIONALS)
    assert got["rank"] == got["dim_below"] - 1
    # the pair is built for ell's own coefficients, in their order
    assert verdicts == [(linear_coefficients(ell), True)]
    assert spans == [prime_field(FAST_PRIME)]


def test_kernel_witness_settles_squares_degree_five_at_twelve(monkeypatch):
    # the span over Q took 28.75 s here; the pair is checked by its
    # congruence and route one alone, so no fraction-free pass and no
    # route two runs
    def refuse(*args):
        raise AssertionError("a fraction-free pass or route two ran")

    monkeypatch.setattr(linalg, "_forward_int", refuse)
    monkeypatch.setattr(witness, "_outside_span", refuse)
    ell = random_linear_form(12, 1)
    got, spans, verdicts = _map_rank_reads(monkeypatch, IdealSpec(n=12, a=2), 5, ell)
    assert got == {"rank": 428, "dim_below": 429, "dim_at": 572}
    assert verdicts == [(linear_coefficients(ell), True)]
    assert spans == [prime_field(FAST_PRIME)]


@pytest.mark.parametrize("mutation", ["other weights", "congruence fails",
                                      "route one fails"])
def test_kernel_witness_that_does_not_check_leaves_the_rank_to_the_q_span(
        monkeypatch, mutation):
    # a pair built from weights other than ell's is a genuine witness for
    # another form, and fails the congruence for ell; a pair whose
    # congruence fails or that route one finds inside the ideal proves
    # nothing, and in every case the rank is read from the span over Q,
    # never from B
    spec, ell = IdealSpec(n=6, a=2), random_linear_form(6, 1)
    if mutation == "other weights":
        other = witness.WitnessParams(6, 3, [c + 1 for c in linear_coefficients(ell)])
        for name in ("_q_record", "_qprime_record"):
            monkeypatch.setattr(witness, name,
                                lambda params, build=getattr(witness, name): build(other))
    elif mutation == "congruence fails":
        monkeypatch.setattr(witness, "_congruent", lambda *args: False)
    else:
        monkeypatch.setattr(witness, "_outside_containment_span",
                            lambda *args: False)
    got, spans, verdicts = _map_rank_reads(monkeypatch, spec, 3, ell)
    assert verdicts == [(linear_coefficients(ell), False)]
    assert spans == [prime_field(FAST_PRIME), RATIONALS]
    assert got["rank"] == _oracle_rank(spec, 3, ell, RATIONALS) == 13


def test_form_with_a_zero_coefficient_asks_no_kernel_witness(monkeypatch):
    # the pair needs nonzero weights; at squares (6, 3) such a form still
    # leaves the bound one short of injective, and its rank is read from
    # the span over Q, with no pair built and nothing raised
    drawn = linear_coefficients(random_linear_form(6, 1))
    ell = linear_form([0, *drawn[1:]])
    spec = IdealSpec(n=6, a=2)
    got, spans, verdicts = _map_rank_reads(monkeypatch, spec, 3, ell)
    assert verdicts == []
    assert spans == [prime_field(FAST_PRIME), RATIONALS]
    assert got["rank"] == _oracle_rank(spec, 3, ell, RATIONALS) == 13


def test_kernel_witness_over_a_guard_builds_nothing(monkeypatch):
    # at squares (6, 3) the subsets number C(6, 2) = 15; over the subset
    # guard nothing is built and the rank falls through without raising
    def refuse(params):
        raise AssertionError("a record was built over a guard")

    spec, ell = IdealSpec(n=6, a=2), random_linear_form(6, 1)
    monkeypatch.setattr(witness, "_q_record", refuse)
    monkeypatch.setattr(witness, "_qprime_record", refuse)
    monkeypatch.setattr(witness, "SUBSET_GUARD", 14)
    got, spans, verdicts = _map_rank_reads(monkeypatch, spec, 3, ell)
    assert verdicts == [(linear_coefficients(ell), False)]
    assert spans == [prime_field(FAST_PRIME), RATIONALS]
    assert got["rank"] == 13


@PROPERTY
@given(map_cases())
def test_initial_piece_is_the_full_basis_pivots(case):
    spec, d, _ = case
    full = ideal_degree_basis(spec, d)
    monomials = enumerate_degree_piece(spec.n, d)
    for tag in FIELDS + (prime_field(3),):
        M = RationalMatrix.from_rows(full.entries, cols=full.cols, field_tag=tag)
        pivots = {monomials[c] for c in echelonize(M).pivot_columns}
        assert initial_degree_piece(spec, d, tag) == pivots, tag


@PROPERTY
@given(map_cases())
def test_initial_listing_is_the_sorted_piece(case):
    # initial lists its monomials from one pass over the degree-d exponents
    spec, d, _ = case
    for tag in FIELDS + (prime_field(3), prime_field(5)):
        exps, pivots = _initial_exponents(spec, d, tag)
        ordered = sorted(initial_degree_piece(spec, d, tag), key=revlex_sort_key)
        assert exps == [m.exponents for m in ordered], tag
        assert [_exponent_str(e) for e in exps] == [str(m) for m in ordered], tag
        assert pivots == {e for e in exps if max(e) < spec.a}, tag


@PROPERTY
@given(map_cases())
def test_kernel_dimension_is_rank_deficit(case):
    spec, d, ell = case
    info = multiplication_map_rank(spec, d, ell, mode=RATIONALS)
    assert (len(multiplication_kernel(spec, d, ell))
            == info["dim_below"] - info["rank"])


@PROPERTY
@given(st.integers(2, 5), st.sampled_from((2, 3)),
       st.lists(st.integers(1, 10**6), min_size=1, max_size=2, unique=True),
       st.data())
def test_injectivity_table_and_sweep_agree(n, a, seeds, data):
    records = wlp_sweep(n, a, seeds).records
    assume(len(records) >= a)
    d = data.draw(st.integers(a, min(a + 2, len(records))))
    row = injectivity_threshold_check(a, d, [n], seeds, RATIONALS)[0]
    assert row["rank"] == records[d - 1].map_rank


def _reference_kernel(spec, d, ell):
    """Kernel forms of multiplication by ell into degree d, from the
    Fraction remainders of its products with the standard monomials of
    degree d-1 against the span in degree d."""
    std_b = [m.exponents for m in standard_monomials(spec, d - 1)]
    basis, index, echelon, piv = _span_echelon(spec, d, RATIONALS)
    radix = _radix(spec.a)
    lift = []
    for e in std_b:
        row = [Fraction(0)] * len(basis)
        for m, c in ell.terms:
            j = index.get(_key([x + y for x, y in zip(e, m.exponents)], radix))
            if j is not None:
                row[j] += c
        lift.append(row)
    rems = _fraction_reduce_against(lift, echelon, piv)
    M = RationalMatrix.from_rows(zip(*rems), cols=len(std_b))
    return [form_from_coefficients(
                d - 1, {Monomial(e): x for e, x in zip(std_b, v) if x})
            for v in kernel_basis(M)]


@PROPERTY
@given(map_cases(), st.data())
def test_kernel_matches_fraction_reference(case, data):
    # the remainders come back as integer multiples, each with its own
    # scale, and the kernel must undo the scales of the columns they form;
    # fractional coefficients of ell scale the lift rows too
    spec, d, _ = case
    ell = linear_form([Fraction(data.draw(st.integers(-5, 5)),
                                data.draw(st.integers(1, 6)))
                       for _ in range(spec.n)])
    assert multiplication_kernel(spec, d, ell) == _reference_kernel(spec, d, ell)


# zero, negative and fractional coefficients, and integers large enough for
# the multinomial coefficients to grow
LINEAR_COEFFICIENTS = st.one_of(
    st.just(0), st.integers(-9, 9), st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))


@PROPERTY
@given(st.lists(LINEAR_COEFFICIENTS, min_size=1, max_size=5), st.integers(1, 5))
def test_power_of_linear_form_matches_repeated_products(coeffs, k):
    f = linear_form(coeffs)
    want = f
    for _ in range(k - 1):
        want = multiply_forms(want, f)
    assert form_power(f, k) == want


def test_power_of_zero_linear_form():
    for k in range(1, 5):
        assert form_power(linear_form([0, 0, 0]), k) == Form(k, ())


def _reference_cokernel_spec(spec, ell, field_tag):
    """_cokernel_spec built on Fraction forms: the powers of L by repeated
    products and the substitution x_j = -L/c_j term by term."""
    p = field_tag.characteristic
    coeffs = linear_coefficients(ell) if ell.terms else ()
    j = next((i for i, c in enumerate(coeffs) if (_residue(c, p) if p else c)),
             None)
    if j is None:
        return spec
    if spec.n == 1:
        return IdealSpec(n=1, a=1, extra_forms=())
    a, cj = spec.a, coeffs[j]
    L = linear_form(c for i, c in enumerate(coeffs) if i != j)
    powers = [form_from_coefficients(0, {Monomial((0,) * (spec.n - 1)): 1})]
    for _ in range(a):
        powers.append(multiply_forms(powers[-1], L))
    forms = [powers[a]]
    for f in spec.extra_forms:
        out = {}
        for m, c in f.terms:
            e, rest = m.exponents[j], m.exponents[:j] + m.exponents[j + 1:]
            for mm, cc in powers[e].terms if e < a else ():
                key = Monomial(tuple(x + y for x, y in zip(rest, mm.exponents)))
                out[key] = out.get(key, 0) + c * (-1) ** e * cj ** (a - e) * cc
        forms.append(form_from_coefficients(a, out))
    return IdealSpec(spec.n - 1, a, tuple(forms))


# multiples of 3, 5 and both primes vanish in some field, so the first
# coefficients of ell, or all of them, vanish there; denominators are
# invertible in every field
COKERNEL_COEFFICIENTS = st.one_of(
    st.sampled_from((0, 3, 5, 15, -6, FAST_PRIME, DEFAULT_PRIME)),
    st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 4, 7))))


@st.composite
def cokernel_cases(draw):
    """Default specs, specs with zero to two extra forms of fractional
    coefficients, n = 1 and a = 1."""
    n = draw(st.integers(1, 5))
    a = draw(st.integers(1, 3))
    if draw(st.booleans()):
        spec = IdealSpec(n=n, a=a)
    else:
        degree_a = enumerate_degree_piece(n, a)
        spec = IdealSpec(n=n, a=a, extra_forms=tuple(
            form_from_coefficients(a, {m: draw(COKERNEL_COEFFICIENTS)
                                       for m in degree_a})
            for _ in range(draw(st.integers(0, 2)))))
    ell = linear_form([draw(COKERNEL_COEFFICIENTS) for _ in range(n)])
    return spec, ell


def _record_terms(record, n, radix):
    """The terms of an integer record as (exponents, Fraction) pairs, in
    the record's order."""
    keys, nums, den = record
    out = []
    for key, num in zip(keys, nums):
        exponents = []
        for _ in range(n):
            key, x = divmod(key, radix)
            exponents.append(x)
        assert not key, record
        out.append((tuple(exponents), Fraction(num, den)))
    return out


def _assert_cokernel_matches(spec, ell):
    # the cokernel spec holds its forms as integer records only: term by
    # term, each key must give the reference's exponents and each
    # numerator over the record's one denominator its coefficient, with
    # the record in lowest terms
    for tag in MAP_FIELDS:
        want = _reference_cokernel_spec(spec, ell, tag)
        got = _cokernel_spec(spec, ell, tag)
        if want is spec:
            assert got is spec, tag
            continue
        assert (got.n, got.a) == (want.n, want.a), tag
        assert len(got.records) == len(want.extra_forms), tag
        for record, f in zip(got.records, want.extra_forms):
            _, nums, den = record
            assert den > 0 and gcd(den, *nums) == 1, tag
            assert (_record_terms(record, want.n, _radix(want.a))
                    == [(m.exponents, c) for m, c in f.terms]), tag


@PROPERTY
@given(cokernel_cases())
def test_cokernel_spec_matches_fraction_substitution(case):
    _assert_cokernel_matches(*case)


@pytest.mark.parametrize("n, a, coeffs", [
    (4, 3, [0, 0, 0, 0]),                     # ell = 0 in every field
    (3, 2, [15, 30, -45]),                    # ell = 0 modulo 3 and 5
    (4, 2, [3, 5, 1, 2]),                     # c_1 = 0 modulo 3, c_2 modulo 5
    (3, 3, [FAST_PRIME, DEFAULT_PRIME, 1]),   # c_1, c_2 = 0 modulo each prime
    (5, 2, [Fraction(1, 2), 3, 0, Fraction(-5, 7), 1]),
    (1, 2, [3]),                              # n = 1, ell = 0 modulo 3
])
def test_cokernel_spec_edge_forms(n, a, coeffs):
    _assert_cokernel_matches(IdealSpec(n=n, a=a), linear_form(coeffs))


# Q, two characteristics where coefficients of ell vanish, and one prime of
# each residue dtype
SHAPE_FIELDS = (RATIONALS, prime_field(3), prime_field(5),
                prime_field(FAST_PRIME), prime_field(DEFAULT_PRIME))


@st.composite
def map_shape_cases(draw):
    """Specs of n = 1 to 5 variables, the default one or with zero to two
    extra forms, a field, and ell with no, some or all of its coefficients
    multiples of the characteristic (zero over Q)."""
    n = draw(st.integers(1, 5))
    a = draw(st.integers(1, 3))
    tag = draw(st.sampled_from(SHAPE_FIELDS))
    if draw(st.booleans()):
        spec = IdealSpec(n=n, a=a)
    else:
        degree_a = enumerate_degree_piece(n, a)
        spec = IdealSpec(n=n, a=a, extra_forms=tuple(
            form_from_coefficients(a, {m: draw(st.integers(-3, 3))
                                       for m in degree_a})
            for _ in range(draw(st.integers(0, 2)))))
    vanish = draw(st.sampled_from(("none", "some", "all")))
    coeffs = []
    for _ in range(n):
        if vanish == "all" or (vanish == "some" and draw(st.booleans())):
            coeffs.append(tag.characteristic * draw(st.integers(-2, 2)))
        else:
            coeffs.append(draw(st.integers(-10**6, 10**6)))
    d = draw(st.integers(1, (a - 1) * n + 2))
    return spec, d, linear_form(coeffs), tag


@PROPERTY
@given(map_shape_cases())
def test_map_guard_checks_the_shapes_the_rank_builds(case):
    # the spans of A in degrees d and d-1, where the dimensions of A have
    # no closed form, then that of A/ell A in degree d, in that order;
    # over Q A/ell A is built modulo FAST_PRIME first, and over Q as well
    # when that leaves no maximal rank; where a dimension of A is 0 no
    # span of A/ell A is built, though the guard checks it; a built span
    # has the rows the guard counts, zero rows included
    spec, d, ell, tag = case
    closed = quotient._has_closed_form(spec, tag.characteristic)
    checked, built, cokernel = [], [], []
    with mock.patch.object(quotient, "_guard_cells",
                           lambda what, rows, cols: checked.append((rows, cols))):
        quotient._guard_map(spec.n, spec.a, len(spec.extra_forms), d, ell, tag,
                            closed)

    def record(triplets, nrows, ncols, field_tag):
        built.append((nrows, ncols, field_tag, bool(cokernel)))
        return _from_triplets(triplets, nrows, ncols, field_tag)

    # the cached spans of A keep their own reference to _span_pivots, so
    # only the spans of A/ell A pass through this one
    span = quotient._span_pivots

    def cokernel_span(*args):
        cokernel.append(True)
        try:
            return span(*args)
        finally:
            cokernel.pop()

    _reduce_spec.cache_clear()
    with mock.patch.object(quotient, "_from_triplets", record), \
            mock.patch.object(quotient, "_span_pivots", cokernel_span):
        data = multiplication_map_rank(spec, d, ell, mode=tag)
    full = min(data["dim_below"], data["dim_at"])
    is_cok = [b[3] for b in built]
    assert is_cok == sorted(is_cok)
    assert is_cok.count(False) == (0 if closed else 2)
    if not full:
        assert not any(is_cok)
    if tag.is_rational and any(is_cok):
        # every form here has integer coefficients, so reduces modulo p
        fields = [b[2] for b in built if b[3]]
        assert fields == [prime_field(FAST_PRIME), RATIONALS][:len(fields)]
        assert len(fields) == 2 or data["rank"] == full
        if len(fields) == 2:
            assert built[-2][1] == built[-1][1]
            built.pop(-2)
    if spec.n == 1:
        # A/ell A is k[x_1]/(x_1), with no monomial in degree d >= 1
        assert all(b[:2] == (0, 0) for b in built if b[3])
        built = [b for b in built if not b[3]]
    want = [cols for _, cols in checked]
    assert [cols for _, cols, *_ in built] == (want if full else want[:len(built)])
    assert all(rows == bound for (rows, *_), (bound, _) in zip(built, checked))
