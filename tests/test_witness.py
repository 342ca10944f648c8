import contextlib
import itertools
import time
from fractions import Fraction
from math import comb, prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz_kit import linalg, quotient, witness
from lefschetz_kit.errors import GuardRefusal
from lefschetz_kit.linalg import (FAST_FIELD, FAST_PRIME, RATIONALS, _forward_int,
                                  _integer_row)
from lefschetz_kit.monomials import Monomial
from lefschetz_kit.quotient import (
    IdealSpec,
    _form_record,
    form_from_coefficients,
    form_power,
    linear_form,
    multiplication_kernel,
    multiplication_map_rank,
    multiply_forms,
    variable_sum,
)
from lefschetz_kit.witness import (
    SumKind,
    WitnessParams,
    _congruent,
    _kernel_certified,
    _nonzero_in_quotient,
    _null_designs,
    _outside_containment_span,
    _q_record,
    _qprime_record,
    _subset_sums,
    build_Q,
    build_Qprime,
    epsilon_table,
    psi_table,
    random_witness_params,
    subset_sum_check,
    verify_congruence,
    verify_nonmembership,
    witness_record,
)

PRIMES_6 = tuple(Fraction(v) for v in (2, 3, 5, 7, 11, 13))
PARAMS_6_3 = WitnessParams(n=6, d=3, a_values=PRIMES_6)


def test_epsilon_table_values():
    assert epsilon_table(3).values == (1, Fraction(-1, 2), 1)
    assert epsilon_table(4).values == (1, Fraction(-1, 3), Fraction(1, 3), -1)
    with pytest.raises(ValueError):
        epsilon_table(2)


def test_epsilon_recurrence():
    for d in range(3, 10):
        vals = epsilon_table(d).values
        assert len(vals) == d
        assert vals[0] == 1
        for t in range(1, d):
            assert (d - t) * vals[t] + t * vals[t - 1] == 0


def test_psi_table_values():
    assert psi_table(4).values == (1, -1, 3)
    assert psi_table(3).values == (1, -2)
    with pytest.raises(ValueError):
        psi_table(2)


def test_psi_recurrence():
    for d in range(3, 10):
        vals = psi_table(d).values
        assert len(vals) == d - 1
        assert vals[0] == 1 and vals[1] == Fraction(-2, d - 2)
        for t in range(2, d - 1):
            assert comb(d - t, 2) * vals[t] + t * (d - t) * vals[t - 1] \
                + comb(t, 2) * vals[t - 2] == 0


def test_subset_sums_exhaustive_window():
    for d in (3, 4):
        for n in range(2 * d - 2, 3 * d - 2):
            assert subset_sum_check(SumKind.EPSILON, d, n, trials=5, seed=0)
            assert subset_sum_check(SumKind.PSI, d, n, trials=5, seed=0)


def test_subset_sums_sampled():
    assert subset_sum_check(SumKind.EPSILON, 4, 9, trials=40, seed=5)
    assert subset_sum_check(SumKind.PSI, 4, 9, trials=40, seed=5)
    assert subset_sum_check(SumKind.EPSILON, 6, 12, trials=10, seed=1)


def test_subset_sum_validation():
    with pytest.raises(ValueError):
        subset_sum_check(SumKind.EPSILON, 2, 4, trials=1, seed=0)
    with pytest.raises(ValueError):
        subset_sum_check(SumKind.EPSILON, 4, 12, trials=1, seed=0)
    with pytest.raises(ValueError):
        subset_sum_check(SumKind.EPSILON, 4, 9, trials=0, seed=0)


def test_params_validation():
    ones = (Fraction(1),) * 6
    with pytest.raises(ValueError):
        WitnessParams(n=6, d=2, a_values=ones)
    with pytest.raises(ValueError):
        WitnessParams(n=7, d=3, a_values=(Fraction(1),) * 7)  # needs n < 7
    with pytest.raises(ValueError):
        WitnessParams(n=3, d=3, a_values=(Fraction(1),) * 3)  # needs n >= 4
    with pytest.raises(ValueError):
        WitnessParams(n=6, d=3, a_values=ones[:5])
    with pytest.raises(ValueError):
        WitnessParams(n=6, d=3, a_values=(0,) + ones[:5])


def test_builders_shapes():
    q = build_Q(PARAMS_6_3)
    qp = build_Qprime(PARAMS_6_3)
    assert q.degree == 2 and qp.degree == 1
    assert all(max(m.exponents) <= 1 for m, _ in q.terms)
    assert q.nvars == 6


def test_congruence_and_nonmembership():
    assert verify_congruence(PARAMS_6_3)
    assert verify_nonmembership(PARAMS_6_3)


def test_equal_weights_degenerate():
    # with all weights equal the witness collapses into the ideal
    params = WitnessParams(n=6, d=3, a_values=(Fraction(1),) * 6)
    assert verify_congruence(params)
    assert not verify_nonmembership(params)


def test_witness_is_a_kernel_element():
    ell = linear_form(PARAMS_6_3.a_values)
    spec = IdealSpec(n=6, a=2)
    data = multiplication_map_rank(spec, 3, ell)
    assert data["dim_below"] - data["rank"] == 1
    kernel = multiplication_kernel(spec, 3, ell)
    assert len(kernel) == 1


def test_witness_record():
    record = witness_record(random_witness_params(8, 4, seed=3))
    assert record["n"] == 8 and record["d"] == 4
    assert record["congruence_ok"] is True
    assert record["nonmembership_ok"] is True
    assert len(record["a_values"]) == 8
    assert all(isinstance(v, str) for v in record["a_values"])
    exps, coeff = record["Q_terms"][0]
    assert len(exps) == 8 and isinstance(coeff, str)


def test_random_params_deterministic():
    p1 = random_witness_params(6, 3, seed=1)
    assert p1 == random_witness_params(6, 3, seed=1)
    assert p1 != random_witness_params(6, 3, seed=2)
    assert all(1 <= v <= 1000 for v in p1.a_values)


def test_guard_refusal_on_huge_subsets():
    params = WitnessParams(n=24, d=13,
                           a_values=tuple(Fraction(v) for v in range(1, 25)))
    with pytest.raises(GuardRefusal):
        build_Q(params)
    with pytest.raises(GuardRefusal):
        verify_nonmembership(params)
    # C(18,6) subsets pass, but the 3060 x 18564 ideal span that
    # nonmembership reduces against is refused before Q is built
    params = random_witness_params(18, 7, 1)
    builders = ("build_Q", "build_Qprime", "_q_record", "_qprime_record",
                "_subset_sums")
    with contextlib.ExitStack() as stack:
        built = [stack.enter_context(mock.patch.object(witness, name))
                 for name in builders]
        for check in (verify_nonmembership, witness_record):
            with pytest.raises(GuardRefusal, match="3060 x 18564"):
                check(params)
    assert not any(build.called for build in built)


def _brute_force_forms(params):
    """Q and Q' summed over every pair of index sets, as defined."""
    n, d, a = params.n, params.d, params.a_values
    eps, psi = epsilon_table(d).values, psi_table(d).values

    def weight(idx):
        return prod((a[i] for i in idx), start=Fraction(1))

    q = {}
    for I in itertools.combinations(range(n), d - 1):
        q[Monomial.square_free(n, I)] = weight(I) * sum(
            weight(J) * eps[len(set(I) & set(J))]
            for J in itertools.combinations(range(n), n - 2 * d + 2))
    qp = {}
    for K in itertools.combinations(range(n), d - 2):
        qp[Monomial.square_free(n, K)] = Fraction(1, d - 1) * sum(
            weight(range(n)) / weight(L) * psi[len(set(K) & set(L))]
            for L in itertools.combinations(range(n), d - 2))
    return form_from_coefficients(d - 1, q), form_from_coefficients(d - 2, qp)


@pytest.mark.parametrize("n,d", [(4, 3), (5, 3), (6, 3), (6, 4), (7, 4),
                                 (8, 4), (9, 4), (8, 5), (9, 5)])
@pytest.mark.parametrize("weights", ["integer", "signed", "fractional", "equal"])
def test_builders_match_subset_sums(n, d, weights):
    values = {
        "integer": [3 * i + 2 for i in range(n)],
        "signed": [(-1) ** i * (i + 1) for i in range(n)],
        "fractional": [Fraction((-1) ** i * (2 * i + 1), i % 4 + 2)
                       for i in range(n)],
        "equal": [Fraction(-5, 3)] * n,
    }[weights]
    params = WitnessParams(n=n, d=d, a_values=tuple(values))
    q, qp = _brute_force_forms(params)
    assert (build_Q(params), build_Qprime(params)) == (q, qp)
    # the records are those of the forms, keyed in radix 4 and in lowest
    # terms, so route two reads them as it reads any form's record
    assert (_q_record(params), _qprime_record(params)) \
        == (_form_record(q, 2), _form_record(qp, 2))


@pytest.mark.parametrize("n", range(0, 8))
def test_colex_keys_are_the_subsets_in_colex_order(n):
    # the walk of _subset_sums reaches the subsets of each size in colex
    # order, which is ascending key order, the order of a record's keys
    for k in range(n + 1):
        subsets = sorted(itertools.combinations(range(n), k),
                         key=lambda c: tuple(reversed(c)))
        keys = [key for key, _, _ in _subset_sums(list(range(2, n + 2)), k, 1, [1, 1])]
        assert keys == [sum(4**i for i in c) for c in subsets]
        assert keys == sorted(keys)


PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)

WEIGHTS = st.one_of(
    st.integers(1, 1000),
    st.integers(-1000, -1),
    st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(2, 12)))


@st.composite
def witness_sizes(draw):
    d = draw(st.integers(3, 6))
    n = draw(st.integers(2 * d - 2, min(3 * d - 3, 10)))
    return n, d


@st.composite
def witness_params(draw):
    n, d = draw(witness_sizes())
    return WitnessParams(n=n, d=d, a_values=tuple(
        draw(st.lists(WEIGHTS, min_size=n, max_size=n))))


def _reference_congruent(params, q, qp):
    """The congruence check on full products, with every term that holds a
    square dropped afterwards."""
    lhs = multiply_forms(linear_form(params.a_values), q)
    rhs = multiply_forms(qp, form_power(variable_sum(params.n), 2))

    def square_free_part(f):
        return {m.exponents: c for m, c in f.terms if max(m.exponents) <= 1}

    return square_free_part(lhs) == square_free_part(rhs)


def _corrupt(form, index, delta):
    """form with delta added to the coefficient of its index-th term."""
    coeffs = dict(form.terms)
    m = form.terms[index % len(form.terms)][0]
    coeffs[m] += delta
    return form_from_coefficients(form.degree, coeffs)


def _record(form):
    """The record of a form keyed in radix 4, as route two reads records
    and the builders key theirs; a term that holds a square keeps its key,
    with a digit 2."""
    return _form_record(form, 2)


@PROPERTY
@given(witness_params(), st.integers(0, 10**4), WEIGHTS)
def test_congruence_matches_full_products(params, index, delta):
    q, qp = build_Q(params), build_Qprime(params)
    rq, rqp = _q_record(params), _qprime_record(params)
    assert _congruent(params, rq, rqp)
    assert _reference_congruent(params, q, qp)
    # a_i times the change shows at every x_i outside the corrupted term of
    # Q, and twice the change at every pair outside that of Q'
    if q.terms:
        bad = _corrupt(q, index, delta)
        assert not _congruent(params, _record(bad), rqp)
        assert not _reference_congruent(params, bad, qp)
    if qp.terms:
        bad = _corrupt(qp, index, delta)
        assert not _congruent(params, rq, _record(bad))
        assert not _reference_congruent(params, q, bad)


def _plus_term(form, exponents, coeff):
    """form with coeff times the monomial of these exponents added."""
    coeffs = dict(form.terms)
    m = Monomial(exponents)
    coeffs[m] = coeffs.get(m, 0) + coeff
    return form_from_coefficients(form.degree, coeffs)


X1_SQUARED_X2 = (2, 1, 0, 0, 0, 0, 0, 0)
X1_SQUARED = (2, 0, 0, 0, 0, 0, 0, 0)


def test_congruence_skips_terms_that_hold_a_square():
    # every product of such a term holds a square, so it changes neither
    # side of the congruence
    params = random_witness_params(8, 4, 1)
    q, qp = build_Q(params), build_Qprime(params)
    rq, rqp = _record(q), _record(qp)
    with_square = _record(_plus_term(q, X1_SQUARED_X2, Fraction(7, 3)))
    assert _congruent(params, with_square, rqp)
    assert len(with_square[0]) == len(rq[0]) + 1
    with_square = _record(_plus_term(qp, X1_SQUARED, Fraction(-5, 11)))
    assert _congruent(params, rq, with_square)
    assert len(with_square[0]) == len(rqp[0]) + 1


def test_route_two_drops_terms_that_hold_a_square():
    # such a term is a member of the ideal, and route two projects it away
    # before it reduces, as it does every product of a span
    params = random_witness_params(8, 4, 1)
    q = build_Q(params)
    assert _nonzero_in_quotient(
        params, _record(_plus_term(q, X1_SQUARED_X2, Fraction(7, 3))))
    alone = form_from_coefficients(3, {Monomial(X1_SQUARED_X2): Fraction(7, 3)})
    assert not _nonzero_in_quotient(params, _record(alone))


def _ideal_member(n, d, multipliers):
    """Square-free part of 2 e_2 times sum c x^J, the (J, c) pairs given,
    where e_2 is the sum of all x_i x_j with i < j: the square-free part
    of the squared variable sum times the same combination."""
    coeffs: dict = {}
    for J, c in multipliers:
        outside = [i for i in range(n) if i not in J]
        for i, j in itertools.combinations(outside, 2):
            m = Monomial.square_free(n, sorted(J + (i, j)))
            coeffs[m] = coeffs.get(m, 0) + 2 * c
    return form_from_coefficients(d - 1, coeffs)


def test_witness_record_at_degree_six():
    record = witness_record(random_witness_params(13, 6, 1))
    assert record["congruence_ok"] is True
    assert record["nonmembership_ok"] is True


def test_witness_record_at_degree_seven():
    start = time.monotonic()
    record = witness_record(random_witness_params(13, 7, 1))
    elapsed = time.monotonic() - start
    assert record["congruence_ok"] is True
    assert record["nonmembership_ok"] is True
    assert elapsed < 20, elapsed


def _reference_outside(params, q):
    """Route one without its certificate: whether the column of Q's scaled
    coefficients holds a pivot of the fraction-free forward pass over the
    integer rows of the containment matrix, built from index sets."""
    n, d = params.n, params.d
    coeffs = dict(q.terms)
    row_sets = list(itertools.combinations(range(n), d - 1))
    col_sets = [set(J) for J in itertools.combinations(range(n), d - 3)]
    b, _ = _integer_row([coeffs.get(Monomial.square_free(n, I), 0)
                         for I in row_sets])
    rows = [[int(J <= set(I)) for J in col_sets] + [x]
            for I, x in zip(row_sets, b)]
    return len(col_sets) in _forward_int(rows, len(col_sets) + 1)


def _route_two_fields(params, q):
    """Route two's verdict on a record and the fields it took the rank of
    [S; Q] in (quotient._outside_span), in order."""
    with mock.patch.object(witness, "_outside_span",
                           wraps=quotient._outside_span) as spy:
        verdict = _nonzero_in_quotient(params, q)
    return verdict, [call.args[3] for call in spy.call_args_list]


def _refuse_elimination(*args):
    raise AssertionError("an elimination ran")


def _route_one_checked(params, q):
    """Route one's verdict on the record of the form q, taken with both
    elimination kernels refused, once the fraction-free reference on q and
    route two have agreed with it, and whether route two took its rank
    over Q."""
    with mock.patch.object(linalg, "_forward_int", _refuse_elimination), \
            mock.patch.object(linalg, "_forward_numpy", _refuse_elimination):
        verdict = _outside_containment_span(params, _record(q))
    assert _reference_outside(params, q) is verdict
    two, fields = _route_two_fields(params, _record(q))
    assert two is verdict
    return verdict, RATIONALS in fields


@PROPERTY
@given(witness_sizes(), st.data())
def test_nonmembership_routes_agree_on_ideal_members(size, data):
    n, d = size
    params = random_witness_params(n, d, 1)
    subsets = list(itertools.combinations(range(n), d - 3))
    multipliers = data.draw(st.lists(
        st.tuples(st.sampled_from(subsets), WEIGHTS), min_size=1, max_size=4))
    member = _ideal_member(n, d, multipliers)
    # every null design sums to 0 on a member, so route one says inside
    # with no elimination, and route two only by its rank over Q
    assert _route_one_checked(params, member) == (False, True)
    # the ideal is symmetric and misses part of degree d-1, so it holds no
    # monomial of that degree, and a member plus a multiple of one is
    # outside it. Plus FAST_PRIME times one it is a member modulo
    # FAST_PRIME, so route two's certificate cannot fire and its rank over
    # Q answers
    extra = data.draw(st.sampled_from(list(itertools.combinations(range(n), d - 1))))
    m = Monomial.square_free(n, extra)
    for shift in (1, FAST_PRIME):
        coeffs = dict(member.terms)
        coeffs[m] = coeffs.get(m, 0) + shift
        verdict, route_two_fell_back = _route_one_checked(
            params, form_from_coefficients(d - 1, coeffs))
        assert verdict is True
        assert route_two_fell_back is (shift == FAST_PRIME)
    drawn = data.draw(witness_params())
    _route_one_checked(drawn, build_Q(drawn))


@pytest.mark.parametrize("n,d", [(6, 3), (9, 4), (12, 5), (16, 7)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_genuine_witness_needs_no_fraction_free_pass(n, d, seed):
    # route one's first null design certifies a genuine witness with no
    # elimination of any kind, and so does the check behind map ranks
    params = random_witness_params(n, d, seed)
    q = _q_record(params)
    coeff = dict(zip(q[0], q[1]))
    assert sum(c * coeff.get(key, 0) for key, c in next(_null_designs(n, d)))
    with mock.patch.object(linalg, "_forward_int", _refuse_elimination), \
            mock.patch.object(linalg, "_forward_numpy", _refuse_elimination):
        assert _outside_containment_span(params, q) is True
        assert _kernel_certified(params) is True


@pytest.mark.parametrize("n,d", [(n, d) for d in range(3, 7)
                                 for n in range(2 * d - 2, min(3 * d - 2, 11))])
def test_null_design_vanishes_on_every_containment_column(n, d):
    # every witness cell with n <= 10: the null designs are
    # C(n, d-1) - C(n, d-3) vectors on distinct square-free index sets of
    # size d-1, each summing to 0 over the sets that contain any (d-3)-set
    # J, the column of J in the containment matrix W, and of full rank
    # modulo FAST_PRIME, so they are a basis of W's left null space
    designs = list(_null_designs(n, d))
    assert len(designs) == comb(n, d - 1) - comb(n, d - 3)
    subsets = [sum(1 << 2 * i for i in I)
               for I in itertools.combinations(range(n), d - 1)]
    column = {key: c for c, key in enumerate(subsets)}
    for design in designs:
        assert len(dict(design)) == len(design)
        for J in itertools.combinations(range(n), d - 3):
            bits = sum(1 << 2 * i for i in J)
            assert sum(c for key, c in design if key & bits == bits) == 0, J
    triplets = [(row, column[key], c % FAST_PRIME)
                for row, design in enumerate(designs) for key, c in design]
    M = linalg._from_triplets([list(part) for part in zip(*triplets)],
                              len(designs), len(subsets), FAST_FIELD)
    assert len(linalg._pivots(M, len(subsets), FAST_FIELD)) == len(designs)
    # the first is the pod of the pairs {x_1, x_2}, ..., {x_(2d-3), x_(2d-2)}
    pod = itertools.product(*[((2 * j, 1), (2 * j + 1, -1)) for j in range(d - 1)])
    assert sorted(designs[0]) == sorted(
        (sum(1 << 2 * i for i, _ in choice), prod(c for _, c in choice))
        for choice in pod)


@pytest.mark.parametrize("n,d", [(6, 3), (9, 4), (12, 5)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_genuine_witness_needs_no_fraction_free_route_two(n, d, seed):
    # the rank modulo FAST_PRIME certifies a genuine witness, so route two
    # takes no rank over Q
    params = random_witness_params(n, d, seed)
    assert _route_two_fields(params, _q_record(params)) == (True, [FAST_FIELD])


def test_route_two_eliminates_modulo_the_fast_prime():
    # route two's certificate is the one elimination modulo a prime of a
    # genuine witness's nonmembership check; route one's eliminates nothing
    primes = []
    kernel = linalg._forward_numpy

    def forward(M, p):
        primes.append(p)
        return kernel(M, p)

    for n, d in ((6, 3), (9, 4), (12, 5)):
        params = random_witness_params(n, d, 1)
        with mock.patch.object(linalg, "_forward_numpy", forward):
            assert verify_nonmembership(params) is True
    assert primes == [FAST_PRIME] * 3


def test_fast_prime_in_a_denominator_falls_back():
    # a weight of 1/FAST_PRIME leaves FAST_PRIME in Q's denominator, so
    # route two's certificate cannot reduce Q's row and must fall back to
    # the rank over Q, not raise; route one reads Q's numerators on ints
    # and certifies with no elimination
    params = WitnessParams(n=6, d=3, a_values=(Fraction(1, FAST_PRIME),)
                           + PRIMES_6[1:])
    q = _q_record(params)
    assert q[2] % FAST_PRIME == 0
    spec = IdealSpec(n=6, a=2)
    assert quotient._outside_span(spec, 2, q, FAST_FIELD) is False
    assert quotient._outside_span(spec, 2, q, RATIONALS) is True
    assert _route_two_fields(params, q) == (True, [FAST_FIELD, RATIONALS])
    with mock.patch.object(linalg, "_forward_int", _refuse_elimination):
        assert _outside_containment_span(params, q) is True
        assert _kernel_certified(params) is True
    assert verify_nonmembership(params)


def test_route_two_answers_outside_at_one_more_than_the_span_rank():
    # route two answers outside exactly when [S; Q] has rank rank_Q(S) + 1:
    # a member leaves the rank of S, in both fields, so a target of
    # rank_Q(S), or any rank from it up, would put it outside; a genuine
    # witness adds one in both fields; and a Q with FAST_PRIME in its
    # denominator builds no array modulo p, where the answer is False, and
    # is outside over Q
    spec = IdealSpec(n=9, a=2)
    member = _record(_ideal_member(9, 4, [((0,), 3), ((4,), Fraction(-5, 2))]))
    genuine = _q_record(random_witness_params(9, 4, 1))
    unlucky = _q_record(WitnessParams(n=9, d=4, a_values=(
        Fraction(1, FAST_PRIME), *range(2, 10))))
    assert unlucky[2] % FAST_PRIME == 0
    for q, want in ((member, (False, False)), (genuine, (True, True)),
                    (unlucky, (False, True))):
        assert tuple(quotient._outside_span(spec, 3, q, tag)
                     for tag in (FAST_FIELD, RATIONALS)) == want


def test_records_build_no_form_or_monomial():
    # the checks and the report read the records alone; only build_Q and
    # build_Qprime wrap them as Forms
    def refuse(*args, **kwargs):
        raise AssertionError("a Form or Monomial was built")

    params = random_witness_params(9, 4, 2)
    want = witness_record(params)
    with mock.patch.object(witness, "Form", refuse), \
            mock.patch.object(witness, "Monomial", refuse):
        assert witness_record(params) == want
        assert verify_congruence(params) and verify_nonmembership(params)
    # the report is the one the Forms give
    assert want["Q_terms"] == [[list(m.exponents), str(c)]
                               for m, c in build_Q(params).terms]
    assert want["Qprime_terms"] == [[list(m.exponents), str(c)]
                                    for m, c in build_Qprime(params).terms]
