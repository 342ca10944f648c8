"""Exact kernel certificates for multiplication by a weighted linear form.

Given nonzero weights a_1..a_n, the pair (Q, Q') built here witnesses that
the weighted linear form has a kernel on the degree d-1 piece of the
quotient by all variable squares and the squared variable sum. Q times the
weighted form agrees with Q' times the squared variable sum outside the
squares, so the product lands in the ideal, while Q itself stays out of it.
Both facts are verified exactly, the second by two independent routes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb

from .errors import GuardRefusal, InternalFault
from .linalg import RATIONALS, RationalMatrix, _reduce_against, in_column_space
from .monomials import Monomial
from .quotient import (Form, IdealSpec, _key, _radix, _reduce_spec,
                       form_from_coefficients, form_power, linear_form,
                       multiply_forms, variable_sum)

SUBSET_GUARD = 10**6


@dataclass(frozen=True)
class WitnessParams:
    """Inputs for one witness pair: sizes n and d plus the nonzero weights."""

    n: int
    d: int
    a_values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_values",
                           tuple(Fraction(v) for v in self.a_values))
        if self.d <= 2:
            raise ValueError("d must be greater than 2")
        if self.n >= 3 * self.d - 2:
            raise ValueError("need n < 3d-2")
        if self.n < 2 * self.d - 2:
            raise ValueError("need n >= 2d-2 so the weight subsets exist")
        if len(self.a_values) != self.n:
            raise ValueError("need one weight per variable")
        if any(v == 0 for v in self.a_values):
            raise ValueError("weights must be nonzero")


@dataclass(frozen=True)
class EpsilonTable:
    d: int
    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class PsiTable:
    d: int
    values: tuple[Fraction, ...]


def epsilon_table(d: int) -> EpsilonTable:
    """Values e(0)..e(d-1) solving (d-t) e(t) + t e(t-1) = 0 with e(0) = 1."""
    if d <= 2:
        raise ValueError("d must be greater than 2")
    vals = [Fraction(1)]
    for t in range(1, d):
        vals.append(Fraction(-t, d - t) * vals[t - 1])
    return EpsilonTable(d=d, values=tuple(vals))


def psi_table(d: int) -> PsiTable:
    """Values p(0)..p(d-2) from p(0) = 1, p(1) = -2/(d-2) and the recurrence
    C(d-t,2) p(t) + t(d-t) p(t-1) + C(t,2) p(t-2) = 0."""
    if d <= 2:
        raise ValueError("d must be greater than 2")
    vals = [Fraction(1), Fraction(-2, d - 2)]
    for t in range(2, d - 1):
        num = t * (d - t) * vals[t - 1] + comb(t, 2) * vals[t - 2]
        vals.append(Fraction(-num, comb(d - t, 2)))
    return PsiTable(d=d, values=tuple(vals))


class SumKind(Enum):
    EPSILON = "epsilon"
    PSI = "psi"


def subset_sum_check(kind: SumKind, d: int, n: int, trials: int, seed) -> bool:
    """Check the disjointness-detecting subset sums.

    With a size-d index set I and a second set J of size n-2d+2, the epsilon
    sum over i in I of e(|(I minus i) meet J|) equals d when I and J are
    disjoint and 0 otherwise. The psi sum runs over pairs in I against a set
    of size d-2 and targets C(d,2) or 0. Small cases are checked
    exhaustively, larger ones on seeded random pairs with one engineered
    disjoint pair included.
    """
    if d <= 2:
        raise ValueError("d must be greater than 2")
    if not 2 * d - 2 <= n < 3 * d - 2:
        raise ValueError("need 2d-2 <= n < 3d-2")
    if trials < 1:
        raise ValueError("need at least one trial")
    eps = epsilon_table(d).values
    psi = psi_table(d).values
    other = n - 2 * d + 2 if kind is SumKind.EPSILON else d - 2

    def holds(I, J):
        si, sj = set(I), set(J)
        if kind is SumKind.EPSILON:
            s = sum(eps[len((si - {i}) & sj)] for i in I)
            want = d if not si & sj else 0
        else:
            s = sum(psi[len((si - {u, v}) & sj)]
                    for u, v in itertools.combinations(I, 2))
            want = comb(d, 2) if not si & sj else 0
        return s == want

    if comb(n, d) * comb(n, other) <= 20000:
        pairs = itertools.product(itertools.combinations(range(n), d),
                                  itertools.combinations(range(n), other))
        return all(holds(I, J) for I, J in pairs)
    rng = random.Random(f"subset-sum:{kind.value}:{d}:{n}:{seed}")
    if d + other <= n:
        if not holds(tuple(range(d)), tuple(range(d, d + other))):
            return False
    for _ in range(trials):
        I = tuple(sorted(rng.sample(range(n), d)))
        J = tuple(sorted(rng.sample(range(n), other)))
        if not holds(I, J):
            return False
    return True


def _guard(n: int, d: int) -> None:
    if comb(n, d - 1) > SUBSET_GUARD:
        raise GuardRefusal(
            f"C({n},{d - 1}) = {comb(n, d - 1)} exceeds the subset guard {SUBSET_GUARD}")


def _elementary(values, k: int) -> list:
    """Elementary symmetric sums e_0..e_k of values."""
    e = [1] + [0] * k
    for v in values:
        for t in range(k, 0, -1):
            e[t] += v * e[t - 1]
    return e


def _colex_combinations(n: int, k: int) -> list[tuple[int, ...]]:
    return sorted(itertools.combinations(range(n), k),
                  key=lambda c: tuple(reversed(c)))


def _split_sums(a, index_sets, k: int, weights):
    """For each index set S, the sum over all size-k index sets J of the
    weight product over J times weights[|S meet J|].

    Splitting J into its parts inside and outside S turns the sum into
    sum_t weights[t] e_t(a_S) e_(k-t)(a outside S), so no J is enumerated.
    The sums outside S come from those of all weights, divided by
    (1 + a_i x) for each i in S as power series in x. Yields
    (S, e(a_S), sum).
    """
    # integral weights as ints, so that only the final sums are Fractions
    a = [v.numerator if v.denominator == 1 else v for v in a]
    e_all = _elementary(a, k)
    for S in index_sets:
        e_in = _elementary((a[i] for i in S), len(S))
        e_out = list(e_all)
        for i in S:
            for t in range(1, k + 1):
                e_out[t] -= a[i] * e_out[t - 1]
        yield S, e_in, sum(weights[t] * e_in[t] * e_out[k - t]
                           for t in range(min(k, len(S)) + 1))


def build_Q(params: WitnessParams) -> Form:
    """Square-free degree d-1 form whose coefficients are weighted sums.

    The coefficient of the monomial on a size d-1 index set I is the weight
    product over I times the epsilon-weighted sum of weight products over
    all index sets of size n-2d+2.
    """
    _guard(params.n, params.d)
    n, d = params.n, params.d
    eps = epsilon_table(d).values
    cmap = {}
    for I, e_in, s in _split_sums(params.a_values, _colex_combinations(n, d - 1),
                                  n - 2 * d + 2, eps):
        coeff = e_in[d - 1] * s
        if coeff:
            cmap[Monomial.square_free(n, I)] = coeff
    return form_from_coefficients(d - 1, cmap)


def build_Qprime(params: WitnessParams) -> Form:
    """Square-free degree d-2 companion form.

    The coefficient on a size d-2 index set K is the psi-weighted sum, over
    all size d-2 index sets L, of the weight product outside L, indexed by
    |K meet L|. The raw sums are scaled by 1/(d-1); with that normalization
    the products in verify_congruence agree exactly.
    """
    _guard(params.n, params.d)
    n, d = params.n, params.d
    psi = psi_table(d).values
    scale = Fraction(1, d - 1)
    # the complement M of L has size n-d+2, and |K meet L| = d-2 - |K meet M|
    weights = psi[::-1]
    cmap = {}
    for K, _, s in _split_sums(params.a_values, _colex_combinations(n, d - 2),
                               n - d + 2, weights):
        coeff = s * scale
        if coeff:
            cmap[Monomial.square_free(n, K)] = coeff
    return form_from_coefficients(d - 2, cmap)


def _square_free_part(f: Form) -> dict:
    return {m.exponents: c for m, c in f.terms if max(m.exponents) <= 1}


def verify_congruence(params: WitnessParams) -> bool:
    """Exact check that the weighted form times Q and Q' times the squared
    variable sum agree after deleting every term divisible by a square."""
    return _congruent(params, build_Q(params), build_Qprime(params))


def _congruent(params: WitnessParams, q: Form, qp: Form) -> bool:
    ell = linear_form(params.a_values)
    lhs = multiply_forms(ell, q)
    rhs = multiply_forms(qp, form_power(variable_sum(params.n), 2))
    return _square_free_part(lhs) == _square_free_part(rhs)


def _nonzero_in_quotient(params: WitnessParams, q: Form) -> bool:
    spec = IdealSpec(n=params.n, a=2)
    basis, index, echelon, piv = _reduce_spec(spec, params.d - 1, RATIONALS)
    radix = _radix(spec)
    vec = [Fraction(0)] * len(basis)
    for m, c in q.terms:
        vec[index[_key(m.exponents, radix)]] = c
    return any(_reduce_against([vec], echelon, piv)[0])


def verify_nonmembership(params: WitnessParams) -> bool:
    """Certify that Q is not in the degree d-1 piece of the ideal.

    Route one expresses membership as a containment-matrix column-space
    question over the square-free index sets. Route two reduces Q against
    the echelonized ideal span in the quotient and looks for a nonzero
    residual. The routes are independent and must agree; a mismatch raises
    InternalFault.
    """
    _guard(params.n, params.d)
    return _not_in_ideal(params, build_Q(params))


def _not_in_ideal(params: WitnessParams, q: Form) -> bool:
    n, d = params.n, params.d
    qcoeff = {m.exponents: c for m, c in q.terms}
    cols_idx = _colex_combinations(n, d - 3)
    rows = []
    b = []
    for I in _colex_combinations(n, d - 1):
        si = set(I)
        rows.append([1 if set(J) <= si else 0 for J in cols_idx])
        b.append(qcoeff.get(tuple(1 if i in si else 0 for i in range(n)),
                            Fraction(0)))
    C = RationalMatrix.from_rows(rows, cols=len(cols_idx), field_tag=RATIONALS)
    via_matrix = not in_column_space(C, b)
    via_quotient = _nonzero_in_quotient(params, q)
    if via_matrix != via_quotient:
        raise InternalFault(
            "containment-matrix and quotient-echelon nonmembership verdicts "
            f"disagree at n={n}, d={d}")
    return via_matrix


def random_witness_params(n: int, d: int, seed) -> WitnessParams:
    """Deterministic pseudo-random integer weights in [1, 10^3]."""
    rng = random.Random(f"witness:{n}:{d}:{seed}")
    return WitnessParams(n=n, d=d,
                         a_values=tuple(Fraction(rng.randint(1, 1000))
                                        for _ in range(n)))


def witness_record(params: WitnessParams) -> dict:
    """JSON-ready record: exact coefficient strings plus both verdicts."""
    q = build_Q(params)
    qp = build_Qprime(params)
    return {
        "n": params.n,
        "d": params.d,
        "a_values": [str(v) for v in params.a_values],
        "Q_terms": [[list(m.exponents), str(c)] for m, c in q.terms],
        "Qprime_terms": [[list(m.exponents), str(c)] for m, c in qp.terms],
        "congruence_ok": _congruent(params, q, qp),
        "nonmembership_ok": _not_in_ideal(params, q),
    }
