"""Exact kernel certificates for multiplication by a weighted linear form.

Given nonzero weights a_1..a_n, the pair (Q, Q') built here witnesses that
the weighted linear form has a kernel on the degree d-1 piece of the
quotient by all variable squares and the squared variable sum. Q times the
weighted form agrees with Q' times the squared variable sum outside the
squares, so the product lands in the ideal, while Q itself stays out of it.
Both facts are verified exactly, the second by two independent routes.

Both checks run in the square-free basis, where a monomial is keyed by its
support bitmask. Q and Q' are summed on Python ints, from the weights and
the epsilon and psi tables scaled to integers, and each coefficient
becomes one Fraction at the end. The congruence forms only the products
that stay square-free, from Q, Q' and the weights scaled to integers.
Nonmembership is decided twice. Route one is a rank certificate modulo
FAST_PRIME over the 0/1 containment matrix of index sets, with Q's scaled
coefficients as one more column, and falls back to a fraction-free pass
over the same matrix only when the certificate does not fire. Route two
reduces Q fraction-free against the cached forward echelon of the ideal
span through quotient._remainders, the one route by which products are
reduced against a span over Q, so the two routes share no elimination.

Route one's residue array is this module's one use of numpy, which it
imports when it first runs, so importing this module does not load numpy.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb

from .errors import GuardRefusal, InternalFault
from .linalg import FAST_PRIME, _forward_int, _forward_numpy, _integer_row
from .monomials import Monomial
from .quotient import (Form, IdealSpec, _guard_span, _key, _remainders,
                       form_from_coefficients)

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


def _guard_nonmembership(n: int, d: int) -> None:
    """_guard, then the guard on the C(n,d-3) x C(n,d-1) ideal span in
    degree d-1 that route two echelonizes. Route one's array is the
    transpose of its containment matrix with one row more, so a query that
    route two would refuse is refused before Q or either matrix is built."""
    _guard(n, d)
    _guard_span(n, 2, 1, d - 1)


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
    weight product over J times weights[|S meet J|], on integers.

    a and weights are ints, as _integer_row scales them. Splitting J into
    its parts inside and outside S turns the sum into
    sum_t weights[t] e_t(a_S) e_(k-t)(a outside S), so no J is enumerated.
    The sums outside S come from those of all weights, divided by
    (1 + a_i x) for each i in S as power series in x. Yields
    (S, e(a_S), sum), all ints.
    """
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

    With D_a and D_e the lcms of the denominators of the weights and of
    the epsilon table, both scaled to ints by _integer_row, a coefficient
    is summed on ints as D_e D_a^(n-d+1) times its value and becomes one
    Fraction at the end.
    """
    _guard(params.n, params.d)
    n, d = params.n, params.d
    k = n - 2 * d + 2
    a, den_a = _integer_row(params.a_values)
    eps, den = _integer_row(epsilon_table(d).values)
    den *= den_a ** (k + d - 1)
    cmap = {}
    for I, e_in, s in _split_sums(a, _colex_combinations(n, d - 1), k, eps):
        coeff = e_in[d - 1] * s
        if coeff:
            cmap[Monomial.square_free(n, I)] = Fraction(coeff, den)
    return form_from_coefficients(d - 1, cmap)


def build_Qprime(params: WitnessParams) -> Form:
    """Square-free degree d-2 companion form.

    The coefficient on a size d-2 index set K is the psi-weighted sum, over
    all size d-2 index sets L, of the weight product outside L, indexed by
    |K meet L|. The raw sums are scaled by 1/(d-1); with that normalization
    the products in verify_congruence agree exactly.

    The 1/(d-1) is folded into the psi table before it is scaled to ints,
    so, as in build_Q, each coefficient is summed on ints and becomes one
    Fraction at the end.
    """
    _guard(params.n, params.d)
    n, d = params.n, params.d
    k = n - d + 2
    a, den_a = _integer_row(params.a_values)
    # the complement M of L has size n-d+2, and |K meet L| = d-2 - |K meet M|
    psi, den = _integer_row([Fraction(x, d - 1) for x in psi_table(d).values[::-1]])
    den *= den_a ** k
    cmap = {}
    for K, _, s in _split_sums(a, _colex_combinations(n, d - 2), k, psi):
        if s:
            cmap[Monomial.square_free(n, K)] = Fraction(s, den)
    return form_from_coefficients(d - 2, cmap)


def verify_congruence(params: WitnessParams) -> bool:
    """Exact check that the weighted form times Q and Q' times the squared
    variable sum agree after deleting every term divisible by a square."""
    return _congruent(params, build_Q(params), build_Qprime(params))


def _congruent(params: WitnessParams, q: Form, qp: Form) -> bool:
    """The congruence check on integers, keyed by support bitmasks.

    A square-free term of the weighted form times Q comes from a term c of
    Q and a variable x_i outside its support, with coefficient a_i c; one
    of Q' times the squared variable sum comes from a term c of Q' and two
    variables outside its support, with coefficient 2c. Every other
    product holds a square, and a term of Q or Q' that holds one gives
    only such products, so none of them is formed. With D the lcm of the
    denominators of Q, Q' and the weights, both sides are compared times
    D^2, as integers. The _key in radix 2 of a square-free exponent vector
    is its support bitmask.
    """
    nq, nqp = len(q.terms), len(qp.terms)
    ints, den = _integer_row([c for _, c in q.terms + qp.terms]
                             + list(params.a_values))
    bits = [1 << i for i in range(params.n)]
    weights = list(zip(bits, ints[nq + nqp:]))
    lhs: dict[int, int] = {}
    for (m, _), c in zip(q.terms, ints):
        if max(m.exponents) > 1:
            continue
        key = _key(m.exponents, 2)
        for b, w in weights:
            if not key & b:
                lhs[key | b] = lhs.get(key | b, 0) + w * c
    rhs: dict[int, int] = {}
    for (m, _), c in zip(qp.terms, ints[nq:]):
        if max(m.exponents) > 1:
            continue
        key, c = _key(m.exponents, 2), 2 * den * c
        outside = [b for b in bits if not key & b]
        for b1, b2 in itertools.combinations(outside, 2):
            k = key | b1 | b2
            rhs[k] = rhs.get(k, 0) + c
    return ({k: v for k, v in lhs.items() if v}
            == {k: v for k, v in rhs.items() if v})


def _outside_containment_span(params: WitnessParams, q: Form) -> bool:
    """Route one: whether Q is outside the column span of the containment
    matrix W, rows the size d-1 index sets I, columns the size d-3 sets J,
    and entry 1 where J lies inside I.

    Column J is the square-free part of x^J times the squared variable sum,
    halved, so the span is the degree d-1 piece of the ideal in the
    square-free basis. Q's coefficients, times their common denominator,
    form one more column b, and Q lies outside exactly when [W | b] has
    full column rank over Q. Index sets and Q's monomials are keyed by
    their support bitmasks.

    The certificate is a rank modulo FAST_PRIME: the transpose of [W | b]
    is built as an int64 array of residues, straight from the bitmasks,
    and eliminated by linalg._forward_numpy. A rank modulo p never exceeds
    the rank over Q, so a pivot in every one of its rows certifies that Q
    is outside. Only when the certificate does not fire, because Q is a
    member or b is degenerate modulo p, are the integer rows of [W | b]
    built and eliminated fraction-free by linalg._forward_int, and Q is
    outside when b holds a pivot; that pass alone may answer inside.
    """
    import numpy as np

    n, d = params.n, params.d
    qcoeff = {_key(m.exponents, 2): c for m, c in q.terms}
    cols = [sum(1 << j for j in J) for J in _colex_combinations(n, d - 3)]
    keys = [sum(1 << i for i in I) for I in _colex_combinations(n, d - 1)]
    b, _ = _integer_row([qcoeff.get(k, 0) for k in keys])
    ncols = len(cols)
    M = np.empty((ncols + 1, len(keys)), dtype=np.int64)
    masks = np.array(cols, dtype=np.int64)[:, None]
    np.bitwise_and(masks, np.array(keys, dtype=np.int64), out=M[:ncols])
    M[:ncols] = M[:ncols] == masks
    M[ncols] = [x % FAST_PRIME for x in b]
    if len(_forward_numpy(M, FAST_PRIME)) == ncols + 1:
        return True
    del M
    rows = [[1 if mj & k == mj else 0 for mj in cols] + [x]
            for k, x in zip(keys, b)]
    return ncols in _forward_int(rows, ncols + 1)


def _nonzero_in_quotient(params: WitnessParams, q: Form) -> bool:
    """Route two: whether Q, projected onto the capped basis of degree
    d-1, leaves a nonzero remainder against the cached forward echelon of
    the ideal span there (quotient._remainders). A term of Q that holds a
    square is a member of the ideal, and the projection drops it."""
    rems, _ = _remainders(IdealSpec(n=params.n, a=2), params.d - 1, q,
                          [(0,) * params.n])
    return any(rems[0])


def verify_nonmembership(params: WitnessParams) -> bool:
    """Certify that Q is not in the degree d-1 piece of the ideal.

    Route one expresses membership as a containment-matrix column-space
    question over the square-free index sets, and answers outside from a
    full rank modulo FAST_PRIME; only when that certificate does not fire
    does it eliminate fraction-free on integers. Route two reduces Q
    fraction-free against the echelonized ideal span in the quotient and
    looks for a nonzero residual. The routes are independent and must
    agree; a mismatch raises InternalFault.
    """
    _guard_nonmembership(params.n, params.d)
    return _not_in_ideal(params, build_Q(params))


def _not_in_ideal(params: WitnessParams, q: Form) -> bool:
    via_matrix = _outside_containment_span(params, q)
    via_quotient = _nonzero_in_quotient(params, q)
    if via_matrix != via_quotient:
        raise InternalFault(
            "containment-matrix and quotient-echelon nonmembership verdicts "
            f"disagree at n={params.n}, d={params.d}")
    return via_matrix


def random_witness_params(n: int, d: int, seed) -> WitnessParams:
    """Deterministic pseudo-random integer weights in [1, 10^3]."""
    rng = random.Random(f"witness:{n}:{d}:{seed}")
    return WitnessParams(n=n, d=d,
                         a_values=tuple(Fraction(rng.randint(1, 1000))
                                        for _ in range(n)))


def witness_record(params: WitnessParams) -> dict:
    """JSON-ready record: exact coefficient strings plus both verdicts."""
    _guard_nonmembership(params.n, params.d)
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
