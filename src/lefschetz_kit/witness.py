"""Exact kernel certificates for multiplication by a weighted linear form.

Given nonzero weights a_1..a_n, the pair (Q, Q') built here witnesses that
the weighted linear form has a kernel on the degree d-1 piece of the
quotient by all variable squares and the squared variable sum. Q times the
weighted form agrees with Q' times the squared variable sum outside the
squares, so the product lands in the ideal, while Q itself stays out of it.
Both facts are verified exactly, the second by two independent routes.

Q and Q' are built and checked as integer records (keys, nums, den), never
as Forms: the support of each term as a bitmask with variable i at bit 2i,
which is the _key of its exponent vector in radix 4, as in the spans of
quotient with exponent 2; the terms in colex order of their supports,
which is ascending key order and, for square-free monomials of one
degree, revlex descending; their integer numerators; and one positive
denominator, in lowest terms, with no zero term. Each record comes from
one walk of the colex tree of supports (_subset_sums): adding a variable
to a support multiplies the elementary sums of its weights by (1 + a_j x)
and divides the sums of the weights outside it by the same factor, so
each coefficient is a short dot product on ints. build_Q and build_Qprime
are Form wrappers of the records; the checks and witness_record read the
records alone, and the report turns their integers into exponent lists
and coefficient strings.

Which check reads what:

- the congruence (_congruent) forms only the products that stay
  square-free, from the records' keys and integers and the weights
  scaled to integers;
- route one (_outside_containment_span) sums Q's numerators against
  each vector of an explicit basis of the left null space of the 0/1
  containment matrix W of index sets (_null_designs), on ints, and
  answers outside at the first nonzero sum and inside when all are 0,
  with no matrix built;
- route two (_nonzero_in_quotient) passes Q's record, keyed in radix 4
  already, to quotient._outside_span, which projects the products of the
  ideal's extra form with the multipliers of degree d-3 onto the capped
  basis as the span S, appends Q's row and answers outside when the rank
  of [S; Q] is one more than that of S over Q, which the closed form of
  the squares quotient gives: first modulo FAST_PRIME, where that rank
  certifies nonmembership, and only when it does not, over Q, where the
  answer is exact.

The routes share no arithmetic: route one's answer is a run of integer
sums with no prime and no elimination, and route two's a rank of
residues, or over Q a fraction-free rank, of a matrix built from
quotient's span shapes and records.

The congruence and route one, which eliminate nothing, are what
quotient.multiplication_map_rank reads when this pair settles a rank
over Q (_kernel_certified). This module builds no matrix and does not
use numpy; route two does, in quotient.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb

from .errors import GuardRefusal, InternalFault
from .linalg import FAST_FIELD, RATIONALS, _integer_row
from .monomials import Monomial
from .quotient import Form, IdealSpec, _guard_span, _outside_span, _record

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
    degree d-1 that route two builds. Route two's matrix, modulo
    FAST_PRIME and over Q alike, is that span with Q's row added, so a
    query whose span the guard would refuse is refused before Q or the
    matrix is built. Route one builds no matrix."""
    _guard(n, d)
    _guard_span(n, 2, 1, d - 1)


def _elementary(values, k: int) -> list:
    """Elementary symmetric sums e_0..e_k of values."""
    e = [1] + [0] * k
    for v in values:
        for t in range(k, 0, -1):
            e[t] += v * e[t - 1]
    return e


def _subset_sums(a, s: int, k: int, weights) -> list:
    """For each size-s index set S in colex order: its key, variable i at
    bit 2i as in a _key in radix 4, the product of the weights a over S,
    and the sum over all size-k index sets J of the product over J times
    weights[|S meet J|], on ints.

    Splitting J into its parts inside and outside S turns the sum into
    sum_t weights[t] e_t(a_S) e_(k-t)(a outside S), so no J is
    enumerated. The sets are reached by one walk of the colex tree, in
    which the sets of each size are those of the size below, each
    extended by one variable above its largest, and those of subsets of
    the first t variables come first, so the keys ascend: adding the
    weight c to S multiplies the generating polynomial of e(a_S) by
    (1 + c x), and divides that of the sums outside S, truncated at
    degree k, by the same factor as a power series. Each set costs O(s + k) products, not O(s k).
    """
    level = [(0, [1], _elementary(a, k))]
    for size in range(1, s + 1):
        grown = []
        for top in range(size - 1, len(a)):
            bit, c = 1 << 2 * top, a[top]
            for key, e_in, e_out in itertools.islice(level, comb(top, size - 1)):
                e_in = [x + c * y for x, y in zip(e_in + [0], [0] + e_in)]
                out = [1]
                for t in range(1, k + 1):
                    out.append(e_out[t] - c * out[-1])
                grown.append((key | bit, e_in, out))
        level = grown
    m = min(k, s)
    return [(key, e_in[s], sum(weights[t] * e_in[t] * e_out[k - t]
                               for t in range(m + 1)))
            for key, e_in, e_out in level]


def _q_record(params: WitnessParams) -> tuple:
    """The record (keys, nums, den) of Q, the square-free degree d-1 form
    whose coefficient on a size d-1 index set I is the weight product over
    I times the epsilon-weighted sum of weight products over all index
    sets of size n-2d+2.

    With D_a and D_e the lcms of the denominators of the weights and of
    the epsilon table, both scaled to ints by _integer_row, a coefficient
    is summed on ints as D_e D_a^(n-d+1) times its value (_subset_sums),
    and quotient._record drops the zero terms and divides out the content,
    so the record is that of the form, as quotient._form_record gives it.
    """
    _guard(params.n, params.d)
    n, d = params.n, params.d
    k = n - 2 * d + 2
    a, den_a = _integer_row(params.a_values)
    eps, den = _integer_row(epsilon_table(d).values)
    return _record({key: prod * s for key, prod, s in _subset_sums(a, d - 1, k, eps)},
                   den * den_a ** (k + d - 1))


def _qprime_record(params: WitnessParams) -> tuple:
    """The record of Q', the square-free degree d-2 companion form.

    The coefficient on a size d-2 index set K is the psi-weighted sum, over
    all size d-2 index sets L, of the weight product outside L, indexed by
    |K meet L|. The raw sums are scaled by 1/(d-1); with that normalization
    the products of the congruence agree exactly. The 1/(d-1) is folded
    into the psi table before it is scaled to ints, so, as for Q, each
    coefficient is summed on ints.
    """
    _guard(params.n, params.d)
    n, d = params.n, params.d
    k = n - d + 2
    a, den_a = _integer_row(params.a_values)
    # the complement M of L has size n-d+2, and |K meet L| = d-2 - |K meet M|
    psi, den = _integer_row([Fraction(x, d - 1) for x in psi_table(d).values[::-1]])
    return _record({key: s for key, _, s in _subset_sums(a, d - 2, k, psi)},
                   den * den_a ** k)


def _exponents(key: int, n: int) -> list[int]:
    """The exponent vector of a square-free key in radix 4."""
    return [key >> 2 * i & 1 for i in range(n)]


def _form(record: tuple, n: int, degree: int) -> Form:
    """The Form of a square-free record of n variables and this degree."""
    keys, nums, den = record
    return Form(degree, tuple((Monomial(tuple(_exponents(key, n))), Fraction(c, den))
                              for key, c in zip(keys, nums)))


def build_Q(params: WitnessParams) -> Form:
    """Q, the square-free degree d-1 form of _q_record, as a Form."""
    return _form(_q_record(params), params.n, params.d - 1)


def build_Qprime(params: WitnessParams) -> Form:
    """Q', the square-free degree d-2 form of _qprime_record, as a Form."""
    return _form(_qprime_record(params), params.n, params.d - 2)


def verify_congruence(params: WitnessParams) -> bool:
    """Exact check that the weighted form times Q and Q' times the squared
    variable sum agree after deleting every term divisible by a square."""
    return _congruent(params, _q_record(params), _qprime_record(params))


def _congruent(params: WitnessParams, q: tuple, qp: tuple) -> bool:
    """The congruence check on the integers of the records of Q and Q'.

    The squared variable sum is e_1 e_1, with e_1 the variable sum, and a
    product that holds a square keeps one whatever it is multiplied by, so
    the square-free part of Q' e_1^2 is that of R e_1, where R is the
    square-free part of Q' e_1. The check is then that the weighted form
    times Q and e_1 times R agree outside the squares, and both are formed
    in one pass over the supports of Q and R: a support S and a variable
    x_i outside it add a_i Q_S - R_S to the term of S and i. Only products
    that stay square-free are formed: R_S sums the terms of Q' on S less
    one variable, and a term of Q or Q' that holds a square, an odd bit of
    its key in radix 4, gives only products that hold one, so it is left
    out. With D_a, D and D' the denominators of the weights, Q and Q',
    both sides are compared times D_a D D', as integers.
    """
    a, den_a = _integer_row(params.a_values)
    (qkeys, qnums, qden), (pkeys, pnums, pden) = q, qp
    bits = [1 << 2 * i for i in range(params.n)]
    squares = sum(b << 1 for b in bits)
    scale = den_a * qden
    r: dict[int, int] = {}
    for key, c in zip(pkeys, pnums):
        if not key & squares:
            c *= scale
            for b in bits:
                if not key & b:
                    r[key | b] = r.get(key | b, 0) + c
    lhs = {key: c * pden for key, c in zip(qkeys, qnums) if not key & squares}
    weights = list(zip(bits, a))
    diff: dict[int, int] = {}
    for key in lhs.keys() | r.keys():
        cq, cr = lhs.get(key, 0), r.get(key, 0)
        for b, w in weights:
            if not key & b:
                diff[key | b] = diff.get(key | b, 0) + w * cq - cr
    return not any(diff.values())


def _standard_rows(n: int, k: int, row: tuple = ()):
    """Yield the bottom rows of the standard two-row tableaux of shape
    (n-k, k) on 0..n-1, in lexicographic order, extending row: the
    increasing k-tuples b with b_j > 2j. Every prefix extends, as
    n - k >= k, so no branch is cut short."""
    j = len(row)
    if j == k:
        yield row
        return
    for b in range(max(2 * j, row[-1] if row else 0) + 1, n - k + j + 1):
        yield from _standard_rows(n, k, row + (b,))


def _null_designs(n: int, d: int):
    """Yield a basis of the left null space of route one's containment
    matrix W, each vector a list of (key, coefficient) pairs on the size
    d-1 index sets, keyed as in the records, variable i at bit 2i.

    A vector is null on W when its coefficients sum to 0 over the sets
    that contain any (d-3)-set J: a null design of strength d-3 (Graver
    and Jurkat, J. Combin. Theory A 15, 1973). In the square-free algebra,
    with D = sum_i d/dx_i, D^2 sends x_I to twice the sum of x_J over the
    (d-3)-sets J inside I, so such vectors form the kernel of D^2. The
    basis has two parts, from the standard two-row tableaux T of shape
    (n-k, k), given by their bottom rows b, which are standard when
    b_j > 2j (0-based, _standard_rows), and each column pairs b_j with
    the j-th entry t_j of the top row:

    - for k = d-1, the pod prod_j (x_(t_j) - x_(b_j)), which D kills,
      since it kills each factor;
    - for k = d-2, R times the pod, with R multiplication by the variable
      sum, which is the pod times the sum of the variables in no column,
      since x_t (x_t - x_b) + x_b (x_t - x_b) holds only squares. On
      k-sets DR - RD = n - 2k (the sl2 relation, Stanley 1980), so D
      sends R g to (n - 2k) g, which D kills.

    The C(n,k) - C(n,k-1) pods of shape (n-k, k) are independent, up to
    sign the standard polytabloids (James, LNM 682, 1978), and D R g =
    (n - 2k) g is not 0 for a nonzero combination g of those of the
    second part, as n > 2k, so no combination of the second part lies in
    the kernel of D, which holds the first. The two parts together have
    C(n,d-1) - C(n,d-3) independent vectors, the corank of W, whose
    C(n,d-3) columns are independent for n >= 2d-4 (Gottlieb, Proc. AMS
    17, 1966), so they are a basis. The first vector is the pod of the
    pairs {x_1,x_2}, ..., {x_(2d-3),x_(2d-2)}, which n >= 2d-2 leaves
    room for.
    """
    for k in (d - 1, d - 2):
        for bottom in _standard_rows(n, k):
            top = [i for i in range(n) if i not in bottom]
            factors = [((t, 1), (b, -1)) for t, b in zip(top, bottom)]
            if k == d - 2:
                factors.append([(r, 1) for r in top[k:]])
            design = [(0, 1)]
            for factor in factors:
                design = [(key | 1 << 2 * i, s * c)
                          for key, s in design for i, c in factor]
            yield design


def _outside_containment_span(params: WitnessParams, q: tuple) -> bool:
    """Route one: whether Q, given by its record, is outside the column
    span of the containment matrix W, rows the size d-1 index sets I,
    columns the size d-3 sets J, and entry 1 where J lies inside I.

    Column J is the square-free part of x^J times the squared variable sum,
    halved, so the span is the degree d-1 piece of the ideal in the
    square-free basis, and Q is outside it exactly when its numerators
    have a nonzero sum against some vector of a basis of W's left null
    space (_null_designs). The sums run on ints, in the basis order, and
    the first nonzero one answers, so route one decides both ways with no
    prime and no matrix. A term of Q that holds a square, a member
    itself, has no key in any vector.
    """
    coeff = dict(zip(q[0], q[1]))
    return any(sum(c * coeff.get(key, 0) for key, c in design)
               for design in _null_designs(params.n, params.d))


def _nonzero_in_quotient(params: WitnessParams, q: tuple) -> bool:
    """Route two: whether Q, a record keyed in radix 4 as those of
    quotient._form_record(f, 2), is outside the ideal in degree d-1.

    Q's row and the rows of the ideal's span S, the square-free parts of
    the squared variable sum times each square-free monomial of degree
    d-3, are projected onto the square-free basis, so a term that holds a
    square, a member of the ideal, is dropped. The ideal in degree d-1 is
    the span of S plus the monomials that hold a square, so Q is outside
    it exactly when its projection is outside span(S), that is when [S; Q]
    has rank rank_Q(S) + 1 (quotient._outside_span). Modulo FAST_PRIME
    that rank certifies outside, since a rank modulo p never exceeds the
    rank over Q. Only when it does not, for a member, for an unlucky prime
    or for a denominator that FAST_PRIME divides, is the rank of [S; Q]
    taken over Q, which answers exactly."""
    spec = IdealSpec(n=params.n, a=2)
    return (_outside_span(spec, params.d - 1, q, FAST_FIELD)
            or _outside_span(spec, params.d - 1, q, RATIONALS))


def verify_nonmembership(params: WitnessParams) -> bool:
    """Certify that Q is not in the degree d-1 piece of the ideal.

    Route one expresses membership as a containment-matrix column-space
    question over the square-free index sets, and decides it on ints from
    the sums of Q's numerators against an explicit basis of the left null
    space of that matrix, outside at the first nonzero sum and inside
    when every sum is 0. Route two builds the ideal span from the
    quotient's span shape, appends Q and answers outside when the rank
    grows by one, modulo FAST_PRIME and, only when that certificate does
    not fire, over Q. The routes share no arithmetic and must agree; a
    mismatch raises InternalFault.
    """
    _guard_nonmembership(params.n, params.d)
    return _not_in_ideal(params, _q_record(params))


def _not_in_ideal(params: WitnessParams, q: tuple) -> bool:
    via_matrix = _outside_containment_span(params, q)
    via_quotient = _nonzero_in_quotient(params, q)
    if via_matrix != via_quotient:
        raise InternalFault(
            "containment-matrix and quotient-echelon nonmembership verdicts "
            f"disagree at n={params.n}, d={params.d}")
    return via_matrix


def _kernel_certified(params: WitnessParams) -> bool:
    """Whether Q is certified a nonzero kernel element of multiplication by
    the weighted form into degree d of the quotient by the squares and the
    squared variable sum, from the exact congruence and route one alone,
    on ints, with no prime and no elimination.

    False, with nothing built, when the subsets would pass the subset
    guard; False too when the congruence fails, or when Q lies in the
    ideal, as it does for degenerate weights, which route one decides
    exactly.
    """
    try:
        _guard(params.n, params.d)
    except GuardRefusal:
        return False
    q = _q_record(params)
    return (_congruent(params, q, _qprime_record(params))
            and _outside_containment_span(params, q))


def random_witness_params(n: int, d: int, seed) -> WitnessParams:
    """Deterministic pseudo-random integer weights in [1, 10^3]."""
    rng = random.Random(f"witness:{n}:{d}:{seed}")
    return WitnessParams(n=n, d=d,
                         a_values=tuple(Fraction(rng.randint(1, 1000))
                                        for _ in range(n)))


def _report_terms(record: tuple, n: int) -> list:
    """The terms of a record as [exponents, coefficient string]."""
    keys, nums, den = record
    return [[_exponents(key, n), str(Fraction(c, den))] for key, c in zip(keys, nums)]


def witness_record(params: WitnessParams) -> dict:
    """JSON-ready record: exact coefficient strings plus both verdicts."""
    _guard_nonmembership(params.n, params.d)
    q, qp = _q_record(params), _qprime_record(params)
    return {
        "n": params.n,
        "d": params.d,
        "a_values": [str(v) for v in params.a_values],
        "Q_terms": _report_terms(q, params.n),
        "Qprime_terms": _report_terms(qp, params.n),
        "congruence_ok": _congruent(params, q, qp),
        "nonmembership_ok": _not_in_ideal(params, q),
    }
