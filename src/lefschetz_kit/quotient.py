"""Graded pieces of power-sum quotients: bases, initial ideals, map ranks.

The ideal under study is generated by the a-th powers of all variables plus
extra degree-a forms, by default the a-th power of the variable sum. All
ranks and dimensions are exact. Computations run in a basis of monomials
with every exponent below a, which is a valid basis of the quotient by the
pure powers alone; multiples of pure powers are projected away instead of
being carried as matrix rows, which gives the same ranks and the same
initial ideal as the full multiplication matrix.

Dimensions read the pivots of a forward echelon of the extra-form span
(_span_echelon). In every field a span keeps one record, its basis and
pivots (_span_pivots), and frees its echelon rows and column index when
the forward pass returns; only multiplication_kernel reads the rows of a
span over Q, once, and route two of the witness's nonmembership check
(_outside_span) builds its own span and keeps nothing. The spans of A
that queries read again sit in a least-recently-used cache (_reduce_spec)
bounded not by a span count but by SPAN_CACHE_CELLS cells kept
(_span_cells), one per basis monomial, since bases range from one
monomial to millions; the span just stored is never evicted. A span that
is read only once skips the cache. A/ell A is again such a quotient, in
one variable fewer, so the rank of multiplication by ell into degree d,
dim A_d - dim (A/ell A)_d, needs no matrix of its own. Each span of
A/ell A, and each span of a seeded spec of random_powers_dimensions, is
read once and freed before the next span is built, so modulo p at most
one span matrix is alive at a time.

The default spec, the pure powers plus (x_1 + ... + x_n)^a, needs no span
of A where a theorem fixes its dimensions (_closed_dimension): over Q for
every a, by Stanley's strong Lefschetz property of the pure powers, and
for a = 2 in every characteristic, by Wilson's rank of the inclusion
matrix of (d-2)-subsets against d-subsets. graded_dimension reads that
closed form where it holds and a span of A otherwise.

Every map rank, of any spec in any field, takes one route
(multiplication_map_rank): dim A_d and dim A_{d-1}, rank 0 when either is
0, and otherwise the span of A/ell A. Over Q, when the forms reduce
modulo FAST_PRIME, that span is eliminated there first: its dimension
there bounds the one over Q from above, so a maximal rank left modulo p
is the rank over Q. For squares with 2d-2 <= n < 3d-2, a bound of
dim A_{d-1} - 1 is the rank over Q too when the paper's kernel element
for ell checks (_witnessed_kernel): its congruence shows ell Q in the
ideal and witness route one, integer sums against the null designs of
the ideal, shows Q outside it, so the rank is at most that bound. The
span is eliminated over Q only when the bound falls short of both.

Spans are built from integers. A span reads each extra form as one
integer record (_form_record): the keys of its terms, their numerators
and one positive denominator, in lowest terms and with every term kept.
The forms of an IdealSpec are converted once, and each keeps its record.
The cokernel specs of A/ell A (_substituted_spec) and the seeded specs
of random_powers_dimensions are built as records from the start
(_IntegerSpec): their powers of linear forms come from the multinomial
theorem on integer coefficients (_linear_powers), with no Form, Monomial
or Fraction between a coefficient and its matrix. The default form
(x_1 + ... + x_n)^a is built once per (n, a).

Matrices are built once, in the form the elimination kernels use. Each
exponent vector is keyed as one integer with the exponents as digits in
radix 2a, so the key of a product is the sum of the keys of its factors
and one dict lookup finds its basis column. The capped basis of each
(n, a, d), its key index and the keys of its multipliers are built once
and cached (_shapes) under the same cell budget as the spans.
`_product_rows` emits the products of records as (row, column, value)
triplets, the numerators over Q and modulo p the numerators times one
inverse of the denominator, and `linalg._from_triplets` turns them into
integer lists over Q and a residue array modulo p.

A query reads the shape of each matrix it will build, a span or the lift
of multiplication_kernel, from n, a, the form count, d and whether the
closed form holds alone, and refuses one of more than CELL_GUARD cells
with GuardRefusal before it builds any spec, form or span. The same
bound caps the term count of a power of a linear form and the monomials
of an initial piece. Queries that compute every degree or every n check
all their shapes first: random_powers_dimensions, and the rank table
(_rank_table) behind injectivity_threshold_check and wlp_sweep, whose
degrees come from the closed form of dim A_d over Q (_wlp_reports). The
guard bounds cells, not time or bytes: a residue array takes 8 bytes per
cell modulo p < 2^31 and modulo 2^61 - 1, 400 MB at CELL_GUARD, and
modulo the other primes from 2^31 up a pointer per cell plus a Python
int per nonzero entry.
"""

from __future__ import annotations

import random
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from math import comb, gcd

from .errors import GuardRefusal, InternalFault
from .hilbert import aci_hilbert, power_ci_hilbert
from .linalg import (FAST_FIELD, FAST_PRIME, RATIONALS, FieldTag,
                     RationalMatrix, _eliminate, _from_triplets, _integer_row,
                     _pivots, _reduce_against, _residue, kernel_basis)
from .monomials import (GeneratorCase, Monomial, _iter_exponents,
                        _standard_exponents, revlex_sort_key)

# the most cells any span or lift matrix may have, and the most terms of a
# linear form's power or monomials of an initial piece; larger ones are
# refused from closed-form counts before any enumeration
CELL_GUARD = 5 * 10**7

# the most cells the cached spans of A keep together (_cell_cache), and
# apart from them the cached span shapes (_shapes). In every field a span
# keeps its basis and pivots, and a cell is one exponent tuple of its
# basis, about 140 bytes, which its shape holds too while that is cached.
# The 75 spans of a pass of the small-queries benchmark keep 1,051 cells
# together and its 83 shapes 1,704
SPAN_CACHE_CELLS = 2**22


def _guard_count(what: str, count: int) -> None:
    """Refuse an enumeration of more than CELL_GUARD items before it runs."""
    if count > CELL_GUARD:
        raise GuardRefusal(f"the {what} would number {count}, above the guard "
                           f"of {CELL_GUARD}")


@dataclass(frozen=True)
class Form:
    """Homogeneous polynomial with exact coefficients in revlex order.

    terms maps monomials to nonzero rational coefficients and is kept
    strictly revlex descending. The zero form has no terms but still
    carries its degree.
    """

    degree: int
    terms: tuple[tuple[Monomial, Fraction], ...]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        nvars = None
        keys = []
        for m, c in self.terms:
            if c == 0:
                raise ValueError("zero coefficients are not stored")
            if m.degree != self.degree:
                raise ValueError("every term must have the declared degree")
            if nvars is None:
                nvars = m.nvars
            elif m.nvars != nvars:
                raise ValueError("terms must share one variable count")
            keys.append(revlex_sort_key(m))
        if any(not a < b for a, b in zip(keys, keys[1:])):
            raise ValueError("terms must be strictly revlex descending")

    def __hash__(self) -> int:
        # forms key the span and cokernel caches through their specs, so
        # the hash over all terms is taken once
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.degree, self.terms))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def nvars(self) -> int | None:
        return self.terms[0][0].nvars if self.terms else None


def form_from_coefficients(degree: int, coeff_map) -> Form:
    """Build a Form from a monomial-to-coefficient mapping, dropping zeros."""
    items = [(m, Fraction(c)) for m, c in coeff_map.items() if c != 0]
    items.sort(key=lambda mc: revlex_sort_key(mc[0]))
    return Form(degree=degree, terms=tuple(items))


def linear_form(coeffs) -> Form:
    """The degree-1 form with the given per-variable coefficients."""
    coeffs = list(coeffs)
    n = len(coeffs)
    # x_1, x_2, ..., x_n is revlex descending in degree 1
    return Form(1, tuple(
        (Monomial((0,) * i + (1,) + (0,) * (n - 1 - i)), Fraction(c))
        for i, c in enumerate(coeffs) if c))


def variable_sum(n: int) -> Form:
    return linear_form([1] * n)


def multiply_forms(f: Form, g: Form) -> Form:
    if f.nvars is not None and g.nvars is not None and f.nvars != g.nvars:
        raise ValueError("variable counts differ")
    out: dict = {}
    gterms = [(m.exponents, c) for m, c in g.terms]
    for m1, c1 in f.terms:
        e1 = m1.exponents
        for e2, c2 in gterms:
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return form_from_coefficients(
        f.degree + g.degree, {Monomial(e): c for e, c in out.items()})


def _linear_powers(coeffs, k: int, radix: int) -> list[list[tuple[int, int]]]:
    """The powers L^0, ..., L^k of L = sum of coeffs[i] x_i, on ints.

    coeffs are integers and radix exceeds k. Entry t lists the terms (key,
    coefficient) of L^t in revlex descending order, each key the _key in
    radix of the term's exponents, with the multinomial coefficients
    t!/prod(e_i!) * prod(coeffs[i]^e_i). The terms are built one variable
    at a time, as _iter_exponents builds exponents: giving the variable
    of place value radix^i and coefficient c the exponent e in a term of
    degree t-e adds e radix^i to its key and multiplies its coefficient by
    comb(t, e) * c^e. A zero coefficient takes exponent 0 only, so only
    the support is expanded.
    """
    layer = [[(0, 1)]] + [[] for _ in range(k)]
    place = 1
    for c in coeffs:
        factors = [[comb(t, e) * c**e for e in range(t + 1)] if c else [1]
                   for t in range(k + 1)]
        layer = [[(h + e * place, w * f) for e, f in enumerate(factors[t])
                  for h, w in layer[t - e]]
                 for t in range(k + 1)]
        place *= radix
    return layer


def _guard_power(nterms: int, k: int) -> None:
    """Refuse the power k of a linear form of nterms terms when it would
    have too many terms."""
    _guard_count(f"terms of power {k} of a {nterms}-term linear form",
                 comb(nterms + k - 1, k))


def form_power(f: Form, k: int) -> Form:
    """f^k; for a nonzero linear form, by the multinomial theorem on its
    coefficients scaled to integers, and otherwise by repeated products."""
    if k < 1:
        raise ValueError("power must be at least 1")
    if f.degree == 1 and f.terms:
        _guard_power(len(f.terms), k)
        coeffs, den = _integer_row(linear_coefficients(f))
        den **= k
        # no exponent of a degree-k term exceeds k, so each is one digit of
        # its key in radix k + 1
        places = [(k + 1)**i for i in range(len(coeffs))]
        return Form(k, tuple(
            (Monomial(tuple(key // w % (k + 1) for w in places)),
             Fraction(c, den))
            for key, c in _linear_powers(coeffs, k, k + 1)[k]))
    out = f
    for _ in range(k - 1):
        out = multiply_forms(out, f)
    return out


def linear_coefficients(f: Form) -> tuple[Fraction, ...]:
    """Per-variable coefficient vector of a degree-1 form."""
    if f.degree != 1:
        raise ValueError("need a degree-1 form")
    if f.nvars is None:
        raise ValueError("the zero form has no variable count")
    lookup = {m.exponents: c for m, c in f.terms}
    n = f.nvars
    return tuple(lookup.get(tuple(1 if j == i else 0 for j in range(n)), Fraction(0))
                 for i in range(n))


def random_linear_form(n: int, seed, index: int | None = None) -> Form:
    """Deterministic pseudo-random linear form, coefficients in [1, 10^6]
    (_draw_coefficients)."""
    return linear_form(_draw_coefficients(n, seed, index))


def _draw_coefficients(n: int, seed, index: int | None = None) -> list[int]:
    """The n coefficients in [1, 10^6] of random_linear_form(n, seed, index).

    The stream is keyed by n and the seed; index distinguishes the members
    when one seed must yield several independent forms.
    """
    tag = f"linear-form:{n}:{seed}" if index is None else f"linear-form:{n}:{seed}:{index}"
    rng = random.Random(tag)
    return [rng.randint(1, 10**6) for _ in range(n)]


# equal default specs then share one form object, which their cache keys
# compare by identity
@lru_cache(maxsize=32)
def _default_form(n: int, a: int) -> Form:
    """(x_1 + ... + x_n)^a, built once per (n, a)."""
    return form_power(variable_sum(n), a)


@dataclass(frozen=True)
class IdealSpec:
    """Pure a-th powers of all n variables plus extra degree-a forms.

    When extra_forms is omitted, the a-th power of x_1 + ... + x_n is used.
    Passing an empty tuple keeps only the pure powers.
    """

    n: int
    a: int
    extra_forms: tuple[Form, ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one variable")
        if self.a < 1:
            raise ValueError("the exponent must be at least 1")
        if self.extra_forms is None:
            object.__setattr__(self, "extra_forms",
                               (_default_form(self.n, self.a),))
        else:
            object.__setattr__(self, "extra_forms", tuple(self.extra_forms))
        for f in self.extra_forms:
            if f.degree != self.a:
                raise ValueError("extra forms must be homogeneous of degree a")
            if f.nvars is not None and f.nvars != self.n:
                raise ValueError("extra forms must use n variables")


# a spec whose extra forms are held only as integer records (_form_record):
# the cokernel specs of _substituted_spec and the seeded specs of
# random_powers_dimensions, whose spans are each read once
_IntegerSpec = namedtuple("_IntegerSpec", "n a records")


def _capped_basis(n: int, a: int, d: int) -> list[tuple[int, ...]]:
    """The degree-d exponent vectors in n variables with every exponent
    below a, revlex descending."""
    return _iter_exponents(n, d, a - 1)


def _capped_count(n: int, a: int, d: int) -> int:
    """Number of degree-d monomials in n variables with every exponent
    below a, the size of _capped_basis."""
    return power_ci_hilbert(n, a, d) if d >= 0 else 0


def _guard_cells(what: str, rows: int, cols: int) -> None:
    """Refuse a matrix of more than CELL_GUARD cells before it is built."""
    _guard_count(f"cells of the {rows} x {cols} {what}", rows * cols)


def _guard_span(n: int, a: int, nforms: int, d: int) -> None:
    """Refuse the extra-form span in degree d of a spec of n variables,
    exponent a and nforms extra forms when its matrix would be too large."""
    _guard_cells(f"span in degree {d}", nforms * _capped_count(n, a, d - a),
                 _capped_count(n, a, d))


def _check_map(n: int, d: int, ell: Form) -> None:
    """Validate multiplication by ell into degree d, in n variables."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    if ell.degree != 1:
        raise ValueError("need a degree-1 form")
    if ell.nvars is not None and ell.nvars != n:
        raise ValueError("the form must use n variables")


def _radix(a: int) -> int:
    """Radix of the exponent keys of a spec of exponent a.

    Capped exponents stay below a and the exponents of a form multiplied
    onto them reach at most its degree, a or 1, so no exponent of a product
    reaches 2a, and the key of a product is the sum of the keys.
    """
    return 2 * a


def _key(exponents, radix: int) -> int:
    """The exponent vector as one integer, each exponent a digit in radix."""
    key = 0
    for x in reversed(exponents):
        key = key * radix + x
    return key


def _form_record(f: Form, a: int) -> tuple:
    """The integer record of f in the keys of a spec of exponent a.

    A record (keys, nums, den) holds, term by term in f's order, the _key
    in radix _radix(a) of each exponent vector and the coefficient times
    den, with den the lcm of the coefficients' denominators, so no prime
    divides den and every num. Built once per form and a, and kept on f.
    """
    records = f.__dict__.get("_records")
    if records is None:
        records = {}
        object.__setattr__(f, "_records", records)
    record = records.get(a)
    if record is None:
        radix = _radix(a)
        nums, den = _integer_row([c for _, c in f.terms])
        record = records[a] = (tuple(_key(m.exponents, radix) for m, _ in f.terms),
                               tuple(nums), den)
    return record


def _record(terms: dict, den: int) -> tuple:
    """The record of the form whose coefficient at each key of terms is
    terms[key] / den: its nonzero terms in ascending key order, which is
    revlex descending, over den, both divided by their gcd."""
    keys = sorted(k for k, c in terms.items() if c)
    g = gcd(den, *(terms[k] for k in keys))
    return tuple(keys), tuple(terms[k] // g for k in keys), den // g


def _records(spec) -> tuple:
    """The records of the extra forms of spec: an _IntegerSpec holds them,
    and those of an IdealSpec are read from its forms (_form_record)."""
    if isinstance(spec, IdealSpec):
        return tuple(_form_record(f, spec.a) for f in spec.extra_forms)
    return spec.records


def _product_rows(records, mult_keys, index, field_tag: FieldTag):
    """Products of each form with each multiplier, projected onto a basis.

    The forms are integer records (_form_record), mult_keys are the keys of
    the multiplier exponents and index maps the key of every basis
    exponent to its column; products outside the basis are dropped.
    Returns the row count and (rows, cols, values) triplets for
    linalg._from_triplets: one row per form and multiplier in that order,
    a zero row where a product keeps no term. Over Q the values are a
    record's numerators, so each row is den times its Fraction row, with
    the same span and pivots. Modulo p they are the numerators times the
    inverse of den, and those that vanish are left out; a den that p
    divides raises ValueError, as linalg._residue does for a Fraction
    whose denominator p divides.
    """
    p = field_tag.characteristic
    get = index.get
    rows, cols, vals = [], [], []
    r = 0
    for keys, nums, den in records:
        terms = zip(keys, nums)
        if p:
            if not den % p:
                raise ValueError("denominator vanishes modulo p")
            inv = pow(den, -1, p)
            terms = [(k, c) for k, c in ((k, c * inv % p) for k, c in terms) if c]
        else:
            terms = list(terms)
        for mk in mult_keys:
            for tk, c in terms:
                j = get(mk + tk)
                if j is not None:
                    rows.append(r)
                    cols.append(j)
                    vals.append(c)
            r += 1
    return r, (rows, cols, vals)


def _span_shape(n: int, a: int, d: int):
    """The matrix shape of the extra-form span in capped degree d: the
    capped basis, the map from the _key of each of its exponent vectors
    to its column, and the keys of the capped multipliers of degree d-a."""
    radix = _radix(a)
    basis = _capped_basis(n, a, d)
    index = {_key(e, radix): i for i, e in enumerate(basis)}
    return basis, index, [_key(e, radix) for e in _capped_basis(n, a, d - a)]


def _span_echelon(spec, d: int, field_tag: FieldTag):
    """Forward echelon of the extra-form span in capped degree d, of an
    IdealSpec or an _IntegerSpec, built from its records (_records).

    Returns (basis, index, echelon_rows, pivot_columns), where index maps
    the _key of each basis exponent to its column and the echelon rows,
    one per pivot, are integer lists over Q, each a multiple of the
    Fraction row, and residues modulo p. The basis, index and multipliers
    come from the shape cache (_shapes). Nothing keeps the rows: the
    record of a span is its basis and pivots (_span_pivots), and only
    multiplication_kernel reads the rows, once.
    """
    records = _records(spec)
    _guard_span(spec.n, spec.a, len(records), d)
    basis, index, mults = _shapes(spec.n, spec.a, d)
    nrows, triplets = _product_rows(records, mults, index, field_tag)
    rows = _from_triplets(triplets, nrows, len(basis), field_tag)
    del triplets  # freed before the elimination, which peaks in memory
    echelon, piv = _eliminate(rows, len(basis), field_tag, reduce=False)
    return basis, index, echelon[:len(piv)], piv


def _span_pivots(spec, d: int, field_tag: FieldTag):
    """The record of the extra-form span in capped degree d, the same in
    every field: its basis and pivot columns (_span_echelon), with its
    rows and index freed when it returns."""
    basis, _, _, piv = _span_echelon(spec, d, field_tag)
    return basis, piv


def _span_cells(span) -> int:
    """The cells a span record keeps: its basis."""
    return len(span[0])


def _shape_cells(shape) -> int:
    """The cells a span shape keeps: its basis, or its index, and its
    multipliers."""
    basis, _, mults = shape
    return len(basis) + len(mults)


SpanCacheInfo = namedtuple("SpanCacheInfo", "hits misses currsize cells")


def _cell_cache(build, cells):
    """build behind a least-recently-used cache, keyed by its positional
    arguments, whose entries keep at most SPAN_CACHE_CELLS cells together,
    as cells counts them.

    A miss stores its entry and then evicts the least recently used others
    until the rest fits, so the entry just stored is kept, alone if it is
    larger than the budget, until the next miss. The wrapper keeps its own
    reference to build and has cache_info() and cache_clear().
    """
    entries: OrderedDict = OrderedDict()
    hits = misses = kept = 0

    @wraps(build)
    def cached(*key):
        nonlocal hits, misses, kept
        value = entries.get(key)
        if value is not None:
            hits += 1
            entries.move_to_end(key)
            return value
        misses += 1
        value = entries[key] = build(*key)
        kept += cells(value)
        while kept > SPAN_CACHE_CELLS and len(entries) > 1:
            kept -= cells(entries.popitem(last=False)[1])
        return value

    def cache_info() -> SpanCacheInfo:
        return SpanCacheInfo(hits, misses, len(entries), kept)

    def cache_clear() -> None:
        nonlocal hits, misses, kept
        entries.clear()
        hits = misses = kept = 0

    cached.cache_info, cached.cache_clear = cache_info, cache_clear
    return cached


# the shape of each (n, a, d), which every span of that shape reads, cached
# or not. Bounded by cells, not entries: the shape of degree 7 at n = 19,
# a = 2 keeps 19 MB (tracemalloc), and that of a small query a few kB
_shapes = _cell_cache(_span_shape, _shape_cells)

# the spans of A itself, which queries read again across degrees, seeds
# and subcommands. A span read once, of A/ell A or of a seeded spec of
# random_powers_dimensions, calls _span_pivots and skips the cache, which
# would otherwise evict the spans read again
_reduce_spec = _cell_cache(_span_pivots, _span_cells)


def ideal_degree_basis(spec: IdealSpec, d: int) -> RationalMatrix:
    """Row span of degree d of the ideal in the full monomial basis.

    One row per product of a generator with each degree d-a monomial, pure
    powers included; columns run over all degree-d monomials in revlex
    descending order. Below degree a the matrix has no rows but keeps the
    full column count.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    basis = list(_iter_exponents(spec.n, d, None))
    col = {e: i for i, e in enumerate(basis)}
    rows = []
    if d >= spec.a:
        mults = list(_iter_exponents(spec.n, d - spec.a, None))
        for i in range(spec.n):
            pure = tuple(spec.a if j == i else 0 for j in range(spec.n))
            for m in mults:
                row = [Fraction(0)] * len(basis)
                row[col[tuple(x + y for x, y in zip(m, pure))]] = Fraction(1)
                rows.append(row)
        for f in spec.extra_forms:
            fterms = [(mm.exponents, c) for mm, c in f.terms]
            for m in mults:
                row = [Fraction(0)] * len(basis)
                for e, c in fterms:
                    j = col[tuple(x + y for x, y in zip(m, e))]
                    row[j] += c
                if any(row):
                    rows.append(row)
    return RationalMatrix.from_rows(rows, cols=len(basis), field_tag=RATIONALS)


def initial_degree_piece(spec: IdealSpec, d: int,
                         field_tag: FieldTag = RATIONALS) -> set[Monomial]:
    """Leading monomials of the degree-d piece of the ideal.

    Equals the pivot-column monomials of echelonize(ideal_degree_basis):
    every monomial divisible by a pure power appears, plus the pivots of
    the reduced extra-form span in the capped basis.
    """
    return {Monomial(e) for e in _initial_exponents(spec, d, field_tag)[0]}


def _initial_exponents(spec: IdealSpec, d: int, field_tag: FieldTag):
    """The exponents of initial_degree_piece in revlex descending order,
    and the set of those with every exponent below a, the pivots of the
    extra-form span.

    Both come from one pass over the degree-d exponents, which
    _iter_exponents lists in revlex order already.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    _guard_count(f"monomials of degree {d}", comb(spec.n + d - 1, d))
    basis, piv = _reduce_spec(spec, d, field_tag)
    pivots = {basis[c] for c in piv}
    a = spec.a
    return [e for e in _iter_exponents(spec.n, d, None)
            if max(e) >= a or e in pivots], pivots


def graded_dimension(spec: IdealSpec, d: int,
                     field_tag: FieldTag = RATIONALS) -> int:
    """Dimension of degree d of the quotient by the ideal: the closed form
    where one holds (_closed_dimension), and otherwise what the span
    echelon leaves."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    if _has_closed_form(spec, field_tag.characteristic):
        return _closed_dimension(spec.n, spec.a, d, field_tag.characteristic)
    return _dimension(_reduce_spec(spec, d, field_tag))


def _dimension(span) -> int:
    """The quotient dimension a span record leaves: its basis size less
    its rank."""
    basis, piv = span
    return len(basis) - len(piv)


def _closed_form(a: int, p: int) -> bool:
    """Whether the dimensions of the default spec of exponent a have a
    closed form in characteristic p (_closed_dimension): over Q for every
    a >= 2, and in every characteristic for a = 2."""
    return a == 2 or (a > 2 and not p)


def _has_closed_form(spec: IdealSpec, p: int) -> bool:
    """Whether graded_dimension of spec in characteristic p reads the
    closed form rather than a span: spec is the default one, whose one
    extra form is (x_1 + ... + x_n)^a, and _closed_form(a, p) holds. The
    term count is compared first, so no power is built for other forms."""
    forms, n, a = spec.extra_forms, spec.n, spec.a
    return (_closed_form(a, p) and len(forms) == 1
            and len(forms[0].terms) == comb(n + a - 1, a)
            and forms[0] == _default_form(n, a))


def _closed_dimension(n: int, a: int, d: int, p: int) -> int:
    """dim A_d of the default spec of n variables and exponent a in
    characteristic p, where _closed_form(a, p) holds.

    Over Q the pure powers have the strong Lefschetz property (Stanley),
    so multiplication by (x_1 + ... + x_n)^a has maximal rank on their
    quotient and dim A_d = aci_hilbert(n, a, d). For a = 2, a product of
    (x_1 + ... + x_n)^2 with a square-free monomial of degree d-2 is, in
    the square-free basis, twice the row of its support in the inclusion
    matrix W_{d-2,d}(n). The span is zero modulo 2, and otherwise has the
    rank of that matrix (_inclusion_rank).
    """
    if not p:
        return aci_hilbert(n, a, d)
    return comb(n, d) - (_inclusion_rank(n, d - 2, d, p) if p != 2 else 0)


def _inclusion_rank(n: int, t: int, k: int, p: int) -> int:
    """Rank modulo the prime p of the inclusion matrix W_{t,k}(n), whose
    rows are the t-subsets of n points, its columns the k-subsets, and
    whose entry is 1 where the row's set lies in the column's.

    For t <= min(k, n-k) it is the sum of C(n,i) - C(n,i-1) over the
    i <= t with p not dividing C(k-i, t-i) (R. M. Wilson, Eur. J.
    Combin. 11, 1990). For t > n-k, complementing every set turns the
    matrix into the transpose of W_{n-k,n-t}(n), for which that holds. A
    negative t leaves no row.
    """
    if t > n - k:
        t, k = n - k, n - t
    return sum(comb(n, i) - (comb(n, i - 1) if i else 0)
               for i in range(t + 1) if comb(k - i, t - i) % p)


def random_powers_dimensions(n: int, a: int, seeds, degrees,
                             field_tag: FieldTag = RATIONALS) -> list[int]:
    """The dimension in each degree of the quotient by the a-th powers of
    the n variables and of two seeded random linear forms.

    Each seed's spec has two extra forms, so no closed form holds, and each
    of its spans is read once: it calls _span_pivots and skips the span
    cache. The forms are the a-th powers of random_linear_form(n, seed,
    index=i) for i = 1, 2, built as integer records from the drawn
    coefficients (_draw_coefficients, _linear_powers), with no Form in
    between. Every seed must give the same dimension vector, which is
    returned; a disagreement raises InternalFault. Before any form is
    built, the query is refused if the terms of a power or the span of any
    degree would be too large, checked in that order, which is the order
    building the forms and then the spans would check them. Random linear
    forms have no zero coefficient, so each has n terms.
    """
    seeds, degrees = list(seeds), list(degrees)
    if not seeds:
        raise ValueError("need at least one seed")
    _guard_power(n, a)
    for d in degrees:
        _guard_span(n, a, 2, d)
    radix = _radix(a)
    vectors = set()
    for s in seeds:
        powers = [_linear_powers(_draw_coefficients(n, s, i), a, radix)[a]
                  for i in (1, 2)]
        spec = _IntegerSpec(n, a, tuple(_record(dict(terms), 1)
                                        for terms in powers))
        vectors.add(tuple(_dimension(_span_pivots(spec, d, field_tag))
                          for d in degrees))
    if len(vectors) > 1:
        raise InternalFault(f"seeded dimensions disagree: {sorted(vectors)}")
    return list(vectors.pop())


def standard_monomials(spec: IdealSpec, d: int,
                       field_tag: FieldTag = RATIONALS) -> list[Monomial]:
    """Monomial basis of degree d of the quotient: capped non-pivot columns."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    basis, piv = _reduce_spec(spec, d, field_tag)
    pivset = set(piv)
    return [Monomial(e) for i, e in enumerate(basis) if i not in pivset]


def support_bound_check(n: int, a: int, d: int) -> bool:
    """Whether all minimal non-pure generators of the initial ideal through
    degree d involve only the first ceil(2d/(a-1)) variables.

    Those generators have every exponent below a, and so has every
    monomial dividing one, so they are the pivots of the extra-form span
    in some degree e that no pivot of degree e - 1 divides. Below degree a
    the span has no rows.
    """
    if a < 2 or d < a:
        raise ValueError("need d >= a >= 2")
    bound = -(-2 * d // (a - 1))
    if n < bound:
        raise ValueError("need n >= ceil(2d/(a-1))")
    spec = IdealSpec(n=n, a=a)
    below = set()
    for e in range(a, d + 1):
        basis, piv = _reduce_spec(spec, e, RATIONALS)
        pivots = {basis[c] for c in piv}
        for m in pivots:
            if any(m[bound:]) and not any(
                    ex and m[:i] + (ex - 1,) + m[i + 1:] in below
                    for i, ex in enumerate(m)):
                return False
        below = pivots
    return True


def _cokernel_spec(spec: IdealSpec, ell: Form, field_tag: FieldTag):
    """The quotient A/ell A as an _IntegerSpec, where A is the quotient by
    spec, or spec itself when ell vanishes in the field.

    With c_j the first coefficient of ell nonzero in the field, A/ell A is
    the quotient by the substituted forms of _substituted_spec(spec, ell,
    j). They have rational coefficients, so the field picks only j, and
    every field with the same j shares one cached spec.
    """
    j = _pivot_variable(ell, field_tag.characteristic)
    return spec if j is None else _substituted_spec(spec, ell, j)


# one query asks for the same few specs over all its degrees, and over Q
# for the same spec modulo FAST_PRIME and over Q; a larger cache mostly
# keeps the forms of finished queries alive
@lru_cache(maxsize=16)
def _substituted_spec(spec: IdealSpec, ell: Form, j: int) -> _IntegerSpec:
    """A/ell A as an _IntegerSpec, where A is the quotient by spec and
    c_j, the coefficient of x_j in ell, is nonzero in the field.

    With L the sum of c_i x_i over i != j, A/ell A is the quotient of the
    polynomials in the other variables by their a-th powers, L^a, and each
    extra form f as c_j^a f(x_j = -L/c_j): a term x_j^e m becomes (-L)^e
    c_j^(a-e) m, and is dropped for e = a as a multiple of L^a. The terms
    are keyed in the radix of the span from the start, and no Form is
    built. Cached, so that the substituted forms are built once for all
    degrees of a query.
    """
    if spec.n == 1:  # ell is a unit times x_1, so A/ell A is k[x_1]/(x_1)
        return _IntegerSpec(1, 1, ())
    # with den the lcm of the denominators of ell, c_j = cj / den and
    # L^e = (sum of P x^m over powers[e]) / den^e, so the image of f,
    # whose record holds its integers over fden, has the integer
    # coefficients below over the one denominator fden * den^a
    a = spec.a
    radix = _radix(a)
    ints, den = _integer_row(linear_coefficients(ell))
    cj = ints[j]
    powers = _linear_powers(ints[:j] + ints[j + 1:], a, radix)
    # eliminating the multiples of L^a first keeps the integers small over
    # Q: degree 7 of wlp --n 7 --a 3 takes 0.9 s, and 15 s with L^a last
    records = [_record(dict(powers[a]), den**a)]
    # the digit of x_j in a key of n variables has the place value below;
    # dropping it shifts the digits above down by one place
    place = radix**j
    for keys, nums, fden in _records(spec):
        out: dict = {}
        for key, c in zip(keys, nums):
            high, low = divmod(key, place)
            high, e = divmod(high, radix)
            if e < a:
                rest = high * place + low
                c *= (-1) ** e * cj ** (a - e)
                for k, cc in powers[e]:
                    out[rest + k] = out.get(rest + k, 0) + c * cc
        records.append(_record(out, fden * den**a))
    return _IntegerSpec(spec.n - 1, a, tuple(records))


def _pivot_variable(ell: Form, p: int) -> int | None:
    """The first variable whose coefficient in the linear form ell, whose
    terms run x_1, x_2, ..., is nonzero in the field of characteristic p
    (Q for p = 0), or None when ell vanishes there."""
    return next((m.exponents.index(1) for m, c in ell.terms
                 if not p or _residue(c, p)), None)


def _guard_map(n: int, a: int, nforms: int, d: int, ell: Form,
               field_tag: FieldTag, closed: bool) -> None:
    """Validate multiplication by ell into degree d of the quotient A of n
    variables by their a-th powers and nforms extra forms, and refuse it
    from the shapes alone when a span its rank reads would be too large.

    The spans are checked in the order multiplication_map_rank builds
    them: those of A in degrees d and d-1, unless closed says that the
    dimensions of A follow from the closed form (_has_closed_form), and
    then, unless ell vanishes in the field or n = 1, that of A/ell A in
    degree d, whose spec (_cokernel_spec) has n-1 variables and one more
    form, and which has the same shape modulo FAST_PRIME as over Q. Where
    the closed form leaves A_{d-1} or A_d zero, the rank is 0 and no span
    is read.
    """
    _check_map(n, d, ell)
    if closed:
        p = field_tag.characteristic
        if not min(_closed_dimension(n, a, d, p), _closed_dimension(n, a, d - 1, p)):
            return
    else:
        _guard_span(n, a, nforms, d)
        _guard_span(n, a, nforms, d - 1)
    if n > 1 and _pivot_variable(ell, field_tag.characteristic) is not None:
        _guard_span(n - 1, a, nforms + 1, d)


def _cokernel_dimension(spec: IdealSpec, d: int, ell: Form,
                        field_tag: FieldTag) -> int | None:
    """dim (A/ell A)_d in the field, or None when ell vanishes there. The
    span is read once and freed when its dimension is known."""
    cok = _cokernel_spec(spec, ell, field_tag)
    if cok is spec:  # ell vanishes in the field
        return None
    return _dimension(_span_pivots(cok, d, field_tag))


def multiplication_map_rank(spec: IdealSpec, d: int, ell: Form,
                            mode: FieldTag = RATIONALS) -> dict:
    """Exact rank data of multiplication by a linear form into degree d.

    The map goes from degree d-1 of the quotient A to degree d. Returns the
    rank together with both quotient dimensions. A_{d-1} -> A_d ->
    (A/ell A)_d -> 0 is exact, so the rank is dim A_d - dim (A/ell A)_d,
    and the matrix of the map is never built. Every spec and field takes
    one route, after _guard_map:

    1. dim A_d, then dim A_{d-1}, each read once by graded_dimension, from
       the closed form where one holds and otherwise from a span of A;
    2. where either is 0, the rank is 0 and no span of A/ell A is built;
    3. over Q, when ell and every extra form reduce modulo FAST_PRIME, the
       span of A/ell A is eliminated there first. A rank modulo p never
       exceeds the rank over Q, so dim (A/ell A)_d modulo p is at least
       its dimension over Q, and B = dim A_d less it is a lower bound on
       the rank over Q. When B is the maximal rank min(dim A_{d-1},
       dim A_d), it is the rank;
    4. over Q, when B is dim A_{d-1} - 1 and the paper's kernel element
       for ell certifies a kernel (_witnessed_kernel), B is the rank too;
    5. otherwise the span of A/ell A is eliminated in the query's field.

    Only the dimension of a span of A/ell A is kept, so its matrix is
    freed before the next span is built.
    """
    _guard_map(spec.n, spec.a, len(spec.extra_forms), d, ell, mode,
               _has_closed_form(spec, mode.characteristic))
    dim_at = graded_dimension(spec, d, mode)
    dim_below = graded_dimension(spec, d - 1, mode)
    full = min(dim_below, dim_at)
    rank, settled = 0, not full
    if full and mode.is_rational and all(
            den % FAST_PRIME for _, _, den in
            (_form_record(ell, spec.a), *_records(spec))):
        cok = _cokernel_dimension(spec, d, ell, FAST_FIELD)
        if cok is not None:
            rank = dim_at - cok
            settled = rank == full or (rank == dim_below - 1
                                       and _witnessed_kernel(spec, d, ell))
    if not settled:
        cok = _cokernel_dimension(spec, d, ell, mode)
        rank = 0 if cok is None else dim_at - cok
    return {"rank": rank, "dim_below": dim_below, "dim_at": dim_at}


def _witnessed_kernel(spec: IdealSpec, d: int, ell: Form) -> bool:
    """Whether the paper's kernel element certifies that multiplication by
    ell from degree d-1 of A, over Q, is not injective.

    It applies to the default spec with a = 2, the quotient by the squares
    of the n variables and the square of their sum (_has_closed_form), for
    d >= 3 and 2d-2 <= n < 3d-2, and to an ell with no zero coefficient.
    The pair (Q, Q') of witness.WitnessParams(n, d, the coefficients of
    ell) is built as integer records, and two checks must hold
    (witness._kernel_certified): the exact congruence, which shows
    ell Q = Q' (x_1 + ... + x_n)^2 modulo the squares, so ell Q lies in
    the ideal I; and witness route one, which sums Q's numerators against
    a basis of the null designs that vanish on every member of I and
    decides exactly, on ints, whether Q lies in I. Then Q is a nonzero
    element of A_{d-1} that ell maps to 0, and the rank over Q is at
    most dim A_{d-1} - 1. As B never exceeds the rank over Q, a B of
    dim A_{d-1} - 1 is the rank.

    Neither check eliminates or works modulo a prime, and nothing is
    built when the subsets would pass the subset guard. The answer is
    then False, as it is when the congruence fails or Q lies in I, and
    the rank takes the span.
    witness imports this module, so it is imported here, on first use.
    """
    n = spec.n
    if not (spec.a == 2 and d >= 3 and 2 * d - 2 <= n < 3 * d - 2
            and _has_closed_form(spec, 0)):
        return False
    coeffs = linear_coefficients(ell)
    if not all(coeffs):
        return False
    from . import witness
    return witness._kernel_certified(witness.WitnessParams(n, d, coeffs))


def multiplication_kernel(spec: IdealSpec, d: int, ell: Form) -> list[Form]:
    """Exact rational basis of the kernel of multiplication into degree d.

    Kernel vectors are returned as degree d-1 forms supported on the
    standard monomial basis of the quotient. The products of ell with that
    basis are projected onto the capped basis (_product_rows), so a term
    that holds an a-th power is dropped, and reduced fraction-free against
    the forward echelon of the span in degree d over Q (_span_echelon,
    read once and not cached) by linalg._reduce_against, which returns the
    remainders as integer rows with their scales. The remainders are zero
    on the span's pivot columns, so keeping those columns adds only zero
    equations. The lift and both spans are guarded up front.
    """
    n, a, nforms = spec.n, spec.a, len(spec.extra_forms)
    _check_map(n, d, ell)
    _guard_cells(f"lift into degree {d}", _capped_count(n, a, d - 1),
                 _capped_count(n, a, d))
    _guard_span(n, a, nforms, d - 1)
    _guard_span(n, a, nforms, d)
    std_b = [m.exponents for m in standard_monomials(spec, d - 1)]
    basis, index, echelon, piv = _span_echelon(spec, d, RATIONALS)
    radix = _radix(a)
    nrows, triplets = _product_rows((_form_record(ell, a),),
                                    [_key(e, radix) for e in std_b],
                                    index, RATIONALS)
    rems, scales = _reduce_against(
        _from_triplets(triplets, nrows, len(basis), RATIONALS), echelon, piv)
    return _kernel_forms(zip(*rems), std_b, d - 1, scales)


def _outside_span(spec: IdealSpec, d: int, record, field_tag: FieldTag) -> bool:
    """Whether a rank in the field shows the form of an integer record
    outside the extra-form span S of spec in capped degree d.

    The rows of S are the products of the records of spec with the capped
    multipliers of degree d-a (_shapes), projected onto the capped basis
    by _product_rows. The record, keyed in the radix of spec as
    _form_record keys it, is one more row, projected the same way, so a
    term that holds an a-th power is dropped. The answer is outside
    exactly when [S; Q] has rank rank_Q(S) + 1, where rank_Q(S) is the
    capped count less graded_dimension over Q, the closed form for the
    squares. Over Q the answer is exact. Rational rows whose denominators
    p does not divide never have a higher rank modulo p than over Q, so
    modulo p that rank certifies outside, and a member of S, a prime at
    which a row is lost, and a denominator that p divides, for which no
    matrix is built, answer False. The span is built here and not kept.
    """
    records = _records(spec)
    p = field_tag.characteristic
    if p and any(not den % p for _, _, den in (*records, record)):
        return False
    basis, index, mults = _shapes(spec.n, spec.a, d)
    nrows, (rows, cols, vals) = _product_rows(records, mults, index, field_tag)
    _, (_, qcols, qvals) = _product_rows((record,), (0,), index, field_tag)
    rows += [nrows] * len(qcols)
    M = _from_triplets((rows, cols + qcols, vals + qvals), nrows + 1,
                       len(basis), field_tag)
    rank = len(basis) - graded_dimension(spec, d, RATIONALS)
    return len(_pivots(M, len(basis), field_tag)) == rank + 1


def _kernel_forms(rows, basis, degree: int, scales=None) -> list[Form]:
    """Rational kernel basis of the matrix with these rows, as forms whose
    coefficients sit on the monomials of basis, one per column.

    scales, when given, are nonzero factors by which the columns of the
    matrix were multiplied, and the kernel returned is that of the matrix
    before. Column scaling keeps the pivot columns, so a kernel vector v of
    the scaled matrix maps to the vector with entries scales[b] v[b], and
    dividing that by its last nonzero entry, on its free column, gives
    the same vector as a kernel basis of the unscaled matrix.
    """
    M = RationalMatrix.from_rows(rows, cols=len(basis), field_tag=RATIONALS)
    out = []
    for v in kernel_basis(M):
        if scales is not None:
            v = [s * x for s, x in zip(scales, v)]
            last = next(x for x in reversed(v) if x)
            v = [x / last for x in v]
        out.append(form_from_coefficients(
            degree, {Monomial(e): x for e, x in zip(basis, v) if x}))
    return out


def _monomial_quotient_data(case: GeneratorCase, n: int, d: int):
    if case.kind not in ("squares", "cubes"):
        raise ValueError("need a combinatorial case")
    if d < 1:
        raise ValueError("degree must be at least 1")
    std_b = _standard_exponents(case, n, d - 1)
    std_d = _standard_exponents(case, n, d)
    row_index = {e: i for i, e in enumerate(std_d)}
    rows = [[0] * len(std_b) for _ in std_d]
    for c, mu in enumerate(std_b):
        for i in range(n):
            bumped = mu[:i] + (mu[i] + 1,) + mu[i + 1:]
            r = row_index.get(bumped)
            if r is not None:
                rows[r][c] += 1
    return std_b, std_d, rows


def monomial_quotient_map_rank(case: GeneratorCase, n: int, d: int) -> dict:
    """Rank data of multiplication by the variable sum on the quotient by
    the combinatorial monomial ideal, from degree d-1 to degree d."""
    std_b, std_d, rows = _monomial_quotient_data(case, n, d)
    rank = len(_pivots(rows, len(std_b), RATIONALS))
    return {"rank": rank, "dim_below": len(std_b), "dim_at": len(std_d)}


def monomial_quotient_kernel(case: GeneratorCase, n: int, d: int) -> list[Form]:
    """Kernel basis of the same combinatorial multiplication map, as forms."""
    std_b, _, rows = _monomial_quotient_data(case, n, d)
    return _kernel_forms(rows, std_b, d - 1)


def injectivity_threshold_check(a: int, d: int, n_range, seeds,
                                field_tag: FieldTag | None = None) -> list[dict]:
    """Injectivity verdicts of multiplication by seeded random linear forms.

    One row per n, read from _rank_table, which guards every n before the
    first is computed and settles each rank across the seeds, so a
    full-rank seed certifies the row even in prime mode. The default field
    is F_p with p = FAST_PRIME. Each row also reports whether n meets the
    exact closed-form inequality that guarantees injectivity.
    """
    if a < 2 or d < a:
        raise ValueError("need d >= a >= 2")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    ns = [int(n) for n in n_range]
    if any(n < 1 for n in ns):
        raise ValueError("need at least one variable")
    bound = -(-2 * d // (a - 1)) + Fraction(2 * d - 1, a - 1)
    tag = field_tag if field_tag is not None else FAST_FIELD
    table = _rank_table(a, [(n, d) for n in ns], seeds, tag)
    rows = []
    for n in ns:
        rank, dim_below, dim_at = table[n, d]
        rows.append({"n": n, "dim_below": dim_below, "dim_at": dim_at,
                     "rank": rank, "injective": rank == dim_below,
                     "inequality_met": bool(Fraction(n) >= bound)})
    return rows


def _consensus_rank(spec: IdealSpec, d: int, forms,
                    field_tag: FieldTag) -> tuple[int, int, int]:
    """Rank of multiplication into degree d by a general linear form.

    Returns (rank, dim_below, dim_at). Any form reaching the maximal
    possible rank min(dim_below, dim_at) certifies it, and that
    certificate is exact even in prime mode, so the forms are evaluated in
    order and the first such one settles the rank. Otherwise their ranks
    are compared, and a rational disagreement raises InternalFault. In
    prime mode a disagreement escalates to rational arithmetic only where
    the field's dimensions are Q's, aci_hilbert in degrees d-1 and d, so
    that every degree of a report reads one characteristic; where a small
    prime changes them, the rank is the largest the forms reach in the
    field.
    """
    ranks = set()
    for ell in forms:
        data = multiplication_map_rank(spec, d, ell, mode=field_tag)
        dim_below, dim_at = data["dim_below"], data["dim_at"]
        if data["rank"] == min(dim_below, dim_at):
            return data["rank"], dim_below, dim_at
        ranks.add(data["rank"])
    if len(ranks) == 1:
        return ranks.pop(), dim_below, dim_at
    if field_tag.is_rational:
        raise InternalFault(f"rational ranks disagree across seeds at n={spec.n}, "
                            f"degree {d}: {sorted(ranks)}")
    if (dim_below, dim_at) != (aci_hilbert(spec.n, spec.a, d - 1),
                               aci_hilbert(spec.n, spec.a, d)):
        return max(ranks), dim_below, dim_at
    return _consensus_rank(spec, d, forms, RATIONALS)


def _rank_table(a: int, cells, seeds, field_tag: FieldTag) -> dict:
    """(rank, dim_below, dim_at) of multiplication by a general linear form
    into degree d of the default spec of n variables and exponent a, for
    each (n, d) of the list cells, keyed by (n, d).

    Each n's seeded linear forms are drawn once. The terms of each
    (x_1 + ... + x_n)^a and the spans that each form's map into each cell
    reads (_guard_map) are checked in the order of cells before any power,
    spec or span is built; then each cell's rank is settled across the
    forms by _consensus_rank, on one IdealSpec per n.
    """
    closed = _closed_form(a, field_tag.characteristic)
    forms = {}
    for n, d in cells:
        if n not in forms:
            forms[n] = [random_linear_form(n, s) for s in seeds]
            _guard_power(n, a)
        for ell in forms[n]:
            _guard_map(n, a, 1, d, ell, field_tag, closed)
    specs = {n: IdealSpec(n=n, a=a) for n in forms}
    return {(n, d): _consensus_rank(specs[n], d, forms[n], field_tag)
            for n, d in cells}


@dataclass(frozen=True)
class DegreeRecord:
    """Per-degree outcome of a weak Lefschetz sweep."""

    d: int
    dim_below: int
    dim_at: int
    map_rank: int
    injective: bool
    surjective: bool
    maximal_rank: bool

    def __post_init__(self) -> None:
        if self.map_rank > min(self.dim_below, self.dim_at):
            raise ValueError("rank exceeds a dimension bound")
        if self.maximal_rank != (self.map_rank == min(self.dim_below, self.dim_at)):
            raise ValueError("the maximal_rank flag is inconsistent")
        if self.injective != (self.map_rank == self.dim_below):
            raise ValueError("the injective flag is inconsistent")
        if self.surjective != (self.map_rank == self.dim_at):
            raise ValueError("the surjective flag is inconsistent")


@dataclass(frozen=True)
class WlpReport:
    """All degree records of one sweep plus the overall verdict."""

    n: int
    a: int
    records: tuple[DegreeRecord, ...]
    overall_wlp: bool
    seeds_used: tuple


def _wlp_reports(ns, p: int, seeds, field_tag: FieldTag) -> list[WlpReport]:
    """The WlpReport of each n of ns, all read from one _rank_table.

    The sweep of n runs degrees 1 to top-1, where top = ceil(((p-1)n + p)
    / 2) is the first degree in which the quotient by the p-th powers of
    the n variables and of their sum vanishes over Q: the pure powers have
    the strong Lefschetz property for the variable sum in characteristic 0
    (Stanley), so dim A_d = max(0, h(d) - h(d-p)) for their Hilbert
    function h, which is symmetric about (p-1)n/2. No piece is smaller
    over a prime field, so every degree swept is nonzero there too; a small
    characteristic can leave pieces from top on nonzero, and those are not
    swept. Below p = 2 the quotient vanishes from degree 1, so there is
    nothing to sweep, and such a sweep is refused as invalid.
    """
    seeds = list(seeds)
    if p < 2 or min(ns) < 2:
        raise ValueError("need n >= 2 and a >= 2")
    if not seeds:
        raise ValueError("need at least one seed")
    degrees = {n: range(1, -(-((p - 1) * n + p) // 2)) for n in ns}
    table = _rank_table(p, [(n, d) for n in ns for d in degrees[n]], seeds,
                        field_tag)
    reports = []
    for n in ns:
        records = []
        for d in degrees[n]:
            rank, below, at = table[n, d]
            records.append(DegreeRecord(d, below, at, rank, rank == below,
                                        rank == at, rank == min(below, at)))
        reports.append(WlpReport(
            n=n, a=p, records=tuple(records), seeds_used=tuple(seeds),
            overall_wlp=all(r.maximal_rank for r in records)))
    return reports


def wlp_sweep(n: int, p: int, seeds,
              field_tag: FieldTag = RATIONALS) -> WlpReport:
    """Maximal-rank check of multiplication by seeded random linear forms in
    every degree d with A_d nonzero over Q, d = 1 to ceil(((p-1)n + p) / 2)
    - 1, of the quotient by the p-th powers of the variables and of their
    sum (_wlp_reports). One form per seed serves all degrees, and any seed
    reaching the maximal rank certifies a degree; otherwise the seeds'
    ranks settle it as _consensus_rank does.
    """
    return _wlp_reports([n], p, seeds, field_tag)[0]
