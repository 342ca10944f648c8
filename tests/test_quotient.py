"""Exact quotient computations against closed-form counts and hand checks."""

import json
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from lefschetz_kit import quotient
from lefschetz_kit.cli import main
from lefschetz_kit.errors import GuardRefusal, InternalFault
from lefschetz_kit.hilbert import aci_hilbert, complement_count
from lefschetz_kit.linalg import (
    DEFAULT_PRIME,
    FAST_PRIME,
    RATIONALS,
    RationalMatrix,
    matrix_rank,
    prime_field,
)
from lefschetz_kit.monomials import (
    CUBES,
    SQUARES,
    Monomial,
    _standard_exponents,
    enumerate_degree_piece,
    in_combinatorial_ideal,
    initial_generators,
)
from lefschetz_kit.quotient import (
    DegreeRecord,
    _consensus_rank,
    _dimension,
    _span_echelon,
    _span_pivots,
    IdealSpec,
    Form,
    form_from_coefficients,
    form_power,
    graded_dimension,
    ideal_degree_basis,
    initial_degree_piece,
    injectivity_threshold_check,
    linear_coefficients,
    linear_form,
    monomial_quotient_kernel,
    monomial_quotient_map_rank,
    multiplication_kernel,
    multiplication_map_rank,
    multiply_forms,
    random_linear_form,
    standard_monomials,
    support_bound_check,
    variable_sum,
    wlp_sweep,
)

FAST = prime_field(FAST_PRIME)


def test_form_validation():
    x1 = Monomial((1, 0))
    x2 = Monomial((0, 1))
    with pytest.raises(ValueError):
        Form(degree=1, terms=((x1, Fraction(0)),))
    with pytest.raises(ValueError):
        Form(degree=2, terms=((x1, Fraction(1)),))
    with pytest.raises(ValueError):
        Form(degree=1, terms=((x2, Fraction(1)), (x1, Fraction(1))))
    f = form_from_coefficients(1, {x2: 2, x1: 3})
    assert [str(m) for m, _ in f.terms] == ["x1", "x2"]
    assert f.nvars == 2


def test_linear_form_round_trip():
    f = linear_form([3, 0, -2])
    assert linear_coefficients(f) == (3, 0, -2)
    assert variable_sum(4) == linear_form([1, 1, 1, 1])


def test_form_multiplication():
    f = linear_form([1, 1])
    sq = multiply_forms(f, f)
    coeffs = {str(m): c for m, c in sq.terms}
    assert coeffs == {"x1^2": 1, "x1x2": 2, "x2^2": 1}
    assert form_power(f, 2) == sq
    assert form_power(f, 3).degree == 3


def test_seeded_spans_read_the_records_of_the_forms_powers(monkeypatch):
    # the integer records random_powers_dimensions builds are those of the
    # Form powers of the seeded linear forms, term by term
    specs = []
    span = quotient._span_echelon

    def record(spec, d, field_tag):
        specs.append(spec)
        return span(spec, d, field_tag)

    monkeypatch.setattr(quotient, "_span_echelon", record)
    for n, a in ((5, 2), (4, 3), (1, 2)):
        del specs[:]
        quotient.random_powers_dimensions(n, a, [1, 2], [a, a + 1], RATIONALS)
        assert len(specs) == 4
        for spec, seed in zip(specs[::2], (1, 2)):
            assert (spec.n, spec.a) == (n, a)
            assert spec.records == tuple(
                quotient._form_record(
                    form_power(random_linear_form(n, seed, index=i), a), a)
                for i in (1, 2))


def test_integer_paths_build_no_form_or_monomial(monkeypatch):
    # the cokernel spec and the seeded specs hold integer records only, so
    # neither builds a Form or a Monomial, and the seeded specs no Fraction
    spec, ell = IdealSpec(n=6, a=3), random_linear_form(6, 1)
    extra = IdealSpec(n=4, a=2, extra_forms=(
        form_power(linear_form([1, Fraction(2, 3), 0, -5]), 2),))
    ell_extra = linear_form([0, Fraction(-7, 2), 1, 3])
    want = quotient.random_powers_dimensions(5, 2, [1, 2], range(6))

    def build(*args, **kwargs):
        raise AssertionError("a Form, Monomial or Fraction was built")

    quotient._substituted_spec.cache_clear()
    for name in ("Form", "Monomial"):
        monkeypatch.setattr(quotient, name, build)
    cok = quotient._substituted_spec(spec, ell, 0)
    assert (cok.n, cok.a, len(cok.records)) == (5, 3, 2)
    assert len(quotient._substituted_spec(extra, ell_extra, 1).records) == 2
    monkeypatch.setattr(quotient, "Fraction", build)
    assert quotient.random_powers_dimensions(5, 2, [1, 2], range(6)) == want
    quotient._substituted_spec.cache_clear()


def test_denominator_p_divides_is_refused_modulo_p():
    # a coefficient of denominator 3 has no residue modulo 3, in the spans
    # of A as in the cokernel spans, as linalg._residue refuses it
    form = form_from_coefficients(2, {Monomial((2, 0, 0)): Fraction(1, 3),
                                      Monomial((1, 1, 0)): 1,
                                      Monomial((0, 0, 2)): Fraction(5, 2)})
    spec = IdealSpec(n=3, a=2, extra_forms=(form,))
    assert graded_dimension(spec, 2, prime_field(5)) == 2
    for d in (2, 3):
        with pytest.raises(ValueError, match="denominator vanishes modulo p"):
            graded_dimension(spec, d, prime_field(3))
    # x_2 is substituted, so the term x_1^2 keeps its denominator 3
    ell = linear_form([0, 1, 1])
    cok = quotient._cokernel_spec(spec, ell, prime_field(3))
    with pytest.raises(ValueError, match="denominator vanishes modulo p"):
        _span_echelon(cok, 2, prime_field(3))
    assert (_dimension(_span_pivots(cok, 2, prime_field(7)))
            == _dimension(_span_pivots(cok, 2, RATIONALS)))


def test_random_linear_form_determinism():
    assert random_linear_form(6, 1) == random_linear_form(6, 1)
    assert random_linear_form(6, 1) != random_linear_form(6, 2)
    assert random_linear_form(6, 1, index=1) != random_linear_form(6, 1, index=2)
    assert all(c > 0 for c in linear_coefficients(random_linear_form(5, 9)))
    # random_powers_dimensions draws its integer coefficients through the
    # helper random_linear_form wraps, so both read one stream per (n,
    # seed, index)
    for n, seed, index in ((1, 1, None), (6, 1, None), (6, 1, 1), (6, 1, 2),
                           (9, 897735, 2)):
        coeffs = quotient._draw_coefficients(n, seed, index)
        assert coeffs == list(linear_coefficients(
            random_linear_form(n, seed, index=index)))
        assert all(type(c) is int for c in coeffs)


def test_ideal_spec_defaults():
    spec = IdealSpec(n=3, a=2)
    assert len(spec.extra_forms) == 1
    assert spec.extra_forms[0] == form_power(variable_sum(3), 2)
    bare = IdealSpec(n=3, a=2, extra_forms=())
    assert bare.extra_forms == ()
    with pytest.raises(ValueError):
        IdealSpec(n=3, a=2, extra_forms=(variable_sum(3),))
    with pytest.raises(ValueError):
        IdealSpec(n=3, a=2, extra_forms=(form_power(variable_sum(4), 2),))


def test_ideal_degree_basis_small():
    M = ideal_degree_basis(IdealSpec(n=2, a=2), 2)
    assert M.rows == 3 and M.cols == 3
    assert matrix_rank(M) == 3
    below = ideal_degree_basis(IdealSpec(n=2, a=2), 1)
    assert below.rows == 0 and below.cols == 2


def test_rank_of_literal_ideal_matrix_matches_quotient_dimension():
    for n, a, top in ((2, 2, 4), (3, 2, 4), (2, 3, 5), (3, 3, 4), (4, 2, 3)):
        spec = IdealSpec(n=n, a=a)
        for d in range(top + 1):
            lhs = matrix_rank(ideal_degree_basis(spec, d))
            assert lhs == comb(n + d - 1, d) - graded_dimension(spec, d)


def test_initial_degree_piece_known_values():
    piece = initial_degree_piece(IdealSpec(n=6, a=2), 2)
    want = {Monomial(tuple(2 if j == i else 0 for j in range(6))) for i in range(6)}
    want.add(Monomial((1, 1, 0, 0, 0, 0)))
    assert piece == want
    cubic = {str(m) for m in initial_degree_piece(IdealSpec(n=2, a=3), 3)}
    assert cubic == {"x1^3", "x1^2x2", "x2^3"}


def test_graded_dimension_known_values():
    assert graded_dimension(IdealSpec(n=6, a=2), 3) == 14
    assert graded_dimension(IdealSpec(n=2, a=3), 3) == 1
    assert graded_dimension(IdealSpec(n=6, a=2), 0) == 1
    assert graded_dimension(IdealSpec(n=6, a=2), 3, FAST) == 14


def test_graded_dimension_matches_combinatorial_count():
    for n in range(2, 7):
        for d in range(0, 5):
            assert graded_dimension(IdealSpec(n=n, a=2), d) == \
                complement_count(SQUARES, n, d)
    for n in range(2, 6):
        for d in range(0, 6):
            assert graded_dimension(IdealSpec(n=n, a=3), d) == \
                complement_count(CUBES, n, d)


def test_default_spec_dimensions_follow_the_closed_form():
    # wlp_sweep runs degrees 1 to top - 1 because, over Q, A_d of the
    # default spec is the clamped h(d) - h(d-a) of the pure powers, which
    # is positive below top and zero from top on; a prime field never
    # makes a piece smaller. The spans are read directly, since
    # graded_dimension returns the closed form itself
    grid = [(n, a) for n in range(1, 6) for a in range(2, 5)]
    grid += [(n, a) for n in (6, 7) for a in (2, 3)]
    for n, a in grid:
        spec = IdealSpec(n=n, a=a)
        top = -(-((a - 1) * n + a) // 2)
        for d in range(top + 1):
            q = _dimension(_span_pivots(spec, d, RATIONALS))
            assert q == aci_hilbert(n, a, d) == graded_dimension(spec, d), \
                (n, a, d)
            assert (q > 0) == (d < top), (n, a, d)
            for p in (3, 5, 7):
                span = _span_pivots(spec, d, prime_field(p))
                assert _dimension(span) >= q, (n, a, d, p)


def test_squares_dimensions_modulo_p_follow_wilsons_rank():
    # in the square-free basis the span of the default squares spec in
    # degree d is twice the inclusion matrix W_{d-2,d}(n), so it is zero
    # modulo 2 and otherwise has the p-rank that Wilson's formula gives;
    # p = 2, 3, 5, 7 and 11 make the divisibility filter drop terms, and
    # 2d - 2 > n needs the complemented matrix
    for n in range(1, 11):
        spec = IdealSpec(n=n, a=2)
        for p in (2, 3, 5, 7, 11, 13, FAST_PRIME, DEFAULT_PRIME):
            tag = prime_field(p)
            assert quotient._has_closed_form(spec, p)
            for d in range(n + 2):
                assert (graded_dimension(spec, d, tag)
                        == _dimension(_span_pivots(spec, d, tag))), (n, d, p)


def test_standard_monomials_complement_the_initial_ideal():
    spec = IdealSpec(n=6, a=2)
    std = standard_monomials(spec, 3)
    assert len(std) == 14
    piece = initial_degree_piece(spec, 3)
    assert all(m not in piece for m in std)
    capped = [m for m in enumerate_degree_piece(6, 3, exponent_cap=1)]
    assert len([m for m in capped if m not in piece]) == 14


def test_standard_exponents_are_the_standard_monomials():
    # the paper's description of the initial ideal over Q: the standard
    # monomials of the squares and cubes quotients are, in order, the
    # capped monomials outside the combinatorial ideal
    for case, ns, ds in ((SQUARES, range(1, 9), range(6)),
                         (CUBES, range(1, 7), range(7))):
        for n in ns:
            for d in ds:
                spec = IdealSpec(n, case.exponent)
                assert _standard_exponents(case, n, d) == [
                    m.exponents for m in standard_monomials(spec, d)], (case, n, d)


def test_multiplication_rank_generic_versus_degenerate():
    spec = IdealSpec(n=6, a=2)
    data = multiplication_map_rank(spec, 3, random_linear_form(6, 1))
    assert data == {"rank": 13, "dim_below": 14, "dim_at": 14}
    degenerate = multiplication_map_rank(spec, 3, variable_sum(6))
    assert degenerate["rank"] == 9
    prime_data = multiplication_map_rank(spec, 3, random_linear_form(6, 1), mode=FAST)
    assert prime_data == data


def test_multiplication_rank_wide_map():
    data = multiplication_map_rank(IdealSpec(n=7, a=2), 3, random_linear_form(7, 1))
    assert data == {"rank": 20, "dim_below": 20, "dim_at": 28}


def test_multiplication_kernel_products_lie_in_the_ideal():
    spec = IdealSpec(n=6, a=2)
    ell = random_linear_form(6, 1)
    kernel = multiplication_kernel(spec, 3, ell)
    assert len(kernel) == 1
    ideal = ideal_degree_basis(spec, 3)
    base_rank = matrix_rank(ideal)
    cols = {m: i for i, m in enumerate(enumerate_degree_piece(6, 3))}
    for k in kernel:
        assert k.degree == 2
        prod = multiply_forms(ell, k)
        vec = [Fraction(0)] * len(cols)
        for m, c in prod.terms:
            vec[cols[m]] = c
        stacked = RationalMatrix.from_rows(list(ideal.entries) + [vec],
                                           cols=len(cols))
        assert matrix_rank(stacked) == base_rank


def test_oversized_lift_refuses_the_kernel_but_not_the_rank(monkeypatch):
    # only the kernel builds the lift of degree 2 into degree 3, 21 x 35 =
    # 735 cells; the rank reads the dimensions of A from the closed form
    # and only the 12 x 20 = 240 cells of the span of A/ell A, which the
    # map guard checks and which is built modulo FAST_PRIME, where it
    # certifies the maximal rank
    spec, ell = IdealSpec(n=7, a=2), random_linear_form(7, 1)
    want = multiplication_map_rank(spec, 3, ell)
    shapes = []
    guard_cells = quotient._guard_cells

    def record(what, rows, cols):
        shapes.append((what, rows, cols))
        guard_cells(what, rows, cols)

    monkeypatch.setattr(quotient, "_guard_cells", record)
    monkeypatch.setattr(quotient, "CELL_GUARD", 500)
    quotient._reduce_spec.cache_clear()
    assert multiplication_map_rank(spec, 3, ell) == want
    assert shapes == [("span in degree 3", 12, 20)] * 2
    with pytest.raises(GuardRefusal,
                       match="cells of the 21 x 35 lift into degree 3 would "
                             "number 735, above the guard of 500"):
        multiplication_kernel(spec, 3, ell)


def test_monomial_quotient_rank_and_kernel():
    data = monomial_quotient_map_rank(SQUARES, 6, 3)
    assert data == {"rank": 13, "dim_below": 14, "dim_at": 14}
    kernel = monomial_quotient_kernel(SQUARES, 6, 3)
    assert len(kernel) == 1
    gens = initial_generators(SQUARES, 6, 3)
    for k in kernel:
        # multiplying by the variable sum must vanish in the quotient
        acc: dict = {}
        for m, c in k.terms:
            assert not in_combinatorial_ideal(m, gens)
            for i in range(6):
                e = m.exponents
                bumped = Monomial(e[:i] + (e[i] + 1,) + e[i + 1:])
                if max(bumped.exponents) <= 1 and \
                        not in_combinatorial_ideal(bumped, gens):
                    acc[bumped] = acc.get(bumped, Fraction(0)) + c
        assert all(v == 0 for v in acc.values())


def test_support_bound_check():
    assert support_bound_check(6, 2, 3)
    assert support_bound_check(4, 3, 3)
    assert support_bound_check(8, 2, 4)
    with pytest.raises(ValueError):
        support_bound_check(6, 2, 1)
    with pytest.raises(ValueError):
        support_bound_check(3, 2, 3)


def test_injectivity_threshold_check():
    rows = injectivity_threshold_check(2, 3, range(6, 8), seeds=(1,))
    by_n = {r["n"]: r for r in rows}
    assert by_n[6]["injective"] is False
    assert by_n[7]["injective"] is True
    assert by_n[7]["rank"] == by_n[7]["dim_below"] == 20
    # the closed-form inequality needs n at least 11 here
    assert by_n[7]["inequality_met"] is False
    met = injectivity_threshold_check(3, 3, range(9, 10), seeds=(1,))[0]
    assert met["inequality_met"] is True and met["injective"] is True
    with pytest.raises(ValueError):
        injectivity_threshold_check(3, 2, range(5, 6), seeds=(1,))
    with pytest.raises(ValueError):
        injectivity_threshold_check(2, 3, range(5, 6), seeds=())


def test_consensus_settles_at_the_first_full_rank_seed(monkeypatch):
    # n = 7 >= 3d - 2 is injective, so seed 1 certifies the cell and seed
    # 2 builds no cokernel span; the cached spans of A go through
    # _reduce_spec, which keeps its own reference to the function it wraps
    calls = []
    span = quotient._span_echelon

    def count(spec, d, field_tag):
        calls.append((spec.n, d))
        return span(spec, d, field_tag)

    monkeypatch.setattr(quotient, "_span_echelon", count)
    row = injectivity_threshold_check(2, 3, [7], [1, 2], FAST)[0]
    assert row["injective"] is True
    assert calls == [(6, 3)]


def _eager_consensus(spec, d, forms, field_tag):
    """The consensus rank with every form evaluated before any is read."""
    datas = [multiplication_map_rank(spec, d, ell, mode=field_tag)
             for ell in forms]
    dim_below, dim_at = datas[0]["dim_below"], datas[0]["dim_at"]
    ranks = {dt["rank"] for dt in datas}
    if min(dim_below, dim_at) in ranks:
        return min(dim_below, dim_at), dim_below, dim_at
    if len(ranks) == 1:
        return ranks.pop(), dim_below, dim_at
    if field_tag.is_rational:
        raise InternalFault("rational ranks disagree")
    return _eager_consensus(spec, d, forms, RATIONALS)


@pytest.mark.parametrize("n, a, d, seeds, field, escalates", [
    (7, 2, 3, [1, 2], FAST, False),             # injective: seed 1 settles
    (5, 2, 3, [1, 2, 3], FAST, False),          # not injective: all seeds
    (4, 3, 4, [1, 2], RATIONALS, False),
    (6, 2, 4, [2, 1], prime_field(DEFAULT_PRIME), False),
    # modulo 3 the seeds give ranks 9 and 12 of 14, and modulo 5 ranks 35
    # and 36 of 37, so Q settles the cell
    (6, 2, 3, [1, 2], prime_field(3), True),
    (5, 3, 5, [1, 2], prime_field(5), True),
])
def test_consensus_matches_eager_evaluation(monkeypatch, n, a, d, seeds,
                                            field, escalates):
    spec = IdealSpec(n=n, a=a)
    forms = [random_linear_form(n, s) for s in seeds]
    want = _eager_consensus(spec, d, forms, field)
    modes = []
    map_rank = quotient.multiplication_map_rank

    def record(spec, d, ell, mode):
        modes.append(mode)
        return map_rank(spec, d, ell, mode=mode)

    monkeypatch.setattr(quotient, "multiplication_map_rank", record)
    assert _consensus_rank(spec, d, forms, field) == want
    assert any(mode != field for mode in modes) == escalates


def test_cokernel_spec_is_built_once_per_form_over_q(monkeypatch):
    # over Q a default-spec map rank reads its cokernel span modulo
    # FAST_PRIME, and over Q where the bound that leaves falls short, as at
    # degree 4 here; both substitute the first variable, so they share one
    # cokernel spec, built once for the one form of the sweep
    fields = []
    span = quotient._span_echelon

    def record(spec, d, field_tag):
        fields.append(field_tag)
        return span(spec, d, field_tag)

    monkeypatch.setattr(quotient, "_span_echelon", record)
    quotient._substituted_spec.cache_clear()
    report = wlp_sweep(8, 2, [897735])
    assert [(r.d, r.map_rank) for r in report.records
            if not r.maximal_rank] == [(4, 41)]
    assert set(fields) == {FAST, RATIONALS}
    assert quotient._substituted_spec.cache_info().misses == 1


def test_rational_rank_of_another_spec_is_certified_modulo_p(monkeypatch):
    # squares plus (x_1 + 2 x_2 + ... + 10 x_10)^2 have no closed form, but
    # their map into degree 4 has maximal rank, so the span of A/ell A
    # modulo FAST_PRIME settles the rank over Q and none is built over Q;
    # the cached spans of A keep their own reference to _span_pivots, so
    # they do not pass through the patched one
    n = 10
    spec = IdealSpec(n=n, a=2, extra_forms=(
        form_power(variable_sum(n), 2),
        form_power(linear_form(range(1, n + 1)), 2)))
    fields = []
    span = quotient._span_pivots

    def record(spec, d, field_tag):
        fields.append(field_tag)
        return span(spec, d, field_tag)

    monkeypatch.setattr(quotient, "_span_pivots", record)
    assert multiplication_map_rank(spec, 4, random_linear_form(n, 1)) == {
        "rank": 100, "dim_below": 100, "dim_at": 121}
    assert fields == [FAST]


def test_prime_span_cache_holds_no_matrix(monkeypatch):
    # modulo p a cached span keeps its basis and pivots and frees its
    # residue array and index, so what the injectivity table leaves allocated is
    # less than the largest single span matrix it builds
    shapes = []
    from_triplets = quotient._from_triplets

    def record(triplets, nrows, ncols, field_tag):
        shapes.append((nrows, ncols))
        return from_triplets(triplets, nrows, ncols, field_tag)

    monkeypatch.setattr(quotient, "_from_triplets", record)
    quotient._reduce_spec.cache_clear()
    tracemalloc.start()
    try:
        injectivity_threshold_check(2, 5, range(10, 15), [1, 2], FAST)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        quotient._reduce_spec.cache_clear()
    largest = max(r * c for r, c in shapes) * np.dtype(np.int64).itemsize
    assert held < largest


def _count_builds(monkeypatch) -> list:
    """Patch quotient._from_triplets to record the shape of each matrix
    built, and return the list it records into."""
    shapes = []
    from_triplets = quotient._from_triplets

    def record(triplets, nrows, ncols, field_tag):
        shapes.append((nrows, ncols))
        return from_triplets(triplets, nrows, ncols, field_tag)

    monkeypatch.setattr(quotient, "_from_triplets", record)
    return shapes


def test_repeated_initial_query_builds_no_span(monkeypatch, capsys):
    query = ["initial", "--n", "8", "--a", "2", "--d", "5"]
    builds = _count_builds(monkeypatch)
    quotient._reduce_spec.cache_clear()
    assert main(query) == 0
    first = json.loads(capsys.readouterr().out)["result"]
    assert builds
    del builds[:]
    assert main(query) == 0
    assert json.loads(capsys.readouterr().out)["result"] == first
    assert builds == []
    assert quotient._reduce_spec.cache_info().hits == 1


def test_seeded_spans_skip_the_span_cache(capsys):
    # the spans of froberg and paths --seeds belong to one seed's forms and
    # are read once, so they neither enter the cache nor evict from it
    assert main(["initial", "--n", "8", "--a", "2", "--d", "5"]) == 0
    info = quotient._reduce_spec.cache_info()
    assert info.currsize
    for query in (["froberg", "--n", "6", "--a", "2", "--seeds", "1"],
                  ["froberg", "--n", "5", "--a", "3", "--seeds", "1,2",
                   "--field", "prime:51999971"],
                  ["paths", "--n", "9", "--d", "3", "--seeds", "1,2"]):
        assert main(query) == 0, query
        assert quotient._reduce_spec.cache_info() == info, query
    capsys.readouterr()


def test_span_cache_keeps_its_cells_under_the_budget(monkeypatch):
    # a span keeps its basis and pivots alone, in every field, so the
    # spans of A in degrees 2 to 6 keep 10, 16, 19, 16 and 10 cells, their
    # basis sizes, over Q as modulo p; with a budget of 20 the least
    # recently used are evicted until the rest fits
    spec = IdealSpec(n=4, a=3)
    cells = {d: quotient._span_cells(_span_pivots(spec, d, RATIONALS))
             for d in range(2, 7)}
    assert list(cells.values()) == [10, 16, 19, 16, 10]
    assert all(quotient._span_cells(_span_pivots(spec, d, FAST)) == c
               for d, c in cells.items())
    monkeypatch.setattr(quotient, "SPAN_CACHE_CELLS", 20)
    quotient._reduce_spec.cache_clear()
    for d in cells:
        quotient._reduce_spec(spec, d, RATIONALS)
        assert quotient._reduce_spec.cache_info().cells <= 20, d
    assert quotient._reduce_spec.cache_info() == (0, 5, 1, 10)
    # degree 5 went when degree 6 came in, and degree 6 stays
    builds = _count_builds(monkeypatch)
    quotient._reduce_spec(spec, 6, RATIONALS)
    assert builds == []
    quotient._reduce_spec(spec, 5, RATIONALS)
    assert len(builds) == 1
    assert quotient._reduce_spec.cache_info().cells == 16


def test_span_above_the_budget_is_built_once_when_read_twice(monkeypatch):
    # a span larger than the whole budget evicts every other span but
    # stays itself until the next miss
    monkeypatch.setattr(quotient, "SPAN_CACHE_CELLS", 1)
    quotient._reduce_spec.cache_clear()
    quotient._reduce_spec(IdealSpec(n=4, a=3), 3, RATIONALS)
    builds = _count_builds(monkeypatch)
    spec = IdealSpec(n=6, a=2)
    first = quotient._reduce_spec(spec, 4, RATIONALS)
    assert quotient._reduce_spec(spec, 4, RATIONALS) is first
    assert len(builds) == 1
    info = quotient._reduce_spec.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 1)
    assert info.cells == quotient._span_cells(first) > 1


def test_shape_cache_keeps_its_cells_under_the_budget(monkeypatch):
    # a shape keeps its basis and its multipliers: at n = 4, a = 3 the
    # degrees 2 to 6 keep 10 + 0, 16 + 1, 19 + 4, 16 + 10 and 10 + 16
    # cells; with a budget of 30 the least recently used go until the rest
    # fits, and a shape above the budget stays alone until the next miss
    cells = {d: quotient._shape_cells(quotient._span_shape(4, 3, d))
             for d in range(2, 7)}
    assert list(cells.values()) == [10, 17, 23, 26, 26]
    monkeypatch.setattr(quotient, "SPAN_CACHE_CELLS", 30)
    quotient._shapes.cache_clear()
    try:
        for d in cells:
            quotient._shapes(4, 3, d)
            assert quotient._shapes.cache_info().cells <= 30, d
        assert quotient._shapes.cache_info() == (0, 5, 1, 26)
        first = quotient._shapes(4, 3, 6)
        assert quotient._shapes(4, 3, 6) is first
        assert quotient._shapes.cache_info().hits == 2
        monkeypatch.setattr(quotient, "SPAN_CACHE_CELLS", 1)
        lone = quotient._shapes(6, 2, 4)
        info = quotient._shapes.cache_info()
        assert (info.currsize, info.cells) == (1, quotient._shape_cells(lone))
        assert info.cells > 1
        # the span of a cached shape reads the cached basis
        assert _span_echelon(IdealSpec(n=6, a=2), 4, RATIONALS)[0] is lone[0]
    finally:
        quotient._shapes.cache_clear()


def test_degree_record_flag_validation():
    with pytest.raises(ValueError):
        DegreeRecord(d=1, dim_below=2, dim_at=2, map_rank=3,
                     injective=False, surjective=False, maximal_rank=False)
    with pytest.raises(ValueError):
        DegreeRecord(d=1, dim_below=2, dim_at=3, map_rank=2,
                     injective=False, surjective=False, maximal_rank=True)


def test_wlp_sweep_holds_in_small_cases():
    report = wlp_sweep(3, 2, (1, 2))
    assert report.overall_wlp is True
    assert report.seeds_used == (1, 2)
    for rec in report.records:
        assert rec.maximal_rank


def test_wlp_sweep_finds_known_failures():
    report = wlp_sweep(4, 3, (1,))
    assert report.overall_wlp is False
    bad = [r for r in report.records if not r.maximal_rank]
    assert [(r.d, r.dim_below, r.dim_at, r.map_rank) for r in bad] == [(4, 15, 15, 14)]
    report = wlp_sweep(6, 2, (1,))
    bad = [r for r in report.records if not r.maximal_rank]
    assert [(r.d, r.map_rank) for r in bad] == [(3, 13)]
