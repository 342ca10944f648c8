"""Full-surface acceptance checks, one test per numbered requirement.

Each test pins its own wall-clock budget with time.monotonic so a
regression in the exact linear algebra shows up as a failure here and not
just as a slow suite. All assertions are exact equality; nothing in this
file samples floating point.
"""

import time
from itertools import combinations, product

from lefschetz_kit.cli import RunConfig, dispatch
from lefschetz_kit.hilbert import (
    aci_hilbert,
    complement_count,
    froberg_corollary_degree,
    froberg_truncation,
    power_ci_hilbert,
)
from lefschetz_kit.linalg import RATIONALS
from lefschetz_kit.monomials import (
    CUBES,
    SQUARES,
    ExtendMode,
    Monomial,
    enumerate_degree_piece,
    extend_cubes,
    extend_cubes_witness,
    extend_squares,
    in_combinatorial_ideal,
    initial_generators,
)
from lefschetz_kit.paths import (
    PathSpec,
    closed_form_a,
    conjecture_check,
    count_admissible_paths,
    count_double_cross,
)
from lefschetz_kit.quotient import (
    IdealSpec,
    form_power,
    graded_dimension,
    initial_degree_piece,
    injectivity_threshold_check,
    monomial_quotient_kernel,
    monomial_quotient_map_rank,
    multiplication_kernel,
    multiplication_map_rank,
    random_linear_form,
    wlp_sweep,
)
from lefschetz_kit.witness import (
    SumKind,
    random_witness_params,
    subset_sum_check,
    verify_congruence,
    verify_nonmembership,
)

import pytest


def combinatorial_piece(case, n, d):
    gens = initial_generators(case, n, max(case.exponent, d))
    return {m for m in enumerate_degree_piece(n, d)
            if in_combinatorial_ideal(m, gens)}


def test_c01_squares_initial_ideal_grid():
    t0 = time.monotonic()
    for n in range(1, 11):
        for d in range(1, 6):
            piece = initial_degree_piece(IdealSpec(n=n, a=2), d)
            assert piece == combinatorial_piece(SQUARES, n, d), (n, d)
    assert time.monotonic() - t0 < 60


def test_c02_cubes_initial_ideal_grid():
    t0 = time.monotonic()
    for n in range(1, 8):
        for d in range(1, 7):
            piece = initial_degree_piece(IdealSpec(n=n, a=3), d)
            assert piece == combinatorial_piece(CUBES, n, d), (n, d)
    assert time.monotonic() - t0 < 60


def test_c03_squares_injectivity_threshold():
    t0 = time.monotonic()
    for d in (3, 4, 5):
        rows = injectivity_threshold_check(2, d, range(3 * d - 5, 3 * d + 1),
                                           seeds=(1, 2))
        for r in rows:
            assert r["injective"] == (r["n"] >= 3 * d - 2), (d, r)
        # a full-rank verdict modulo p already bounds the rational rank from
        # below, so the injective side of the flip is certified exactly
        flip = [r for r in rows if r["n"] == 3 * d - 2][0]
        assert flip["rank"] == flip["dim_below"]
    # rational reruns at both sides of the flip for the two cheap d
    for d, expect_rank in ((3, 20), (4, 110)):
        rat = injectivity_threshold_check(2, d, (3 * d - 3, 3 * d - 2),
                                          seeds=(1, 2), field_tag=RATIONALS)
        assert rat[0]["injective"] is False
        assert rat[1]["injective"] is True
        assert rat[1]["rank"] == expect_rank
    # rational confirmation of the non-injective side at d = 5 through an
    # exact kernel certificate: the verified pair exhibits a nonzero kernel
    # element for every all-nonzero weight vector, random draws included
    params = random_witness_params(12, 5, seed=1)
    assert verify_congruence(params)
    assert verify_nonmembership(params)
    assert time.monotonic() - t0 < 180


def test_c04_kernel_witness_cells():
    t0 = time.monotonic()
    for d, n in ((3, 6), (4, 8), (4, 9), (5, 12)):
        for s in (1, 2, 3):
            params = random_witness_params(n, d, s)
            assert verify_congruence(params), (d, n, s)
            assert verify_nonmembership(params), (d, n, s)
    for s in (1, 2, 3):
        kernel = multiplication_kernel(IdealSpec(n=6, a=2), 3,
                                       random_linear_form(6, s))
        assert len(kernel) == 1, s
    assert time.monotonic() - t0 < 120


def test_c05_cubes_injectivity_threshold_and_sharpness():
    for d in (3, 4, 5):
        n0 = -(-(3 * d - 3) // 2)
        ns = (n0 - 1, n0) if d in (4, 5) else (n0,)
        rows = injectivity_threshold_check(3, d, ns, seeds=(1, 2),
                                           field_tag=RATIONALS)
        by_n = {r["n"]: r for r in rows}
        assert by_n[n0]["injective"] is True, d
        if d in (4, 5):
            assert by_n[n0 - 1]["injective"] is False, d
    # the failure below the threshold is reported without flagging it
    code, report = dispatch(RunConfig(subcommand="inject", a=3, d=4,
                                      n_range=(4, 5), seeds=(1, 2)))
    assert code == 0
    verdicts = {r["n"]: r["injective"] for r in report["result"]["rows"]}
    assert verdicts == {4: False, 5: True}
    assert "findings" not in report["result"]


def test_c06_general_exponent_bound():
    t0 = time.monotonic()
    for a, d, n_star in ((4, 4, 6), (4, 5, 7), (5, 5, 6)):
        rows = injectivity_threshold_check(a, d, (n_star - 1, n_star),
                                           seeds=(1, 2))
        below, at = rows
        assert below["inequality_met"] is False, (a, d)
        assert at["inequality_met"] is True, (a, d)
        assert at["injective"] is True, (a, d)
        assert at["dim_below"] == aci_hilbert(n_star, a, d - 1)
        assert at["dim_at"] == aci_hilbert(n_star, a, d)
    assert time.monotonic() - t0 < 60


def test_c07_hilbert_identities():
    t0 = time.monotonic()
    for n in range(1, 11):
        for d in range(1, 6):
            assert complement_count(SQUARES, n, d) == aci_hilbert(n, 2, d)
    for n in range(1, 8):
        for d in range(1, 7):
            assert complement_count(CUBES, n, d) == aci_hilbert(n, 3, d)
    for n in range(1, 9):
        for a in range(2, 5):
            socle = (a - 1) * n
            coeffs = [1]
            for _ in range(n):
                coeffs = [sum(coeffs[i - j] for j in range(a) if 0 <= i - j < len(coeffs))
                          for i in range(len(coeffs) + a - 1)]
            for d in range(socle + 1):
                val = power_ci_hilbert(n, a, d)
                assert val == power_ci_hilbert(n, a, socle - d)
                assert val == coeffs[d]
    assert time.monotonic() - t0 < 30


def froberg_cell_agrees(n, a, case, seed):
    D = froberg_corollary_degree(n, a, case)
    pred = froberg_truncation(n, [a] * (n + 2), D)
    f1 = form_power(random_linear_form(n, seed, index=1), a)
    f2 = form_power(random_linear_form(n, seed, index=2), a)
    spec = IdealSpec(n=n, a=a, extra_forms=(f1, f2))
    upto = min(D, pred.truncation_degree)
    dims = [graded_dimension(spec, d) for d in range(upto + 1)]
    return dims == list(pred.coefficients[:upto + 1])


def test_c08_froberg_corollaries():
    t0 = time.monotonic()
    from lefschetz_kit.monomials import generic_power
    for n in range(5, 10):
        assert froberg_cell_agrees(n, 2, SQUARES, 1), n
    for n in range(4, 8):
        assert froberg_cell_agrees(n, 3, CUBES, 1), n
    for n in (5, 6):
        assert froberg_cell_agrees(n, 4, generic_power(4), 1), n
    # one degree beyond the guarantee the prediction truncates to zero while
    # the true dimension stays positive
    pred = froberg_truncation(5, [2] * 7, 3)
    assert pred.truncation_degree == 2
    f1 = form_power(random_linear_form(5, 1, index=1), 2)
    f2 = form_power(random_linear_form(5, 1, index=2), 2)
    exact = graded_dimension(IdealSpec(n=5, a=2, extra_forms=(f1, f2)), 3)
    assert exact == 1
    assert time.monotonic() - t0 < 120


def test_c09_lattice_paths():
    t0 = time.monotonic()
    for n in range(1, 15):
        for d in range(2, n // 3 + 2):
            assert closed_form_a(n, d) == \
                count_admissible_paths(PathSpec(n=n, d=d)), (n, d)
    for d in (3, 4, 5):
        assert count_double_cross(PathSpec(n=3 * d - 4, d=d)) == 1
        assert count_double_cross(PathSpec(n=3 * d - 5, d=d)) == 3 * d - 5
    for n, d in ((5, 3), (6, 3)):
        out = conjecture_check(n, d, (1, 2))
        assert out["agrees"], (n, d)
    cells = [(n, 3) for n in range(4, 13)] + \
            [(n, 4) for n in range(6, 10)] + [(8, 5), (9, 5)]
    for n, d in cells:
        out = conjecture_check(n, d, (1,))
        assert out["exact_dim"] <= out["a_count"], (n, d, out)
    assert time.monotonic() - t0 < 30


def test_c10_wlp_classification():
    t0 = time.monotonic()
    for n, p in ((4, 2), (5, 2), (5, 3), (7, 2)):
        assert wlp_sweep(n, p, (1,)).overall_wlp is True, (n, p)
    for n, p in ((6, 2), (8, 2), (6, 3)):
        assert wlp_sweep(n, p, (1,)).overall_wlp is False, (n, p)
    assert time.monotonic() - t0 < 180


def test_cubes_sweep_below_the_degree_six_bound():
    # the cubes bound (3d-3)/2 is 7.5 at d = 6, so n = 7 lies below it; the
    # map into degree 6 misses injectivity by one, every other degree has
    # maximal rank
    t0 = time.monotonic()
    report = wlp_sweep(7, 3, [1])
    assert [(r.d, r.dim_below, r.dim_at, r.map_rank) for r in report.records] == [
        (1, 1, 7, 1), (2, 7, 28, 7), (3, 28, 76, 28), (4, 76, 154, 76),
        (5, 154, 238, 154), (6, 238, 280, 237), (7, 280, 232, 232),
        (8, 232, 91, 91)]
    assert [r.d for r in report.records if not r.maximal_rank] == [6]
    assert time.monotonic() - t0 < 60


def ends_in_square_of(exps, var):
    nz = [i for i, v in enumerate(exps) if v]
    return bool(nz) and nz[-1] == var and exps[var] == 2


def test_c11_property_suites():
    t0 = time.monotonic()

    # disjointness-detecting subset sums, exhaustive in this window
    for d in (3, 4):
        for n in range(2 * d - 2, min(3 * d - 2, 10)):
            assert subset_sum_check(SumKind.EPSILON, d, n, trials=5, seed=0)
            assert subset_sum_check(SumKind.PSI, d, n, trials=5, seed=0)

    # kernel coefficients vanish on divisors of out-of-ideal monomials
    for case in (SQUARES, CUBES):
        a = case.exponent
        for n in range(2, 9):
            for d in range(2, 5):
                kernel = monomial_quotient_kernel(case, n, d)
                data = monomial_quotient_map_rank(case, n, d)
                assert len(kernel) == data["dim_below"] - data["rank"]
                if not kernel:
                    continue
                gens = initial_generators(case, n, max(a, 2 * d - 1))
                support = {m for k in kernel for m, _ in k.terms}
                for em in enumerate_degree_piece(n, 2 * d - 1):
                    if in_combinatorial_ideal(em, gens):
                        continue
                    for mu in support:
                        assert not mu.divides(em), (case.kind, n, d)

    # multiplication ranks agree between the monomial quotient and the
    # polynomial quotient it models, across the whole classification grid
    for n, p in ((4, 2), (5, 2), (5, 3), (7, 2), (6, 2), (8, 2), (6, 3)):
        case = SQUARES if p == 2 else CUBES
        spec = IdealSpec(n=n, a=p)
        ell = random_linear_form(n, 1)
        d = 1
        while graded_dimension(spec, d) > 0:
            mono = monomial_quotient_map_rank(case, n, d)
            poly = multiplication_map_rank(spec, d, ell)
            assert mono == poly, (n, p, d)
            d += 1

    # square-free extension moves, exhaustive over the ambient window
    squares_checked = 0
    for d in range(2, 7):
        n = 2 * d - 2
        gens = initial_generators(SQUARES, n, max(2, d))
        for deg in range(0, d - 1):
            for sup in combinations(range(n), deg):
                m = Monomial.square_free(n, sup)
                if in_combinatorial_ideal(m, gens):
                    continue
                out = extend_squares(m, d)
                assert out.degree == d - 1 and m.divides(out)
                assert not in_combinatorial_ideal(out, gens)
                squares_checked += 1
    assert squares_checked > 400

    # cube-capped extension moves, both modes, exhaustive per degree
    cubes_checked = 0
    for d in range(3, 7):
        gens = initial_generators(CUBES, d, d + 1)
        for e in product(range(3), repeat=d):
            m = Monomial(e)
            if m.degree > d or in_combinatorial_ideal(m, gens):
                continue
            if m.degree <= d - 1:
                out = extend_cubes(m, d, ExtendMode.TO_DEGREE_D)
                assert out.degree == d and m.divides(out)
                assert not in_combinatorial_ideal(out, gens)
                assert out.exponents[d - 1] in (1, 2)
                cubes_checked += 1
            else:
                if ends_in_square_of(e, d - 2):
                    with pytest.raises(ValueError):
                        extend_cubes(m, d, ExtendMode.ONE_STEP)
                    continue
                out = extend_cubes(m, d, ExtendMode.ONE_STEP)
                assert out.degree == d + 1 and m.divides(out)
                assert not in_combinatorial_ideal(out, gens)
                cubes_checked += 1
    assert cubes_checked > 500

    # the long extension used by the kernel construction, exhaustive
    witness_checked = 0
    for d in range(3, 7):
        for n in range(max(d - 1, 2), 9):
            gens = initial_generators(CUBES, n, max(3, d))
            for m in enumerate_degree_piece(n, d - 1, exponent_cap=2):
                if in_combinatorial_ideal(m, gens):
                    continue
                if ends_in_square_of(m.exponents, d - 3):
                    with pytest.raises(ValueError):
                        extend_cubes_witness(m, d)
                    continue
                out = extend_cubes_witness(m, d)
                assert out.degree == 2 * n - d + 2
                assert m.divides(out)
                assert not in_combinatorial_ideal(out, gens)
                witness_checked += 1
    assert witness_checked > 1500
    assert time.monotonic() - t0 < 120
