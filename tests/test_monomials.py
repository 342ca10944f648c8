from itertools import combinations, product

import numpy as np
import pytest

from lefschetz_kit.monomials import (
    CUBES,
    SQUARES,
    ExtendMode,
    Monomial,
    Ordering,
    _iter_exponents,
    cubes_dk,
    enumerate_degree_piece,
    extend_cubes,
    extend_cubes_witness,
    extend_squares,
    generic_power,
    in_combinatorial_ideal,
    initial_generators,
    revlex_compare,
    revlex_sort_key,
    squares_dk,
)


def sf(n, support):
    return Monomial.square_free(n, support)


def test_monomial_basics():
    m = Monomial((2, 1, 0))
    assert m.degree == 3
    assert m.nvars == 3
    assert str(m) == "x1^2x2"
    assert str(Monomial((0, 0))) == "1"
    assert (m * Monomial((0, 1, 1))).exponents == (2, 2, 1)
    assert Monomial((1, 1, 0)).divides(Monomial((2, 1, 0)))
    assert not Monomial((0, 0, 1)).divides(Monomial((2, 1, 0)))


def test_square_free_constructor():
    assert sf(4, [0, 2]).exponents == (1, 0, 1, 0)
    assert sf(3, []).degree == 0
    with pytest.raises(ValueError):
        Monomial((1, -1))


def test_monomial_normalizes_exponents():
    for exps in ((True, False, True), np.array([2, 0, 1]),
                 (np.int64(3), np.int8(0))):
        m = Monomial(exps)
        assert all(type(e) is int for e in m.exponents)
        assert m.exponents == tuple(int(e) for e in exps)
        assert m.degree == sum(m.exponents)
    assert Monomial(()).degree == 0
    for bad in ((0, -1), (-2,), np.array([1, -1])):
        with pytest.raises(ValueError):
            Monomial(bad)


def _reference_exponents(n, d, cap):
    # every vector with entries up to the cap or d, filtered by degree
    if d < 0:
        return []
    top = d if cap is None else cap
    found = [e for e in product(range(top + 1), repeat=n) if sum(e) == d]
    return sorted(found, key=lambda e: revlex_sort_key(Monomial(e)))


@pytest.mark.parametrize("cap", [None, 0, 1, 2, 3, 4])
def test_iter_exponents_matches_brute_force(cap):
    # cap 0 is the basis of k[x_1]/(x_1), the n = 1 cokernel of a map rank
    for n in range(7):
        for d in range(-2, 8):
            assert _iter_exponents(n, d, cap) == _reference_exponents(n, d, cap), \
                (n, d, cap)


def test_revlex_compare_degree_first():
    assert revlex_compare(Monomial((2, 0)), Monomial((1, 0))) is Ordering.GREATER
    assert revlex_compare(Monomial((1, 0)), Monomial((1, 0))) is Ordering.EQUAL


def test_revlex_compare_equal_degree():
    # at equal degree the monomial using later variables is smaller
    x1x2 = Monomial((1, 1, 0))
    x1x3 = Monomial((1, 0, 1))
    x3sq = Monomial((0, 0, 2))
    assert revlex_compare(x1x2, x1x3) is Ordering.GREATER
    assert revlex_compare(x1x3, x3sq) is Ordering.GREATER
    assert revlex_compare(x3sq, x1x2) is Ordering.LESS
    with pytest.raises(ValueError):
        revlex_compare(Monomial((1,)), Monomial((1, 0)))


def test_enumeration_is_revlex_descending():
    names = [str(m) for m in enumerate_degree_piece(3, 2)]
    assert names == ["x1^2", "x1x2", "x2^2", "x1x3", "x2x3", "x3^2"]
    for n, d in ((2, 4), (4, 3), (5, 2)):
        piece = enumerate_degree_piece(n, d)
        keys = [revlex_sort_key(m) for m in piece]
        assert keys == sorted(keys)
        for a, b in zip(piece, piece[1:]):
            assert revlex_compare(a, b) is Ordering.GREATER


def test_enumeration_cap():
    capped = enumerate_degree_piece(3, 3, exponent_cap=2)
    assert len(capped) == 7
    assert all(max(m.exponents) <= 2 for m in capped)
    square_free = enumerate_degree_piece(5, 2, exponent_cap=1)
    assert len(square_free) == 10


def test_squares_layers_match_known_displays():
    assert [str(m) for m in squares_dk(2, 12)] == ["x1x2"]
    assert [str(m) for m in squares_dk(3, 12)] == ["x1x3x4", "x2x3x4"]
    assert [str(m) for m in squares_dk(4, 12)] == [
        "x1x3x5x6", "x2x3x5x6", "x1x4x5x6", "x2x4x5x6", "x3x4x5x6",
    ]
    assert len(squares_dk(5, 12)) == 14


def test_squares_layers_are_filtered_square_free():
    for k in (2, 3, 4, 5):
        for m in squares_dk(k, 2 * k - 2):
            assert m.degree == k
            assert max(m.exponents) == 1
            support = [i for i, e in enumerate(m.exponents) if e]
            assert max(support) <= 2 * k - 3
            for kk in range(2, k):
                assert sum(1 for i in support if i < 2 * kk - 2) < kk


def test_cubes_layers_match_known_displays():
    assert [str(m) for m in cubes_dk(3, 7)] == ["x1^2x2"]
    assert [str(m) for m in cubes_dk(4, 7)] == ["x1^2x2^2", "x1^2x2x3", "x1x2^2x3"]
    assert {str(m) for m in cubes_dk(5, 7)} == {
        "x1^2x2^2x3", "x1^2x2^2x4", "x1^2x2x3^2", "x1^2x2x3x4", "x1x2^2x3^2",
        "x1x2^2x3x4", "x1x2x3^2x4", "x2^2x3^2x4", "x1^2x3^2x4",
    }


def test_cubes_layers_small_variable_fallback():
    # with fewer than k-1 variables the layer holds every capped monomial
    assert [str(m) for m in cubes_dk(4, 2)] == ["x1^2x2^2"]
    assert [str(m) for m in cubes_dk(5, 3)] == [
        "x1^2x2^2x3", "x1^2x2x3^2", "x1x2^2x3^2",
    ]


def test_generator_set_pruning():
    gs = initial_generators(SQUARES, 6, 3)
    assert gs.pure_power_exponent == 2
    assert [str(m) for m in gs.generators if m.degree == 2] == ["x1x2"]
    assert [str(m) for m in gs.generators if m.degree == 3] == ["x1x3x4", "x2x3x4"]
    gc = initial_generators(CUBES, 4, 4)
    assert [str(m) for m in gc.generators if m.degree == 4] == ["x1x2^2x3"]
    for gens in (gs, gc):
        members = gens.generators
        for a, b in combinations(members, 2):
            assert not a.divides(b) and not b.divides(a)


def test_generator_case_validation():
    assert SQUARES.exponent == 2 and CUBES.exponent == 3
    assert generic_power(5).exponent == 5
    with pytest.raises(ValueError):
        generic_power(1)


def test_membership():
    gens = initial_generators(SQUARES, 6, 3)
    assert in_combinatorial_ideal(sf(6, [0, 1, 4]), gens)
    assert in_combinatorial_ideal(Monomial((2, 0, 0, 0, 0, 1)), gens)
    assert not in_combinatorial_ideal(sf(6, [0, 2, 4]), gens)
    assert not in_combinatorial_ideal(Monomial((0,) * 6), gens)


def test_extend_squares_append_branch():
    out = extend_squares(sf(12, [0, 2, 4, 6, 11]), 7)
    assert out == sf(12, [0, 2, 4, 6, 10, 11])
    out = extend_squares(sf(12, [0, 2, 4, 6, 8]), 7)
    assert out == sf(12, [0, 2, 4, 6, 8, 11])


def test_extend_squares_strip_branch():
    out = extend_squares(sf(12, [0, 2, 4, 10, 11]), 7)
    assert out == sf(12, [0, 2, 4, 9, 10, 11])


def test_extend_squares_rejects_bad_input():
    with pytest.raises(ValueError):
        extend_squares(sf(12, [0, 1, 2, 3, 11]), 7)  # inside the ideal
    with pytest.raises(ValueError):
        extend_squares(sf(12, [1, 3, 5, 7, 8, 11]), 7)  # degree d-1 already
    with pytest.raises(ValueError):
        extend_squares(sf(10, [0, 2]), 7)  # wrong ambient width
    with pytest.raises(ValueError):
        extend_squares(Monomial((2, 0) + (0,) * 10), 7)  # not square free


def test_extend_squares_exhaustive_small():
    for d in (2, 3, 4):
        n = 2 * d - 2
        gens = initial_generators(SQUARES, n, max(2, d))
        for deg in range(0, d - 1):
            for support in combinations(range(n), deg):
                m = sf(n, support)
                if in_combinatorial_ideal(m, gens):
                    continue
                out = extend_squares(m, d)
                assert out.degree == d - 1
                assert m.divides(out)
                assert not in_combinatorial_ideal(out, gens)


def test_extend_cubes_modes():
    base = Monomial((1, 0, 0, 0))
    gens = initial_generators(CUBES, 4, 5)
    out = extend_cubes(base, 4, ExtendMode.TO_DEGREE_D)
    assert out.degree == 4 and base.divides(out)
    assert not in_combinatorial_ideal(out, gens)
    assert out.exponents[3] in (1, 2)
    one = extend_cubes(out, 4, ExtendMode.ONE_STEP)
    assert one.degree == 5 and out.divides(one)
    assert not in_combinatorial_ideal(one, gens)


def test_extend_cubes_rejects_bad_input():
    with pytest.raises(ValueError):
        extend_cubes(Monomial((2, 1, 0, 0)), 4, ExtendMode.TO_DEGREE_D)  # in ideal
    with pytest.raises(ValueError):
        extend_cubes(Monomial((1, 0, 0)), 4, ExtendMode.TO_DEGREE_D)  # wrong width
    with pytest.raises(ValueError):
        extend_cubes(Monomial((3, 0, 0, 0)), 4, ExtendMode.TO_DEGREE_D)  # exponent 3
    # one step refuses inputs ending in the square of the last-but-one variable
    with pytest.raises(ValueError):
        extend_cubes(Monomial((1, 1, 2, 0)), 4, ExtendMode.ONE_STEP)


def test_extend_cubes_exhaustive_small():
    for d in (3, 4):
        gens = initial_generators(CUBES, d, d + 1)
        for e in product(range(3), repeat=d):
            m = Monomial(e)
            if in_combinatorial_ideal(m, gens):
                continue
            if m.degree <= d - 1:
                out = extend_cubes(m, d, ExtendMode.TO_DEGREE_D)
                assert out.degree == d and m.divides(out)
                assert not in_combinatorial_ideal(out, gens)
                assert out.exponents[d - 1] in (1, 2)


def test_extend_cubes_witness():
    m = Monomial((1, 1, 1, 0, 0))
    out = extend_cubes_witness(m, 4)
    assert out.degree == 2 * 5 - 4 + 2
    assert m.divides(out)
    assert not in_combinatorial_ideal(out, initial_generators(CUBES, 5, 4))
    # an input ending in the square of variable d-2 has no valid extension
    with pytest.raises(ValueError):
        extend_cubes_witness(Monomial((1, 2, 0, 0, 0)), 4)
