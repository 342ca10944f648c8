"""Walk counts against brute-force enumeration and the binomial closed form."""

import itertools
from math import comb

import pytest

from lefschetz_kit import paths, quotient
from lefschetz_kit.cli import main
from lefschetz_kit.errors import GuardRefusal, InternalFault
from lefschetz_kit.paths import (
    BoundaryConvention,
    PathCounts,
    PathSpec,
    closed_form_a,
    conjecture_check,
    count_admissible_paths,
    count_double_cross,
    path_counts,
)

STRICT = BoundaryConvention.CROSS_MEANS_STRICTLY_BEYOND
TOUCH = BoundaryConvention.CROSS_MEANS_TOUCH


def brute_force_counts(n, d, touch):
    # enumerate every sign vector with forced first and last up-steps
    r = n + 2 - 2 * d
    steps = n + 2
    a = t = 0
    for bits in itertools.product((1, -1), repeat=steps - 2):
        seq = (1,) + bits + (1,)
        positions = list(itertools.accumulate(seq))
        if positions[-1] != r:
            continue
        ok = True
        for i, x in enumerate(positions):
            final = i == steps - 1
            if x < 0 or x > r:
                ok = False
                break
            if touch and not final and (x == 0 or x == r):
                ok = False
                break
        if ok:
            a += 1
        phase = 0
        for i, x in enumerate(positions):
            interior = i < steps - 1
            if touch and interior:
                hi, lo = x >= r, x <= 0
            else:
                hi, lo = x > r, x < 0
            if phase == 0:
                if hi:
                    phase = 1
                elif lo:
                    phase = None
                    break
            elif phase == 1 and lo:
                phase = 2
        if phase == 2:
            t += 1
    return a, t


def test_admissible_known_values():
    assert count_admissible_paths(PathSpec(n=6, d=3)) == 8
    assert count_admissible_paths(PathSpec(n=5, d=3)) == 1
    assert count_admissible_paths(PathSpec(n=4, d=3)) == 0
    assert count_admissible_paths(PathSpec(n=5, d=2)) == 8
    assert count_admissible_paths(PathSpec(n=12, d=2)) == 64


def test_touch_convention_differs():
    assert count_admissible_paths(
        PathSpec(n=5, d=2, boundary_convention=TOUCH)) == 1


def test_double_cross_known_values():
    assert count_double_cross(PathSpec(n=5, d=3)) == 1
    assert count_double_cross(PathSpec(n=4, d=3)) == 4
    assert count_double_cross(PathSpec(n=7, d=4)) == 7
    assert count_double_cross(PathSpec(n=10, d=5)) == 10


def test_spec_validation():
    with pytest.raises(ValueError):
        PathSpec(n=0, d=3)
    with pytest.raises(ValueError):
        PathSpec(n=3, d=1)
    with pytest.raises(ValueError):
        closed_form_a(0, 2)
    with pytest.raises(ValueError):
        PathCounts(a_count=1, t_count=0, closed_form_valid=True,
                   closed_form_value=None)


def test_closed_form_domain():
    assert closed_form_a(6, 3) == 8
    assert closed_form_a(12, 2) == 64
    assert closed_form_a(11, 5) is None
    assert closed_form_a(14, 5) == comb(14, 5) - 2 * comb(14, 3) + comb(14, 1)


def test_closed_form_matches_count_everywhere_valid():
    for n in range(1, 15):
        for d in range(2, 6):
            cf = closed_form_a(n, d)
            if cf is None:
                assert d > n // 3 + 1
            else:
                assert cf == count_admissible_paths(PathSpec(n=n, d=d)), (n, d)


def test_path_counts_bundle():
    counts = path_counts(PathSpec(n=6, d=3))
    assert counts == PathCounts(a_count=8, t_count=0,
                                closed_form_valid=True, closed_form_value=8)
    counts = path_counts(PathSpec(n=5, d=3))
    assert counts.a_count == 1 and counts.t_count == 1
    assert not counts.closed_form_valid


def test_both_counts_come_from_one_walk(monkeypatch, capsys):
    # path_counts reads both counts from one walk, and the comparison of
    # paths --seeds walks once more for its admissible count
    calls = []
    real = paths._walk

    def walk(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(paths, "_walk", walk)
    assert path_counts(PathSpec(n=9, d=3)) == PathCounts(
        a_count=66, t_count=0, closed_form_valid=True, closed_form_value=66)
    assert len(calls) == 1
    calls.clear()
    assert main(["paths", "--n", "9", "--d", "3", "--seeds", "1"]) == 0
    assert capsys.readouterr().out
    assert len(calls) == 2


def test_alternating_binomial_identity_with_correction():
    # the double-cross count is exactly the correction that makes the
    # alternating binomial expression hold below the closed-form domain
    def c(n, k):
        return comb(n, k) if k >= 0 else 0

    for d in (3, 4, 5):
        for n in range(3 * d - 5, 13):
            counts = path_counts(PathSpec(n=n, d=d))
            lhs = c(n, d) - 2 * c(n, d - 2) + c(n, d - 4)
            assert lhs == counts.a_count - counts.t_count, (n, d)


def test_brute_force_agreement():
    for n in range(1, 11):
        for d in (2, 3, 4, 5):
            for conv in (STRICT, TOUCH):
                spec = PathSpec(n=n, d=d, boundary_convention=conv)
                a, t = brute_force_counts(n, d, conv is TOUCH)
                assert count_admissible_paths(spec) == a, (n, d, conv)
                assert count_double_cross(spec) == t, (n, d, conv)


def test_conjecture_check_known_values():
    out = conjecture_check(5, 3, (1, 2))
    assert out == {"a_count": 1, "exact_dim": 1, "agrees": True}
    out = conjecture_check(6, 3, (1,))
    assert out == {"a_count": 8, "exact_dim": 8, "agrees": True}
    with pytest.raises(ValueError):
        conjecture_check(6, 3, ())


def test_conjecture_check_guard(monkeypatch):
    # the span is refused from its shape before either form is built
    def build(*args):
        raise AssertionError("a form was built before the refusal")

    monkeypatch.setattr(quotient, "_linear_powers", build)
    with pytest.raises(GuardRefusal, match="the cells of the 182780 x 3838380 "
                                           "span in degree 6 would number"):
        conjecture_check(40, 6, (1,))


def test_conjecture_check_seeds_must_agree(monkeypatch):
    # a dimension that changed with the seed would make the comparison
    # depend on which seed was read, so it is a fault, not an answer
    dims = iter([8, 9])
    monkeypatch.setattr(quotient, "_dimension", lambda span: next(dims))
    with pytest.raises(InternalFault,
                       match=r"seeded dimensions disagree: \[\(8,\), \(9,\)\]"):
        conjecture_check(6, 3, (1, 2))
