"""Bounded lattice walks and the quotient dimensions they predict.

Walks have n+2 unit steps starting at 0, with the first and last step
forced upward, and must end at n+2-2d. The admissible count keeps walks
between the wall at 0 and the wall at n+3-2d, while the double-cross count
collects walks whose first wall violation is the upper one and which later
violate the lower one. Both are read from one walk (_walk), which tracks
each walk's wall violations with one rule (_phase_after). Under the
default convention a wall is violated only by stepping strictly beyond
it; the alternative convention, kept for comparison, already counts
touching a wall and fails the binomial calibration.

The dimension the admissible count is compared against comes from
quotient.random_powers_dimensions, which checks that the seeds agree and
guards the span before it builds anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb

from .quotient import random_powers_dimensions


class BoundaryConvention(Enum):
    CROSS_MEANS_STRICTLY_BEYOND = "strict"
    CROSS_MEANS_TOUCH = "touch"


@dataclass(frozen=True)
class PathSpec:
    """Walk family determined by n and d plus the wall convention."""

    n: int
    d: int
    boundary_convention: BoundaryConvention = BoundaryConvention.CROSS_MEANS_STRICTLY_BEYOND

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.d < 2:
            raise ValueError("d must be at least 2")


@dataclass(frozen=True)
class PathCounts:
    """Both walk counts plus the closed-form value where it applies."""

    a_count: int
    t_count: int
    closed_form_valid: bool
    closed_form_value: int | None

    def __post_init__(self) -> None:
        if self.closed_form_valid and self.closed_form_value is None:
            raise ValueError("a valid closed form needs a value")


def closed_form_a(n: int, d: int) -> int | None:
    """Alternating binomial value, defined only for d <= floor(n/3) + 1."""
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    if d > n // 3 + 1:
        return None

    def c(k: int) -> int:
        return comb(n, k) if k >= 0 else 0

    return c(d) - 2 * c(d - 2) + c(d - 4)


def _phase_after(phase: int, x: int, interior: bool, r: int, touch: bool):
    """The phase of a walk that reaches x in the given phase, or None when
    it leaves the family: phase 0 has violated no wall, phase 1 has
    violated the upper wall first, and phase 2 has since violated the
    lower one. A walk that violates the lower wall first is dropped.

    A position violates a wall by lying strictly beyond it, or under the
    touch convention at an interior position also by touching it.
    """
    if touch and interior:
        hi = x >= r
        lo = x <= 0
    else:
        hi = x > r
        lo = x < 0
    if phase == 0:
        if hi:
            return 1
        if lo:
            return None
        return 0
    if phase == 1:
        return 2 if lo else 1
    return 2


def _walk(spec: PathSpec) -> dict[int, int]:
    """The walks of spec that end at n+2-2d, counted by their _phase_after
    phase there."""
    n, d = spec.n, spec.d
    r = n + 2 - 2 * d
    touch = spec.boundary_convention is BoundaryConvention.CROSS_MEANS_TOUCH
    steps = n + 2
    cur: dict[tuple[int, int], int] = {}
    ph = _phase_after(0, 1, steps > 1, r, touch)
    if ph is not None:
        cur[(1, ph)] = 1
    for i in range(2, steps + 1):
        interior = i < steps
        moves = (1,) if i == steps else (1, -1)
        nxt: dict[tuple[int, int], int] = {}
        for (x, phase), cnt in cur.items():
            for dx in moves:
                y = x + dx
                nph = _phase_after(phase, y, interior, r, touch)
                if nph is None:
                    continue
                key = (y, nph)
                nxt[key] = nxt.get(key, 0) + cnt
        cur = nxt
    return {phase: cnt for (x, phase), cnt in cur.items() if x == r}


def count_admissible_paths(spec: PathSpec) -> int:
    """Walks that stay within both walls and end at n+2-2d: those that end
    there in phase 0 of _walk.

    Returns 0 when the endpoint is negative. Under the touch convention the
    interior positions must avoid the walls themselves; the final position
    is exempt since it must sit at the upper wall's height.
    """
    return _walk(spec).get(0, 0)


def count_double_cross(spec: PathSpec) -> int:
    """Walks ending at n+2-2d whose first wall violation is the upper wall
    and which later violate the lower wall, same step rules as above: those
    that end there in phase 2 of _walk."""
    return _walk(spec).get(2, 0)


def path_counts(spec: PathSpec) -> PathCounts:
    """Bundle both walk counts, read from one _walk, with the closed form
    for one PathSpec."""
    cf = closed_form_a(spec.n, spec.d)
    ends = _walk(spec)
    return PathCounts(a_count=ends.get(0, 0), t_count=ends.get(2, 0),
                      closed_form_valid=cf is not None,
                      closed_form_value=cf)


def conjecture_check(n: int, d: int, seeds) -> dict:
    """Compare the admissible count against an exact quotient dimension.

    The dimension is that of degree d of the quotient by all variable
    squares plus the squares of two seeded random linear forms, from
    quotient.random_powers_dimensions: all seeds must give the same
    dimension, and an oversized power or span is refused with
    GuardRefusal before any form is built. Callers should treat exact_dim
    above a_count as a finding; equality is reported in "agrees".
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    a_count = count_admissible_paths(PathSpec(n=n, d=d))
    (exact_dim,) = random_powers_dimensions(n, 2, seeds, [d])
    return {"a_count": a_count, "exact_dim": exact_dim,
            "agrees": exact_dim == a_count}
