"""Bounded lattice walks and the quotient dimensions they predict.

Walks have n+2 unit steps starting at 0, with the first and last step
forced upward, and must end at n+2-2d. The admissible count keeps walks
between the wall at 0 and the wall at n+3-2d, while the double-cross count
collects walks whose first wall violation is the upper one and which later
violate the lower one. Under the default convention a wall is violated
only by stepping strictly beyond it; the alternative convention, kept for
comparison, already counts touching a wall and fails the binomial
calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb

from .errors import InternalFault
from .linalg import RATIONALS
from .quotient import IdealSpec, form_power, graded_dimension, random_linear_form


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


def count_admissible_paths(spec: PathSpec) -> int:
    """Walks that stay within both walls and end at n+2-2d.

    Returns 0 when the endpoint is negative. Under the touch convention the
    interior positions must avoid the walls themselves; the final position
    is exempt since it must sit at the upper wall's height.
    """
    n, d = spec.n, spec.d
    r = n + 2 - 2 * d
    if r < 0:
        return 0
    touch = spec.boundary_convention is BoundaryConvention.CROSS_MEANS_TOUCH
    steps = n + 2

    def allowed(x: int, is_final: bool) -> bool:
        if x < 0 or x > r:
            return False
        if touch and not is_final and (x == 0 or x == r):
            return False
        return True

    cur: dict[int, int] = {}
    if allowed(1, steps == 1):
        cur[1] = 1
    for i in range(2, steps + 1):
        is_final = i == steps
        moves = (1,) if is_final else (1, -1)
        nxt: dict[int, int] = {}
        for x, cnt in cur.items():
            for dx in moves:
                y = x + dx
                if allowed(y, is_final):
                    nxt[y] = nxt.get(y, 0) + cnt
        cur = nxt
    return cur.get(r, 0)


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


def count_double_cross(spec: PathSpec) -> int:
    """Walks ending at n+2-2d whose first wall violation is the upper wall
    and which later violate the lower wall, same step rules as above."""
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
    return cur.get((r, 2), 0)


def path_counts(spec: PathSpec) -> PathCounts:
    """Bundle both walk counts with the closed form for one PathSpec."""
    cf = closed_form_a(spec.n, spec.d)
    return PathCounts(a_count=count_admissible_paths(spec),
                      t_count=count_double_cross(spec),
                      closed_form_valid=cf is not None,
                      closed_form_value=cf)


def conjecture_check(n: int, d: int, seeds) -> dict:
    """Compare the admissible count against an exact quotient dimension.

    The dimension is that of degree d of the quotient by all variable
    squares plus the squares of two seeded random linear forms. All seeds
    must give the same dimension. Callers should treat exact_dim above
    a_count as a finding; equality is reported in "agrees". An oversized
    span is refused with GuardRefusal by the shape guard of quotient.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    spec = PathSpec(n=n, d=d)
    a_count = count_admissible_paths(spec)
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    dims = set()
    for s in seeds:
        f1 = form_power(random_linear_form(n, s, index=1), 2)
        f2 = form_power(random_linear_form(n, s, index=2), 2)
        q = IdealSpec(n=n, a=2, extra_forms=(f1, f2))
        dims.add(graded_dimension(q, d, RATIONALS))
    if len(dims) > 1:
        raise InternalFault(f"seeded dimensions disagree: {sorted(dims)}")
    exact_dim = dims.pop()
    return {"a_count": a_count, "exact_dim": exact_dim,
            "agrees": exact_dim == a_count}
