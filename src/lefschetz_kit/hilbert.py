"""Dimension counts for power-sum quotients and the series that predict them."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Sequence

from .monomials import GeneratorCase, _standard_exponents


@lru_cache(maxsize=None)
def _complete_intersection_dim(n: int, a: int, d: int) -> int:
    if d < 0:
        return 0
    if n == 0:
        return 1 if d == 0 else 0
    return sum(_complete_intersection_dim(n - 1, a, d - j) for j in range(a))


def power_ci_hilbert(n: int, a: int, d: int) -> int:
    """Dimension of degree d in n variables modulo the n pure a-th powers.

    Equals the coefficient of t^d in (1 + t + ... + t^(a-1))^n, computed by
    the memoized a-term recurrence over n.
    """
    if n < 0 or a < 1 or d < 0:
        raise ValueError("need n >= 0, a >= 1 and d >= 0")
    return _complete_intersection_dim(n, a, d)


def aci_hilbert(n: int, a: int, d: int) -> int:
    """Predicted degree-d dimension after one extra generic a-th power.

    The value is the clamped difference of consecutive coefficients of
    (1 + t + ... + t^(a-1))^(n+1), never negative.
    """
    if n < 1 or a < 2 or d < 0:
        raise ValueError("need n >= 1, a >= 2 and d >= 0")
    grown = _complete_intersection_dim(n + 1, a, d)
    below = _complete_intersection_dim(n + 1, a, d - 1)
    return max(grown - below, 0)


@dataclass(frozen=True)
class HilbertTable:
    """Dimension table of a pure-power quotient, degree by degree."""

    n: int
    a: int
    values: dict[int, int]

    def dimension(self, d: int) -> int:
        if d < 0:
            raise ValueError("degree must be non-negative")
        return self.values.get(d, 0)


def power_ci_table(n: int, a: int) -> HilbertTable:
    """Tabulate power_ci_hilbert through the top nonzero degree (a-1)n."""
    if n < 1 or a < 1:
        raise ValueError("need n >= 1 and a >= 1")
    socle = (a - 1) * n
    values = {d: _complete_intersection_dim(n, a, d) for d in range(socle + 1)}
    return HilbertTable(n=n, a=a, values=values)


def complement_count(case: GeneratorCase, n: int, d: int) -> int:
    """Count the degree-d standard monomials of the combinatorial ideal
    (monomials._standard_exponents) by enumeration."""
    if case.kind not in ("squares", "cubes"):
        raise ValueError("complement counting needs a combinatorial case")
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    return len(_standard_exponents(case, n, d))


@dataclass(frozen=True)
class TruncatedSeries:
    """Strictly positive initial coefficients of a predicted series.

    truncation_degree is the index of the last retained coefficient.
    """

    coefficients: tuple[int, ...]
    truncation_degree: int

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("at least one coefficient must be retained")
        if any(c <= 0 for c in self.coefficients):
            raise ValueError("retained coefficients must be strictly positive")
        if self.truncation_degree != len(self.coefficients) - 1:
            raise ValueError("truncation_degree must index the last coefficient")


def froberg_truncation(n: int, form_degrees: Sequence[int], D: int) -> TruncatedSeries:
    """Predicted series coefficients, cut at degree D or at the first
    non-positive value, whichever comes sooner.

    The full series is the product of (1 - t^k) over the form degrees k,
    divided by (1 - t)^n.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if D < 0:
        raise ValueError("D must be non-negative")
    degrees = [int(k) for k in form_degrees]
    if any(k < 1 for k in degrees):
        raise ValueError("form degrees must be positive")
    num = [0] * (D + 1)
    num[0] = 1
    for k in degrees:
        for i in range(D, k - 1, -1):
            num[i] -= num[i - k]
    coeffs: list[int] = []
    for d in range(D + 1):
        c = sum(num[i] * comb(n - 1 + d - i, n - 1) for i in range(d + 1))
        if c <= 0:
            break
        coeffs.append(c)
    return TruncatedSeries(coefficients=tuple(coeffs),
                           truncation_degree=len(coeffs) - 1)


def froberg_corollary_degree(n: int, a: int, which: GeneratorCase) -> int:
    """Largest degree through which the predicted series is known to match.

    The case tag must be consistent with a: the squares bound needs a = 2,
    the cubes bound needs a = 3, and the generic bound applies otherwise.
    """
    if n < 1 or a < 2:
        raise ValueError("need n >= 1 and a >= 2")
    if which.kind == "squares":
        if a != 2:
            raise ValueError("the squares bound needs a = 2")
        return (n + 2) // 3
    if which.kind == "cubes":
        if a != 3:
            raise ValueError("the cubes bound needs a = 3")
        return 2 * n // 3 + 1
    if which.exponent != a:
        raise ValueError("case exponent disagrees with a")
    return (n * (a - 1) + 1) // 4
