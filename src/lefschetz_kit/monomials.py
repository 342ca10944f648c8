"""Monomial combinatorics for initial ideals of power-sum quotients.

Everything in this module is exact integer combinatorics. The central
objects are the layered generator families of the combinatorial monomial
ideals attached to the square and cube cases, together with the extension
moves that grow a monomial degree by degree without ever entering the
ideal.

Bases are enumerated as lists of exponent tuples, built one variable at a
time from the lists of every lower degree (_iter_exponents), in revlex
descending order; Monomial wraps a tuple only where a caller needs one.

The paper describes the initial ideal of the squares and cubes quotients
by these generators: its standard monomials of degree d, those with every
exponent below a outside the initial ideal, are exactly the capped
monomials outside the combinatorial ideal. _standard_exponents lists them,
and is the one statement of that complement that hilbert.complement_count,
quotient._monomial_quotient_data and the initial subcommand's check read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from operator import le
from typing import Iterable


@dataclass(frozen=True)
class Monomial:
    """Exponent vector with a cached total degree."""

    exponents: tuple[int, ...]
    degree: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        exps = tuple(map(int, self.exponents))
        if exps and min(exps) < 0:
            raise ValueError("exponents must be non-negative")
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "degree", sum(exps))

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    @classmethod
    def square_free(cls, n: int, support: Iterable[int]) -> "Monomial":
        """Square-free monomial on the given 0-based variable indices."""
        e = [0] * n
        for i in support:
            e[i] = 1
        return cls(tuple(e))

    def divides(self, other: "Monomial") -> bool:
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other: "Monomial") -> "Monomial":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __str__(self) -> str:
        return _exponent_str(self.exponents)


def _exponent_str(exponents: tuple[int, ...]) -> str:
    """The monomial with these exponents as text, such as x1^2x3, or 1."""
    parts = [f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
             for i, e in enumerate(exponents) if e]
    return "".join(parts) or "1"


class Ordering(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


def revlex_compare(m1: Monomial, m2: Monomial) -> Ordering:
    """Graded reverse lexicographic comparison of m1 against m2.

    Higher total degree wins. At equal degree the sign of the last nonzero
    entry of the exponent difference decides, with a negative entry making
    m1 the larger monomial.
    """
    if m1.nvars != m2.nvars:
        raise ValueError("variable counts differ")
    if m1.degree != m2.degree:
        return Ordering.GREATER if m1.degree > m2.degree else Ordering.LESS
    for a, b in zip(reversed(m1.exponents), reversed(m2.exponents)):
        if a != b:
            return Ordering.GREATER if a < b else Ordering.LESS
    return Ordering.EQUAL


def revlex_sort_key(m: Monomial) -> tuple:
    """Sort key whose ascending order lists monomials revlex descending."""
    return (-m.degree,) + tuple(reversed(m.exponents))


def _iter_exponents(n: int, d: int, cap: int | None) -> list[tuple[int, ...]]:
    """Degree-d exponent tuples in n variables, revlex descending, every
    exponent at most cap when cap is given.

    The tuples are built one variable at a time: layer[k] lists those of
    degree k in the variables so far, in revlex descending order, and
    appending the next variable's exponent in ascending order to the
    layers below keeps that order.
    """
    if d < 0 or (n == 0 and d != 0):
        return []
    if n == 0:
        return [()]
    top = d if cap is None else min(cap, d)
    layer = [[(k,)] if k <= top else [] for k in range(d + 1)]
    for rest in range(n - 2, -1, -1):
        # the rest variables still to come add at most rest * top
        low = max(0, d - rest * top)
        layer = [[] if k < low else
                 [h + (last,) for last in range(min(top, k) + 1)
                  for h in layer[k - last]]
                 for k in range(d + 1)]
    return layer[d]


def enumerate_degree_piece(n: int, d: int,
                           exponent_cap: int | None = None) -> list[Monomial]:
    """All degree-d monomials in n variables, revlex descending.

    exponent_cap bounds every exponent when given; None means unbounded.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        raise ValueError("degree must be non-negative")
    if exponent_cap is not None and exponent_cap < 1:
        raise ValueError("exponent cap must be at least 1 when given")
    return [Monomial(e) for e in _iter_exponents(n, d, exponent_cap)]


@dataclass(frozen=True)
class GeneratorCase:
    """Which pure-power family an ideal's combinatorial generators follow."""

    kind: str
    exponent: int

    def __post_init__(self) -> None:
        if self.kind not in ("squares", "cubes", "generic"):
            raise ValueError(f"unknown generator case kind: {self.kind!r}")
        if self.kind == "squares" and self.exponent != 2:
            raise ValueError("the squares case has exponent 2")
        if self.kind == "cubes" and self.exponent != 3:
            raise ValueError("the cubes case has exponent 3")
        if self.exponent < 2:
            raise ValueError("exponent must be at least 2")


SQUARES = GeneratorCase("squares", 2)
CUBES = GeneratorCase("cubes", 3)


def generic_power(a: int) -> GeneratorCase:
    """Case tag for an a-th power family without a combinatorial description."""
    return GeneratorCase("generic", a)


@lru_cache(maxsize=None)
def _squares_dk_exps(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for sup in itertools.combinations(range(2 * k - 2), k):
        if any(sum(1 for i in sup if i < 2 * kk - 2) >= kk for kk in range(2, k)):
            continue
        e = [0] * n
        for i in sup:
            e[i] = 1
        out.append(tuple(e))
    out.sort(key=lambda e: tuple(reversed(e)))
    return tuple(out)


@lru_cache(maxsize=None)
def _cubes_dk_exps(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    m = min(k - 1, n)
    out = []
    for head in _iter_exponents(m, k, 2):
        if k - 1 <= n and head[k - 2] >= 2:
            continue
        out.append(head + (0,) * (n - m))
    return tuple(out)


def squares_dk(k: int, n: int) -> list[Monomial]:
    """Degree-k layer of the square-free generator family.

    The layer lives in x1..x_{2k-2} and excludes anything divisible by a
    lower layer's monomial. Requires 2k-2 <= n; the caller must clamp k.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if 2 * k - 2 > n:
        raise ValueError("need n >= 2k-2; the caller must clamp k")
    return [Monomial(e) for e in _squares_dk_exps(k, n)]


def cubes_dk(k: int, n: int) -> list[Monomial]:
    """Degree-k layer of the exponent-cap-2 generator family.

    Monomials use only x1..x_{min(k-1,n)} and, when variable k-1 exists,
    must not be divisible by its square.
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    if n < 1:
        raise ValueError("need at least one variable")
    return [Monomial(e) for e in _cubes_dk_exps(k, n)]


@dataclass(frozen=True)
class GeneratorSet:
    """Minimal generators of a combinatorial monomial ideal.

    generators holds only the non-pure-power members. The pure powers
    x_i^pure_power_exponent of every variable are implied.
    """

    case: GeneratorCase
    n: int
    generators: tuple[Monomial, ...]
    pure_power_exponent: int

    def __post_init__(self) -> None:
        a = self.pure_power_exponent
        if self.n < 1:
            raise ValueError("need at least one variable")
        if a < 2:
            raise ValueError("pure power exponent must be at least 2")
        for g in self.generators:
            if g.nvars != self.n:
                raise ValueError("generator has the wrong variable count")
            if g.degree < 2:
                raise ValueError("generators must have degree at least 2")
            if max(g.exponents) >= a:
                raise ValueError("generator is divisible by a pure power")
        if self.case.kind == "squares":
            for g in self.generators:
                if any(e > 1 for e in g.exponents):
                    raise ValueError("squares generators must be square-free")
        if self.case.kind == "cubes":
            for g in self.generators:
                k = g.degree
                m = min(k - 1, self.n)
                if any(g.exponents[m:]):
                    raise ValueError(
                        f"cubes generator of degree {k} uses variables beyond x{m}")
                if k - 1 <= self.n and g.exponents[k - 2] >= 2:
                    raise ValueError(
                        "cubes generator is divisible by the square of variable k-1")
        exps = [g.exponents for g in self.generators]
        for i, g in enumerate(exps):
            for j, h in enumerate(exps):
                if i != j and all(x <= y for x, y in zip(g, h)):
                    raise ValueError("one generator divides another")


@lru_cache(maxsize=None)
def initial_generators(case: GeneratorCase, n: int, up_to_degree: int) -> GeneratorSet:
    """Minimal non-pure-power generators through the requested degree.

    The raw union of the degree layers is not minimal in the cubes case, so
    division-redundant members are pruned; the generated ideal is unchanged.
    """
    if case.kind not in ("squares", "cubes"):
        raise ValueError("no combinatorial generator family for this case")
    if n < 1:
        raise ValueError("need at least one variable")
    if up_to_degree < case.exponent:
        raise ValueError("up_to_degree must be at least the pure power exponent")
    raw: list[tuple[int, ...]] = []
    if case.kind == "squares":
        for k in range(2, up_to_degree + 1):
            if 2 * k - 2 <= n:
                raw.extend(_squares_dk_exps(k, n))
    else:
        for k in range(3, min(n + 1, up_to_degree) + 1):
            raw.extend(_cubes_dk_exps(k, n))
    kept: list[tuple[int, ...]] = []
    for e in sorted(set(raw), key=lambda t: (sum(t),) + tuple(reversed(t))):
        if not any(all(x <= y for x, y in zip(h, e)) for h in kept):
            kept.append(e)
    return GeneratorSet(case=case, n=n,
                        generators=tuple(Monomial(e) for e in kept),
                        pure_power_exponent=case.exponent)


def in_combinatorial_ideal(m: Monomial, gens: GeneratorSet) -> bool:
    """Whether some generator, pure powers included, divides m.

    gens must contain every generator of degree up to m.degree for this to
    be a full ideal-membership verdict.
    """
    if m.nvars != gens.n:
        raise ValueError("variable counts differ")
    return _in_ideal(m.exponents, gens)


def _in_ideal(e: tuple[int, ...], gens: GeneratorSet) -> bool:
    """in_combinatorial_ideal on the exponent tuple e of gens.n entries,
    without wrapping it in a Monomial."""
    if max(e) >= gens.pure_power_exponent:
        return True
    return any(all(map(le, g.exponents, e)) for g in gens.generators)


def _standard_exponents(case: GeneratorCase, n: int,
                        d: int) -> list[tuple[int, ...]]:
    """The paper's standard monomials of degree d: the exponents with
    every entry below the case's exponent a that lie outside the ideal of
    initial_generators(case, n, max(a, d)), revlex descending."""
    a = case.exponent
    gens = initial_generators(case, n, max(a, d))
    return [e for e in _iter_exponents(n, d, a - 1) if not _in_ideal(e, gens)]


def _full_membership(case: GeneratorCase, n: int, m: Monomial) -> bool:
    gens = initial_generators(case, n, max(case.exponent, m.degree))
    return in_combinatorial_ideal(m, gens)


def _squares_step(e: tuple[int, ...], d: int) -> tuple[int, ...]:
    n = 2 * d - 2
    if e[n - 1] == 0:
        return e[:n - 1] + (1,)
    if e[n - 2] == 0:
        return e[:n - 2] + (1, 1)
    return _squares_step(e[:n - 2], d - 1) + (1, 1)


def extend_squares(m: Monomial, d: int) -> Monomial:
    """Grow m to a degree d-1 square-free multiple still outside the ideal.

    The ambient ring has 2d-2 variables and m must avoid the combinatorial
    ideal. Each step appends one variable, preferring the largest available
    index, so x_{2d-2} is used before x_{2d-3}.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    n = 2 * d - 2
    if m.nvars != n:
        raise ValueError("m must live in 2d-2 variables")
    if any(e > 1 for e in m.exponents):
        raise ValueError("m must be square-free")
    if m.degree > d - 2:
        raise ValueError("m must have degree at most d-2")
    if _full_membership(SQUARES, n, m):
        raise ValueError("m must lie outside the combinatorial ideal")
    e = m.exponents
    while sum(e) < d - 1:
        e = _squares_step(e, d)
    return Monomial(e)


class ExtendMode(Enum):
    TO_DEGREE_D = "to_degree_d"
    ONE_STEP = "one_step"


def _ends_in(e: tuple[int, ...], j: int, power: int) -> bool:
    # last nonzero position is variable j (1-based) with exactly that exponent
    nz = [i for i, v in enumerate(e) if v]
    return bool(nz) and nz[-1] == j - 1 and e[j - 1] == power


def _cubes_step(e: tuple[int, ...]) -> tuple[int, ...]:
    lvl = len(e)
    if e[lvl - 1] < 2:
        return e[:lvl - 1] + (e[lvl - 1] + 1,)
    return _cubes_step(e[:lvl - 1]) + (2,)


def _cubes_to_degree(e: tuple[int, ...]) -> tuple[int, ...]:
    while sum(e) < len(e):
        e = _cubes_step(e)
    return e


def _cubes_one_step(e: tuple[int, ...]) -> tuple[int, ...]:
    lvl = len(e)
    if e[lvl - 1] < 2:
        return e[:lvl - 1] + (e[lvl - 1] + 1,)
    return _cubes_to_degree(e[:lvl - 1]) + (2,)


def extend_cubes(m: Monomial, d: int, mode: ExtendMode) -> Monomial:
    """Grow m inside d variables without entering the combinatorial ideal.

    TO_DEGREE_D takes a monomial of degree at most d-1 to a multiple of
    degree exactly d. ONE_STEP takes a monomial of degree exactly d to a
    multiple of degree d+1 and rejects inputs that end in the square of
    variable d-1.
    """
    if d < 3:
        raise ValueError("d must be at least 3")
    if m.nvars != d:
        raise ValueError("m must live in d variables")
    if any(e > 2 for e in m.exponents):
        raise ValueError("exponents must be at most 2")
    if _full_membership(CUBES, d, m):
        raise ValueError("m must lie outside the combinatorial ideal")
    if mode is ExtendMode.TO_DEGREE_D:
        if m.degree > d - 1:
            raise ValueError("degree must be at most d-1 in this mode")
        return Monomial(_cubes_to_degree(m.exponents))
    if mode is ExtendMode.ONE_STEP:
        if m.degree != d:
            raise ValueError("degree must be exactly d in this mode")
        if _ends_in(m.exponents, d - 1, 2):
            raise ValueError("m must not end in the square of variable d-1")
        return Monomial(_cubes_one_step(m.exponents))
    raise ValueError("unknown extension mode")


def extend_cubes_witness(m: Monomial, d: int) -> Monomial:
    """Multiply m up to degree 2n-d+2 while avoiding the degree-d ideal piece.

    m must have degree d-1, avoid the combinatorial ideal, and not end in the
    square of variable d-2. The part of m inside the first d-1 variables is
    grown by one degree and the result carries the square of every variable
    from x_d on, so the output is a multiple of m of degree 2n-d+2.
    """
    if d < 3:
        raise ValueError("d must be at least 3")
    n = m.nvars
    if n < d - 1:
        raise ValueError("need at least d-1 variables")
    if m.degree != d - 1:
        raise ValueError("m must have degree d-1")
    if any(e > 2 for e in m.exponents):
        raise ValueError("exponents must be at most 2")
    if _ends_in(m.exponents, d - 2, 2):
        raise ValueError("m must not end in the square of variable d-2")
    if _full_membership(CUBES, n, m):
        raise ValueError("m must lie outside the combinatorial ideal")
    head = _cubes_to_degree(m.exponents[:d - 1])
    tilde = _cubes_one_step(head)
    return Monomial(tilde + (2,) * (n - d + 1))
