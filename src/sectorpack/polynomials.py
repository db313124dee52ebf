"""Bivariate quadratics with exact rational coefficients.

A candidate packing polynomial on a sector S(n/m) always has homogeneous
part (n/2)*(x - (m-1)*y/n)**2, which is (n/2)*x**2 on an integral sector
S(n); its values are then constant along each staircase line up to a
linear term, which is what makes both classification and enumeration
tractable.  This module holds the representation, the stair-form
bookkeeping, and the constructive side: the unique linear coefficients a
k-stair packing polynomial can have, and the offset that makes the first k
staircases carry the values 0..k-1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    CongruenceViolation,
    NonIntegralOffset,
    NonIntegralStep,
    NotAdmissible,
    NotConsecutive,
    ZeroStep,
)
from .sectors import LatticeMap, LatticePoint, Sector


class Direction(enum.Enum):
    ASCENDING = "asc"
    DESCENDING = "desc"

    def __str__(self) -> str:
        return self.value


_SUPERSCRIPT_TWO = "^2"


@dataclass(frozen=True)
class QuadPoly:
    """a*x^2 + b*x*y + c2*y^2 + d*x + e*y + f with reduced rational coefficients."""

    a: Fraction
    b: Fraction
    c2: Fraction
    d: Fraction
    e: Fraction
    f: Fraction

    def __post_init__(self) -> None:
        for name in ("a", "b", "c2", "d", "e", "f"):
            value = getattr(self, name)
            if not isinstance(value, Fraction):
                object.__setattr__(self, name, Fraction(value))

    def coefficients(self) -> tuple[Fraction, ...]:
        return (self.a, self.b, self.c2, self.d, self.e, self.f)

    def eval(self, p: LatticePoint) -> Fraction:
        x, y = p
        return (
            self.a * x * x
            + self.b * x * y
            + self.c2 * y * y
            + self.d * x
            + self.e * y
            + self.f
        )

    def eval_int(self, p: LatticePoint) -> int:
        value = self.eval(p)
        if value.denominator != 1:
            raise ValueError(f"value at {tuple(p)} is {value}, not an integer")
        return value.numerator

    def is_integer_valued(self) -> bool:
        """True iff the polynomial maps all of Z^2 into Z.

        For degree <= 2 this is equivalent to integrality of the six
        binomial-basis coefficients, i.e. integrality at the probe points
        (0,0), (1,0), (2,0), (0,1), (0,2), (1,1).
        """
        binomial = (
            2 * self.a,
            self.b,
            2 * self.c2,
            self.a + self.d,
            self.c2 + self.e,
            self.f,
        )
        return all(coeff.denominator == 1 for coeff in binomial)

    def compose(self, mapping: LatticeMap) -> "QuadPoly":
        """The polynomial p(M(x, y)) — exact coefficient composition.

        The composition runs in integers on the coefficients scaled by the
        lcm of their denominators, and each new coefficient is built once,
        as one reduced Fraction over that lcm.
        """
        a11, a12, a21, a22 = mapping.a11, mapping.a12, mapping.a21, mapping.a22
        coeffs = (self.a, self.b, self.c2, self.d, self.e)
        den = lcm(*(c.denominator for c in coeffs))
        a, b, c2, d, e = (c.numerator * (den // c.denominator) for c in coeffs)
        return QuadPoly(
            a=Fraction(a * a11 * a11 + b * a11 * a21 + c2 * a21 * a21, den),
            b=Fraction(
                2 * a * a11 * a12 + b * (a11 * a22 + a12 * a21) + 2 * c2 * a21 * a22, den
            ),
            c2=Fraction(a * a12 * a12 + b * a12 * a22 + c2 * a22 * a22, den),
            d=Fraction(d * a11 + e * a21, den),
            e=Fraction(d * a12 + e * a22, den),
            f=self.f,
        )

    def with_offset(self, f: int | Fraction) -> "QuadPoly":
        return QuadPoly(self.a, self.b, self.c2, self.d, self.e, Fraction(f))

    def to_string(self) -> str:
        return " ".join(str(c) for c in self.coefficients())

    @classmethod
    def from_string(cls, text: str) -> "QuadPoly":
        parts = text.split()
        if len(parts) != 6:
            raise ValueError(f"expected six coefficients, got {len(parts)}: {text!r}")
        return cls(*(Fraction(p) for p in parts))

    def to_json_dict(self) -> dict:
        names = ("a", "b", "c2", "d", "e", "f")
        return {name: str(c) for name, c in zip(names, self.coefficients())}

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuadPoly":
        return cls(*(Fraction(data[name]) for name in ("a", "b", "c2", "d", "e", "f")))

    def pretty(self) -> str:
        """Human-readable form like ``4x^2 - 4xy + y^2 - x + y``."""
        terms = []
        monomials = (
            (self.a, "x" + _SUPERSCRIPT_TWO),
            (self.b, "xy"),
            (self.c2, "y" + _SUPERSCRIPT_TWO),
            (self.d, "x"),
            (self.e, "y"),
            (self.f, ""),
        )
        for coeff, mono in monomials:
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            if mono and mag == 1:
                body = mono
            elif mono and mag.denominator != 1:
                body = f"({mag}){mono}"
            elif mono:
                body = f"{mag}{mono}"
            else:
                body = str(mag)
            terms.append((sign, body))
        if not terms:
            return "0"
        first_sign, first_body = terms[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self) -> str:
        return self.to_string()


def _exact_key(p: QuadPoly) -> tuple[tuple[int, int], ...]:
    """p's coefficients as (numerator, denominator) pairs: equal exactly
    when the reduced Fractions are, and hashed without Fraction.__hash__."""
    return tuple((c.numerator, c.denominator) for c in p.coefficients())


@dataclass(frozen=True)
class KStairForm:
    """Stair metadata of a polynomial: |step| k, direction, and the residue
    quotient q with k = q*(n/l) + (the direction's residue class)."""

    k: int
    direction: Direction
    q: int
    offset_f: int


def transport(p: QuadPoly, mapping: LatticeMap) -> QuadPoly:
    return p.compose(mapping)


def stanton_quadratic(s: Sector) -> tuple[Fraction, Fraction, Fraction]:
    """The forced homogeneous part (n/2)*(x - (m-1)*y/n)**2, expanded."""
    n, m = s.n, s.m
    return (Fraction(n, 2), Fraction(-(m - 1)), Fraction((m - 1) ** 2, 2 * n))


def stanton_check(s: Sector, p: QuadPoly) -> bool:
    """True iff n | (m-1)**2 and the homogeneous part is the forced one."""
    if (s.m - 1) ** 2 % s.n != 0:
        return False
    return (p.a, p.b, p.c2) == stanton_quadratic(s)


def _residue(s: Sector, direction: Direction) -> tuple[int, int]:
    """(residue class of k mod n/l, n/l) for the given direction."""
    u, v = s.lines.u, s.lines.v
    res = u % v if direction is Direction.ASCENDING else (-u) % v
    return res, v


def kstair_extract(s: Sector, p: QuadPoly) -> KStairForm:
    """Read off (k, direction, q, f) from a Stanton-form integer polynomial.

    The stair-to-stair difference is d*(m-1)/l + e*n/l, constant on every
    staircase because the homogeneous part is.
    """
    if not stanton_check(s, p):
        raise ValueError("polynomial does not have the forced homogeneous part")
    u, v = s.lines.u, s.lines.v
    delta = p.d * u + p.e * v
    if delta == 0:
        raise ZeroStep("stair difference is zero")
    if delta.denominator != 1:
        raise NonIntegralStep(f"stair difference {delta} is not an integer")
    k = abs(delta.numerator)
    direction = Direction.ASCENDING if delta > 0 else Direction.DESCENDING
    res, v = _residue(s, direction)
    if (k - res) % v != 0:
        raise CongruenceViolation(
            f"k={k} is not congruent to {res} mod {v} for {direction.value}"
        )
    if p.f.denominator != 1:
        raise NonIntegralOffset(f"offset {p.f} is not an integer")
    return KStairForm(k=k, direction=direction, q=(k - res) // v, offset_f=p.f.numerator)


def necessary_coefficients(
    s: Sector, k: int, direction: Direction
) -> tuple[Fraction, Fraction]:
    """The unique linear coefficients (d, e) a k-stair packing polynomial
    on S(n/m) can carry.

    Ascending: d = 1 - k*l/2 and e = (2*(1-m) + k*l*(m+1)) / (2*n), with
    k required to be congruent to (m-1)/l mod n/l; descending mirrors the
    signs and the residue class.
    """
    if (s.m - 1) ** 2 % s.n != 0:
        raise NotAdmissible(f"{s.n} does not divide ({s.m}-1)^2")
    if k < 1:
        raise ValueError("k must be a positive integer")
    res, v = _residue(s, direction)
    if k % v != res:
        raise CongruenceViolation(
            f"k={k} is not congruent to {res} mod {v} for {direction.value}"
        )
    d2, e2 = _stair_pair(s, k, direction)
    return Fraction(d2, 2), Fraction(e2, 2 * s.n)


def _stair_pair(s: Sector, k: int, direction: Direction) -> tuple[int, int]:
    """(2*d, 2*n*e) of necessary_coefficients, in integers, with neither
    the admissibility nor the residue check."""
    kl = k * s.l if direction is Direction.ASCENDING else -k * s.l
    return 2 - kl, 2 * (1 - s.m) + kl * (s.m + 1)


def determine_offset(s: Sector, p0: QuadPoly, k: int) -> int:
    """Offset f completing a stair form into a packing polynomial.

    Evaluates p0 (which must carry f = 0) at the start stairs of
    staircases 0..k-1, where each staircase takes its least value: the
    first stair when p0's stair step d*u + e*v is positive, the last when
    it is negative.  Those k values must be distinct consecutive integers;
    then f = -min(values) places them exactly onto {0..k-1}.
    """
    lines = s.lines
    start = s.last_stair if p0.d * lines.u + p0.e * lines.v < 0 else s.first_stair
    values = [p0.eval(start(c)) for c in range(k)]
    if any(w.denominator != 1 for w in values):
        raise NotConsecutive(f"start-stair values {values} are not all integers")
    ints = sorted(w.numerator for w in values)
    if len(set(ints)) != k or ints[-1] - ints[0] != k - 1:
        raise NotConsecutive(f"start-stair values {ints} are not {k} consecutive integers")
    return -ints[0]


def construct(s: Sector, k: int, direction: Direction) -> tuple[QuadPoly, KStairForm]:
    """Build the k-stair packing polynomial on S(n/m) in the given direction.

    Forced homogeneous part, the unique (d, e) for the direction, then the
    offset from the start stairs of the first k staircases.
    """
    d, e = necessary_coefficients(s, k, direction)
    p0 = QuadPoly(*stanton_quadratic(s), d, e, Fraction(0))
    f = determine_offset(s, p0, k)
    poly = p0.with_offset(f)
    if not poly.is_integer_valued():
        # The consecutive-value test passed by accident of the probe points;
        # a non-integral polynomial still cannot pack.
        raise NotConsecutive(f"no integer-valued {k}-stair completion on S({s})")
    res, v = _residue(s, direction)
    return poly, KStairForm(k, direction, (k - res) // v, f)
