"""Bivariate quadratics with exact rational coefficients.

A candidate packing polynomial on a sector S(n/m) always has homogeneous
part (n/2)*(x - (m-1)*y/n)**2, which is (n/2)*x**2 on an integral sector
S(n); its values are then constant along each staircase line up to a
linear term, which is what makes both classification and enumeration
tractable.  This module holds the representation, the stair-form
bookkeeping, and the constructive side: the unique linear coefficients a
k-stair packing polynomial can have, and the offset that makes the start
stairs of the first k staircases carry 0..k-1.  _start_stairs reads every
start stair, its stair count and its value in integers; the codec's stream
reads its runs off it too.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator

from .errors import (
    CongruenceViolation,
    NonIntegralOffset,
    NonIntegralStep,
    NotAdmissible,
    NotConsecutive,
    ZeroStep,
    _excerpt,
)
from .sectors import LatticeMap, LatticePoint, Sector


class Direction(enum.Enum):
    ASCENDING = "asc"
    DESCENDING = "desc"

    def __str__(self) -> str:
        return self.value


_SUPERSCRIPT_TWO = "^2"


def _digit_limit(what: str, token: str = "") -> str:
    """The message for ``what``, a number longer than the digits Python
    converts between text and int (sys.get_int_max_str_digits()).  A
    ``token`` is named as errors._excerpt names it, by its ends and its
    length, not by every digit."""
    if token:
        what += f" {_excerpt(token)}"
    limit = sys.get_int_max_str_digits()
    return f"{what} is longer than the {limit} digits Python converts between text and int"


def _coefficient(token: str) -> Fraction:
    """One coefficient of QuadPoly.from_string: an integer or p/q."""
    num, slash, den = token.partition("/")
    parts = [num.removeprefix("-"), den] if slash else [num.removeprefix("-")]
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError(f"coefficient {_excerpt(token)} is not an integer or p/q")
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError:  # digits only, so past the digit limit
        raise ValueError(_digit_limit("coefficient", token)) from None
    if q == 0:
        raise ValueError(f"coefficient {_excerpt(token)} has a zero denominator")
    return Fraction(p, q)


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

    def to_string(self) -> str:
        return " ".join(str(c) for c in self.coefficients())

    @classmethod
    def from_string(cls, text: str) -> "QuadPoly":
        """The polynomial whose six coefficients to_string writes: each an
        integer or p/q, with an optional minus sign and ASCII digits only,
        so no decimal, exponent or nan."""
        parts = text.split()
        if len(parts) != 6:
            raise ValueError(f"expected six coefficients, got {len(parts)}: {_excerpt(text)}")
        return cls(*(_coefficient(p) for p in parts))

    def to_json_dict(self) -> dict:
        names = ("a", "b", "c2", "d", "e", "f")
        return {name: str(c) for name, c in zip(names, self.coefficients())}

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


@dataclass(frozen=True)
class KStairForm:
    """Stair metadata of a polynomial: |step| k, direction, and the residue
    quotient q with k = q*(n/l) + (the direction's residue class)."""

    k: int
    direction: Direction
    q: int
    offset_f: int


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


def _start_stairs(s: Sector, A: int, B: int, F: int, unit: int, cs: Iterable[int]) -> Iterator:
    """(x, y, count, w, rem) of each staircase c in cs, in integers, for
    the forced homogeneous part, (c*l)**2/(2n) on staircase c, plus
    (A*x + B*y + F)/unit, unit a multiple of 2n.  (x, y) is the start
    stair, where the staircase's values are least: the first stair, or the
    last (ValueError if none) when the stair step A*u + B*v is negative.
    count is the stair count, and the value there is w + rem/unit.
    _start_values reads staircases 0..k-1; the codec's stream reads each
    residue class's staircases c0, c0 + k, ... as they are needed."""
    lines, Q = s.lines, unit // (2 * s.n)
    u, v, l = lines.u, lines.v, lines.l
    last = A * u + B * v < 0
    for c in cs:
        x, y, count = lines.line(c)
        if last:
            if not count:
                raise ValueError(f"staircase {c} has no point in S({s})")
            x, y = x + (count - 1) * u, y + (count - 1) * v
        w, rem = divmod(Q * (c * l) ** 2 + A * x + B * y + F, unit)
        yield x, y, count, w, rem


def _start_values(s: Sector, d: Fraction, e: Fraction, f: Fraction, k: int) -> dict[int, int]:
    """The start-stair values of staircases 0..k-1, as {value: staircase},
    of the polynomial with the forced homogeneous part and linear part
    d*x + e*y + f.  Each staircase takes its least value at its start
    stair: the first stair when the stair step d*u + e*v is positive, the
    last when it is negative.  A packing polynomial's k values are
    distinct consecutive integers, so -min of them is the offset that
    places them exactly onto {0..k-1}.  The values are read one staircase
    at a time, and the first that is not an integer, repeats one before
    it or spreads them over more than k integers is a NotConsecutive."""
    unit = 2 * s.n * lcm(d.denominator, e.denominator, f.denominator)
    A, B, F = (coeff.numerator * (unit // coeff.denominator) for coeff in (d, e, f))
    seen: dict[int, int] = {}
    low = high = 0
    for c, (*_, w, rem) in enumerate(_start_stairs(s, A, B, F, unit, range(k))):
        if rem:
            value = Fraction(w * unit + rem, unit)
            raise NotConsecutive(f"start-stair value {value} of staircase {c} is not an integer")
        if w in seen:
            raise NotConsecutive(f"staircase {c} repeats start-stair value {w}")
        seen[w] = c
        low, high = (w, w) if c == 0 else (min(low, w), max(high, w))
        if high - low > k - 1:
            raise NotConsecutive(
                f"start-stair value {w} of staircase {c} spreads the values over "
                f"{low}..{high}, more than {k} consecutive integers"
            )
    return seen


def construct(s: Sector, k: int, direction: Direction) -> tuple[QuadPoly, KStairForm]:
    """Build the k-stair packing polynomial on S(n/m) in the given direction.

    Forced homogeneous part, the unique (d, e) for the direction, then the
    offset from the start stairs of the first k staircases.  These checks
    prove that the result packs the whole sector (step 0 of the codec
    docstring), and make_scheme accepts exactly the polynomials built here.
    """
    d, e = necessary_coefficients(s, k, direction)
    f = -min(_start_values(s, d, e, Fraction(0), k))
    poly = QuadPoly(*stanton_quadratic(s), d, e, f)
    if not poly.is_integer_valued():
        # The consecutive-value test passed by accident of the probe points;
        # a non-integral polynomial still cannot pack.
        raise NotConsecutive(f"no integer-valued {k}-stair completion on S({s})")
    res, v = _residue(s, direction)
    return poly, KStairForm(k, direction, (k - res) // v, f)
