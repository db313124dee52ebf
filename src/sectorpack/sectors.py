"""Sector geometry: rational sectors, staircases, and lattice-preserving maps.

The sector S(n/m) is the plane region {(x, y) : x, y >= 0 and m*y <= n*x}.
Its lattice points decompose into one family of parallel lines, the
"staircases": line c is the set of lattice points on (m-1)*y = n*x - c*l,
where l = gcd(n, m-1).  Consecutive points on a line differ by the fixed
step (u, v) = ((m-1)/l, n/l).  On the integral sectors S(n) = S(n/1),
l = gcd(n, 0) = n and the staircases are the columns x = c, with u = 0 and
v = 1.  LineFamily holds the geometry of every line in O(1).

Everything here is exact integer / reduced-rational arithmetic.  Boundary
membership (m*y == n*x) must be decided exactly, so no floating point is
used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import (
    DegenerateDual,
    NegativeImage,
    NotAdmissible,
    NotCoprime,
    NotInvertible,
    PointOutsideSector,
    _excerpt,
)


class LatticePoint(NamedTuple):
    x: int
    y: int


def mod_inverse(a: int, modulus: int) -> int:
    """Inverse of a modulo ``modulus``, in [0, modulus).

    For modulus 1 the inverse is 0 by convention.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if modulus == 1:
        return 0
    try:
        return pow(a, -1, modulus)
    except ValueError as exc:
        raise NotInvertible(f"{a} has no inverse mod {modulus}") from exc


@dataclass(frozen=True)
class Sector:
    """The sector S(n/m) with n, m coprime positive integers.

    ``l`` is gcd(n, m-1), which is n on an integral sector (m = 1), whose
    staircases are its columns.
    """

    n: int
    m: int
    l: int

    @property
    def slope(self) -> Fraction:
        return Fraction(self.n, self.m)

    def __str__(self) -> str:
        return f"{self.n}/{self.m}"

    def contains(self, p: LatticePoint) -> bool:
        return p.x >= 0 and p.y >= 0 and p.y * self.m <= p.x * self.n

    @cached_property
    def lines(self) -> LineFamily:
        """The sector's line family, its staircases."""
        return LineFamily(self)

    def staircase_index(self, p: LatticePoint) -> int:
        """Index c of the staircase through p: c = (n*x - (m-1)*y) / l."""
        if not self.contains(p):
            raise PointOutsideSector(f"{tuple(p)} is not in S({self})")
        return (p.x * self.n - p.y * (self.m - 1)) // self.l

    def first_stair(self, c: int) -> LatticePoint:
        """The lattice point with the least y >= 0 on the staircase-c line.

        Whenever n divides (m-1)**2 this point lies in the sector; in
        general it may sit above the boundary ray.
        """
        x0, z, _ = self.lines.line(c)
        return LatticePoint(x0, z)

    def stair_count(self, c: int) -> int:
        """Number of lattice points on staircase c inside the sector.

        Boundary points (m*y == n*x) count.
        """
        return self.lines.line(c)[2]


class LineFamily:
    """The lines (m-1)*y = n*x - c*l of a sector, c = 0, 1, 2, ...

    ``(u, v)`` is the step between consecutive points on a line and ``r``
    the inverse of u mod v.
    """

    __slots__ = ("n", "m", "l", "u", "v", "r")

    def __init__(self, s: Sector):
        self.n, self.m, self.l = s.n, s.m, s.l
        self.u, self.v = (s.m - 1) // s.l, s.n // s.l
        self.r = mod_inverse(self.u, self.v)

    def line(self, c: int) -> tuple[int, int, int]:
        """(x0, z, count) of line c.

        (x0, z) is its lattice point with the least y >= 0: z = (-c*r) mod v
        and x0 = ((m-1)*z + c*l)/n.  Its points (x0 + t*u, z + t*v) lie in
        the sector while m*y <= n*x, that is t*v <= n*x0 - m*z (since
        m*v - n*u = v), so count = (n*x0 - m*z)//v + 1.
        """
        z = (-c * self.r) % self.v
        x0 = ((self.m - 1) * z + c * self.l) // self.n
        count = (self.n * x0 - self.m * z) // self.v + 1
        return x0, z, count if count > 0 else 0


@dataclass(frozen=True)
class Quadrant:
    """Distinguished target of W-reduction when the reduced slope is 1/0.

    Stands for the whole first quadrant; reached only from sectors S(1/m).
    """

    def contains(self, p: LatticePoint) -> bool:
        return p.x >= 0 and p.y >= 0

    def __str__(self) -> str:
        return "quadrant"


QUADRANT = Quadrant()

Region = Union[Sector, Quadrant]


def sector(n: int, m: int) -> Sector:
    """Build S(n/m); n, m must be positive and coprime."""
    if n < 1 or m < 1:
        raise ValueError("sector parameters must be positive")
    if math.gcd(n, m) != 1:
        raise NotCoprime(f"gcd({n}, {m}) != 1")
    return Sector(n=n, m=m, l=math.gcd(n, m - 1))


def parse_sector(text: str) -> Sector:
    """Parse the text form "n/m" (a bare integer "n" means n/1)."""
    parts = text.strip().split("/")
    if len(parts) == 1:
        parts = [parts[0], "1"]
    if len(parts) != 2:
        raise ValueError(f"cannot parse sector {_excerpt(text)}; expected n/m")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"cannot parse sector {_excerpt(text)}; expected n/m") from None
    return sector(n, m)


@dataclass(frozen=True)
class LatticeMap:
    """An integer 2x2 map (x, y) -> (a11*x + a12*y, a21*x + a22*y).

    The maps used here all have determinant +-1 and send the source
    sector's lattice points bijectively onto the target's; that property
    is checked by tests, not enforced by construction.
    """

    a11: int
    a12: int
    a21: int
    a22: int
    source: Region
    target: Region

    @property
    def det(self) -> int:
        return self.a11 * self.a22 - self.a12 * self.a21

    def is_identity(self) -> bool:
        return (self.a11, self.a12, self.a21, self.a22) == (1, 0, 0, 1)

    def apply(self, p: LatticePoint) -> LatticePoint:
        if not self.source.contains(p):
            raise PointOutsideSector(f"{tuple(p)} is not in S({self.source})")
        q = LatticePoint(
            self.a11 * p.x + self.a12 * p.y,
            self.a21 * p.x + self.a22 * p.y,
        )
        if q.x < 0 or q.y < 0:
            raise NegativeImage(f"{tuple(p)} maps to {tuple(q)} outside the first quadrant")
        return q

    def compose(self, inner: "LatticeMap") -> "LatticeMap":
        """The map "apply ``inner`` first, then self" (matrix product self*inner)."""
        return LatticeMap(
            a11=self.a11 * inner.a11 + self.a12 * inner.a21,
            a12=self.a11 * inner.a12 + self.a12 * inner.a22,
            a21=self.a21 * inner.a11 + self.a22 * inner.a21,
            a22=self.a21 * inner.a12 + self.a22 * inner.a22,
            source=inner.source,
            target=self.target,
        )

    def inverse(self) -> "LatticeMap":
        d = self.det
        if d not in (1, -1):
            raise ValueError("only unimodular maps can be inverted exactly")
        if d == 1:
            entries = (self.a22, -self.a12, -self.a21, self.a11)
        else:
            entries = (-self.a22, self.a12, self.a21, -self.a11)
        return LatticeMap(*entries, source=self.target, target=self.source)

    def to_json_dict(self) -> dict:
        return {
            "a11": self.a11,
            "a12": self.a12,
            "a21": self.a21,
            "a22": self.a22,
            "source": str(self.source),
            "target": str(self.target),
        }


def identity_map(s: Region) -> LatticeMap:
    return LatticeMap(1, 0, 0, 1, source=s, target=s)


def w_reduce(s: Sector) -> tuple[Region, LatticeMap]:
    """Shear S(n/m) down to a slope >= 1 representative.

    For m < n the sector is already reduced and the identity is returned.
    Otherwise the map (x, y) -> (x - floor(m/n)*y, y) carries the lattice
    points of S(n/m) bijectively onto those of S(n / (m mod n)).  When
    m mod n == 0 (possible only for n = 1) the image is the whole first
    quadrant and the distinguished Quadrant value is returned.
    """
    if s.m < s.n:
        return s, identity_map(s)
    q = s.m // s.n
    m_red = s.m - s.n * q
    target: Region
    if m_red == 0:
        target = QUADRANT
    else:
        target = sector(s.n, m_red)
    return target, LatticeMap(1, -q, 0, 1, source=s, target=target)


def t_dual(s: Sector) -> tuple[Sector, LatticeMap]:
    """The determinant -1 duality map from S(n/m) onto S(n/(n+2-m)).

    Requires n | (m-1)**2, which makes (1 - m'*m)/n an integer.  Swaps
    ascending and descending stair polynomials between the two sectors;
    applying it twice on a self-dual sector is the identity.  An integral
    sector S(n) maps to S(n/(n+1)), and S(n/(n+1)) back onto S(n).
    """
    if (s.m - 1) ** 2 % s.n != 0:
        raise NotAdmissible(f"{s.n} does not divide ({s.m}-1)^2")
    m_dual = s.n + 2 - s.m
    if m_dual < 1 or math.gcd(s.n, m_dual) != 1:
        raise DegenerateDual(f"dual parameter n+2-m = {m_dual} is invalid for S({s})")
    dual = sector(s.n, m_dual)
    off_diag = (1 - m_dual * s.m) // s.n
    return dual, LatticeMap(m_dual, off_diag, s.n, -s.m, source=s, target=dual)
