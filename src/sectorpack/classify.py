"""The full decision procedure for quadratic packing polynomials on S(n/m).

For slope > 1 sectors the admissible stair counts come from the
classification theorems: k = 1 iff n | (m-1)^2 and m-1 | n; k = 2 iff
m = 9 mod 16 and n = (m-1)^2/16; k = 3 iff m = 10 or 19 mod 27 and
n = (m-1)^2/27, plus the lone exceptional sector S(12/7); nothing for
k >= 4.  Descending counts are the ascending counts of the dual sector.
Integral sectors carry the classical pair f_n, g_n plus two extras each
on S(3) and S(4); slope < 1 sectors are handled by shearing to the
reduced representative and pulling the answer back.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .polynomials import Direction, KStairForm, QuadPoly, construct, kstair_extract
from .sectors import LatticeMap, Quadrant, Sector, sector, w_reduce


class Provenance(enum.Enum):
    STAIR_ASC = "stair-ascending"
    STAIR_DESC = "stair-descending"
    NATHANSON_F = "nathanson-f"
    NATHANSON_G = "nathanson-g"
    CANTOR_F = "cantor-f"
    CANTOR_G = "cantor-g"
    TRANSPORTED = "transported"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Entry:
    """One packing polynomial with its stair metadata and origin.

    ``transport`` is the map M with poly = base_poly o M whenever the
    entry was carried over from another sector (M.target names that base
    sector); it is None for polynomials constructed in place.
    """

    poly: QuadPoly
    form: KStairForm
    provenance: Provenance
    transport: Optional[LatticeMap] = None

    def to_json_dict(self) -> dict:
        return {
            "poly": self.poly.to_string(),
            "k": self.form.k,
            "direction": self.form.direction.value,
            "provenance": self.provenance.value,
            "transport": self.transport.to_json_dict() if self.transport else None,
        }


@dataclass(frozen=True)
class Classification:
    sector: Sector
    entries: tuple[Entry, ...]

    def polynomials(self) -> list[QuadPoly]:
        return [entry.poly for entry in self.entries]

    def to_json_dict(self) -> dict:
        return {
            "sector": str(self.sector),
            "entries": [entry.to_json_dict() for entry in self.entries],
        }


def nathanson_polys(n: int) -> tuple[QuadPoly, QuadPoly]:
    """The two classical packing polynomials on the integral sector S(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    half = Fraction(n, 2)
    f_n = QuadPoly(half, 0, 0, 1 - half, 1, 0)
    g_n = QuadPoly(half, 0, 0, 1 + half, -1, 0)
    return f_n, g_n


def cantor_polys() -> tuple[QuadPoly, QuadPoly]:
    """The two diagonal pairing polynomials on the full first quadrant."""
    half = Fraction(1, 2)
    f = QuadPoly(half, 1, half, half, Fraction(3, 2), 0)
    g = QuadPoly(half, 1, half, Fraction(3, 2), half, 0)
    return f, g


def _ascending_ks(n: int, m: int) -> list[int]:
    """Ascending stair counts admitted on S(n/m) for m >= 2, n > m."""
    ks = []
    sq = (m - 1) ** 2
    if sq % n != 0:
        return ks
    if n % (m - 1) == 0:
        ks.append(1)
    if m % 16 == 9 and 16 * n == sq:
        ks.append(2)
    if m % 27 in (10, 19) and 27 * n == sq:
        ks.append(3)
    if (n, m) == (12, 7):
        ks.append(3)
    return sorted(ks)


def admissible_ks(n: int, m: int) -> set[tuple[int, Direction]]:
    """All (k, direction) pairs carrying a packing polynomial on S(n/m).

    Requires gcd(n, m) = 1, m >= 2, n > m.  Descending pairs are the
    ascending pairs of the dual sector S(n/(n+2-m)).
    """
    if math.gcd(n, m) != 1:
        raise ValueError("n and m must be coprime")
    if m < 2 or n <= m:
        raise ValueError("admissible_ks needs m >= 2 and n/m > 1")
    pairs: set[tuple[int, Direction]] = set()
    if (m - 1) ** 2 % n != 0:
        return pairs
    for k in _ascending_ks(n, m):
        pairs.add((k, Direction.ASCENDING))
    for k in _ascending_ks(n, n + 2 - m):
        pairs.add((k, Direction.DESCENDING))
    return pairs


# Integral sectors with extra polynomials: n -> (staircase sector m, k).
_INTEGRAL_EXTRAS = {3: (10, 3), 4: (9, 2)}

_SORT_ORDER = {Direction.ASCENDING: 0, Direction.DESCENDING: 1}


def _classify_integral(s: Sector) -> list[Entry]:
    f_n, g_n = nathanson_polys(s.n)
    entries = [
        Entry(f_n, kstair_extract(s, f_n), Provenance.NATHANSON_F),
        Entry(g_n, kstair_extract(s, g_n), Provenance.NATHANSON_G),
    ]
    if s.n in _INTEGRAL_EXTRAS:
        m_special, k = _INTEGRAL_EXTRAS[s.n]
        special = sector(s.n, m_special)
        asc_poly, asc_form = construct(special, k, Direction.ASCENDING)
        _, shear = w_reduce(special)            # shear : I(special) -> I(s)
        back = shear.inverse()                  # back  : I(s) -> I(special)
        asc_here = asc_poly.compose(back)       # a shear keeps the stair form
        entries.append(Entry(asc_here, asc_form, Provenance.TRANSPORTED, back))
        # The descending partner comes from the sector's order-2 automorphism
        # (x, y) -> (x, n*x - y), so its transport chain stays on S(n).
        flip = LatticeMap(1, 0, s.n, -1, source=s, target=s)
        desc_here = asc_here.compose(flip)
        entries.append(Entry(desc_here, kstair_extract(s, desc_here), Provenance.TRANSPORTED,
                             back.compose(flip)))
    return entries


def classify(n: int, m: int) -> Classification:
    """Every quadratic packing polynomial on S(n/m), with provenance.

    Entries are deterministic: sorted by stair count, ascending before
    descending.  No two entries share a (k, direction), and a stair form
    is read off its polynomial, so no polynomial repeats.

    classify commutes with the shear.  Let m0 = (m - 1) mod n + 1 and q =
    (m - m0)/n, so that T(x, y) = (x + q*y, y) maps the lattice points of
    S(n/m0) one to one onto those of S(n/m).  Then classify(n, m) is
    classify(n, m0) with x replaced by x - q*y, entry for entry.  For q =
    0 there is nothing to prove; let q >= 1, so m > n and m != 1, and
    classify(n, m) takes the slope < 1 branch.

    - n >= 2: coprimality rules out m0 = n, so m0 < n, m // n = q and m mod
      n = m0 != 0.  So w_reduce maps S(n/m) onto S(n/m0) by (x - q*y, y),
      and the branch composes each of S(n/m0)'s entries with exactly that
      map and keeps its form, so the sort keys, and with them the order,
      are S(n/m0)'s.
    - n = 1: m0 = 1 and q = m - 1.  w_reduce maps S(1/m) onto the quadrant
      by (x - m*y, y), and the branch composes the Cantor pair with it.
      The Cantor pair is S(1/1)'s Nathanson pair after (X, y) -> (X + y,
      y): cantor_f(X, y) = f_1(X + y, y) and cantor_g(X, y) = g_1(X + y,
      y), as both sides are X**2/2 + X*y + y**2/2 + X/2 + 3*y/2 and
      X**2/2 + X*y + y**2/2 + 3*X/2 + y/2.  With X = x - m*y, the point
      (X + y, y) is (x - (m-1)*y, y) = T^-1(x, y), so S(1/m)'s entries are
      f_1 and g_1 with x replaced by x - q*y.  Their forms are read off
      the polynomials, and T keeps every staircase, so they sort as f_1
      and g_1 do on S(1/1).

    So classify is complete on S(n/m) iff it is complete on S(n/m0);
    tests/test_classify.py checks the commuting on every sector with an
    integer-valued lattice, n <= 100, m <= 400 and q >= 1.
    """
    return _classify(n, m, {})


def _classify(n: int, m: int, known: dict[tuple[int, int], Classification]) -> Classification:
    """classify(n, m), read from ``known`` under (n, m) if it is there
    and stored there if not.  A slope < 1 sector reads its reduced
    target's classification the same way, so callers that share one dict
    classify each sector once.
    """
    result = known.get((n, m))
    if result is not None:
        return result
    s = sector(n, m)
    entries: list[Entry]
    if m == 1:
        entries = _classify_integral(s)
    elif n > m:
        entries = []
        for k, direction in admissible_ks(n, m):
            poly, form = construct(s, k, direction)
            provenance = (
                Provenance.STAIR_ASC
                if direction is Direction.ASCENDING
                else Provenance.STAIR_DESC
            )
            entries.append(Entry(poly, form, provenance))
    else:
        target, shear = w_reduce(s)
        if isinstance(target, Quadrant):
            cf, cg = (poly.compose(shear) for poly in cantor_polys())
            entries = [
                Entry(cf, kstair_extract(s, cf), Provenance.CANTOR_F, shear),
                Entry(cg, kstair_extract(s, cg), Provenance.CANTOR_G, shear),
            ]
        else:
            reduced = _classify(target.n, target.m, known)
            # a shear keeps l, v, u mod v and the stair step, so each entry keeps its form
            entries = [
                Entry(entry.poly.compose(shear), entry.form, entry.provenance,
                      entry.transport.compose(shear) if entry.transport else shear)
                for entry in reduced.entries
            ]
    entries.sort(key=lambda entry: (entry.form.k, _SORT_ORDER[entry.form.direction]))
    known[(n, m)] = result = Classification(sector=s, entries=tuple(entries))
    return result
