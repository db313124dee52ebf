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

from .polynomials import Direction, KStairForm, QuadPoly, _exact_key, construct, kstair_extract
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


def _entry_key(entry: Entry) -> tuple:
    return (entry.form.k, _SORT_ORDER[entry.form.direction], entry.poly.coefficients())


def _dedup(entries: list[Entry]) -> tuple[Entry, ...]:
    seen = set()
    out = []
    for entry in sorted(entries, key=_entry_key):
        key = _exact_key(entry.poly)
        if key in seen:
            continue
        seen.add(key)
        out.append(entry)
    return tuple(out)


def _classify_integral(s: Sector) -> list[Entry]:
    f_n, g_n = nathanson_polys(s.n)
    entries = [
        Entry(f_n, kstair_extract(s, f_n), Provenance.NATHANSON_F),
        Entry(g_n, kstair_extract(s, g_n), Provenance.NATHANSON_G),
    ]
    if s.n in _INTEGRAL_EXTRAS:
        m_special, k = _INTEGRAL_EXTRAS[s.n]
        special = sector(s.n, m_special)
        asc_poly, _ = construct(special, k, Direction.ASCENDING)
        _, shear = w_reduce(special)            # shear : I(special) -> I(s)
        back = shear.inverse()                  # back  : I(s) -> I(special)
        asc_here = asc_poly.compose(back)
        entries.append(
            Entry(asc_here, kstair_extract(s, asc_here), Provenance.TRANSPORTED, back)
        )
        # The descending partner comes from the sector's order-2 automorphism
        # (x, y) -> (x, n*x - y), so its transport chain stays on S(n).
        flip = LatticeMap(1, 0, s.n, -1, source=s, target=s)
        desc_here = asc_here.compose(flip)
        entries.append(
            Entry(
                desc_here,
                kstair_extract(s, desc_here),
                Provenance.TRANSPORTED,
                back.compose(flip),
            )
        )
    return entries


def classify(n: int, m: int) -> Classification:
    """Every quadratic packing polynomial on S(n/m), with provenance.

    Entries are deterministic: sorted by stair count, ascending before
    descending, and deduplicated by coefficient tuple.
    """
    s = sector(n, m)
    entries: list[Entry]
    if m == 1:
        entries = _classify_integral(s)
    elif n > m:
        entries = []
        for k, direction in sorted(admissible_ks(n, m), key=lambda p: (p[0], _SORT_ORDER[p[1]])):
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
            cf, cg = cantor_polys()
            entries = [
                Entry(cf.compose(shear), kstair_extract(s, cf.compose(shear)), Provenance.CANTOR_F, shear),
                Entry(cg.compose(shear), kstair_extract(s, cg.compose(shear)), Provenance.CANTOR_G, shear),
            ]
        else:
            base = classify(target.n, target.m)
            entries = []
            for entry in base.entries:
                poly = entry.poly.compose(shear)
                chain = entry.transport.compose(shear) if entry.transport else shear
                entries.append(
                    Entry(poly, kstair_extract(s, poly), entry.provenance, chain)
                )
    return Classification(sector=s, entries=_dedup(entries))
