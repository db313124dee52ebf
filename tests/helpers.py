"""Shared brute-force oracles, deliberately dumber than the library code."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable

from sectorpack import (
    Direction,
    KStairForm,
    LatticeMap,
    LatticePoint,
    PrefixReport,
    PrefixStatus,
    QuadPoly,
    Sector,
    construct,
    t_dual,
)
from sectorpack.verify import _PairScreen, _grid_axes, _value_sweep


def first_stair_scan(s: Sector, c: int) -> LatticePoint:
    """Scan x = 0, 1, 2, ... for the first lattice point with y >= 0 on the
    staircase-c line (m-1)*y = n*x - c*l."""
    x = 0
    while True:
        num = s.n * x - c * s.l
        if num >= 0 and num % (s.m - 1) == 0:
            return LatticePoint(x, num // (s.m - 1))
        x += 1


def sector_points(s: Sector, x_max: int) -> list[LatticePoint]:
    """Every sector lattice point with x <= x_max, by column scan."""
    return [
        LatticePoint(x, y)
        for x in range(x_max + 1)
        for y in range(x * s.n // s.m + 1)
    ]


def stairs_scan(s: Sector, c: int, x_max: int) -> list[LatticePoint]:
    """Sector points on staircase c with x <= x_max, found by raw scan."""
    return [
        p
        for p in sector_points(s, x_max)
        if (s.m - 1) * p.y == s.n * p.x - c * s.l
    ]


def values_by_rectangle(s: Sector, p: QuadPoly, x_max: int) -> dict[LatticePoint, Fraction]:
    return {pt: p.eval(pt) for pt in sector_points(s, x_max)}


def eval_raw(p: QuadPoly, x: int, y: int) -> Fraction:
    """Independent evaluation, written out long-hand."""
    return (
        p.a * x * x + p.b * x * y + p.c2 * y * y + p.d * x + p.e * y + p.f
    )


def compose_reference(p: QuadPoly, mapping: LatticeMap) -> QuadPoly:
    """p(M(x, y)) by Fraction arithmetic on each coefficient, term by term."""
    a11, a12, a21, a22 = mapping.a11, mapping.a12, mapping.a21, mapping.a22
    return QuadPoly(
        a=p.a * a11 * a11 + p.b * a11 * a21 + p.c2 * a21 * a21,
        b=2 * p.a * a11 * a12 + p.b * (a11 * a22 + a12 * a21) + 2 * p.c2 * a21 * a22,
        c2=p.a * a12 * a12 + p.b * a12 * a22 + p.c2 * a22 * a22,
        d=p.d * a11 + p.e * a21,
        e=p.d * a12 + p.e * a22,
        f=p.f,
    )


def prefix_report_reference(s: Sector, p: QuadPoly, n_max: int) -> PrefixReport:
    """prefix_check's verdict for an integer-valued p, from a dict over every
    (value, x, y) item of the window: the first duplicated item in scan
    order, then the first negative point, then the smallest missing value."""
    items, negative = _value_sweep(s, p, n_max)
    first_at = {item[0]: item for item in reversed(items)}  # first point wins
    if len(first_at) < len(items):
        second = next(item for item in items if first_at[item[0]] is not item)
        return PrefixReport(
            PrefixStatus.DUPLICATE,
            checked_upto=n_max,
            points=len(items),
            value=second[0],
            point=LatticePoint(*first_at[second[0]][1:]),
            point2=LatticePoint(*second[1:]),
        )
    if negative is not None:
        return PrefixReport(
            PrefixStatus.NEGATIVE_VALUE,
            checked_upto=n_max,
            points=len(items),
            value=p.eval_int(negative),
            point=negative,
        )
    if len(items) <= n_max:
        missing = next(value for value in range(n_max + 1) if value not in first_at)
        return PrefixReport(
            PrefixStatus.MISSING_VALUE, checked_upto=n_max, points=len(items), value=missing
        )
    return PrefixReport(PrefixStatus.OK, checked_upto=n_max, points=len(items))


def construct_via_dual(s: Sector, k: int) -> tuple[QuadPoly, KStairForm]:
    """The descending k-stair polynomial on S(n/m) built the long way: the
    ascending one on the dual sector S(n/(n+2-m)) composed with the duality
    map, keeping the dual's offset.  Raises whatever t_dual or the
    ascending construct raises."""
    dual, mapping = t_dual(s)
    asc_poly, asc_form = construct(dual, k, Direction.ASCENDING)
    v = s.lines.v
    res = (-s.lines.u) % v  # the descending residue class of k mod n/l
    form = KStairForm(k, Direction.DESCENDING, (k - res) // v, asc_form.offset_f)
    return asc_poly.compose(mapping), form


def filter_candidates(
    s: Sector,
    candidates: Iterable[tuple[int, int]],
    prefix_n: int,
    offset_range: int,
) -> list[tuple[int, int, int]]:
    """The search screen pair by pair: keep the (d2, e2) pairs that pack to
    depth prefix_n for some offset, as (d2, e2, f) triples in candidate
    order, f the forced offset.  Every pair is tested on its own, with no
    band and no shared bound, and a step-0 pair is dropped before its walk.
    Every candidate must lie on the integer-valued lattice."""
    screen = _PairScreen(s, prefix_n, offset_range)
    survivors = []
    for d2, e2 in candidates:
        if s.n * d2 * s.lines.u + e2 * s.lines.v == 0:
            continue
        if (window := pair_window(screen, d2, e2)) is not None:
            ranges, _, vmin = window
            if screen.packs(ranges, vmin):
                survivors.append((d2, e2, -vmin))
    return survivors


def pair_window(screen: _PairScreen, d2: int, e2: int):
    """(ranges, total, vmin): the pair's values in [-offset_range,
    prefix_n] as one _LineTable.walk of its own yields them, their point
    count, and the pair's least value (or 0).  None if the pair is
    negative: a value below -offset_range, or an edge below the screen's
    s_min, which no offset in range lifts to 0."""
    n = screen.n
    A, B = n * d2, e2
    if A < screen.s_min or A * screen.m + B * n < screen.s_min:
        return None
    ranges, _, total, vmin, _ = screen.table.walk(
        A, B, 0, 2 * n, -screen.offset_range, screen.prefix_n
    )
    return None if vmin < -screen.offset_range else (ranges, total, vmin)


def box_rows(s: Sector, bound: int) -> list[tuple[int, range]]:
    """The raw grid of ``bound`` as _screen rows: one (d2, E) per d2."""
    D, E = _grid_axes(s, bound)
    return [(d2, E) for d2 in D]


def raw_candidates(s: Sector, bound: int) -> list[tuple[int, int]]:
    """The raw grid's (d2, e2) pairs, d2 then e2 ascending."""
    return list(product(*_grid_axes(s, bound)))
