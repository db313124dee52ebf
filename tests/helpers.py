"""Shared brute-force oracles, deliberately dumber than the library code."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Iterable

import sectorpack
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
from sectorpack.verify import _PairScreen, _grid_axes


def run_fresh(code: str) -> str:
    """Run code in a fresh interpreter that imports this checkout's
    sectorpack; return its stdout, failing on a nonzero exit."""
    src = Path(sectorpack.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return result.stdout


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
    """prefix_check's verdict for an integer-valued p whose homogeneous part
    is lam*(n*x - (m-1)*y)**2, lam > 0, built point by point off
    LineFamily.line: the points of lines c = 0, 1, ... with values in [0,
    n_max], in scan order (c, then t ascending), and the first point with
    a value below 0.  The homogeneous part is constant on a line, so p is
    monotone along it, and bisect finds where a line's values enter and
    leave [0, n_max] by evaluating p at single points.  On line c every
    value is at least lam*(c*l)**2 + f + c*l*min(d, d*m + e*n)/n, a convex
    quadratic in c; the scan ends at the first line past its vertex where
    this bound exceeds n_max.  The verdict: the first duplicated point in
    scan order, then the first negative point, then the smallest missing
    value."""
    n, m, lines = s.n, s.m, s.lines
    lam = p.a / (n * n)
    assert lam > 0 and p.b == -2 * n * (m - 1) * lam and p.c2 == (m - 1) ** 2 * lam
    # the bound on line c is quad*c*c + slope*c + f
    quad, slope = lam * lines.l**2, lines.l * min(p.d, p.d * m + p.e * n) / n
    scale = math.lcm(*(coeff.denominator for coeff in p.coefficients()))
    a, b, c2, d, e, f = (int(coeff * scale) for coeff in p.coefficients())
    items: list[tuple[int, LatticePoint]] = []
    negative = None
    c = 0
    while 2 * quad * c <= -slope or quad * c * c + slope * c + p.f <= n_max:
        x0, z, count = lines.line(c)

        def point(t: int) -> LatticePoint:
            return LatticePoint(x0 + t * lines.u, z + t * lines.v)

        def value(t: int) -> int:
            x, y = point(t)
            scaled = a * x * x + b * x * y + c2 * y * y + d * x + e * y + f
            assert scaled % scale == 0
            return scaled // scale

        ts = range(count)
        if count < 2 or value(1) >= value(0):
            first, end = bisect_left(ts, 0, key=value), bisect_right(ts, n_max, key=value)
            below = 0 if count and value(0) < 0 else count
        else:
            first = bisect_left(ts, -n_max, key=lambda t: -value(t))
            end = below = bisect_right(ts, 0, key=lambda t: -value(t))
        if negative is None and below < count:
            negative = (value(below), point(below))
        items += [(value(t), point(t)) for t in range(first, end)]
        c += 1
    first_at = {item[0]: item for item in reversed(items)}  # first point wins
    if len(first_at) < len(items):
        second = next(item for item in items if first_at[item[0]] is not item)
        return PrefixReport(
            PrefixStatus.DUPLICATE,
            checked_upto=n_max,
            points=len(items),
            value=second[0],
            point=first_at[second[0]][1],
            point2=second[1],
        )
    if negative is not None:
        return PrefixReport(
            PrefixStatus.NEGATIVE_VALUE,
            checked_upto=n_max,
            points=len(items),
            value=negative[0],
            point=negative[1],
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
    bounds, _, step, total, vmin, _ = screen.table.walk(
        A, B, 0, 2 * n, -screen.offset_range, screen.prefix_n
    )
    # each line's window values from its least to its greatest, or back
    ranges = [
        range(lo, hi + 1, step) if step > 0 else range(hi, lo - 1, step or -1)
        for _, lo, hi in bounds
    ]
    return None if vmin < -screen.offset_range else (ranges, total, vmin)


def box_rows(s: Sector, bound: int) -> list[tuple[int, range]]:
    """The raw grid of ``bound`` as _screen rows: one (d2, E) per d2."""
    D, E = _grid_axes(s, bound)
    return [(d2, E) for d2 in D]


def raw_candidates(s: Sector, bound: int) -> list[tuple[int, int]]:
    """The raw grid's (d2, e2) pairs, d2 then e2 ascending."""
    return list(product(*_grid_axes(s, bound)))
