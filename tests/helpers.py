"""Shared brute-force oracles, deliberately dumber than the library code."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, product
from pathlib import Path
from typing import Iterable, Optional

import sectorpack
from sectorpack import (
    Direction,
    KStairForm,
    LatticeMap,
    LatticePoint,
    NotConsecutive,
    PrefixReport,
    PrefixStatus,
    QuadPoly,
    Sector,
    construct,
    t_dual,
)
from sectorpack.search import _ShearClass, _grid_axes, _screen
from sectorpack.verify import _LineTable


def run_fresh(code: str, script: Optional[Path] = None) -> str:
    """Run code in a fresh interpreter that imports this checkout's
    sectorpack; return its stdout, failing on a nonzero exit.  Given
    ``script``, the code is written there and run as that file, so a
    spawn or forkserver child imports it as __mp_main__ and runs its top
    level too."""
    src = Path(sectorpack.__file__).resolve().parent.parent
    if script is not None:
        script.write_text(code)
    result = subprocess.run(
        [sys.executable, *([str(script)] if script is not None else ["-c", code])],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return result.stdout


def first_stair_scan(s: Sector, c: int) -> LatticePoint:
    """Scan x = 0, 1, 2, ... for the first lattice point with y >= 0 on the
    staircase-c line (m-1)*y = n*x - c*l.  On an integral sector (m = 1)
    the line is the column x = c, whose first point is (c, 0)."""
    x = 0
    while True:
        num = s.n * x - c * s.l
        if s.m == 1:
            if num == 0:
                return LatticePoint(x, 0)
        elif num >= 0 and num % (s.m - 1) == 0:
            return LatticePoint(x, num // (s.m - 1))
        x += 1


def sector_points(s: Sector, x_max: int) -> list[LatticePoint]:
    """Every sector lattice point with x <= x_max, by column scan."""
    return [
        LatticePoint(x, y)
        for x in range(x_max + 1)
        for y in range(x * s.n // s.m + 1)
    ]


def stairs_scan(s: Sector, c: int, x_max: int | None = None) -> list[LatticePoint]:
    """Sector points on staircase c, the line (m-1)*y = n*x - c*l, with
    x <= x_max, by ascending x then y: each column x scanned for the y on
    the line, or for every y of the column x = c when m = 1.  A sector
    point on staircase c has c*l = n*x - (m-1)*y >= n*x/m, so the default
    x_max = m*c*l//n takes the whole staircase."""
    n, m, l = s.n, s.m, s.l
    if x_max is None:
        x_max = m * c * l // n
    points = []
    for x in range(x_max + 1):
        top = n * x // m  # the column's highest sector point
        if m == 1:
            if n * x == c * l:
                points += [LatticePoint(x, y) for y in range(top + 1)]
        else:
            y, rest = divmod(n * x - c * l, m - 1)
            if rest == 0 and 0 <= y <= top:
                points.append(LatticePoint(x, y))
    return points


def stair_steps_scan(s: Sector, p: QuadPoly, c_max: int) -> set[Fraction]:
    """Every p(b) - p(a), in Fraction, over consecutive points a, b of
    stairs_scan on staircases 0..c_max."""
    steps = set()
    for c in range(c_max + 1):
        values = [p.eval(q) for q in stairs_scan(s, c)]
        steps.update(b - a for a, b in zip(values, values[1:]))
    return steps


def start_value_scan(s: Sector, p: QuadPoly, c: int) -> Fraction:
    """p at the start stair of staircase c, found by scan: of the sector's
    points on the staircase, the one with the least y, or the greatest when
    p's stair step d*(m-1) + e*n is negative.  An empty staircase starts at
    its first point with y >= 0 when the step is not negative, and has no
    start (ValueError) when it is."""
    stairs = stairs_scan(s, c)
    if p.d * (s.m - 1) + p.e * s.n < 0:
        if not stairs:
            raise ValueError(f"staircase {c} has no point in S({s})")
        return p.eval(max(stairs, key=lambda q: q.y))
    return p.eval(min(stairs, key=lambda q: q.y) if stairs else first_stair_scan(s, c))


def chain_gaps(s: Sector, p: QuadPoly, k: int, c_max: int) -> list[Fraction]:
    """g(c) = S(c + k) - S(c) - k*count(c) for c = 0..c_max-1, by scan:
    S is start_value_scan's start-stair value and count the number of
    stairs_scan points on the staircase.  A stair polynomial with step +-k
    carries the values of staircase c0 + k onward from those of staircase
    c0 exactly when g(c0) = 0."""
    starts = [start_value_scan(s, p, c) for c in range(c_max + k)]
    return [starts[c + k] - starts[c] - k * len(stairs_scan(s, c)) for c in range(c_max)]


def offset_reference(s: Sector, p0: QuadPoly, k: int) -> int:
    """The offset -min(_start_values(...)) gives, with Fraction values from
    start_value_scan: each of staircases 0..k-1 in turn must start at an
    integer that repeats no earlier one and keeps them within k
    consecutive integers, or it raises _start_values's NotConsecutive
    message."""
    values: list[Fraction] = []
    for c in range(k):
        w = start_value_scan(s, p0, c)
        if w.denominator != 1:
            raise NotConsecutive(f"start-stair value {w} of staircase {c} is not an integer")
        if w in values:
            raise NotConsecutive(f"staircase {c} repeats start-stair value {w}")
        values.append(w)
        low, high = min(values), max(values)
        if high - low > k - 1:
            raise NotConsecutive(
                f"start-stair value {w} of staircase {c} spreads the values over "
                f"{low}..{high}, more than {k} consecutive integers"
            )
    return -min(values, default=0)


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
    order, f the forced offset.  Every pair is tested on its own, on the
    sector's own lines, with no band, no shared bound and no shear class,
    and a step-0 pair is dropped before its walk.  Every candidate must
    lie on the integer-valued lattice."""
    survivors = []
    for d2, e2 in candidates:
        if s.n * d2 * s.lines.u + e2 * s.lines.v == 0:
            continue
        if (window := pair_window(s, d2, e2, prefix_n, offset_range)) is not None:
            ranges, _, vmin = window
            if window_packs(ranges, vmin, prefix_n):
                survivors.append((d2, e2, -vmin))
    return survivors


def window_packs(ranges: list[range], vmin: int, prefix_n: int) -> bool:
    """Does a window whose lines hold the values of ``ranges``, least
    value vmin, hold each of vmin..vmin + prefix_n exactly once?"""
    need = prefix_n + 1
    seen = bytearray(need)
    count = 0
    for value in chain.from_iterable(ranges):
        idx = value - vmin
        if idx < need:
            if seen[idx]:
                return False
            seen[idx] = 1
            count += 1
    return count == need


def edge_negative(n: int, S: int, offset_range: int) -> bool:
    """Is n*n*t*t + S*t, the scaled value P0 at the x-axis point (t, 0)
    (S = n*d2) or at the ray point (m*t, n*t) (S = n*d2*m + e2*n), below
    -2n*offset_range for some t >= 1?  Only t < -S/(n*n) can make it
    negative, so the scan ends there."""
    return any(n * n * t * t + S * t < -2 * n * offset_range for t in range(1, -S // (n * n) + 2))


def edge_threshold_loop(n: int, lo: int) -> int:
    """The least S with n*n*t*t + S*t >= lo (lo <= 0) for every integer
    t >= 1, one term per t: the largest ceil((lo - n*n*t*t)/t) over t = 1
    .. isqrt(-lo)//n + 1, past the real peak t = sqrt(-lo)/n of the
    concave lo/t - n*n*t."""
    return max(-((n * n * t * t - lo) // t) for t in range(1, math.isqrt(-lo) // n + 2))


def pair_window(s: Sector, d2: int, e2: int, prefix_n: int, offset_range: int):
    """(ranges, total, vmin): the pair's values in [-offset_range,
    prefix_n] as one _LineTable.walk on the sector's own lines yields
    them, their point count, and the pair's least value (or 0).  None if
    the pair is negative: a value below -offset_range, found by the walk
    or, before it, on an edge (edge_negative), which no offset in range
    lifts to 0."""
    n = s.n
    A, B = n * d2, e2
    if edge_negative(n, A, offset_range) or edge_negative(n, A * s.m + B * n, offset_range):
        return None
    # the window [-R, prefix_n], R = offset_range, with each value raised by R
    R = offset_range
    records, step, total, negative = _LineTable(s, 1).walk(A, B, 2 * n * R, 2 * n, prefix_n + R)
    if negative is not None:
        return None
    # each line's window values from its least to its greatest, or back; a
    # line with a value in [-R, 0) meets the window, so its least is there
    ranges = [
        range(lo - R, hi - R + 1, step) if step > 0 else range(hi - R, lo - R - 1, step or -1)
        for _, lo, hi, _, _, _ in records
    ]
    return ranges, total, min([0] + [lo - R for _, lo, _, _, _, _ in records])


def box_rows(s: Sector, bound: int) -> list[tuple[int, range]]:
    """The raw grid of ``bound`` as _screen rows: one (d2, E) per d2."""
    D, E = _grid_axes(s, bound)
    return [(d2, E) for d2 in D]


def sector_screen(
    shear: _ShearClass, s: Sector, rows: list[tuple[int, range]]
) -> list[tuple[int, int, int]]:
    """_screen on the rows of s, a sector of ``shear``'s class, in s's own
    coordinates: each row is shifted onto S(n/m0) by e2 -> e2 + q*n*d2,
    q = (m - m0)/n, as the class search shifts it, and the kept triples
    are shifted back."""
    shift = s.m - shear.table.lines.m  # q*n
    reduced = [(d2, range(E.start + shift * d2, E.stop + shift * d2, E.step)) for d2, E in rows]
    return [(d2, e2 - shift * d2, f) for d2, e2, f in _screen(shear, reduced)]


def raw_candidates(s: Sector, bound: int) -> list[tuple[int, int]]:
    """The raw grid's (d2, e2) pairs, d2 then e2 ascending."""
    return list(product(*_grid_axes(s, bound)))
