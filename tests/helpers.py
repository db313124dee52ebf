"""Shared brute-force oracles, deliberately dumber than the library code."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, product
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Optional

from hypothesis import strategies as st

import sectorpack
from sectorpack import (
    CongruenceViolation,
    Direction,
    KStairForm,
    LatticeMap,
    LatticePoint,
    NonIntegralOffset,
    NonIntegralStep,
    NonTerminatingShape,
    NotConsecutive,
    PrefixReport,
    PrefixStatus,
    QuadPoly,
    Sector,
    ZeroStep,
    construct,
    stanton_quadratic,
    t_dual,
)
from sectorpack.polynomials import _stair_pair
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


COPRIME_40 = [(n, m) for n in range(1, 41) for m in range(1, 41) if math.gcd(n, m) == 1]
LATTICE_40 = [(n, m) for n, m in COPRIME_40 if (m - 1) ** 2 % n == 0]


@st.composite
def near_forced(draw) -> tuple[Sector, QuadPoly]:
    """(s, p): a sector S(n/m) with n, m <= 40, three times in four one
    with n | (m-1)**2, and a polynomial with random rational coefficients
    near its forced form.  Three times in four a, b and c2 are the forced
    ones, and otherwise one of them is moved by a small rational.  (d, e)
    starts at the stair pair of some k <= 12 in either direction, whose
    stair step d*u + e*v is +-k; e then moves by j/v, which moves the step
    by the integer j, and d and e each by a small rational or not at all;
    one time in four e is then set so that the step is 0.  f is a small
    integer or rational.  So the step is integral or not, congruent or
    not, and zero."""
    n, m = draw(st.sampled_from(LATTICE_40 if draw(st.integers(0, 3)) else COPRIME_40))
    s = sectorpack.sector(n, m)
    u, v = s.lines.u, s.lines.v
    small = st.fractions(-3, 3, max_denominator=2 * n).filter(bool)
    moved = st.just(Fraction(0)) | small
    forced = list(stanton_quadratic(s))
    if draw(st.integers(0, 3)) == 0:
        forced[draw(st.integers(0, 2))] += draw(small)
    d2, e2 = _stair_pair(s, draw(st.integers(1, 12)), draw(st.sampled_from(Direction)))
    d = Fraction(d2, 2) + draw(moved)
    e = Fraction(e2, 2 * n) + Fraction(draw(st.integers(-3, 3)), v) + draw(moved)
    if draw(st.integers(0, 3)) == 0:
        e = -d * u / v
    f = draw(st.integers(-5, 5).map(Fraction) | st.fractions(-5, 5, max_denominator=6))
    return s, QuadPoly(*forced, d, e, f)


def stanton_check_reference(s: Sector, p: QuadPoly) -> bool:
    """stanton_check in Fraction arithmetic: n | (m-1)**2 and p's
    homogeneous part equals the Fractions of stanton_quadratic."""
    if (s.m - 1) ** 2 % s.n != 0:
        return False
    return (p.a, p.b, p.c2) == stanton_quadratic(s)


def is_integer_valued_reference(p: QuadPoly) -> bool:
    """QuadPoly.is_integer_valued in Fraction arithmetic: the six
    binomial-basis coefficients 2a, b, 2c2, a + d, c2 + e and f are
    integers."""
    binomial = (2 * p.a, p.b, 2 * p.c2, p.a + p.d, p.c2 + p.e, p.f)
    return all(coeff.denominator == 1 for coeff in binomial)


def kstair_extract_reference(s: Sector, p: QuadPoly) -> KStairForm:
    """kstair_extract in Fraction arithmetic, raising the same errors with
    the same messages: the stair step d*u + e*v is one Fraction."""
    if not stanton_check_reference(s, p):
        raise ValueError("polynomial does not have the forced homogeneous part")
    u, v = s.lines.u, s.lines.v
    delta = p.d * u + p.e * v
    if delta == 0:
        raise ZeroStep("stair difference is zero")
    if delta.denominator != 1:
        raise NonIntegralStep(f"stair difference {delta} is not an integer")
    k = abs(delta.numerator)
    direction = Direction.ASCENDING if delta > 0 else Direction.DESCENDING
    res = u % v if direction is Direction.ASCENDING else (-u) % v
    if (k - res) % v != 0:
        raise CongruenceViolation(
            f"k={k} is not congruent to {res} mod {v} for {direction.value}"
        )
    if p.f.denominator != 1:
        raise NonIntegralOffset(f"offset {p.f} is not an integer")
    return KStairForm(k=k, direction=direction, q=(k - res) // v, offset_f=p.f.numerator)


def scaled_key_reference(s: Sector, p: QuadPoly) -> Optional[tuple[int, int, int]]:
    """search._scaled_key in Fraction arithmetic: (2d, 2n*e, f) when p's
    homogeneous part equals stanton_quadratic(s) and the three are
    integers, None otherwise."""
    if (p.a, p.b, p.c2) != stanton_quadratic(s):
        return None
    d2, e2, f = 2 * p.d, 2 * s.n * p.e, p.f
    if d2.denominator == e2.denominator == f.denominator == 1:
        return d2.numerator, e2.numerator, f.numerator
    return None


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
    table = _LineTable(s, 1)
    runs, records, step, total, negative = table.walk(A, B, 2 * n * R, 2 * n, prefix_n + R)
    if negative is not None:
        return None
    records = table.expand(runs, records, step)
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


def scaled_reference(s: Sector, p: QuadPoly) -> tuple[int, int, int, int, int]:
    """(Q, A, B, F, D) of verify._scaled, in Fraction arithmetic: p scaled
    by D, the lcm of the denominators of lambda = a/n**2, d, e and f, and
    Q = lambda*D; NonTerminatingShape unless p's homogeneous part is
    lambda*(n*x - (m-1)*y)**2 with lambda > 0."""
    n, m = s.n, s.m
    if not (
        p.a > 0
        and p.b == Fraction(-2 * (m - 1)) * p.a / n
        and p.c2 == p.a * (m - 1) ** 2 / (n * n)
    ):
        raise NonTerminatingShape(
            f"homogeneous part of {p} is not constant along the line family of S({s})"
        )
    lam = p.a / (n * n)
    D = math.lcm(lam.denominator, p.d.denominator, p.e.denominator, p.f.denominator)
    return int(lam * D), int(p.d * D), int(p.e * D), int(p.f * D), D


def walk_reference(table: _LineTable, A: int, B: int, F: int, unit: int, hi: int):
    """(records, step, total, negative) of _LineTable.walk, every line read
    one at a time: one record (least % mod, least, greatest, c, t, points)
    per line that meets the window [0, hi], class by class, where mod =
    |step| (1 for step 0), total is the window's point count and negative
    is (c, t, value) of the first point in scan order with value < 0."""
    lines = table.lines
    step, rem = divmod(A * lines.u + B * lines.v, unit)
    if rem:
        raise ValueError("stair step is not an integer; polynomial is not integer-valued")
    stop = table.stop(min(A, A * lines.m + B * lines.n), F, unit, hi)
    l, v = lines.l, lines.v
    mod = abs(step) or 1
    records = []
    total = 0
    negative = None
    for c, _, _, count, base, delta, dd in table.classes(A, B, F, unit, 0, stop):
        for c in range(c, stop, v):
            last = base + step * (count - 1)
            if step > 0 and 0 <= base and last <= hi:
                records.append((base % mod, base, last, c, 0, count))
                total += count
            elif step < 0 and 0 <= last and base <= hi:
                records.append((last % mod, last, base, c, 0, count))
                total += count
            else:
                if (base if step >= 0 else last) < 0 and (negative is None or c < negative[0]):
                    t = 0 if step >= 0 or base < 0 else base // -step + 1
                    negative = (c, t, base + t * step)
                if step:
                    if step > 0:
                        t_lo = 0 if base >= 0 else -(base // step)
                        t_hi = count - 1 if last <= hi else (hi - base) // step
                    else:
                        t_lo = 0 if base <= hi else -((hi - base) // -step)
                        t_hi = count - 1 if last >= 0 else base // -step
                    if t_lo <= t_hi:
                        first, end = base + t_lo * step, base + t_hi * step
                        if step < 0:
                            first, end = end, first
                        records.append((first % mod, first, end, c, t_lo, t_hi - t_lo + 1))
                        total += t_hi - t_lo + 1
                elif 0 <= base <= hi:
                    records.append((0, base, base, c, 0, count))
                    total += count
            count += l
            base += delta
            delta += dd
    return records, step, total, negative


def first_gap_reference(records: list, mod: int, n_max: int) -> Optional[int]:
    """The least value in [0, n_max] that no record holds (n_max + 1 if
    each is held), or None if two records share a value, read off the
    records (least % mod, least, greatest, c, t, points) of walk_reference
    sorted by residue and least value: the lines are disjoint iff each
    starts past the end of the one before it in its residue class, a
    class r first misses the first of r, r + mod, ... its lines skip, and
    a class that no line touches misses r itself."""
    gap = n_max + 1
    cls, nxt = -1, gap  # the class being read, and the next value it must hold
    for r, lo, hi, c, t, points in sorted(records):
        if r != cls:
            # class cls misses nxt, and each class skipped misses its residue
            gap = min(gap, nxt, cls + 1) if r > cls + 1 else min(gap, nxt)
            cls, nxt = r, r
        if lo < nxt:
            return None
        if lo > nxt:
            gap = min(gap, nxt)
        nxt = hi + mod
    return min(gap, nxt, cls + 1) if cls + 1 < mod else min(gap, nxt)


def first_repeat_reference(records: list, step: int):
    """(value, (c0, t0), (c, t)): the first point in scan order (c, then t)
    whose value an earlier point holds is t on line c, first held at t0
    on line c0; read off walk_reference's records sorted by c, keeping the
    lines read so far sorted by least value in one list per residue."""
    classes: dict = {}
    for r, lo, hi, c, t, points in sorted(records, key=itemgetter(3)):
        start = hi if step < 0 else lo  # the value at t
        lows, highs, holders = classes.setdefault(r, ([], [], []))
        k = bisect_left(highs, lo)
        if k < len(lows) and lows[k] <= hi:
            if step < 0:
                k = bisect_right(lows, hi) - 1
                value = min(hi, highs[k])
            else:
                value = max(lo, lows[k])
            c0, t0, start0 = holders[k]
            if step:
                t0, t = t0 + (value - start0) // step, t + (value - start) // step
            return value, (c0, t0), (c, t)
        if points > 1 and not step:
            return lo, (c, t), (c, t + 1)
        lows.insert(k, lo)
        highs.insert(k, hi)
        holders.insert(k, (c, t, start))
    raise AssertionError("no value repeats")


def verdict_reference(
    table: _LineTable, A: int, B: int, F: int, unit: int, n_max: int
) -> PrefixReport:
    """verify._prefix_verdict built on walk_reference, first_gap_reference
    and first_repeat_reference: a repeat by pigeonhole or off the sorted
    records, then the first negative value, then the least missing one."""
    records, step, total, negative = walk_reference(table, A, B, F, unit, n_max)
    gap = None
    if total <= n_max + 1 and (step or len(records) == total):
        gap = first_gap_reference(records, abs(step) or 1, n_max)
    if gap is None:
        value, first, second = first_repeat_reference(records, step)
        return PrefixReport(
            PrefixStatus.DUPLICATE, n_max, total, value, table.point(*first), table.point(*second)
        )
    if negative is not None:
        c, t, value = negative
        return PrefixReport(PrefixStatus.NEGATIVE_VALUE, n_max, total, value, table.point(c, t))
    if gap <= n_max:
        return PrefixReport(PrefixStatus.MISSING_VALUE, n_max, total, gap)
    return PrefixReport(PrefixStatus.OK, n_max, total)
