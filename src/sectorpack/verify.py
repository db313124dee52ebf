"""Independent truth source: bounded enumeration on a sector's lines.

The oracle (prefix_check, enumerate_upto) uses none of the
classification theorems: of polynomials it imports QuadPoly alone, and
it imports nothing from classify, sweep or the search, which a test
checks.  A candidate is accepted only if its values on the sector's
lattice points form exactly the prefix {0..N}, each attained once, with
no negative value anywhere — established by walking the sector's line
family (its staircases, which are the columns on integral sectors).  The
oracle and the search's certification share one walk in scaled integers
and one verdict, _prefix_verdict: prefix_check reads it on a table of its
own, sectorpack.search on its shear class's table.  The walk reads the
lines a class mod the period v at a time: line c + v is line c shifted by
one x and l points, so along a class each line's base is the previous
one's plus an increment that grows by a constant, whole numbers checked
exactly once per class.  It keeps one record per line, (residue, least,
greatest, c, t, points), and records a line whose values all lie inside
the window directly, with no division; only a line that crosses an edge
of the window, holds a negative value or has step 0 takes the general
path.

Enumeration terminates because the homogeneous part is constant on each
line and grows quadratically with the line index: past an explicit vertex
bound, every line's minimum value exceeds N.  _LineTable.stop names the
first such line in closed form, and every walk ends there.

A prefix_check pass means "verified to N", never "proved"; the theorems
carry the mathematical guarantee, this module carries the evidence.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Optional

from .errors import NonTerminatingShape
from .polynomials import QuadPoly
from .sectors import LatticePoint, Sector

__all__ = [
    "PrefixStatus",
    "PrefixReport",
    "enumerate_upto",
    "prefix_check",
    "rectangle_points",
]


class PrefixStatus(Enum):
    OK = "ok"
    MISSING_VALUE = "missing_value"
    DUPLICATE = "duplicate"
    NEGATIVE_VALUE = "negative_value"
    NON_INTEGER_VALUE = "non_integer_value"


@dataclass(frozen=True)
class PrefixReport:
    status: PrefixStatus
    checked_upto: int
    points: int
    value: Optional[int] = None
    point: Optional[LatticePoint] = None
    point2: Optional[LatticePoint] = None

    @property
    def ok(self) -> bool:
        return self.status is PrefixStatus.OK

    def describe(self) -> str:
        if self.status is PrefixStatus.OK:
            return (
                f"ok: values 0..{self.checked_upto} each attained exactly once "
                f"({self.points} points)"
            )
        if self.status is PrefixStatus.MISSING_VALUE:
            return f"missing value {self.value} (checked up to {self.checked_upto})"
        if self.status is PrefixStatus.DUPLICATE:
            return (
                f"value {self.value} attained at both {tuple(self.point)} "
                f"and {tuple(self.point2)}"
            )
        if self.status is PrefixStatus.NEGATIVE_VALUE:
            return f"negative value {self.value} at {tuple(self.point)}"
        return f"non-integer value at {tuple(self.point)}"


# ---------------------------------------------------------------------------
# Line-family walk
# ---------------------------------------------------------------------------


def _check_family(s: Sector, p: QuadPoly) -> None:
    """Check that the homogeneous part is constant along the line family.

    p2 must be a positive multiple of (n*x - (m-1)*y)**2, which is constant
    on every line (a*x**2 on an integral sector).  Anything else
    admits no finite sweep bound.
    """
    n, m = s.n, s.m
    if not (
        p.a > 0
        and p.b == Fraction(-2 * (m - 1)) * p.a / n
        and p.c2 == p.a * (m - 1) ** 2 / (n * n)
    ):
        raise NonTerminatingShape(
            f"homogeneous part of {p} is not constant along the line family of S({s})"
        )


class _LineTable:
    """A sector's line family and the Q of a scaled homogeneous part,
    shared by every walk of one call, or of one search.

    A walk reads the scaled value Q*(c*l)**2 + A*x + B*y + F: on line c the
    homogeneous part is Q*(c*l)**2, so the value is base(c) + t*step with
    step = A*u + B*v.  The table holds no linear part and no offset, so one
    table serves every (A, B, F) with the same Q.  It stores no line: the
    lines come a class at a time, each shifted from its first line by
    whole periods (see classes).
    """

    def __init__(self, s: Sector, Q: int):
        self.lines = s.lines
        self.Q = Q

    def point(self, c: int, t: int) -> LatticePoint:
        x0, z, _ = self.lines.line(c)
        return LatticePoint(x0 + t * self.lines.u, z + t * self.lines.v)

    def classes(
        self, A: int, B: int, F: int, unit: int, start: int, stop: int
    ) -> Iterator[tuple[int, int, int, int, int, int, int]]:
        """(c, x0, z, count, base, delta, dd) for each class of lines c' = c
        mod v, start <= c' < stop, that has a point: (x0, z, count) is
        LineFamily.line(c) of its first such line c, and base that line's
        scaled value Q*(c*l)**2 + A*x0 + B*z + F over ``unit``.

        Line c + v has the same z, x0 + 1 and count + l (v*l = n), so its
        base is base + delta, and each period adds dd to delta: delta =
        (Q*l*l*v*(2c + v) + A)/unit and dd = 2*Q*l*l*v*v/unit.  A class's
        empty lines come first, as its count grows.  Every base of the
        class below stop is a whole number iff base is, delta is when line
        c + v is below stop, and dd is when c + 2v is; a line whose base
        is not is a ValueError.
        """
        lines = self.lines
        l, v = lines.l, lines.v
        q = self.Q * l * l
        dd, dd_rem = divmod(2 * q * v * v, unit)
        for c in range(start, min(start + v, stop)):
            x0, z, count = lines.line(c)
            while not count and c < stop:
                c += v
                x0, z, count = lines.line(c)
            if c >= stop:
                continue
            base, rem = divmod(q * c * c + A * x0 + B * z + F, unit)
            delta, delta_rem = divmod(q * v * (2 * c + v) + A, unit)
            bad = c if rem else c + v if delta_rem else c + 2 * v if dd_rem else stop
            if bad < stop:
                raise ValueError(
                    f"value on line {bad} is not an integer; polynomial is not integer-valued"
                )
            yield c, x0, z, count, base, delta, dd

    def stop(self, k_lo: int, F: int, unit: int, hi: int) -> int:
        """The number of lines walk(A, B, F, unit, hi) reads, for k_lo =
        min(A, A*m + B*n): the first c >= 0 past the vertex with
        Q*(c*l)**2 + (k_lo*c*l)//n > hi*unit - F, with no line read.

        That bound is (a*c*c + b*c)//n with a = Q*n*l*l and b = k_lo*l, so
        it exceeds H = hi*unit - F iff a*c*c + b*c >= n*(H + 1).  From the
        first line past the vertex on, a*(2c + 1) + b > 0, so the left side
        strictly increases in c, and the answer is the least c there at
        or past the root of a*c*c + b*c = n*(H + 1).  isqrt gives the root
        to within a line or two; the steps after it make the result exact.
        """
        n, l, Q = self.lines.n, self.lines.l, self.Q
        first = max(0, (-k_lo // n) // (2 * Q * l) + 3)
        a, b, need = Q * n * l * l, k_lo * l, n * (hi * unit - F + 1)
        disc = b * b + 4 * a * need
        c = max(first, (math.isqrt(disc) - b) // (2 * a) if disc > 0 else 0)
        while c > first and a * (c - 1) * (c - 1) + b * (c - 1) >= need:
            c -= 1
        while a * c * c + b * c < need:
            c += 1
        return c

    def walk(
        self, A: int, B: int, F: int, unit: int, hi: int
    ) -> tuple[
        list[tuple[int, int, int, int, int, int]], int, int, Optional[tuple[int, int, int]]
    ]:
        """Walk the lines for (A, B, F), collecting the values in [0, hi].

        Every scaled value Q*(c*l)**2 + A*x + B*y + F must be a multiple
        of ``unit``; values and hi are in units of ``unit``, and a line
        whose scaled base or step is not a multiple is a ValueError.  A
        window [-R, hi] is the walk of (A, B, F + R*unit) to hi + R, which
        stops on the same line, its values each raised by R.

        Returns (records, step, total, negative), with one record per line
        that meets the window, class by class (see classes), so not in
        scan order.  A record is (least % mod, least, greatest, c, t,
        points): the least and greatest of line c's window values, mod =
        |step| (1 if the step is 0), and the line's first window point t
        and window point count; step is the values' step along every line.
        total is the window's point count; negative is (c, t, value) of the
        first point in scan order (c, then t ascending) with value < 0.
        When the step is 0 a line holds one value at every point: its
        record holds that value and counts the points.

        A line whose values all lie in [0, hi], as almost every line of a
        deep window does, is recorded whole, t = 0 and points =
        its count: its least value is not negative and no division finds
        where it meets the window.  Every other line (one that crosses an
        edge of the window, one with a negative value, or a step-0 line)
        goes through the one general path, which alone finds t from the
        window's edges and records the line's negative values.

        On line c the sector's points lie on the segment from (c*l/n, 0)
        to (m*c*l/n, c*l), and the linear A*x + B*y is least at an end, so
        each value there is at least Q*(c*l)**2 + F + k_lo*c*l/n with
        k_lo = min(A, A*m + B*n): a convex quadratic in c that increases
        past its vertex.  The walk reads the lines below stop(k_lo, F, unit,
        hi), the first line past the vertex where this bound exceeds hi:
        every value on it and on every later line exceeds hi.
        """
        lines = self.lines
        step, rem = divmod(A * lines.u + B * lines.v, unit)
        if rem:
            raise ValueError("stair step is not an integer; polynomial is not integer-valued")
        stop = self.stop(min(A, A * lines.m + B * lines.n), F, unit, hi)
        l, v = lines.l, lines.v
        mod = abs(step) or 1
        records: list[tuple[int, int, int, int, int, int]] = []
        total = 0
        negative: Optional[tuple[int, int, int]] = None
        for c, _, _, count, base, delta, dd in self.classes(A, B, F, unit, 0, stop):
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


def _scaled(s: Sector, p: QuadPoly) -> tuple[_LineTable, int, int, int, int]:
    """(table, A, B, F, D): p scaled by D, the lcm of the denominators of
    a/n**2, d, e and f, so that a walk of the table with (A, B, F, D) runs
    in integers.  p's homogeneous part must be constant along the line
    family (NonTerminatingShape otherwise)."""
    _check_family(s, p)
    lam = p.a / (s.n * s.n)
    D = math.lcm(lam.denominator, p.d.denominator, p.e.denominator, p.f.denominator)
    return _LineTable(s, int(lam * D)), int(p.d * D), int(p.e * D), int(p.f * D), D


def enumerate_upto(
    s: Sector, p: QuadPoly, n_max: int
) -> list[tuple[LatticePoint, int]]:
    """All sector lattice points with 0 <= p <= n_max, sorted by value."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not p.is_integer_valued():
        raise ValueError("polynomial is not integer-valued")
    table, A, B, F, D = _scaled(s, p)
    records, step, *_ = table.walk(A, B, F, D, n_max)
    u, v = s.lines.u, s.lines.v
    items: list[tuple[int, int, int]] = []
    for _, least, greatest, c, t, points in records:
        x, y = table.point(c, t)
        start = least if step >= 0 else greatest
        items += [(start + i * step, x + i * u, y + i * v) for i in range(points)]
    items.sort()
    return [(LatticePoint(x, y), value) for value, x, y in items]


_PROBE_POINTS = [
    LatticePoint(0, 0),
    LatticePoint(1, 0),
    LatticePoint(2, 0),
    LatticePoint(0, 1),
    LatticePoint(0, 2),
    LatticePoint(1, 1),
]


def _first_gap(
    records: list[tuple[int, int, int, int, int, int]], mod: int, n_max: int
) -> Optional[int]:
    """The least value in [0, n_max] that no line's record holds (n_max +
    1 if each is held), or None if two lines share a value.  Sorts the
    records in place.

    The lines' values share the walk's one step k, so each line's window
    values, a record (least % mod, least, greatest, c, t, points) of
    _LineTable.walk, are an interval of one residue class mod |k| (mod 1
    for a step-0 walk, whose lines hold one value each).  Sorted, the
    records run class by class and by least value, and the lines are
    disjoint iff each starts past the end of the one before it in its
    class.  A class r first misses r, r + |k|, ... at the first of these
    its sorted lines skip, and a class that no line touches misses r
    itself; the smallest missing value is the least of these.
    """
    gap = n_max + 1
    cls, nxt = -1, gap  # the class being read, and the next value it must hold
    records.sort()
    for r, lo, hi, c, t, points in records:
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


def _first_repeat(
    records: list[tuple[int, int, int, int, int, int]], step: int
) -> tuple[int, tuple[int, int], tuple[int, int]]:
    """(value, (c0, t0), (c, t)) for the lines of a walk: the first point
    in scan order (c, then t ascending) whose value an earlier point holds
    is t on line c, and the value's first holder is t0 on line c0.  Some
    value must repeat.

    Reads the lines in scan order, the walk's records sorted by c in
    place, keeping those read so far sorted by least value in one list
    per residue class mod the step (see _first_gap); they are disjoint
    until the first line that overlaps one of them, so bisect finds the
    overlapped lines of that line.  The line's values are distinct and
    run in scan order, so its first repeat is the smallest value it
    shares on an ascending line (shared with the leftmost line it
    overlaps) and the largest on a descending one (the rightmost).  The
    earlier lines being disjoint, that line is the value's only, so
    first, holder.  A step-0 line whose record counts more than one
    point repeats its value at its second point, unless an earlier line
    holds it.
    """
    classes: dict[int, tuple[list[int], list[int], list[tuple[int, int, int]]]] = {}
    records.sort(key=itemgetter(3))
    for r, lo, hi, c, t, points in records:
        start = hi if step < 0 else lo  # the value at t
        lows, highs, holders = classes.setdefault(r, ([], [], []))
        k = bisect_left(highs, lo)  # the first line read that ends at lo or past it
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
        if points > 1 and not step:  # a step-0 line repeats its own value
            return lo, (c, t), (c, t + 1)
        lows.insert(k, lo)
        highs.insert(k, hi)
        holders.insert(k, (c, t, start))
    raise AssertionError("no value repeats")


def prefix_check(s: Sector, p: QuadPoly, n_max: int) -> PrefixReport:
    """Is p a bijection from the sector's lattice points onto {0..n_max}?

    Failures are reported deterministically: non-integrality first (with
    the first bad probe point), then the first duplicated value in scan
    order, then the first negative value, then the smallest missing one.
    A negative n_max is a usage error (ValueError).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not p.is_integer_valued():
        witness = next(pt for pt in _PROBE_POINTS if p.eval(pt).denominator != 1)
        return PrefixReport(
            PrefixStatus.NON_INTEGER_VALUE, checked_upto=n_max, points=0, point=witness
        )
    return _prefix_verdict(*_scaled(s, p), n_max)


def _walk_lines(s: Sector, p: QuadPoly, n_max: int) -> int:
    """How many lines prefix_check(s, p, n_max) walks past its probe,
    read off _LineTable.stop with no line built.  p's homogeneous part
    must be constant along the line family (NonTerminatingShape
    otherwise)."""
    table, A, B, F, D = _scaled(s, p)
    return table.stop(min(A, A * s.m + B * s.n), F, D, n_max)


def _prefix_verdict(
    table: _LineTable, A: int, B: int, F: int, unit: int, n_max: int
) -> PrefixReport:
    """prefix_check's verdict after its probe, for the integer-valued
    polynomial whose scaled value on ``table``'s lines is Q*(c*l)**2 + A*x
    + B*y + F, in units of ``unit``; prefix_check and the search's
    certification both read it here.

    The walk yields the window's values as one record (residue, least,
    greatest, c, t, points) per line, all lines with one step, and counts
    the window's points; a line wholly inside the window takes the walk's
    direct path, which needs no division.  More points than the n_max + 1
    values, or than the values the lines hold (a step-0 line holds one
    value at all its points), must repeat a value (pigeonhole).  Otherwise
    _first_gap sorts the L records in place and reads both distinctness
    and the smallest missing value off them.  A duplicate then pays for
    sorting the same records into scan order and one pass, which stops at
    the first line that repeats a value.
    Each pass costs O(L log L) time and O(L) memory; on a sector L grows
    about as sqrt(n_max), and nothing is sized by n_max itself.
    """
    records, step, total, negative = table.walk(A, B, F, unit, n_max)
    gap = None
    if total <= n_max + 1 and (step or len(records) == total):
        gap = _first_gap(records, abs(step) or 1, n_max)
    if gap is None:
        value, first, second = _first_repeat(records, step)
        return PrefixReport(
            PrefixStatus.DUPLICATE,
            checked_upto=n_max,
            points=total,
            value=value,
            point=table.point(*first),
            point2=table.point(*second),
        )
    if negative is not None:
        c, t, value = negative
        return PrefixReport(
            PrefixStatus.NEGATIVE_VALUE,
            checked_upto=n_max,
            points=total,
            value=value,
            point=table.point(c, t),
        )
    if gap <= n_max:
        return PrefixReport(
            PrefixStatus.MISSING_VALUE, checked_upto=n_max, points=total, value=gap
        )
    return PrefixReport(PrefixStatus.OK, checked_upto=n_max, points=total)


def rectangle_points(s: Sector, x_max: int) -> list[LatticePoint]:
    """Every sector lattice point with x <= x_max — the dumb enumerator
    used by tests to cross-check the staircase sweep."""
    points = []
    for x in range(x_max + 1):
        for y in range(x * s.n // s.m + 1):
            points.append(LatticePoint(x, y))
    return points
