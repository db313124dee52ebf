"""Independent truth source: bounded enumeration and exhaustive search.

The oracle (prefix_check, enumerate_upto) and the raw-grid search use
none of the classification theorems, and this module does not import
classify.  Every search candidate takes the forced homogeneous part from
polynomials.stanton_quadratic.  Only the candidate stage uses the
construction's formulas: _structured_candidates proposes the (d, e)
pairs of the stair coefficient families, in integers, with
polynomials._stair_pair and _residue, and they join the raw grid as
single-pair rows.  The screen and the certification use none of them.
A candidate is accepted only if its values on the sector's lattice
points form exactly the prefix {0..N}, each attained once, with no
negative value anywhere — established by walking the sector's line
family (its staircases, which are the columns on integral sectors).  The
oracle and the search's certification share one walk in scaled integers
and one verdict, _prefix_verdict: prefix_check reads it on a table of its
own, the search on its screen's table.  The walk reads the lines a class
mod the period v at a time: line c + v is line c shifted by one x and l
points, so along a class each line's base is the previous one's plus an
increment that grows by a constant, whole numbers checked exactly once
per class.  The screen reads the same lines without a walk per pair.  A
candidate's scaled values are linear in its integer pair (d2, e2), so on
the lattice every pair's line base is one reference pair's base, read
class by class as the walk reads its own, plus integer multiples of the
line's first point: the screen's values are the walk's, in integers,
with no rounding.

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
from itertools import chain
from operator import itemgetter
from typing import Iterator, Optional

from .errors import NonTerminatingShape
from .polynomials import (
    Direction,
    QuadPoly,
    _residue,
    _stair_pair,
    stanton_quadratic,
)
from .sectors import LatticePoint, Sector

__all__ = [
    "PrefixStatus",
    "PrefixReport",
    "SearchParams",
    "enumerate_upto",
    "prefix_check",
    "kstair_property_check",
    "rectangle_points",
    "search",
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


@dataclass(frozen=True)
class SearchParams:
    """Dials for the exhaustive search.

    ``prefix_n`` is the correctness dial: 300-500 empirically separates
    true packing polynomials from near-misses at desk scale (n, m <= 40).
    ``raw_grid_bound`` = 0 disables the raw coefficient grid.
    """

    prefix_n: int = 300
    max_k: int = 6
    offset_range: int = 10
    raw_grid_bound: int = 0

    def __post_init__(self) -> None:
        for name in ("prefix_n", "max_k", "offset_range", "raw_grid_bound"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")


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
        """The number of lines walk(A, B, F, unit, lo, hi) reads, for k_lo =
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
        self, A: int, B: int, F: int, unit: int, lo: int, hi: int
    ) -> tuple[
        list[tuple[int, int, int]],
        list[tuple[int, int, int]],
        int,
        int,
        int,
        Optional[tuple[int, int, int]],
    ]:
        """Walk the lines for (A, B, F), collecting the values in [lo, hi].

        Every scaled value Q*(c*l)**2 + A*x + B*y + F must be a multiple
        of ``unit``; values, lo, hi and vmin are all in units of ``unit``,
        and a line whose scaled base or step is not a multiple is a
        ValueError.

        Returns (bounds, spans, step, total, vmin, negative), with one
        bound and one span per line that meets the window, class by class
        (see classes), so not in scan order.  bounds[i] is (least % mod,
        least, greatest) of the line's window values, mod = |step| (1 if
        the step is 0), and spans[i] is the line's (c, first t, point
        count); step is the values' step along every line.  total is the
        window's point count; vmin is the minimum of 0 and every line's
        values; negative is (c, t, value) of the first point in scan order
        (c, then t ascending) with value < 0.  When the step is 0 a line
        holds one value at every point: its bound holds that value and its
        span counts the points.

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
        bounds: list[tuple[int, int, int]] = []
        spans: list[tuple[int, int, int]] = []
        total = vmin = 0
        negative: Optional[tuple[int, int, int]] = None
        for c, _, _, count, base, delta, dd in self.classes(A, B, F, unit, 0, stop):
            for c in range(c, stop, v):
                last = base + step * (count - 1)
                line_min = base if step >= 0 else last
                if line_min < 0:
                    vmin = min(vmin, line_min)
                    if negative is None or c < negative[0]:
                        t = 0 if step >= 0 or base < 0 else base // -step + 1
                        negative = (c, t, base + t * step)
                if step:
                    if step > 0:
                        t_lo = 0 if base >= lo else -((base - lo) // step)
                        t_hi = count - 1 if last <= hi else (hi - base) // step
                    else:
                        t_lo = 0 if base <= hi else -((hi - base) // -step)
                        t_hi = count - 1 if last >= lo else (base - lo) // -step
                    if t_lo <= t_hi:
                        first = base + t_lo * step
                        end = base + t_hi * step
                        bounds.append((first % mod, first, end) if step > 0 else (end % mod, end, first))
                        spans.append((c, t_lo, t_hi - t_lo + 1))
                        total += t_hi - t_lo + 1
                elif lo <= base <= hi:
                    bounds.append((0, base, base))
                    spans.append((c, 0, count))
                    total += count
                count += l
                base += delta
                delta += dd
        return bounds, spans, step, total, vmin, negative


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
    bounds, spans, step, *_ = table.walk(A, B, F, D, 0, n_max)
    u, v = s.lines.u, s.lines.v
    items: list[tuple[int, int, int]] = []
    for (c, t, count), (_, least, greatest) in zip(spans, bounds):
        x, y = table.point(c, t)
        start = least if step >= 0 else greatest
        items += [(start + i * step, x + i * u, y + i * v) for i in range(count)]
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


def _first_gap(bounds: list[tuple[int, int, int]], mod: int, n_max: int) -> Optional[int]:
    """The least value in [0, n_max] that no line's bound holds (n_max + 1
    if each is held), or None if two lines share a value.

    The lines' values share the walk's one step k, so each line's window
    values, a bound (least % mod, least, greatest) of _LineTable.walk, are
    an interval of one residue class mod |k| (mod 1 for a step-0 walk,
    whose lines hold one value each).  Sorted, the lines are disjoint iff
    each starts past the end of the one before it in its class.  A class
    r first misses r, r + |k|, ... at the first of these its sorted lines
    skip, and a class that no line touches misses r itself; the smallest
    missing value is the least of these.
    """
    gap = n_max + 1
    cls, nxt = -1, gap  # the class being read, and the next value it must hold
    for r, lo, hi in sorted(bounds):
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
    bounds: list[tuple[int, int, int]], spans: list[tuple[int, int, int]], step: int
) -> tuple[int, tuple[int, int], tuple[int, int]]:
    """(value, (c0, t0), (c, t)) for the lines of a walk: the first point
    in scan order (c, then t ascending) whose value an earlier point holds
    is t on line c, and the value's first holder is t0 on line c0.  Some
    value must repeat.

    Reads the lines in scan order, the spans sorted by c, keeping those
    read so far sorted by least value in one list per residue class mod
    the step (see _first_gap); they are disjoint until the first line
    that overlaps one of them, so bisect finds the overlapped lines of
    that line.  The line's values are distinct and run in scan order, so
    its first repeat is the smallest value it shares on an ascending line
    (shared with the leftmost line it overlaps) and the largest on a
    descending one (the rightmost).  The earlier lines being disjoint,
    that line is the value's only, so first, holder.  A step-0 line whose
    span counts more than one point repeats its value at its second
    point, unless an earlier line holds it.
    """
    classes: dict[int, tuple[list[int], list[int], list[tuple[int, int, int]]]] = {}
    for (c, t, count), (r, lo, hi) in sorted(zip(spans, bounds), key=itemgetter(0)):
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
        if count > 1 and not step:  # a step-0 line repeats its own value
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
    certification both read their verdicts here.

    The walk yields the window's values as one bound (residue, least,
    greatest) per line, all lines with one step, and counts the window's
    points.  More points than the n_max + 1 values, or than the values
    the lines hold (a step-0 line holds one value at all its points),
    must repeat a value (pigeonhole).  Otherwise _first_gap sorts the L
    bounds and reads both distinctness and the smallest missing value off
    them.  A duplicate then pays for sorting the lines into scan order
    and one pass, which stops at the first line that repeats a value.
    Each pass costs O(L log L) time and O(L) memory; on a sector L grows
    about as sqrt(n_max), and nothing is sized by n_max itself.
    """
    bounds, spans, step, total, _, negative = table.walk(A, B, F, unit, 0, n_max)
    gap = None
    if total <= n_max + 1 and (step or len(spans) == total):
        gap = _first_gap(bounds, abs(step) or 1, n_max)
    if gap is None:
        value, first, second = _first_repeat(bounds, spans, step)
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


def kstair_property_check(s: Sector, p: QuadPoly, c_max: int) -> bool:
    """Directly verify that consecutive stairs differ by one constant +-k.

    Evaluates p at every pair of consecutive stairs on staircases
    0..c_max; true iff all differences agree and are a nonzero integer.
    """
    diffs = set()
    for c in range(c_max + 1):
        stairs = s.stairs(c)
        for first, second in zip(stairs, stairs[1:]):
            diffs.add(p.eval(second) - p.eval(first))
            if len(diffs) > 1:
                return False
    if not diffs:
        return True
    diff = diffs.pop()
    return diff != 0 and diff.denominator == 1


def rectangle_points(s: Sector, x_max: int) -> list[LatticePoint]:
    """Every sector lattice point with x <= x_max — the dumb enumerator
    used by tests to cross-check the staircase sweep."""
    points = []
    for x in range(x_max + 1):
        for y in range(x * s.n // s.m + 1):
            points.append(LatticePoint(x, y))
    return points


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------
#
# Search candidates share the forced homogeneous part, so a candidate is
# just an integer pair (d2, e2) with d = d2/2 and e = e2/(2n).  The filter
# below walks values scaled by 2n, all in exact integer arithmetic:
#
#   P0(x, y) = (n*x - (m-1)*y)**2 + n*d2*x + e2*y       (f left out)
#
# On line c the value is base(c) + t*step, so each line meets the value
# window in a t-interval, collected as a range object.  A packing
# polynomial must attain minimum value exactly 0, which forces
# f = -min(P0)/(2n); sweeping f over [-offset_range, offset_range] is
# therefore equivalent to checking that single forced offset, which is
# what the filter does.


def _edge_threshold(n: int, lo: int) -> int:
    """The least S with n*n*t*t + S*t >= lo (lo <= 0) for every integer t >= 1:
    the largest ceil((lo - n*n*t*t)/t), where lo/t - n*n*t is concave in t
    and peaks at t = sqrt(-lo)/n."""
    return max(-((n * n * t * t - lo) // t) for t in range(1, math.isqrt(-lo) // n + 2))


class _PairScreen:
    """The search screen's state for one sector, at depth prefix_n.

    It holds the line table, the base table of one reference lattice pair
    with the stop line of each k_lo met (see _screen), and ``packs``, the
    test on a pair's window.  ``walked`` and ``band`` count the pairs
    _screen walks and those in its bands.
    """

    def __init__(self, s: Sector, prefix_n: int, offset_range: int):
        self.table = _LineTable(s, 1)
        self.n, self.m = s.n, s.m
        self.u, self.v = s.lines.u, s.lines.v
        self.prefix_n, self.offset_range = prefix_n, offset_range
        # Cheap rejection: on the x-axis points (t, 0) and the ray points
        # (m*t, n*t) the scaled value is n*n*t*t + S*t with S = A or
        # A*m + B*n, and a value below -2n*offset_range there cannot be
        # rescued by any offset.
        self.s_min = _edge_threshold(s.n, -2 * s.n * offset_range)
        # The reference pair is the lattice's residue pair (None off it).
        self.ref = _lattice_residues(s)
        if self.ref is not None:
            d_ref, e_ref = self.ref
            self.step_ref, rem = divmod(s.n * d_ref * self.u + e_ref * self.v, 2 * s.n)
            if rem:
                raise ValueError("stair step is not an integer; polynomial is not integer-valued")
        self.bases: list[tuple[int, int, int, int]] = []  # (K, x0, z, count) per line
        self.stops: dict[int, int] = {}  # k_lo -> its stop line
        self.walked = self.band = 0

    def stop_line(self, k_lo: int) -> int:
        """The stop line of k_lo (see _LineTable.stop); the base table
        holds every line below it."""
        stop = self.stops[k_lo] = self.table.stop(k_lo, 0, 2 * self.n, self.prefix_n)
        if stop > len(self.bases):
            self._read_to(stop)
        return stop

    def _read_to(self, stop: int) -> None:
        """Add (K, x0, z, count) for each line below ``stop``, K the base
        of the reference pair: the scaled value Q*(c*l)**2 + n*d_ref*x0 +
        e_ref*z at the line's first point, over 2n, which must be an
        integer.  The lines come a class at a time off
        _LineTable.classes, each shifted by whole periods.

        On the lattice no line is empty: n | (m-1)**2 makes v = n/l divide
        l, and line c's first point (x0, z), z < v, lies in the sector iff
        z <= c*l, which holds for c = 0 (z = 0) and for every c >= 1.
        """
        bases, first = self.bases, len(self.bases)
        bases += [(0, 0, 0, 0)] * (stop - first)
        l, v = self.table.lines.l, self.v
        d_ref, e_ref = self.ref
        for c, x0, z, count, K, delta, dd in self.table.classes(
            self.n * d_ref, e_ref, 0, 2 * self.n, first, stop
        ):
            for c in range(c, stop, v):
                bases[c] = (K, x0, z, count)
                x0 += 1
                count += l
                K += delta
                delta += dd

    def packs(self, ranges: list[range], vmin: int) -> bool:
        """Does the window of a pair that steps hold each of vmin..vmin +
        prefix_n exactly once?"""
        need = self.prefix_n + 1
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


def _screen(screen: _PairScreen, rows: list[tuple[int, range]]) -> list[tuple[int, int, int]]:
    """Keep the (d2, e2) pairs of ``rows`` that pack to the screen's depth
    prefix_n for some offset, as (d2, e2, f) triples in row order, f the
    forced offset.

    ``rows`` is a d2-ascending list of (d2, ascending e2 range) on the
    integer-valued lattice, each range stepping by 2n; a row off it is a
    ValueError.  P0 grows with d2 (x >= 0) and with e2 (y >= 0)
    everywhere, so "negative" is a down-set of the lattice, and so is "at
    least prefix_n + 1 values <= prefix_n", which on a pair that is not
    negative is the window's size.  ``top`` is an e2 value: every pair
    above it, on this row and every later one, has too few values.  Each
    row is sliced to e2 <= top and scanned down: a pair with too few
    values lowers ``top`` for good, and the pairs below it down to the
    first negative one, the row's band, are the only ones tested for a
    zero step and distinct values.  On the rows of a box the screen thus
    walks at most |D| + |E| pairs outside the bands.  A step-0 pair is
    never kept, but its window counts every point, so it lowers ``top``
    as any other does.

    Each pair reads the lines and values that _LineTable.walk(n*d2, e2,
    0, 2n, -offset_range, prefix_n) would, but off one base table per
    sector, with no call per pair.  Every lattice pair is d2 = d_ref +
    2i, e2 = e_ref + 2n*j for the reference pair (d_ref, e_ref), the
    lattice's residues, and P0 is linear in (d2, e2): P0 moves by 2n*i*x
    + 2n*j*y.  So in units of 2n, line c's base (its value at (x0(c),
    z(c))) is K(c) + i*x0(c) + j*z(c) and the step is step_ref + i*u +
    j*v.  Only K(c), the reference pair's base, needs a division by 2n,
    read exactly per line class per sector (see _read_to); the rest is
    integer products and sums, so every value is exactly the walk's.  The walk's stop line
    depends on the pair only through k_lo = min(A, A*m + B*n), so each
    k_lo's count of lines is computed once, in closed form
    (_LineTable.stop).  A line whose least value is below -offset_range
    ends the pair's walk, which is then negative.
    """
    n, m, u, v = screen.n, screen.m, screen.u, screen.v
    unit = 2 * n
    lo, hi = -screen.offset_range, screen.prefix_n
    need = hi + 1
    s_min, bases, stops = screen.s_min, screen.bases, screen.stops
    survivors = []
    top = max((E.stop for _, E in rows), default=0)
    d_ref, e_ref = screen.ref or (0, 0)
    for d2, E in rows:
        i, d_off = divmod(d2 - d_ref, 2)
        if screen.ref is None or d_off or (E.start - e_ref) % unit or len(E) > 1 and E.step != unit:
            raise ValueError(f"row ({d2}, {E}) is off the integer-valued lattice")
        A = n * d2
        row_step = screen.step_ref + i * u
        band = []
        walked = banded = 0
        for e2 in reversed(range(E.start, min(E.stop, top + 1), E.step)):
            S = A * m + e2 * n
            if A < s_min or S < s_min:
                break
            walked += 1
            j = (e2 - e_ref) // unit
            step = row_step + j * v
            ranges = []
            total = vmin = 0
            k_lo = A if A < S else S
            stop = stops.get(k_lo)
            if stop is None:
                stop = screen.stop_line(k_lo)
            for K, x0, z, count in bases[:stop]:
                base = K + i * x0 + j * z
                line_min = base if step >= 0 else base + step * (count - 1)
                if line_min < vmin:
                    vmin = line_min
                    if vmin < lo:
                        break
                if line_min > hi:
                    continue
                # every value is at least lo, so the window holds those <= hi
                if step > 0:
                    width = (hi - base) // step + 1
                    if width > count:
                        width = count
                    ranges.append(range(base, base + width * step, step))
                elif step < 0:
                    skip = 0 if base <= hi else -((hi - base) // -step)
                    width = count - skip
                    start = base + skip * step
                    ranges.append(range(start, start + width * step, step))
                else:
                    width = count
                    ranges.append(range(base, base + 1))
                total += width
            if vmin < lo:
                break
            if total < need:
                top = e2 - 1
            else:
                banded += 1
                if step and screen.packs(ranges, vmin):
                    band.append((d2, e2, -vmin))
        screen.walked += walked
        screen.band += banded
        survivors += reversed(band)
    return survivors


def _lattice_residues(s: Sector) -> Optional[tuple[int, int]]:
    """(d2 mod 2, e2 mod 2n) of the integer-valued lattice: the pairs whose
    polynomial, with the forced homogeneous part and f = 0, has integer
    p(1, 0) and p(0, 1).  None when n does not divide (m-1)^2, so that no
    pair is integer-valued (2*c2 is not an integer)."""
    n, m = s.n, s.m
    if (m - 1) ** 2 % n != 0:
        return None
    return n % 2, -((m - 1) ** 2) % (2 * n)


def _structured_candidates(s: Sector, max_k: int) -> list[tuple[int, int]]:
    """The (d2, e2) pairs of the stair coefficient families, both
    directions, for every k <= max_k in the right residue class, that lie
    on the integer-valued lattice.  No pair repeats: d = 1 -+ k*l/2."""
    residues = _lattice_residues(s)
    if residues is None:
        return []
    n = s.n
    out = []
    for direction in (Direction.ASCENDING, Direction.DESCENDING):
        res, v = _residue(s, direction)
        for k in range(res or v, max_k + 1, v):
            d2, e2 = _stair_pair(s, k, direction)
            if (d2 % 2, e2 % (2 * n)) == residues:
                out.append((d2, e2))
    return out


def _grid_axes(s: Sector, bound: int) -> tuple[range, range]:
    """The raw grid's ascending d2 and e2 axes: the lattice pairs with
    |d2| <= bound and |e2| <= bound*n.  Both are empty when bound is 0 or
    the lattice is."""
    residues = _lattice_residues(s)
    if bound == 0 or residues is None:
        return range(0), range(0)
    n = s.n
    d_res, e_res = residues
    d_start = -bound + (d_res + bound) % 2
    e_start = -bound * n + (e_res + bound * n) % (2 * n)
    return range(d_start, bound + 1, 2), range(e_start, bound * n + 1, 2 * n)


def _poly_from_scaled(s: Sector, d2: int, e2: int, f: int) -> QuadPoly:
    a, b, c2 = stanton_quadratic(s)
    return QuadPoly(a, b, c2, Fraction(d2, 2), Fraction(e2, 2 * s.n), Fraction(f))


# Depth of the filter's screen; _search_detail says why certifying its
# survivors at prefix_n keeps exactly what a full-depth filter would.
_PREFILTER_N = 8


def _search_detail(s: Sector, params: SearchParams) -> tuple[list[QuadPoly], list[QuadPoly]]:
    """(all survivors, raw-grid survivors), each certified to prefix_n.

    The candidates form one list of rows: a row (d2, E) per d2 of the raw
    grid, and a single-pair row for each structured pair off the grid,
    stably sorted by d2.  _screen screens them once at depth
    min(prefix_n, _PREFILTER_N), so a pair is screened and certified
    once, and a survivor is a raw-grid survivor iff its pair lies on the
    grid's axes.  Each survivor is certified once, at prefix_n with the
    screen's forced offset, in the order of the polynomials' step d*u +
    e*v (its size, then ascending first), f and coefficients: in
    integers, Delta = n*d2*u + e2*v = 2n*(d*u + e*v), which is never 0 on
    a survivor, then f, d2 and e2.  Only a survivor that certifies
    becomes a QuadPoly.

    The certification is prefix_check's verdict, read by _prefix_verdict
    on the screen's own line table, the one whose stop lines it read.  A
    survivor lies on the integer-valued lattice, so prefix_check's probe
    passes, and its homogeneous part is the forced one, so
    _check_family passes.  Its lambda = a/n**2 = 1/(2n), d = d2/2 and e =
    e2/(2n) have denominators dividing 2n, and f is an integer, so
    prefix_check's own scale D is exactly 2n: its walk reads Q = 1 (the
    screen table's), (A, B, F) = (n*d2, e2, 2n*f) and unit 2n, as here.

    The result is that of one full-depth filter pass.  In the filter's
    integer values (P0 over 2n, the polynomial without its offset), a
    line the screen cuts off early has every value above its hi >= 0, so
    vmin, and with it the forced offset f = -vmin, is the same at every
    depth.  A survivor attains vmin, so with that f it is integer-valued
    with least value 0, and "the full-depth filter keeps it" is exactly
    "prefix_check at prefix_n is OK": each of 0..prefix_n is attained
    exactly once.
    """
    D, E = _grid_axes(s, params.raw_grid_bound)
    rows = [(d2, E) for d2 in D]
    rows += [
        (d2, range(e2, e2 + 1))
        for d2, e2 in _structured_candidates(s, params.max_k)
        if not (d2 in D and e2 in E)
    ]
    rows.sort(key=lambda row: row[0])
    screen = _PairScreen(s, min(params.prefix_n, _PREFILTER_N), params.offset_range)
    n, u, v = s.n, s.lines.u, s.lines.v

    def order(triple: tuple[int, int, int]) -> tuple[int, bool, int, int, int]:
        d2, e2, f = triple
        delta = n * d2 * u + e2 * v
        return abs(delta), delta < 0, f, d2, e2

    found: list[QuadPoly] = []
    raw_found: list[QuadPoly] = []
    for d2, e2, f in sorted(_screen(screen, rows), key=order):
        if _prefix_verdict(screen.table, n * d2, e2, 2 * n * f, 2 * n, params.prefix_n).ok:
            p = _poly_from_scaled(s, d2, e2, f)
            found.append(p)
            if d2 in D and e2 in E:
                raw_found.append(p)
    return found, raw_found


def search(s: Sector, params: SearchParams) -> list[QuadPoly]:
    """Rediscover every packing polynomial on S(n/m) by brute force.

    The candidates are the stair coefficient families for every
    admissible-residue k <= max_k and, if enabled, the raw (d, e) grid
    with only the homogeneous part pinned.  Integral sectors are no
    exception: their staircases are the columns.  Both join one list of
    integer rows, which one screen at the small depth _PREFILTER_N (8, or
    prefix_n if less) walks only around each row's passing band.  Each
    survivor gets prefix_check's verdict once, read in integers on the
    screen's line table, so every returned polynomial is "verified to
    prefix_n".  Depth 8 is only a cheap reject: the result equals a
    single filter pass at prefix_n.
    """
    return _search_detail(s, params)[0]
