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
exactly once per class.  A long class is built in bulk, as integer lists:
the run of its lines whose values all lie inside the window keeps each
line's least value and its end (greatest value plus the step's size),
with no division and no tuple per line.  Only a line that crosses an edge
of the window, holds a negative value, has step 0 or lies in a short class
takes the per-line path and keeps a record (least, end, c, t, points).
The verdict is OK when the sorted least values equal the sorted ends,
each list with one sentinel per residue class of the step (see
_prefix_verdict).

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
from itertools import accumulate, compress, repeat
from operator import add, itemgetter, lt, ne
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

# A class of at least this many lines below the stop line is built in bulk
# (see _LineTable.walk); a shorter one, as the search's certifications
# mostly read, is read line by line, which costs it less.
_RUN_MIN = 32

# A walk's lines, each with its least value and its end (greatest value +
# |step|, or + 1 for step 0): runs, each (c, count, lows, ends) for the
# lines c, c + v, ... with counts count, count + l, ..., and records, one
# (least, end, c, t, points) per line read one at a time.
_Run = tuple[int, int, list[int], list[int]]
_Record = tuple[int, int, int, int, int]


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
    ) -> tuple[list[_Run], list[_Record], int, int, Optional[tuple[int, int, int]]]:
        """Walk the lines for (A, B, F), collecting the values in [0, hi].

        Every scaled value Q*(c*l)**2 + A*x + B*y + F must be a multiple
        of ``unit``; values and hi are in units of ``unit``, and a line
        whose scaled base or step is not a multiple is a ValueError.  A
        window [-R, hi] is the walk of (A, B, F + R*unit) to hi + R, which
        stops on the same line, its values each raised by R.

        Returns (runs, records, step, total, negative); step is the
        values' step along every line, mod = |step| (1 if the step is 0),
        total is the window's point count and negative is (c, t, value) of
        the first point in scan order (c, then t ascending) with value < 0.
        Every line that meets the window is in one run or has one record,
        class by class (see classes), so not in scan order; expand lists
        them all as records, in scan order.

        A class of _RUN_MIN or more lines with a nonzero step is built in
        bulk: its bases from two accumulate passes over delta and dd, the
        increments classes checked, and the other end of each line from
        one map(add) of the bases and the range of step*count.  Its run is
        the lines from one index to another whose values all lie in [0,
        hi], least >= 0 and end = greatest + mod <= hi + mod, kept as
        (c, count, lows, ends): its first line c and that line's count,
        and two integer lists, each line's least value and its end.  A
        run's line holds every point t = 0 .. count - 1, and both lists
        are convex in the line index (their second difference is dd > 0),
        so the ends of the run's first and last lines bound every end in
        between, and past its least point the lows ascend: bisect finds
        the run's first line after a dip below 0.

        Every other line, of a short class, before or after the run, or
        with step 0, is read one at a time and kept as a record (least,
        end, c, t, points): the least of line c's window values and its
        end, the greatest + mod, and the line's first window point t and
        window point count.  A line whose values all lie in [0, hi] is
        recorded whole, t = 0 and points = its count, with no division;
        every other line (one that crosses an edge of the window, one with
        a negative value, or a step-0 line) goes through the one general
        path, which alone finds t from the window's edges and records the
        line's negative values.  When the step is 0 a line holds one value
        at every point: its record holds that value and counts the points.

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
        top = hi + mod
        shift = 0 if step > 0 else mod  # a line's first end, less its base
        runs: list[_Run] = []
        # (c, below, count, base, delta): the lines c, c + v, ... before
        # line below are read one at a time, from line c's count, base and
        # delta on
        single: list[tuple[int, int, int, int, int]] = []
        total = 0
        for c, _, _, count, base, delta, dd in self.classes(A, B, F, unit, 0, stop):
            if not step or c + (_RUN_MIN - 1) * v >= stop:
                single.append((c, stop, count, base, delta))
                continue
            size = (stop - 1 - c) // v + 1
            deltas = accumulate(repeat(dd, size - 2), initial=delta)
            firsts = list(accumulate(deltas, initial=base + shift))
            counts = range(step * count, step * (count + size * l), step * l)
            seconds = list(map(add, firsts, counts))
            lows, ends = (firsts, seconds) if step > 0 else (seconds, firsts)
            j = size
            while j and ends[j - 1] > top:
                j -= 1
            i = 0
            while i < j and (lows[i] < 0 or ends[i] > top):
                i += 1
            if i < j:
                # the lows descend up to the first index whose difference
                # lows[k + 1] - lows[k] = lows[1] - lows[0] + k*dd is >= 0
                vertex = max(0, -((lows[1] - lows[0]) // dd))
                k = min(max(vertex, i), j - 1)
                if lows[k] < 0:
                    i = bisect_left(lows, 0, k, j) if vertex <= k else j
            if i:
                single.append((c, c + i * v, count, base, delta))
            if j < size:
                single.append((c + j * v, stop, count + j * l, firsts[j] - shift, delta + j * dd))
            if i < j:
                del lows[j:], ends[j:]
                del lows[:i], ends[:i]
                runs.append((c + i * v, count + i * l, lows, ends))
                total += (j - i) * count + l * (i + j - 1) * (j - i) // 2
        records: list[_Record] = []
        negative: Optional[tuple[int, int, int]] = None
        for c, below, count, base, delta in single:
            for c in range(c, below, v):
                last = base + step * (count - 1)
                if step > 0 and 0 <= base and last <= hi:
                    records.append((base, last + mod, c, 0, count))
                    total += count
                elif step < 0 and 0 <= last and base <= hi:
                    records.append((last, base + mod, c, 0, count))
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
                            records.append((first, end + mod, c, t_lo, t_hi - t_lo + 1))
                            total += t_hi - t_lo + 1
                    elif 0 <= base <= hi:
                        records.append((base, base + 1, c, 0, count))
                        total += count
                count += l
                base += delta
                delta += dd
        return runs, records, step, total, negative

    def expand(
        self, runs: list[_Run], records: list[_Record], step: int
    ) -> list[tuple[int, int, int, int, int, int]]:
        """A walk's lines as (least % mod, least, greatest, c, t, points),
        one per line, in scan order: each run's lines as the per-line path
        reads a line wholly inside the window, and the walk's records."""
        v, l = self.lines.v, self.lines.l
        mod = abs(step) or 1
        out = [(lo % mod, lo, end - mod, c, t, points) for lo, end, c, t, points in records]
        for c, count, lows, ends in runs:
            out += [
                (least % mod, least, end - mod, c + i * v, 0, count + i * l)
                for i, (least, end) in enumerate(zip(lows, ends))
            ]
        out.sort(key=itemgetter(3))
        return out


def _scaled(s: Sector, p: QuadPoly) -> tuple[_LineTable, int, int, int, int]:
    """(table, A, B, F, D): p scaled by D, the lcm of the denominators of
    lambda = a/n**2, d, e and f, so that a walk of the table with (A, B, F,
    D) runs in integers; Q = lambda*D.  Computed on the coefficients'
    numerators and denominators.

    p's homogeneous part must be constant along the line family,
    NonTerminatingShape otherwise: a positive multiple lambda*(n*x -
    (m-1)*y)**2, so b = -2*(m-1)*a/n and c2 = a*(m-1)**2/n**2, which is
    constant on every line (a*x**2 on an integral sector).  Anything else
    admits no finite sweep bound.
    """
    n, m1 = s.n, s.m - 1
    a_num, a_den = p.a.numerator, p.a.denominator
    b, c2 = p.b, p.c2
    if not (
        a_num > 0
        and b.numerator * a_den * n == -2 * m1 * a_num * b.denominator
        and c2.numerator * a_den * n * n == a_num * m1 * m1 * c2.denominator
    ):
        raise NonTerminatingShape(
            f"homogeneous part of {p} is not constant along the line family of S({s})"
        )
    g = math.gcd(a_num, a_den * n * n)
    lam_num, lam_den = a_num // g, a_den * n * n // g
    d, e, f = p.d, p.e, p.f
    D = math.lcm(lam_den, d.denominator, e.denominator, f.denominator)
    return (
        _LineTable(s, lam_num * (D // lam_den)),
        d.numerator * (D // d.denominator),
        e.numerator * (D // e.denominator),
        f.numerator * (D // f.denominator),
        D,
    )


def enumerate_upto(
    s: Sector, p: QuadPoly, n_max: int
) -> list[tuple[LatticePoint, int]]:
    """All sector lattice points with 0 <= p <= n_max, sorted by value."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not p.is_integer_valued():
        raise ValueError("polynomial is not integer-valued")
    table, A, B, F, D = _scaled(s, p)
    runs, records, step, *_ = table.walk(A, B, F, D, n_max)
    u, v = s.lines.u, s.lines.v
    items: list[tuple[int, int, int]] = []
    for _, least, greatest, c, t, points in table.expand(runs, records, step):
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


def _first_gap(runs: list[_Run], records: list[_Record], k: int, n_max: int) -> Optional[int]:
    """The least value in [0, n_max] that no line of a walk holds (n_max +
    1 if each is held), or None if two lines share a value, for the runs
    and records of a walk with step size k (1 for step 0).

    Lists each line's least value among the lows and its end, greatest +
    k, among the ends, with one sentinel pair for each residue r below
    held = min(k, n_max + 1) that gets one: r's first value past n_max
    among the lows and r among the ends.  When the lines number at least
    held, every such residue gets one, in two ranges, as the first values
    past n_max are one of each residue.  Otherwise only the residues that
    some line holds get one, and the least residue below held that none
    holds, unheld, is missed.  Either way the sentinels are no more than
    the lines, so nothing is sized by n_max or by k.

    Sorted, equal lists chain every residue that has a sentinel pair
    (_prefix_verdict proves it), so only unheld can be missed.  Otherwise
    the lists agree index by index below their first difference and above
    their last one, and at the first, a low below the end is a repeat and
    an end below the low is the least missing value of every residue with
    a sentinel pair; at the last, an end above the low is a repeat.
    Between the two, keyed r*w + value, w = n_max + k + 1, by the value's
    residue r mod k, each list's entries sort residue by residue, with as
    many keys of each residue in one as in the other, and a key of the
    lows below the key of the ends at the same index is a repeat.
    """
    lows = [record[0] for record in records]
    ends = [record[1] for record in records]
    for _, _, run_lows, run_ends in runs:
        lows += run_lows
        ends += run_ends
    held = k if k <= n_max else n_max + 1
    if len(lows) >= held:
        past = n_max + 1 if k <= n_max else k
        lows += range(past, past + held)
        ends += range(held)
        unheld = n_max + 1
    else:
        residues = {x % k for x in lows}
        lows += [r + k * ((n_max - r) // k + 1) for r in residues]
        ends += residues
        unheld = next(r for r in range(held) if r not in residues)
    lows.sort()
    ends.sort()
    if lows == ends:
        return unheld
    first = next(compress(range(len(lows)), map(ne, lows, ends)))
    if lows[first] < ends[first]:
        return None
    last = next(compress(range(len(lows) - 1, -1, -1), map(ne, reversed(lows), reversed(ends))))
    if ends[last] > lows[last]:
        return None
    if k == 1:  # one residue: the keyed slices are the sorted slices themselves
        starts, stops = lows[first : last + 1], ends[first : last + 1]
    else:
        w = n_max + k + 1
        starts, stops = (
            sorted([x % k * w + x for x in xs[first : last + 1]]) for xs in (lows, ends)
        )
    if any(map(lt, starts, stops)):
        return None
    return min(unheld, ends[first])


def _first_repeat(
    table: _LineTable, runs: list[_Run], records: list[_Record], step: int
) -> tuple[int, tuple[int, int], tuple[int, int]]:
    """(value, (c0, t0), (c, t)) for the lines of a walk: the first point
    in scan order (c, then t ascending) whose value an earlier point holds
    is t on line c, and the value's first holder is t0 on line c0.  Some
    value must repeat.

    Reads the lines in scan order, each off its record or off its class's
    run (line c is in the run of class c mod v), and stops at the first
    line that repeats a value, keeping those read so far sorted by least
    value in one list per residue class mod the step; they are disjoint
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
    v, l = table.lines.v, table.lines.l
    mod = abs(step) or 1
    alone = {record[2]: record for record in records}
    last = max(alone, default=-1)
    by_class: dict[int, _Run] = {}
    for run in runs:
        by_class[run[0] % v] = run
        last = max(last, run[0] + (len(run[2]) - 1) * v)
    classes: dict[int, tuple[list[int], list[int], list[tuple[int, int, int]]]] = {}
    for c in range(last + 1):
        record = alone.get(c)
        if record is not None:
            lo, end, _, t, points = record
        else:
            run = by_class.get(c % v)
            if run is None or c < run[0] or c - run[0] >= len(run[2]) * v:
                continue
            c0, count0, run_lows, run_ends = run
            i = (c - c0) // v
            lo, end, t, points = run_lows[i], run_ends[i], 0, count0 + i * l
        r, hi = lo % mod, end - mod
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

    The walk yields the window's values line by line, all lines with one
    step k (size 1 for step 0), in runs of integer lists and records, and
    counts the window's points.  More points than the n_max + 1 values,
    or than the values the lines hold (a step-0 line holds one value at
    all its points), must repeat a value (pigeonhole).  Otherwise each
    line is the values lo, lo + k, ..., hi of one residue r mod k, with 0
    <= lo <= hi <= n_max, and _first_gap lists every line's least value
    lo and end hi + k, with a sentinel pair for residue r: P_r, r's first
    value past n_max, among the lows and r among the ends.

    OK, by one comparison.  When every residue below min(k, n_max + 1)
    has a sentinel pair, the values 0..n_max are each attained once iff
    the sorted lows equal the sorted ends.
    Read each line as an edge lo -> hi + k and each sentinel pair as an
    edge P_r -> r; the lists are equal as multisets iff every value has
    as many edges out as in.  A line's edge goes strictly up inside r's
    values r .. P_r and P_r -> r is r's only edge down, so its lines must
    chain r -> ... -> P_r: the first starts at r, each starts at the end
    of the one before it, and the last ends at P_r, since no edge up
    leaves P_r and none can close a cycle.  Those are exactly the lines
    that cover r's values in [0, n_max] once each, with no gap or
    overlap.  Conversely such a chain balances every value.

    Otherwise, by coverage counts.  _first_gap keys each entry r*w +
    value, w = n_max + k + 1 > P_r, so each list sorts residue by
    residue, with as many entries of each residue in one as in the other
    (one per line plus its sentinel).  For a value x of residue r in [0,
    n_max], the lines holding x number cover(x) = #{lo <= x} - #{hi + k
    <= x} = 1 + S(x) - E(x), where S(x) and E(x) count the lows and the
    ends of r up to x, the sentinel r counted in E(x) and P_r > x in
    neither.  With the sorted lists s and e of residue r: s[i] < e[i] for
    some i iff some value repeats, for then x = s[i], a line's least
    value (P_r is r's greatest entry, and no end exceeds it), has S(x) >=
    i + 1 > E(x), so cover(x) >= 2; and a value x with cover(x) >= 2 has
    S(x) > E(x) = i, so s[i] <= x < e[i].  In the same way e[i] < s[i]
    says that x = e[i] <= n_max has cover(x) <= 0, and when no value
    repeats, the least missing value x* of residue r has S(x*) = E(x*) -
    1 = i, so e[i] <= x* < s[i] and x* is that e[i]: the smallest missing
    value is the least e[i] < s[i] over all residues, or a residue that
    no line holds and gets no sentinel, whichever is less.

    The unkeyed sorted lists need no key where they agree.  Below their
    first difference, at value x, every value has as many lows as ends,
    so by the same count every value below x of every residue is held
    once, and a low at x in excess is a repeat (cover(x) >= 2), an end at
    x in excess the smallest missing value.  Above their last difference,
    at value z, the same holds counted down from P_r, cover(y) = 1 + #{e
    > y} - #{s > y}, so an end at z in excess is a repeat at z - k.
    Between the two, each residue's entries are as many in one list as in
    the other, and the keyed comparison runs on that slice alone.

    The first repeat in scan order, the duplicate's witness, is then read
    off the lines in scan order by _first_repeat, which stops at the first
    line that repeats a value.  The sorts cost O(L log L) time and O(L)
    memory on L lines; on a sector L grows about as sqrt(n_max), and
    nothing is sized by n_max itself or by k.
    """
    runs, records, step, total, negative = table.walk(A, B, F, unit, n_max)
    gap = None
    if total <= n_max + 1 and (step or len(records) == total):
        gap = _first_gap(runs, records, abs(step) or 1, n_max)
    if gap is None:
        value, first, second = _first_repeat(table, runs, records, step)
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
