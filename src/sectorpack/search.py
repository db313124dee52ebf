"""Exhaustive search: every packing polynomial of a sector, by brute force.

The search trusts the oracle, sectorpack.verify, and none of the
classification: it imports nothing from classify or sweep, and it uses
none of the classification theorems.  Every candidate takes the forced
homogeneous part from polynomials.stanton_quadratic.  Only the candidate
stage uses the construction's formulas: _structured_candidates proposes
the (d, e) pairs of the stair coefficient families, in integers, with
polynomials._stair_pair and _residue, and each one off the raw grid's
rows is a row of its own.  The screen and the certification use none of
them.
A pair that passes the screen is certified with the oracle's own
verdict, verify._prefix_verdict, read on its shear class's line table
(below).  The screen reads the lines the oracle's walk reads, without a
walk per pair.  A candidate's scaled values are linear in its integer
pair (d2, e2), so on the lattice every pair's line base is one reference
pair's base, read class by class as the walk reads its own, plus integer
multiples of the line's first point: the screen's values are the walk's,
in integers, with no rounding.

The sectors S(n/m) that share n and m0 = (m - 1) mod n + 1 (_m0) form
one shear class.  With q = (m - m0)/n, T(x, y) = (x + q*y, y) maps the
lattice points of S(n/m0) one to one onto those of S(n/m) and keeps
every staircase index, so a search pair (d2, e2) takes on S(n/m) the
values that the reduced pair (d2, e2 + q*n*d2) takes on S(n/m0), at
every depth (_ShearClass proves it).  So the class is the search's unit,
and _class_triples is the one place that shears: it maps the raw grids
of every sector it is given onto S(n/m0), one run per grid d2, and the
stair pairs, which reduce to one set for the whole class, with one row
for each pair off its d2's run.  It screens them once on one fresh
_ShearClass, the search's one state object, whose _screen reads only
S(n/m0), and reads each sector's survivors off the kept triples, in
integers.  _polys reads them as polynomials.  A lone search is the
one-sector case, and a sweep makes one class search per shear class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .polynomials import Direction, QuadPoly, _residue, _stair_pair, stanton_quadratic
from .sectors import Sector
from .verify import _LineTable, _prefix_verdict

__all__ = ["SearchParams", "search"]


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


# Search candidates share the forced homogeneous part, so a candidate is
# just an integer pair (d2, e2) with d = d2/2 and e = e2/(2n).  The filter
# below walks values scaled by 2n, all in exact integer arithmetic:
#
#   P0(x, y) = (n*x - (m-1)*y)**2 + n*d2*x + e2*y       (f left out)
#
# On line c the value is base(c) + t*step, so each line meets the value
# window in a t-interval, kept as its least value and its width.  A packing
# polynomial must attain minimum value exactly 0, which forces
# f = -min(P0)/(2n); sweeping f over [-offset_range, offset_range] is
# therefore equivalent to checking that single forced offset, which is
# what the filter does.


def _edge_threshold(n: int, lo: int) -> int:
    """The least S with n*n*t*t + S*t >= lo (lo <= 0) for every integer t >= 1:
    the largest ceil((lo - n*n*t*t)/t).  lo/t - n*n*t is concave in t and
    peaks at t = sqrt(-lo)/n, so over the integers t >= 1 it peaks at t0 =
    max(1, floor(sqrt(-lo)/n)) = max(1, isqrt(-lo)//n) or at t0 + 1, and
    ceil keeps the order: two terms, whatever the offset range."""
    t0 = max(1, math.isqrt(-lo) // n)
    return max(-((n * n * t * t - lo) // t) for t in (t0, t0 + 1))


# Depth of the search's screen; _screen says why certifying what it keeps
# at prefix_n keeps exactly what a full-depth screen would.
_PREFILTER_N = 8


class _ShearClass:
    """The search's state for one shear class, certifying at prefix_n:
    the sectors S(n/m), m = m0 + q*n for q >= 0, that share n and m0 =
    (m - 1) mod n + 1, each screened and certified on S(n/m0):
    _class_triples shears each sector's pairs onto S(n/m0), and _screen
    reads S(n/m0) alone.  For n = 1 the class's sector is S(1/1), where
    w_reduce gives the quadrant.  _shear_class builds one from any sector
    of the class.

    With q = (m - m0)/n, T(x, y) = (x + q*y, y) maps the lattice points of
    S(n/m0) one to one onto those of S(n/m): m*y <= n*(x + q*y) iff m0*y
    <= n*x, and with y >= 0 either makes both x and x + q*y nonnegative,
    as m0 >= 1.  T keeps every staircase index c, since n*(x + q*y) -
    (m-1)*y = n*x - (m0-1)*y, so it keeps the forced homogeneous part
    (n*x - (m-1)*y)**2, the line step (u, v) = (u0 + q*v, v) and each
    point's place t on its line.  As n*d2*(x + q*y) + e2*y = n*d2*x + (e2
    + q*n*d2)*y, the pair (d2, e2) takes on S(n/m) exactly the values,
    line by line and point by point, that the reduced pair (d2, e2 +
    q*n*d2) takes on S(n/m0), at every depth, so the two pass or fail
    the screen and the certification together.  Its step n*d2*u + e2*v
    and both edge sums, A = n*d2 and A*m + B*n, are the reduced pair's,
    so the s_min test and the stop line are too.  And the pair lies on
    the sector's integer-valued lattice iff the reduced pair lies on
    S(n/m0)'s: both need d2 - n even, and then (m-1)**2 - (m0-1)**2 =
    2*q*n*(m0-1) + q*q*n*n is q*n*d2 mod 2n.

    The class screens at ``depth`` = min(prefix_n, _PREFILTER_N).  It
    holds the line table of S(n/m0), on which the screen reads its base
    tables and certifies each pair that packs, and the base tables of one
    reference lattice pair with the stop line of each k_lo met (see
    _screen).  It needs no state per pair: _class_triples screens each
    reduced pair of the class at most once, as its rows are disjoint.
    ``walked`` and ``band`` count the pairs _screen walks, over every call
    on the class, and those in the rows' bands; a step-0 pair, skipped
    before any line is read, counts in neither.
    """

    def __init__(self, s0: Sector, prefix_n: int, offset_range: int):
        self.table = _LineTable(s0, 1)
        self.prefix_n, self.offset_range = prefix_n, offset_range
        self.depth = min(prefix_n, _PREFILTER_N)
        # Cheap rejection: on the x-axis points (t, 0) and the ray points
        # (m*t, n*t) the scaled value is n*n*t*t + S*t with S = A or
        # A*m + B*n, and a value below -2n*offset_range there cannot be
        # rescued by any offset.
        self.s_min = _edge_threshold(s0.n, -2 * s0.n * offset_range)
        # The reference pair is the lattice's residue pair (None off it).
        self.ref = _lattice_residues(s0)
        if self.ref is not None:
            d_ref, e_ref = self.ref
            self.step_ref, rem = divmod(s0.n * d_ref * s0.lines.u + e_ref * s0.lines.v, 2 * s0.n)
            if rem:
                raise ValueError("stair step is not an integer; polynomial is not integer-valued")
        # (K, x, y, count) per line at its first and at its last point
        self.firsts: list[tuple[int, int, int, int]] = []
        self.lasts: list[tuple[int, int, int, int]] = []
        self.stops: dict[int, int] = {}  # k_lo -> its stop line
        self.walked = self.band = 0

    def stop_line(self, k_lo: int) -> int:
        """The stop line of k_lo (see _LineTable.stop); the base tables
        hold every line below it."""
        stop = self.stops[k_lo] = self.table.stop(k_lo, 0, 2 * self.table.lines.n, self.depth)
        if stop > len(self.firsts):
            self._read_to(stop)
        return stop

    def _read_to(self, stop: int) -> None:
        """Add (K, x0, z, count) to ``firsts`` for each line below
        ``stop``, K the base of the reference pair: the scaled value
        Q*(c*l)**2 + n*d_ref*x0 + e_ref*z at the line's first point, over
        2n, which must be an integer.  The lines come a class at a time off
        _LineTable.classes, each shifted by whole periods.  ``lasts`` gets
        the same at the line's last point, t = count - 1 steps on: (K +
        step_ref*t, x0 + u*t, z + v*t, count).

        On the lattice no line is empty: n | (m-1)**2 makes v = n/l divide
        l, and line c's first point (x0, z), z < v, lies in the sector iff
        z <= c*l, which holds for c = 0 (z = 0) and for every c >= 1.
        """
        firsts, lasts, first = self.firsts, self.lasts, len(self.firsts)
        firsts += [(0, 0, 0, 0)] * (stop - first)
        lasts += [(0, 0, 0, 0)] * (stop - first)
        lines, step_ref = self.table.lines, self.step_ref
        l, u, v = lines.l, lines.u, lines.v
        d_ref, e_ref = self.ref
        for c, x0, z, count, K, delta, dd in self.table.classes(
            lines.n * d_ref, e_ref, 0, 2 * lines.n, first, stop
        ):
            for c in range(c, stop, v):
                firsts[c] = (K, x0, z, count)
                t = count - 1
                lasts[c] = (K + step_ref * t, x0 + u * t, z + v * t, count)
                x0 += 1
                count += l
                K += delta
                delta += dd


def _m0(n: int, m: int) -> int:
    """The m0 of S(n/m)'s shear class: S(n/m) and S(n/m') share a class
    iff they share n and m0 = (m - 1) mod n + 1, and S(n/m0) is the
    class's sector with 1 <= m0 <= n."""
    return (m - 1) % n + 1


def _shear_class(s: Sector, prefix_n: int, offset_range: int) -> _ShearClass:
    """A fresh _ShearClass of s's shear class, certifying at prefix_n,
    on S(n/m0)."""
    m0 = _m0(s.n, s.m)
    return _ShearClass(s if m0 == s.m else Sector(s.n, m0, s.l), prefix_n, offset_range)


def _screen(shear: _ShearClass, rows: list[tuple[int, range]]) -> list[tuple[int, int, int]]:
    """Keep the (d2, e2) pairs of ``rows`` on S(n/m0), the shear class's
    sector, that pack to the class's prefix_n for some offset, as (d2, e2,
    f) triples in row order, f the forced offset.  A pair of another
    sector of the class is screened as its reduced pair on S(n/m0), whose
    values are its own (see _ShearClass); _class_triples shears the rows.

    ``rows`` is a d2-ascending list of (d2, ascending e2 range), several
    of them for one d2 if need be, on the integer-valued lattice of
    S(n/m0), each range stepping by 2n; a row off it is a ValueError.  The
    rows are screened at the class's depth, min(prefix_n, _PREFILTER_N),
    and a pair that packs there is certified at prefix_n.  P0 grows with
    d2 (x >= 0) and with e2 (y >= 0) everywhere, so "negative" is a
    down-set of the lattice, and so is "at least depth + 1 values <=
    depth", which on a pair that is not negative is the window's size.
    ``top`` is an e2 value: every pair above it, on this row and every
    later one, of its d2 or a greater one, has too few values.  Each row
    is sliced to e2 <= top and scanned down.  A pair whose step is 0 is
    skipped before any line is read: it takes one value along each whole
    line, so it never packs, and as ``top`` and the negative break only
    prune the scan, skipping it drops no survivor.  Every other pair is walked: a
    pair with too few values lowers ``top`` for good, and the pairs below
    it down to the first negative one, the row's band, are the only ones
    tested for distinct values.  Outside the bands the screen thus walks at
    most one pair per row, the negative one that ends it, and one short
    pair per e2 value of the rows: |D| + |E| on the rows of a box, and on a
    shear class's rows (_class_triples) the runs plus the e2 values they
    span.

    It reads the lines and values of the window [-offset_range, depth]
    that _LineTable.walk(n*d2, e2, 2n*offset_range, 2n, depth +
    offset_range) on S(n/m0) would, less offset_range, but off the class's
    base tables, with no call per pair.  Every lattice pair is d2 = d_ref
    + 2i, e2 = e_ref + 2n*j for the reference pair (d_ref, e_ref), the
    lattice's residues, and P0 is linear in (d2, e2): P0 moves by 2n*i*x +
    2n*j*y.  So in units of 2n, line c's base (its value at (x0(c),
    z(c))) is K(c) + i*x0(c) + j*z(c) and the step is step_ref + i*u +
    j*v.  Only K(c), the reference pair's base, needs a division by 2n,
    read exactly per line class per shear class (see _read_to); the rest
    is integer products and sums, so every value is exactly the walk's.  The walk's stop line
    depends on the pair only through k_lo = min(A, A*m0 + B*n), so each
    k_lo's count of lines is computed once, in closed form
    (_LineTable.stop).  A line whose least value is below -offset_range
    ends the pair's walk, which is then negative.

    A line's least value is its base on an ascending line and its last
    value on a descending one, read the same way off ``lasts``, so one
    loop serves both signs of the step.  A line's window is the ``width``
    values least, least + |step|, ... that are at most depth.  A band pair
    packs iff marking each window value below vmin + depth + 1 as bit value
    - vmin sets all depth + 1 bits with exactly depth + 1 marks: a value
    marked twice would leave a bit unset.

    A pair that packs is certified at once with prefix_check's verdict,
    read by _prefix_verdict on the class's line table: the pair with f =
    -vmin is a polynomial on S(n/m0).  It lies on the integer-valued
    lattice, so prefix_check's probe passes, and its homogeneous part is
    the forced one, so _check_family passes.  Its lambda = a/n**2 = 1/(2n),
    d = d2/2 and e = e2/(2n) have denominators dividing 2n, and f is an
    integer, so prefix_check's own scale D is exactly 2n: its walk reads Q
    = 1 (the table's), (A, B, F) = (n*d2, e2, 2n*f) and unit 2n, as here.

    The result is that of one screen at full depth prefix_n.  In the
    integer values P0 over 2n, a line the screen cuts off early has every
    value above its depth >= 0, so vmin, and with it the forced offset f
    = -vmin, is the same at every depth.  A pair that packs attains vmin,
    so with that f it is integer-valued with least value 0, and "the
    full-depth screen keeps it" is exactly "prefix_check at prefix_n is
    OK": each of 0..prefix_n is attained exactly once.  A pair that the
    screen drops, the full-depth screen drops too: with the same vmin, it
    is negative, or misses or repeats a value below vmin + depth + 1.
    """
    lines = shear.table.lines
    n, m0, u, v = lines.n, lines.m, lines.u, lines.v
    unit = 2 * n
    lo, hi, prefix_n = -shear.offset_range, shear.depth, shear.prefix_n
    need = hi + 1
    full = (1 << need) - 1
    s_min, firsts, lasts, stops = shear.s_min, shear.firsts, shear.lasts, shear.stops
    survivors = []
    top = max((E.stop for _, E in rows), default=0)
    d_ref, e_ref = shear.ref or (0, 0)
    for d2, E in rows:
        i, d_off = divmod(d2 - d_ref, 2)
        if shear.ref is None or d_off or (E.start - e_ref) % unit or len(E) > 1 and E.step != unit:
            raise ValueError(f"row ({d2}, {E}) is off the integer-valued lattice")
        A = n * d2
        row_step = shear.step_ref + i * u
        band = []
        walked = banded = 0
        for e2 in reversed(range(E.start, min(E.stop, top + 1), E.step)):
            S = A * m0 + e2 * n
            if A < s_min or S < s_min:
                break
            j = (e2 - e_ref) // unit
            step = row_step + j * v
            if not step:
                continue
            walked += 1
            k_lo = A if A < S else S
            stop = stops.get(k_lo)
            if stop is None:
                stop = shear.stop_line(k_lo)
            window = []  # (least, width) per line that meets the window
            total = vmin = 0
            gap = step if step > 0 else -step
            for K, x, y, count in (firsts if step > 0 else lasts)[:stop]:
                least = K + i * x + j * y
                if least < vmin:
                    vmin = least
                    if vmin < lo:
                        break
                if least <= hi:
                    width = (hi - least) // gap + 1
                    if width > count:
                        width = count
                    window.append((least, width))
                    total += width
            if vmin < lo:  # negative: so is every pair below it on the row
                break
            if total < need:  # short: so is every pair above it
                top = e2 - 1
                continue
            banded += 1
            seen = marked = 0
            for least, width in window:
                first = least - vmin
                if first < need:
                    w = (need - 1 - first) // gap + 1
                    if w > width:
                        w = width
                    marked += w
                    # bits first, first + gap, ..., first + (w - 1)*gap
                    seen |= ((1 << gap * w) - 1) // ((1 << gap) - 1) << first
            if seen == full and marked == need:
                if _prefix_verdict(shear.table, A, e2, -unit * vmin, unit, prefix_n).ok:
                    band.append((d2, e2, -vmin))
        shear.walked += walked
        shear.band += banded
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
    """The polynomial of the survivor triple (d2, e2, f) = (2d, 2n*e, f)
    on s, with the forced homogeneous part: the inverse of _scaled_key."""
    a, b, c2 = stanton_quadratic(s)
    return QuadPoly(a, b, c2, Fraction(d2, 2), Fraction(e2, 2 * s.n), Fraction(f))


def _scaled_key(
    p: QuadPoly, n: int, forced: tuple[Fraction, ...]
) -> Optional[tuple[int, int, int]]:
    """The survivor triple (2d, 2n*e, f) that p would be found as, on a
    sector S(n/m) whose forced homogeneous part is ``forced``: None unless
    p has that part and the three are integers.  The inverse of
    _poly_from_scaled."""
    if (p.a, p.b, p.c2) != forced:
        return None
    d2, e2, f = 2 * p.d, 2 * n * p.e, p.f
    if d2.denominator == e2.denominator == f.denominator == 1:
        return d2.numerator, e2.numerator, f.numerator
    return None


def _class_triples(sectors: list[Sector], params: SearchParams) -> list[list[tuple[int, int, int]]]:
    """The survivors of each of ``sectors``, which share one shear class,
    each certified to prefix_n, as (d2, e2, f) triples in the sector's own
    coordinates: plain integers, from which _poly_from_scaled builds each
    polynomial.

    A sector's candidates are its raw grid and its stair pairs.  A class
    with no integer-valued lattice has none, and that is a class
    invariant, as (m-1)**2 = (m0-1)**2 mod n: it returns at once, with no
    candidates built and no screen.  This is the one place that shears: a
    pair (d2, e2) of S(n/m) is read as its reduced pair (d2, e2 + q*n*d2)
    on S(n/m0), q = (m - m0)/n, which takes the pair's values
    (_ShearClass).

    The stair pairs are one set per class.  With kl = k*l, or -k*l
    descending, a stair pair of S(n/m) is (2 - kl, 2*(1 - m) + kl*(m + 1)),
    and its reduced pair is (2 - kl, 2*(1 - m0) + kl*(m0 + 1)), the stair
    pair of S(n/m0): l = gcd(n, m - 1), the residue classes of k (u = u0
    mod v) and the lattice's residues are the class's too.  So the first
    sector's stair pairs, reduced, are every sector's.  Each has the edge
    sum n*(2 - k*l), A ascending and A*m + B*n descending, which the
    screen's first test drops below s_min: so k stops at k_cap = (2n -
    s_min) // (n*l), past which no stair pair can survive, whatever max_k.

    The sectors share the grid's d2 axis, and a grid row's reduced e2 are
    the lattice's in [-n*bound, n*bound] + q*n*d2, so its least and
    greatest grow with q*d2, and consecutive q shift that interval,
    2n*bound wide, by n*|d2| <= n*bound.  So each grid d2 makes one run,
    from the least e2 of the sector with the least q*d2 to the greatest of
    the one with the greatest: on a sweep's class, whose q are 0, 1, 2,
    ..., exactly the union of the sectors' reduced grid rows, and on a
    class with gaps in q that union and the pairs between, which are
    screened too and kept by no sector.  A stair pair outside its d2's run
    is a row of its own, and the rows are sorted stably by d2.  The screen
    needs no more for several rows of one d2: "short" is an up-set, and
    the negative break ends one row.  One _screen call on a fresh _ShearClass
    then walks each reduced pair at most once and keeps the pairs that
    pack and pass their certification.  A sector keeps a kept triple iff
    it lies on the sector's grid, mapped back by e2 = e2' - q*n*d2, or is
    a stair pair.

    The survivors come in the order of the polynomials' step d*u + e*v
    (its size, then ascending first), f and coefficients: in integers,
    Delta = n*d2*u + e2*v = 2n*(d*u + e*v), which is never 0 on a
    survivor, then f, d2 and e2.  Delta is the reduced pair's on S(n/m0),
    as u = u0 + q*v, and the pairs of one d2 keep their e2 order, so the
    kept triples, sorted once on S(n/m0), come in every sector's order.
    """
    first = sectors[0]
    if _lattice_residues(first) is None:
        return [[] for _ in sectors]
    n, m0 = first.n, _m0(first.n, first.m)
    unit = 2 * n
    k_cap = (unit - _edge_threshold(n, -unit * params.offset_range)) // (n * first.l)
    axes = [(s.m - m0, _grid_axes(s, params.raw_grid_bound)) for s in sectors]  # (q*n, (D, E))
    D = axes[0][1][0]  # the d2 axis depends on n and the bound alone
    shift = first.m - m0  # the first sector's q*n: its reduced e2 is e2 + shift*d2
    stairs = {
        (d2, e2 + shift * d2) for d2, e2 in _structured_candidates(first, min(params.max_k, k_cap))
    }
    grids = sorted((qn, E[0], E[-1]) for qn, (_, E) in axes if E)
    runs = {}
    for d2 in D:
        low, high = (grids[0], grids[-1]) if d2 >= 0 else (grids[-1], grids[0])
        runs[d2] = range(low[1] + low[0] * d2, high[2] + high[0] * d2 + 1, unit)
    rows = list(runs.items())
    rows += [(d2, range(e2, e2 + 1)) for d2, e2 in sorted(stairs) if e2 not in runs.get(d2, ())]
    if not rows:  # nothing on the lattice to screen
        return [[] for _ in sectors]
    rows.sort(key=lambda row: row[0])
    shear = _shear_class(first, params.prefix_n, params.offset_range)
    u, v = shear.table.lines.u, shear.table.lines.v

    def order(triple: tuple[int, int, int]) -> tuple[int, bool, int, int, int]:
        d2, e2, f = triple
        delta = n * d2 * u + e2 * v
        return abs(delta), delta < 0, f, d2, e2

    kept = sorted(_screen(shear, rows), key=order)
    results = []
    for qn, (_, E) in axes:
        back = [(d2, e2 - qn * d2, f, (d2, e2) in stairs) for d2, e2, f in kept]
        results.append([(d2, e2, f) for d2, e2, f, stair in back if stair or d2 in D and e2 in E])
    return results


def _polys(
    s: Sector,
    triples: list[tuple[int, int, int]],
    bound: int,
    listed: Optional[dict[tuple[int, int, int], QuadPoly]] = None,
) -> tuple[list[QuadPoly], list[QuadPoly]]:
    """(all survivors, raw-grid survivors) of s, from its survivor
    triples: a survivor is a raw-grid survivor iff its pair lies on the
    axes of s's grid at ``bound``.  A triple's polynomial is ``listed``'s
    where that has the triple, and _poly_from_scaled's otherwise."""
    D, E = _grid_axes(s, bound)
    listed = listed or {}
    found: list[QuadPoly] = []
    raw_found: list[QuadPoly] = []
    for triple in triples:
        p = listed.get(triple)
        if p is None:
            p = _poly_from_scaled(s, *triple)
        found.append(p)
        if triple[0] in D and triple[1] in E:
            raw_found.append(p)
    return found, raw_found


def _search_detail(s: Sector, params: SearchParams) -> tuple[list[QuadPoly], list[QuadPoly]]:
    """(all survivors, raw-grid survivors) of s alone: the one-sector
    class search, read by _polys."""
    return _polys(s, _class_triples([s], params)[0], params.raw_grid_bound)


def search(s: Sector, params: SearchParams) -> list[QuadPoly]:
    """Rediscover every packing polynomial on S(n/m) by brute force.

    The candidates are the stair coefficient families for every
    admissible-residue k <= max_k and, if enabled, the raw (d, e) grid
    with only the homogeneous part pinned.  Integral sectors are no
    exception: their staircases are the columns.  Both join one list of
    integer rows, which one screen at the small depth _PREFILTER_N (8, or
    prefix_n if less) walks only around each row's passing band.  Each
    pair that passes it gets prefix_check's verdict once, read in
    integers on the screen's line table, so every returned polynomial is
    "verified to prefix_n".  Depth 8 is only a cheap reject: the result
    equals a single filter pass at prefix_n.
    """
    return _search_detail(s, params)[0]
