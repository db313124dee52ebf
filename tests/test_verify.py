from __future__ import annotations

import ast
import hashlib
import importlib
import itertools
import math
import multiprocessing
import os
import pickle
import random
import textwrap
import tracemalloc
from bisect import bisect_left, bisect_right
from dataclasses import fields, replace
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sectorpack import (
    Direction,
    LatticePoint,
    NonTerminatingShape,
    PrefixReport,
    PrefixStatus,
    QuadPoly,
    SearchParams,
    Sector,
    ZeroStep,
    classify,
    enumerate_upto,
    kstair_extract,
    nathanson_polys,
    necessary_coefficients,
    prefix_check,
    rectangle_points,
    search,
    sector,
    stanton_check,
    stanton_quadratic,
    sweep,
)
from sectorpack.search import (
    _PREFILTER_N,
    _edge_threshold,
    _grid_axes,
    _lattice_residues,
    _m0,
    _class_triples,
    _poly_from_scaled,
    _polys,
    _scaled_key,
    _screen,
    _search_detail,
    _shear_class,
    _structured_candidates,
)
from sectorpack.sweep import SweepRow, _child, _class_rows, _share, _shear_classes
from sectorpack.verify import _LineTable, _prefix_verdict, _scaled

from helpers import (
    box_rows,
    edge_threshold_loop,
    filter_candidates,
    pair_window,
    prefix_report_reference,
    raw_candidates,
    run_fresh,
    sector_screen,
    stair_steps_scan,
)

P_PLUS = QuadPoly.from_string("4 -4 1 -1 1 0")
P127 = QuadPoly.from_string("6 -6 3/2 -8 11/2 2")
P3625 = QuadPoly.from_string("18 -24 8 -11 8 1")

PARAMS = SearchParams(prefix_n=300, max_k=6, offset_range=10, raw_grid_bound=40)

# the modules whose names tests patch; `import sectorpack.search as ...`
# would bind the package's function `search`, as with classify and sweep
search_mod = importlib.import_module("sectorpack.search")
sweep_mod = importlib.import_module("sectorpack.sweep")


class TestEnumerate:
    def test_fig1_prefix_table(self):
        got = [(tuple(pt), v) for pt, v in enumerate_upto(sector(8, 5), P_PLUS, 7)]
        assert got == [
            ((0, 0), 0),
            ((1, 1), 1),
            ((2, 3), 2),
            ((1, 0), 3),
            ((2, 2), 4),
            ((3, 4), 5),
            ((4, 6), 6),
            ((5, 8), 7),
        ]

    def test_36_25_table(self):
        got = [(tuple(pt), v) for pt, v in enumerate_upto(sector(36, 25), P3625, 5)]
        assert got == [
            ((1, 1), 0),
            ((0, 0), 1),
            ((3, 4), 2),
            ((2, 2), 3),
            ((5, 7), 4),
            ((4, 5), 5),
        ]

    def test_n_zero(self):
        got = enumerate_upto(sector(8, 5), P_PLUS, 0)
        assert got == [(LatticePoint(0, 0), 0)]

    def test_closure_against_rectangle_scan(self):
        # every rectangle point with value <= N appears in the output
        cases = [
            (sector(8, 5), P_PLUS, 100),
            (sector(12, 7), P127, 100),
            (sector(36, 25), P3625, 80),
            (sector(4, 1), QuadPoly.from_string("2 0 0 -3 2 1"), 80),
            (sector(1, 2), classify(1, 2).entries[0].poly, 60),
        ]
        for s, p, n_max in cases:
            out = {tuple(pt): v for pt, v in enumerate_upto(s, p, n_max)}
            max_x = max(pt[0] for pt in out)
            for pt in rectangle_points(s, 3 * max_x):
                value = p.eval(pt)
                if value.denominator == 1 and 0 <= value <= n_max:
                    assert out[tuple(pt)] == value, (str(s), tuple(pt))
            assert all(s.contains(LatticePoint(*pt)) for pt in out)

    def test_non_terminating_shape(self):
        with pytest.raises(NonTerminatingShape):
            enumerate_upto(sector(8, 5), QuadPoly.from_string("1 0 0 0 1 0"), 10)
        with pytest.raises(NonTerminatingShape):
            enumerate_upto(sector(4, 1), QuadPoly.from_string("2 1 0 0 1 0"), 10)
        # degenerate: no quadratic part at all
        with pytest.raises(NonTerminatingShape):
            enumerate_upto(sector(8, 5), QuadPoly.from_string("0 0 0 1 1 0"), 10)


@given(
    st.sampled_from(
        [(n, m) for n in range(1, 61) for m in range(1, 61) if math.gcd(n, m) == 1]
    ),
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(-5, 5),
    st.integers(0, 200),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_walk_matches_rectangle_scan(nm, d, e, f, n_max):
    # (n*x - (m-1)*y)**2 + d*x + e*y + f: integer-valued, constant up to a
    # linear term on every line, with both signs of d and e
    n, m = nm
    s = sector(n, m)
    p = QuadPoly(n * n, -2 * n * (m - 1), (m - 1) ** 2, d, e, f)
    x_max = 40
    listing = enumerate_upto(s, p, n_max)
    got = {(pt, value) for pt, value in listing if pt.x <= x_max}
    want = set()
    for pt in rectangle_points(s, x_max):
        value = (n * pt.x - (m - 1) * pt.y) ** 2 + d * pt.x + e * pt.y + f
        if 0 <= value <= n_max:
            want.add((pt, value))
    assert got == want
    report = prefix_check(s, p, n_max)
    assert report.points == len(listing)
    if report.ok:
        assert [value for _, value in listing] == list(range(n_max + 1))


COPRIME_24 = [(n, m) for n in range(1, 25) for m in range(1, 25) if math.gcd(n, m) == 1]


@given(
    st.sampled_from(COPRIME_24),
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(-5, 5),
    st.sampled_from([None] * 4 + [-2, -1, 1]),
    st.integers(0, 300),
)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_prefix_check_matches_reference(nm, d, e, f, zero_step, n_max):
    # the family of test_walk_matches_rectangle_scan, both signs of the
    # step, m = 1 among the sectors; a drawn zero_step = k forces
    # (d, e) = k*(v, -u), so d*u + e*v = 0 and every line has step 0
    n, m = nm
    s = sector(n, m)
    if zero_step is not None:
        d, e = zero_step * s.lines.v, -zero_step * s.lines.u
    p = QuadPoly(n * n, -2 * n * (m - 1), (m - 1) ** 2, d, e, f)
    assert prefix_check(s, p, n_max) == prefix_report_reference(s, p, n_max)


@given(
    st.sampled_from(COPRIME_24),
    st.integers(-400, 400),
    st.integers(-400, 400),
    st.integers(-5, 5),
    st.integers(0, 300),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_prefix_check_matches_reference_large_step(nm, d, e, f, n_max):
    # |step| = |d*u + e*v| mostly exceeds the number of lines in the
    # window, so most residue classes mod the step hold no value and the
    # lines hold few values each
    n, m = nm
    s = sector(n, m)
    p = QuadPoly(n * n, -2 * n * (m - 1), (m - 1) ** 2, d, e, f)
    assert prefix_check(s, p, n_max) == prefix_report_reference(s, p, n_max)


CLASSIFIED_24 = [
    (n, m, p) for n, m in COPRIME_24 for p in classify(n, m).polynomials()
]


@given(
    st.sampled_from(CLASSIFIED_24),
    st.sampled_from("def"),
    st.integers(-2, 2),
    st.integers(0, 300),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_prefix_check_matches_reference_near_classified(entry, name, delta, n_max):
    # classified polynomials and their integer moves of d, e or f: the
    # fractional coefficients the integer family above never has
    n, m, p0 = entry
    s = sector(n, m)
    coeffs = dict(zip(("a", "b", "c2", "d", "e", "f"), p0.coefficients()))
    coeffs[name] += delta
    p = QuadPoly(**coeffs)
    assert prefix_check(s, p, n_max) == prefix_report_reference(s, p, n_max)


LATTICE_60 = [
    (n, m)
    for n in range(1, 61)
    for m in range(1, 61)
    if math.gcd(n, m) == 1 and (m - 1) ** 2 % n == 0
]


@given(
    st.sampled_from(LATTICE_60),
    st.integers(-1, 12),
    st.integers(-20, 20),
    st.integers(-20, 20),
    st.integers(-3, 3),
    st.sampled_from("def"),
    st.sampled_from([0, -2, -1, 1, 2]),
    st.booleans(),
    st.integers(0, 2000),
)
@example((8, 5), -1, -3, 0, 0, "f", 0, False, 500)  # step -3
@example((8, 5), -1, 2, 0, 0, "f", 0, True, 500)  # step 0
@example((3, 1), -1, 1, -1, 0, "f", 0, False, 500)  # m = 1, step -1
@example((3, 1), -1, 1, 0, 0, "f", 0, True, 500)  # m = 1, step 0
@example((3, 1), 0, 0, 0, 0, "d", 1, False, 2000)  # m = 1, a packing one's d + 1
@settings(max_examples=300, deadline=None, derandomize=True)
def test_prefix_check_matches_reference_on_lattice(
    nm, pick, i, j, f, name, delta, zero_step, n_max
):
    # polynomials with the forced homogeneous part and a pair (d2, e2) on
    # the integer-valued lattice: a classified one's (pick >= 0) or the
    # lattice pair (i, j) with offset f, or a pair of step 0; then d, e or
    # f moved by delta, a near-miss unless delta is 0
    s = sector(*nm)
    n, l, u = s.n, s.lines.l, s.lines.u
    d_res, e_res = _lattice_residues(s)
    polys = classify(*nm).polynomials()
    d2, e2 = d_res + 2 * i, e_res + 2 * n * j
    if pick >= 0 and polys:
        p0 = polys[pick % len(polys)]
        d2, e2, f = int(2 * p0.d), int(2 * n * p0.e), int(p0.f)
    elif zero_step:
        # n*d2*u + e2*v = 0 with e2 = -l*u*d2; such d2 repeat mod 2n
        zeros = [d for d in range(d_res, d_res + 2 * n, 2) if (l * u * d + e_res) % (2 * n) == 0]
        if zeros:
            d2 = zeros[0] + 2 * n * i
            e2 = -l * u * d2
    move = {"d": (2 * delta, 0, 0), "e": (0, 2 * n * delta, 0), "f": (0, 0, delta)}[name]
    p = _poly_from_scaled(s, d2 + move[0], e2 + move[1], f + move[2])
    assert p.is_integer_valued()
    assert prefix_check(s, p, n_max) == prefix_report_reference(s, p, n_max)


def _stair_poly(n: int, m: int, k: int, direction: Direction) -> QuadPoly:
    return next(
        e.poly for e in classify(n, m).entries if (e.form.k, e.form.direction) == (k, direction)
    )


def test_prefix_check_at_every_window_edge():
    # depths 0..200 on the verify-deep packing cases (ascending, descending
    # and column families) put the window's edge on every value, so on a
    # line's end as well as inside lines; each near-miss fails with its
    # own status at depth 200, and agrees with the reference at every depth
    asc, desc = Direction.ASCENDING, Direction.DESCENDING
    packing = [
        (sector(8, 5), _stair_poly(8, 5, 1, asc)),
        (sector(12, 7), _stair_poly(12, 7, 3, asc)),
        (sector(36, 25), _stair_poly(36, 25, 2, asc)),
        (sector(48, 37), _stair_poly(48, 37, 1, desc)),
        (sector(3, 1), nathanson_polys(3)[0]),
    ]
    near_misses = [
        (packing[0], "e", 2, PrefixStatus.DUPLICATE),
        (packing[3], "f", -1, PrefixStatus.NEGATIVE_VALUE),
        (packing[4], "d", 2, PrefixStatus.MISSING_VALUE),
        (packing[1], "f", Fraction(1, 2), PrefixStatus.NON_INTEGER_VALUE),
    ]
    cases = [(s, p, PrefixStatus.OK) for s, p in packing]
    for (s, p), name, delta, status in near_misses:
        cases.append((s, replace(p, **{name: getattr(p, name) + delta}), status))
    for s, p, status in cases:
        assert prefix_check(s, p, 200).status is status, (s, p)
        for n_max in range(201):
            if status is PrefixStatus.NON_INTEGER_VALUE:
                assert prefix_check(s, p, n_max).status is status
            else:
                assert prefix_check(s, p, n_max) == prefix_report_reference(s, p, n_max)


def _stop_by_scan(s, Q, k_lo, F, unit, hi):
    """The stop line found line by line: the first c >= 0 past the vertex
    estimate (-k_lo//n)//(2*Q*l) + 2 whose bound Q*(c*l)**2 +
    (k_lo*c*l)//n exceeds hi*unit - F."""
    n, l = s.lines.n, s.lines.l
    vertex = (-k_lo // n) // (2 * Q * l) + 2
    return next(
        c
        for c in itertools.count(max(vertex + 1, 0))
        if Q * (c * l) ** 2 + (k_lo * c * l) // n > hi * unit - F
    )


@given(
    st.sampled_from(
        [(n, m) for n in range(1, 61) for m in range(1, 61) if math.gcd(n, m) == 1]
    ),
    st.integers(-500, 500),
    st.integers(-500, 500),
    st.integers(1, 10),
    st.integers(-300, 300),
    st.integers(-300, 0),
    st.integers(0, 300),
)
# the origin, alone on line 0, takes value lo - 1 just below the window, on
# an ascending and on a descending family
@example((8, 5), 1, 0, 1, -6, -5, 10)
@example((8, 5), -1, 0, 1, -1, 0, 10)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_walk_skips_no_window_value(nm, A, B, Q, F, lo, hi):
    s = sector(*nm)
    lines = s.lines
    n, l = lines.n, lines.l
    table = _LineTable(s, Q)
    k_lo = min(A, A * s.m + B * n)
    stop = table.stop(k_lo, F, 1, hi)
    assert stop == _stop_by_scan(s, Q, k_lo, F, 1, hi)
    # the walk reads exactly the lines below stop, and on them it finds
    # every value in [lo, hi] at its point: in scan order once its records
    # are sorted by c, each line's values in t order.  It walks the window
    # [0, hi - lo] of F - lo, whose values are raised by -lo, to the same
    # stop line
    records, step, total, negative = table.walk(A, B, F - lo, 1, hi - lo)
    assert step == A * lines.u + B * lines.v
    mod = abs(step) or 1
    got, got_points = [], {}
    for r, least, greatest, c, t, points in sorted(records, key=itemgetter(3)):
        assert r == least % mod and least <= greatest and c not in got_points
        start = least if step >= 0 else greatest
        got += [(c, t + i, start + i * step + lo) for i in range(points)]
        got_points[c] = points
        assert got[-1][2] == (greatest if step >= 0 else least) + lo
    # the value is linear in t along a line, so bisect over the line's
    # points finds where its values enter and leave [lo, hi], and its
    # least value is at an end
    want, want_points, want_negative = [], {}, None
    for c in range(stop):
        x0, z, count = lines.line(c)

        def value(t: int) -> int:
            return Q * (c * l) ** 2 + F + A * (x0 + t * lines.u) + B * (z + t * lines.v)

        sign = 1 if count < 2 or value(1) >= value(0) else -1
        ts = range(count)
        first = bisect_left(ts, min(sign * lo, sign * hi), key=lambda t: sign * value(t))
        end = bisect_right(ts, max(sign * lo, sign * hi), key=lambda t: sign * value(t))
        want += [(c, t, value(t)) for t in range(first, end)]
        if end > first:
            want_points[c] = end - first
        if want_negative is None and count and min(value(0), value(count - 1)) < lo:
            t = next(t for t in ts if value(t) < lo)
            want_negative = (c, t, value(t) - lo)
    assert got == want and total == len(want) and got_points == want_points
    # the first value below the window is found on any line, raised by -lo
    assert negative == want_negative
    # every value on the stop line and the 50 lines past it exceeds hi; the
    # value is linear in t along a line, so its minimum is at an end
    for c in range(stop, stop + 51):
        x0, z, count = lines.line(c)
        if count:
            ends = [(x0, z), (x0 + (count - 1) * lines.u, z + (count - 1) * lines.v)]
            assert min(Q * (c * l) ** 2 + F + A * x + B * y for x, y in ends) > hi
    # the bound Q*(c*l)**2 + F + min(A, A*m)*c*l/n + min(B, 0)*c*l, which
    # takes x and y apart, never stops earlier; lines start at 0
    a_lo, b_lo = min(A, A * s.m), min(B, 0)
    vertex = (-a_lo // n - b_lo) // (2 * Q * l) + 2
    old_stop = next(
        c
        for c in itertools.count(max(vertex + 1, 0))
        if Q * (c * l) ** 2 + F + (a_lo * c * l) // n + b_lo * c * l > hi
    )
    assert stop <= old_stop


@given(
    st.sampled_from(
        [(n, m) for n in range(1, 61) for m in range(1, 61) if math.gcd(n, m) == 1]
    ),
    st.integers(-500, 500),
    st.integers(-500, 500),
    st.integers(1, 10),
    st.integers(-300, 300),
    st.integers(1, 12),
    st.integers(-300, 300),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_stop_is_the_walks_stop_line(nm, A, B, Q, F, unit, hi):
    # the closed form reads no line and names the line a line-by-line scan
    # stops at; Q, A, B and F are scaled by the unit so that every line is
    # whole
    s = sector(*nm)
    table = _LineTable(s, Q * unit)
    A, B, F = A * unit, B * unit, F * unit
    k_lo = min(A, A * s.m + B * s.n)
    stop = table.stop(k_lo, F, unit, hi)
    assert stop == _stop_by_scan(s, Q * unit, k_lo, F, unit, hi)


def test_period_shift():
    # line c + v has the same z, one more x0 and l more points than line
    # c; a line with no point gains at most l
    for n in range(1, 41):
        for m in range(1, 41):
            if math.gcd(n, m) != 1:
                continue
            lines = sector(n, m).lines
            l, v = lines.l, lines.v
            for c in range(501):
                x0, z, count = lines.line(c)
                x1, z1, count1 = lines.line(c + v)
                assert (x1, z1, max(count1 - l, 0)) == (x0 + 1, z, count), (n, m, c)


@given(
    st.sampled_from(
        [(n, m) for n in range(1, 61) for m in range(1, 61) if math.gcd(n, m) == 1]
    ),
    st.integers(-500, 500),
    st.integers(-500, 500),
    st.integers(1, 10),
    st.integers(-300, 300),
    st.integers(1, 12),
    st.integers(0, 100),
    st.integers(0, 300),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_classes_shift_exact_bases(nm, A, B, Q, F, unit, start, stop):
    # each class's first line with a point is LineFamily.line's, and its
    # whole bases shifted by delta and dd are every such line's base;
    # a ValueError comes exactly when one of them is not whole
    s = sector(*nm)
    lines = s.lines
    l, v = lines.l, lines.v
    table = _LineTable(s, Q)
    want = {}
    for c in range(start, stop):
        x0, z, count = lines.line(c)
        if count:
            want[c] = Fraction(Q * (c * l) ** 2 + A * x0 + B * z + F, unit), x0, z, count
    if any(base.denominator != 1 for base, *_ in want.values()):
        with pytest.raises(ValueError, match="not an integer"):
            list(table.classes(A, B, F, unit, start, stop))
        return
    got = {}
    for c, x0, z, count, base, delta, dd in table.classes(A, B, F, unit, start, stop):
        assert (x0, z, count) == lines.line(c) and count
        assert all(not lines.line(c0)[2] for c0 in range(c - v, start - 1, -v))
        for c in range(c, stop, v):
            got[c] = base, x0, z, count
            x0, count, base, delta = x0 + 1, count + l, base + delta, delta + dd
    assert got == want


def _probe_rejects(n: int, lo: int, S: int) -> bool:
    """The edge probe the threshold replaced: n*n*t*t + S*t < lo at t = 1
    or at the integers around the real minimiser -S/(2*n*n)."""
    tv = max(1, -S // (2 * n * n))
    return any(n * n * t * t + S * t < lo for t in (1, tv, tv + 1))


class TestEdgeThreshold:
    def test_equals_probe_near_threshold(self):
        # every n <= 40 and offset_range 0..12, every S within n*n of it
        for n in range(1, 41):
            for offset_range in range(13):
                lo = -2 * n * offset_range
                s_min = _edge_threshold(n, lo)
                for S in range(s_min - n * n, s_min + n * n + 1):
                    assert _probe_rejects(n, lo, S) == (S < s_min), (n, offset_range, S)

    @given(st.integers(1, 40), st.integers(0, 12), st.integers(-50, 50), st.data())
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_equals_probe(self, n, offset_range, k, data):
        lo = -2 * n * offset_range
        S = data.draw(st.integers(k * n * n - n * n, k * n * n))
        assert _probe_rejects(n, lo, S) == (S < _edge_threshold(n, lo))

    def test_equals_loop_on_small_inputs(self):
        # the two terms around the peak give the one-term-per-t maximum
        for n in range(1, 60):
            for lo in range(-2000, 1):
                assert _edge_threshold(n, lo) == edge_threshold_loop(n, lo), (n, lo)

    @given(
        st.one_of(st.integers(1, 50), st.integers(1, 10**4)),
        st.one_of(st.integers(-10**9, 0), st.integers(-10**4, 0)),
    )
    @example(1, -10**9)
    @example(10**4, -10**9)
    @example(7, 0)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_equals_loop(self, n, lo):
        assert _edge_threshold(n, lo) == edge_threshold_loop(n, lo)


class TestPrefixCheck:
    def test_ok(self):
        report = prefix_check(sector(8, 5), P_PLUS, 22)
        assert report.ok and report.points == 23

    def test_missing_value(self):
        report = prefix_check(sector(8, 5), replace(P_PLUS, f=1), 22)
        assert report.status is PrefixStatus.MISSING_VALUE and report.value == 0

    def test_duplicate(self):
        # flipping e's sign creates a collision at value 0
        report = prefix_check(sector(8, 5), QuadPoly.from_string("4 -4 1 -1 -1 0"), 22)
        assert report.status is PrefixStatus.DUPLICATE
        assert report.value == 0
        assert {tuple(report.point), tuple(report.point2)} == {(0, 0), (2, 2)}

    def test_negative_value(self):
        report = prefix_check(sector(8, 5), replace(P_PLUS, f=-1), 22)
        assert report.status is PrefixStatus.NEGATIVE_VALUE
        assert report.value == -1 and tuple(report.point) == (0, 0)

    def test_non_integer(self):
        report = prefix_check(sector(8, 5), QuadPoly.from_string("4 -4 1 -1 1 1/2"), 10)
        assert report.status is PrefixStatus.NON_INTEGER_VALUE

    def test_monotone_in_n(self):
        # a bijection onto {0..N} is one onto every shorter prefix
        for s, p in [(sector(8, 5), P_PLUS), (sector(12, 7), P127)]:
            assert prefix_check(s, p, 1000).ok
            for n_max in (0, 1, 10, 100, 500):
                assert prefix_check(s, p, n_max).ok

    def test_describe_lines(self):
        assert "ok" in prefix_check(sector(8, 5), P_PLUS, 5).describe()
        assert "missing" in prefix_check(sector(8, 5), replace(P_PLUS, f=2), 5).describe()

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            prefix_check(sector(8, 5), P_PLUS, -1)

    def test_descending_line_ending_at_zero(self):
        # the range of a descending line whose last value is 0 has stop -1
        s, p = sector(12, 7), QuadPoly.from_string("6 -6 3/2 10 -13/2 2")
        table, A, B, F, D = _scaled(s, p)
        records, step, *_ = table.walk(A, B, F, D, 20)
        assert step == -3 and (0, 0, 18) in [record[:3] for record in records]
        report = prefix_check(s, p, 20)
        assert report.ok and report.points == 21
        assert report == prefix_report_reference(s, p, 20)

    def test_zero_step_line_repeats_itself(self):
        # the column x = 1 of S(3) takes value 1 at all four of its points
        s, p = sector(3, 1), QuadPoly(9, 0, 0, -8, 0, 0)
        report = prefix_check(s, p, 10)
        assert report.status is PrefixStatus.DUPLICATE and report.points == 5
        assert (report.value, report.point, report.point2) == (
            1,
            LatticePoint(1, 0),
            LatticePoint(1, 1),
        )
        assert report == prefix_report_reference(s, p, 10)

    @pytest.mark.parametrize(
        "n,m,text,n_max,status,points,value,point,point2",
        [
            # more points than the n_max + 1 values: a repeat by pigeonhole
            (8, 5, "4 -4 1 -3 -3 0", 10, "DUPLICATE", 28, 0, (0, 0), (2, 1)),
            # exactly n_max + 1 points, so a repeat leaves a hole
            (3, 1, "3/2 0 0 9/2 -3 2", 10, "DUPLICATE", 11, 2, (0, 0), (1, 2)),
            # fewer points than values, all distinct
            (8, 5, "4 -4 1 -2 2 0", 10, "MISSING_VALUE", 10, 5, None, None),
            # fewer points than values, one repeated
            (8, 5, "4 -4 1 -3 3 0", 10, "DUPLICATE", 10, 1, (1, 1), (1, 0)),
            # step-0 lines: Nathanson's polynomial on S(3) with e - 1, and a
            # stair polynomial moved onto step 0; more points than values
            # on the first, fewer on the second
            (3, 1, "3/2 0 0 -1/2 0 0", 10**5, "DUPLICATE", 100492, 1, (1, 0), (1, 1)),
            (8, 5, "4 -4 1 4 -2 0", 10**5, "DUPLICATE", 99698, 3, (1, 1), (2, 3)),
            # step -3: no line touches residue 1, so 1 is missing, below
            # the gap at 2 of residue 2 and at 12 of residue 0
            (3, 2, "9 -6 1 0 -1 0", 40, "MISSING_VALUE", 10, 1, None, None),
            # step 2, both residues touched: residue 0 holds 0 and 6 but
            # not 2
            (5, 2, "25 -10 1 -12 2 0", 60, "MISSING_VALUE", 11, 2, None, None),
            # step -16: line 5 holds 18, 2 and line 6 holds 34, 18, 2; in
            # scan order 18 repeats first, not the smaller 2
            (3, 2, "9 -6 1 -1 -5 0", 40, "DUPLICATE", 13, 18, (2, 1), (3, 3)),
            # step 0: line 3 holds line 0's value 0 at both its points, so
            # its first point repeats 0, not its second
            (3, 2, "9 -6 1 -9 3 0", 40, "DUPLICATE", 14, 0, (0, 0), (1, 0)),
            # a line that meets two earlier ones: ascending, line 2 (4..12)
            # first repeats 4, the least value of line 1 (2, 4, 6) it
            # shares, not 8 of line 0; descending, line 2 (1, 0) first
            # repeats 1 of line 0, not 0 of line 1
            (2, 5, "4 -16 16 -10 22 8", 20, "DUPLICATE", 13, 4, (3, 1), (2, 0)),
            (1, 1, "1 0 0 -2 -1 1", 5, "DUPLICATE", 9, 1, (0, 0), (2, 0)),
        ],
    )
    def test_verdict_branches(self, n, m, text, n_max, status, points, value, point, point2):
        s, p = sector(n, m), QuadPoly.from_string(text)
        report = prefix_check(s, p, n_max)
        reference = prefix_report_reference(s, p, n_max)
        for name in ("status", "checked_upto", "points", "value", "point", "point2"):
            assert getattr(report, name) == getattr(reference, name), name
        assert (report.status, report.checked_upto, report.points, report.value) == (
            PrefixStatus[status],
            n_max,
            points,
            value,
        )
        assert (report.point, report.point2) == (point, point2)

    def test_depth_zero(self):
        s = sector(8, 5)
        cases = [
            (P_PLUS, "ok: values 0..0 each attained exactly once (1 points)", 1),
            (replace(P_PLUS, f=1), "missing value 0 (checked up to 0)", 0),
            (replace(P_PLUS, f=-1), "negative value -1 at (0, 0)", 1),
            (
                QuadPoly.from_string("4 -4 1 -1 -1 0"),
                "value 0 attained at both (0, 0) and (2, 2)",
                5,
            ),
        ]
        for p, line, points in cases:
            report = prefix_check(s, p, 0)
            assert (report.describe(), report.points) == (line, points)
            assert report == prefix_report_reference(s, p, 0)

    def test_memory_not_sized_by_depth(self):
        # the verdicts read the walk's per-line bounds: at N = 10**7 the
        # peak stays far below one byte per value (10 MB)
        s, n_max, origin = sector(8, 5), 10**7, LatticePoint(0, 0)
        cases = [
            ("4 -4 1 -1 1 0", PrefixReport(PrefixStatus.OK, n_max, n_max + 1)),
            ("4 -4 1 -1 1 1", PrefixReport(PrefixStatus.MISSING_VALUE, n_max, n_max, 0)),
            (
                "4 -4 1 -1 1 -1",
                PrefixReport(PrefixStatus.NEGATIVE_VALUE, n_max, n_max + 1, -1, origin),
            ),
            (
                "4 -4 1 -3 1 0",
                PrefixReport(
                    PrefixStatus.DUPLICATE, n_max, 10009487, 0, origin, LatticePoint(2, 2)
                ),
            ),
        ]
        for text, want in cases:
            tracemalloc.start()
            try:
                report = prefix_check(s, QuadPoly.from_string(text), n_max)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report == want, text
            assert peak < 4_000_000, (text, peak)

    def test_duplicate_first_held_on_earlier_line(self):
        # on S(8/5) value 0 is first held on line 0 at (0, 0), then on line 2
        s = sector(8, 5)
        report = prefix_check(s, QuadPoly.from_string("4 -4 1 -1 -1 0"), 22)
        assert (report.point, report.point2) == (LatticePoint(0, 0), LatticePoint(2, 2))
        # column 2 of S(3) descends 27, 22, ..., 2 and meets 7 and 2 from
        # column 1; in scan order 7, the larger, repeats first
        s, p = sector(3, 1), QuadPoly(9, 0, 0, -2, -5, 0)
        report = prefix_check(s, p, 30)
        assert report.status is PrefixStatus.DUPLICATE
        assert (report.value, report.point, report.point2) == (
            7,
            LatticePoint(1, 0),
            LatticePoint(2, 5),
        )
        assert report == prefix_report_reference(s, p, 30)


# sha256 of near_miss_listing(), recorded with the code from before the
# line-family kernel: the oracle's verdicts and witnesses are unchanged.
NEAR_MISS_DIGEST = "f7b8406f8ca6d3865c369728be901b0c7afa934b2573c796c8bd328a7cde89e5"


def near_miss_listing() -> list[str]:
    """describe() of every classified polynomial on coprime n, m <= 20 and
    of its +-1 moves of d, e and f, at N = 1000.  The moves give
    duplicates (including zero steps), negative values and missing values
    on stairs, descending stairs and columns."""
    lines = []
    for n in range(1, 21):
        for m in range(1, 21):
            if math.gcd(n, m) != 1:
                continue
            s = sector(n, m)
            for p0 in classify(n, m).polynomials():
                polys = [p0]
                for name in ("d", "e", "f"):
                    for delta in (1, -1):
                        coeffs = dict(zip(("a", "b", "c2", "d", "e", "f"), p0.coefficients()))
                        coeffs[name] += delta
                        polys.append(QuadPoly(**coeffs))
                for p in polys:
                    lines.append(f"{s} {p.to_string()} {prefix_check(s, p, 1000).describe()}")
    return lines


class TestOracleDigest:
    def test_near_miss_reports_pinned(self):
        listing = near_miss_listing()
        assert len(listing) == 1526
        kinds = {line.split(" ", 7)[7].split(" ")[0] for line in listing}
        assert kinds == {"ok:", "value", "negative", "missing"}
        assert hashlib.sha256("\n".join(listing).encode()).hexdigest() == NEAR_MISS_DIGEST


def _imports(module: str) -> list[tuple[list[str], set[str]]]:
    """(dotted parts of the module, names bound from it) for every import
    in sectorpack.<module>'s source, lazy ones too."""
    tree = ast.parse(Path(importlib.import_module(f"sectorpack.{module}").__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.append(((node.module or "").split("."), {alias.name for alias in node.names}))
        elif isinstance(node, ast.Import):
            found += [(alias.name.split("."), set()) for alias in node.names]
    return found


def test_verify_imports_neither_classify_nor_sweep():
    # the oracle must not lean on the classification it checks, nor on the
    # search it certifies: of polynomials it reads QuadPoly alone.  The
    # search leans on the oracle and on no part of the classification.
    verify = _imports("verify")
    parts = {part for module, names in verify for part in [*module, *names]}
    assert not parts & {"classify", "sweep", "search"}
    assert [names for module, names in verify if "polynomials" in module] == [{"QuadPoly"}]
    search = _imports("search")
    assert not {part for module, _ in search for part in module} & {"classify", "sweep"}
    assert ["verify"] in [module for module, _ in search]


def signed_step(s: Sector, p: QuadPoly) -> int:
    """The stair step kstair_extract reports for p: +k ascending, -k descending."""
    form = kstair_extract(s, p)
    return form.k if form.direction is Direction.ASCENDING else -form.k


class TestStairSteps:
    """Consecutive stairs on staircases 0..12, found by scan, differ by the
    one step kstair_extract decides exactly."""

    def test_classified_entries(self):
        entries = [
            (sector(n, m), entry.poly)
            for n, m in itertools.product(range(1, 13), repeat=2)
            if math.gcd(n, m) == 1
            for entry in classify(n, m).entries
        ]
        assert len(entries) == 110
        for s, p in entries:
            assert stair_steps_scan(s, p, 12) == {signed_step(s, p)}, (str(s), p.to_string())

    @given(
        st.sampled_from([(n, m) for n, m in itertools.product(range(1, 13), repeat=2) if math.gcd(n, m) == 1]),
        st.fractions(-20, 20, max_denominator=6),
        st.fractions(-20, 20, max_denominator=6),
        st.integers(-5, 5),
    )
    @settings(max_examples=80, derandomize=True)
    def test_forced_part_gives_one_step(self, nm, d, e, f):
        # the forced homogeneous part is constant on a staircase, so every
        # step is d*u + e*v; staircase v holds l + 1 >= 2 stairs
        s = sector(*nm)
        p = QuadPoly(*stanton_quadratic(s), d, e, f)
        assert stair_steps_scan(s, p, s.lines.v) == {d * s.lines.u + e * s.lines.v}

    def test_constant_nonunit_step(self):
        # d = 1, e = 1 on S(8/5): the step d*u + e*v = 3 on every staircase
        p = QuadPoly.from_string("4 -4 1 1 1 0")
        assert stair_steps_scan(sector(8, 5), p, 12) == {signed_step(sector(8, 5), p)} == {3}

    def test_broken_quadratic_part(self):
        # c2 = 2 is not the forced homogeneous part: the steps vary
        p = QuadPoly.from_string("4 -4 2 -1 1 0")
        assert len(stair_steps_scan(sector(8, 5), p, 12)) > 1
        with pytest.raises(ValueError, match="forced homogeneous part"):
            kstair_extract(sector(8, 5), p)

    def test_zero_step(self):
        p = QuadPoly.from_string("4 -4 1 2 -1 0")
        assert stair_steps_scan(sector(8, 5), p, 12) == {0}
        with pytest.raises(ZeroStep):
            kstair_extract(sector(8, 5), p)


class TestSearch:
    def test_fig1(self):
        found = search(sector(8, 5), SearchParams(200, 6, 10, 40))
        assert [p.to_string() for p in found] == ["4 -4 1 -1 1 0", "4 -4 1 3 -2 0"]

    def test_empty(self):
        assert search(sector(7, 3), PARAMS) == []

    def test_twelve_sevenths(self):
        found = search(sector(12, 7), PARAMS)
        assert len(found) == 4
        s = sector(12, 7)
        ks = sorted({kstair_extract(s, p).k for p in found})
        assert ks == [1, 3]

    def test_structured_results_satisfy_stair_property(self):
        for n, m in [(8, 5), (12, 7), (36, 25), (48, 37)]:
            s = sector(n, m)
            for p in search(s, SearchParams(300, 6, 10, 0)):
                assert stair_steps_scan(s, p, 12) == {signed_step(s, p)}, (n, m, p.to_string())

    def test_raw_survivors_match_coefficient_families(self):
        # anything the raw grid finds has the forced (d, e) pair
        for n, m in [(8, 5), (12, 7), (36, 25), (4, 9)]:
            s = sector(n, m)
            _, raw = _search_detail(s, PARAMS)
            assert raw, (n, m)
            for p in raw:
                assert stanton_check(s, p)
                form = kstair_extract(s, p)
                assert (p.d, p.e) == necessary_coefficients(s, form.k, form.direction)

    def test_integral_sector_search(self):
        found = search(sector(4, 1), PARAMS)
        assert [p.to_string() for p in found] == [
            "2 0 0 -1 1 0",
            "2 0 0 3 -1 0",
            "2 0 0 -3 2 1",
            "2 0 0 5 -2 1",
        ]
        found = search(sector(5, 1), PARAMS)
        f5, g5 = nathanson_polys(5)
        assert found == [f5, g5]
        # the default search has no raw grid: the structured stage alone
        # must find the k = 2 and k = 3 extras on S(4) and S(3)
        for n in range(1, 13):
            found = search(sector(n, 1), SearchParams())
            expected = classify(n, 1).polynomials()
            assert {p.coefficients() for p in found} == {p.coefficients() for p in expected}, n

    def test_no_high_k(self):
        for n, m in [(8, 5), (12, 7), (36, 25), (16, 9), (25, 6)]:
            s = sector(n, m)
            for p in search(s, PARAMS):
                assert kstair_extract(s, p).k <= 3


class TestSearchParams:
    @pytest.mark.parametrize("field", ["prefix_n", "offset_range", "raw_grid_bound"])
    def test_negative_rejected(self, field):
        assert getattr(SearchParams(**{field: 0}), field) == 0
        with pytest.raises(ValueError, match=field):
            SearchParams(**{field: -1})


def _one_pass(s: Sector, candidates, params: SearchParams):
    """The reference: one filter_candidates pass at full depth, as polys."""
    triples = filter_candidates(s, candidates, params.prefix_n, params.offset_range)
    return sorted(_poly_from_scaled(s, *t).coefficients() for t in triples)


def _screened(s: Sector, candidates, params: SearchParams):
    """The search's own screen-then-certify pipeline run on ``candidates``
    fed in as the structured pairs, with no raw grid."""
    with mock.patch.object(search_mod, "_structured_candidates", lambda *_: candidates):
        found, raw = _search_detail(s, replace(params, raw_grid_bound=0))
    assert raw == []
    return sorted(p.coefficients() for p in found)


def _grid_searched(s: Sector, params: SearchParams):
    """The search's pipeline on the raw grid of params.raw_grid_bound
    alone, with no structured pairs."""
    with mock.patch.object(search_mod, "_structured_candidates", lambda *_: []):
        found, raw = _search_detail(s, params)
    assert raw == found
    return sorted(p.coefficients() for p in found)


# (n, m) pairs with a nonempty raw grid: n divides (m-1)**2.
GRID_SECTORS = [
    (n, m)
    for n in range(1, 21)
    for m in range(1, 21)
    if math.gcd(n, m) == 1 and (m - 1) ** 2 % n == 0
]


def _count_upto(s: Sector, d2: int, e2: int, hi: int) -> int:
    """How many sector points have filter value P0/2n <= hi, read off
    walks of the window [-R, hi]: R grows past each value below -R that a
    walk finds, until none is left."""
    table, R = _LineTable(s, 1), 0
    while True:
        _, _, total, negative = table.walk(s.n * d2, e2, 2 * s.n * R, 2 * s.n, hi + R)
        if negative is None:
            return total
        R -= negative[2]


class TestScreenThenCertify:
    @pytest.mark.parametrize(
        "n,m", [(8, 5), (12, 7), (36, 25), (48, 37), (16, 9), (3, 1), (6, 1)]
    )
    def test_equals_one_full_depth_pass(self, n, m):
        s = sector(n, m)
        grid = raw_candidates(s, PARAMS.raw_grid_bound)
        one = _one_pass(s, grid, PARAMS)
        assert one
        assert _screened(s, grid, PARAMS) == one
        assert _grid_searched(s, PARAMS) == one

    @given(
        st.sampled_from(GRID_SECTORS),
        st.integers(0, 300),
        st.integers(0, 10),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_equals_one_pass_on_random_subsets(self, nm, prefix_n, offset_range, rng):
        s = sector(*nm)
        grid = raw_candidates(s, 20)
        subset = [c for c in grid if rng.random() < 0.5]
        params = SearchParams(prefix_n, 6, offset_range, 20)
        assert _screened(s, subset, params) == _one_pass(s, subset, params)
        assert _grid_searched(s, params) == _one_pass(s, grid, params)

    @given(
        st.sampled_from(GRID_SECTORS),
        st.integers(0, 300),
        st.integers(0, 10),
        st.integers(0, 40),
        st.lists(
            st.tuples(st.integers(-35, 35), st.integers(-60, 60), st.integers(1, 3)),
            max_size=12,
        ),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_screen_equals_pair_screen(self, nm, prefix_n, offset_range, bound, extra):
        # The box rows of a bound plus lattice rows off the box, below,
        # inside and above its d2 range, stably sorted by d2: the screen of
        # the rows shifted onto S(n/m0), its triples shifted back, keeps
        # what the pair-by-pair reference keeps on the sector's own lines,
        # in row order.
        s = sector(*nm)
        D, E = _grid_axes(s, bound)
        d_res, e_res = _lattice_residues(s)
        rows = box_rows(s, bound)
        for i, j, length in extra:
            d2, e2 = d_res + 2 * i, e_res + 2 * s.n * j
            row = range(e2, e2 + 2 * s.n * length, 2 * s.n)
            if not (d2 in D and any(e in E for e in row)):
                rows.append((d2, row))
        rows.sort(key=lambda row: row[0])
        pairs = [(d2, e2) for d2, row in rows for e2 in row]
        shear = _shear_class(s, prefix_n, offset_range)
        assert sector_screen(shear, s, rows) == filter_candidates(s, pairs, prefix_n, offset_range)

    @given(
        st.sampled_from(GRID_SECTORS),
        st.integers(0, 300),
        st.integers(0, 10),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_screen_lemma(self, nm, prefix_n, offset_range, i, j):
        # The grid screen's premise: "negative" is a down-set of the grid,
        # the count of values <= prefix_n never rises along either axis,
        # and off the negative pairs it is the window's size.
        s = sector(*nm)
        D, E = _grid_axes(s, 40)
        d2, e2 = D[i % len(D)], E[j % len(E)]
        window = pair_window(s, d2, e2, prefix_n, offset_range)
        count = _count_upto(s, d2, e2, prefix_n)
        if window is None:
            assert pair_window(s, d2 - 2, e2, prefix_n, offset_range) is None
            assert pair_window(s, d2, e2 - 2 * s.n, prefix_n, offset_range) is None
        else:
            assert window[1] == count
        assert _count_upto(s, d2 + 2, e2, prefix_n) <= count
        assert _count_upto(s, d2, e2 + 2 * s.n, prefix_n) <= count

    @given(
        st.sampled_from(
            [
                (n, m)
                for n in range(1, 31)
                for m in range(1, 31)
                if math.gcd(n, m) == 1 and (m - 1) ** 2 % n == 0
            ]
        ),
        st.integers(-40, 40),
        st.integers(-40, 40),
        st.integers(0, 2000),
    )
    @example((8, 5), 1, 0, 50)  # step 1
    @example((8, 5), -1, 0, 50)  # step -1
    @example((8, 5), 2, -1, 50)  # step 0
    @example((3, 1), 0, -1, 50)  # a column family, step -1
    @example((4, 7), 1, 0, 50)  # sheared onto S(4/3), whose lines start at z = 0 or 1
    @example((1, 14), 1, -1, 50)  # sheared onto S(1/1)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_base_table_is_the_walk(self, nm, i, j, hi):
        # integral sectors (m = 1) included: line c's base K(c) + i*x0(c) +
        # j*z(c) and the step step_ref + i*u + j*v, read off the shear
        # class's tables on S(n/m0), are those the walk of the sector's
        # pair (d2, e2) reads on the sector's own lines, line by line, where
        # (d2, e2 + q*n*d2) = (d_ref + 2i, e_ref + 2n*j) is the reduced
        # lattice pair; T(x, y) = (x + q*y, y) carries each line's first
        # and last point of S(n/m0) to the sector's
        s = sector(*nm)
        n = s.n
        shear, table = _shear_class(s, _PREFILTER_N, PARAMS.offset_range), _LineTable(s, 1)
        lines0 = shear.table.lines
        q = (s.m - lines0.m) // n
        assert n * q + (s.m - 1) % n + 1 == s.m and lines0.n == n
        d_ref, e_ref = shear.ref
        d2 = d_ref + 2 * i
        e2 = e_ref + 2 * n * j - q * n * d2
        # the window [-hi, hi], each value raised by hi
        records, step, *_ = table.walk(n * d2, e2, 2 * n * hi, 2 * n, 2 * hi)
        assert step == shear.step_ref + i * lines0.u + j * lines0.v
        if records:
            shear._read_to(max(record[3] for record in records) + 1)
        # on the lattice no line is empty
        assert all(count for *_, count in shear.firsts)
        assert len(shear.lasts) == len(shear.firsts)
        for _, least, greatest, c, t, points in records:
            least, greatest = least - hi, greatest - hi
            K, x0, z, count = shear.firsts[c]
            assert (x0 + q * z, z, count) == s.lines.line(c)
            base = K + i * x0 + j * z
            assert (greatest if step < 0 else least) == base + t * step
            assert step or least == greatest
            if step < 0:
                # a descending line is least at its last point, which the
                # screen reads off lasts as it reads a first point off firsts
                K_last, x, y, count_last = shear.lasts[c]
                assert count_last == count
                assert (x + q * y, y) == table.point(c, count - 1)
                last = K_last + i * x + j * y
                assert last == base + (count - 1) * step
                if t + points == count:
                    assert least == last

    @pytest.mark.parametrize(
        "nm,row",
        [
            ((8, 5), (1, range(0, 1))),  # d2 off the lattice
            ((8, 5), (0, range(8, 9))),  # e2 off the lattice
            ((8, 5), (0, range(0, 32, 8))),  # E steps by n, not 2n
            ((10, 1), (0, range(-40, 41, 10))),
            ((3, 2), (0, range(0, 1))),  # no integer-valued lattice at all
        ],
    )
    def test_row_off_the_lattice_is_a_value_error(self, nm, row):
        s = sector(*nm)
        shear = _shear_class(s, _PREFILTER_N, PARAMS.offset_range)
        with pytest.raises(ValueError, match="off the integer-valued lattice"):
            _screen(shear, [row])
        # a lattice row of one pair steps by 1 and is screened
        if _lattice_residues(s) is not None:
            d_res, e_res = _lattice_residues(s)
            _screen(shear, [(d_res, range(e_res, e_res + 1))])

    def test_grid_screen_walks_band_and_boundary(self):
        # the band is the pairs with a nonzero step that are neither
        # negative nor short; a step-0 pair is skipped unwalked
        s = sector(8, 5)
        D, E = _grid_axes(s, 40)
        need = _PREFILTER_N + 1
        band = 0
        for d2, e2 in raw_candidates(s, 40):
            if s.n * d2 * s.lines.u + e2 * s.lines.v == 0:
                continue
            window = pair_window(s, d2, e2, _PREFILTER_N, PARAMS.offset_range)
            band += window is not None and window[1] >= need
        assert band

        shear = _shear_class(s, _PREFILTER_N, PARAMS.offset_range)
        sector_screen(shear, s, box_rows(s, 40))
        assert shear.band == band
        assert band <= shear.walked <= len(D) + len(E) + band

    def test_shallow_prefix_screens_at_prefix(self):
        # below the screen depth a depth-8 screen would be the stricter one
        s = sector(8, 5)
        grid = raw_candidates(s, 40)
        params = SearchParams(2, 6, 10, 40)
        shallow = _one_pass(s, grid, params)
        deeper = _one_pass(s, grid, replace(params, prefix_n=_PREFILTER_N))
        assert len(shallow) > len(deeper)
        assert _screened(s, grid, params) == shallow
        assert _grid_searched(s, params) == shallow

    def test_one_screen_per_search(self, monkeypatch):
        depths = []
        real = search_mod._screen

        def screen(shear, rows):
            depths.append((shear.depth, shear.prefix_n))
            return real(shear, rows)

        monkeypatch.setattr(search_mod, "_screen", screen)
        for prefix_n in (0, 5, 8, 300):
            depths.clear()
            _search_detail(sector(8, 5), replace(PARAMS, prefix_n=prefix_n))
            assert depths == [(min(prefix_n, _PREFILTER_N), prefix_n)]

    def test_sweep_walk_budget(self, monkeypatch):
        # the serial 30x30 sweep at raw 40 walked 140,756 pairs when the
        # screen walked every grid pair.  Its 170 sectors with candidates
        # fall into 49 shear classes, and one screen per class walks the
        # union of the class's reduced rows: exactly 3,871 pairs with a
        # nonzero step, 2,567 of them in bands, whatever the line loops
        # look like, each reduced pair at most once, and 132
        # certifications, one per walked pair that packs at depth 8
        screens, verdicts = [], []
        real, real_verdict = search_mod._screen, search_mod._prefix_verdict

        def counting(shear, rows):
            screens.append(shear)
            return real(shear, rows)

        def verdict(*args):
            verdicts.append(args)
            return real_verdict(*args)

        monkeypatch.setattr(search_mod, "_screen", counting)
        monkeypatch.setattr(search_mod, "_prefix_verdict", verdict)
        assert sweep(30, 30, PARAMS, workers=1).ok
        assert len(screens) == len({id(shear) for shear in screens}) == 49
        assert sum(shear.walked for shear in screens) <= 5_000
        assert sum(shear.walked for shear in screens) == 3_871
        assert sum(shear.band for shear in screens) == 2_567
        assert len(verdicts) == 132

    def test_structured_pairs_are_the_integer_valued_ones(self, monkeypatch):
        # the lattice test keeps exactly the pairs whose polynomial is
        # integer-valued, with no QuadPoly built
        from sectorpack.polynomials import _residue

        def reference(s, max_k):
            if (s.m - 1) ** 2 % s.n:
                return []
            out = []
            for direction in (Direction.ASCENDING, Direction.DESCENDING):
                res, v = _residue(s, direction)
                for k in range(res or v, max_k + 1, v):
                    d, e = necessary_coefficients(s, k, direction)
                    if QuadPoly(*stanton_quadratic(s), d, e, 0).is_integer_valued():
                        out.append((int(2 * d), int(2 * s.n * e)))
            return out

        cases = [
            (sector(n, m), reference(sector(n, m), 12))
            for n in range(1, 41)
            for m in range(1, 41)
            if math.gcd(n, m) == 1
        ]
        assert sum(map(len, (pairs for _, pairs in cases))) > 500
        monkeypatch.setattr(search_mod, "QuadPoly", None)
        for s, pairs in cases:
            assert _structured_candidates(s, 12) == pairs, s

    def test_stair_pairs_are_a_shear_class_invariant(self):
        # shifted by e2 -> e2 + q*n*d2, q*n = m - m0, the stair pair (2 -
        # kl, 2*(1 - m) + kl*(m + 1)) of S(n/m) is (2 - kl, 2*(1 - m0) +
        # kl*(m0 + 1)), S(n/m0)'s, and the residue classes of k and of the
        # lattice are the class's: so _class_triples reads one sector's
        # stair pairs for the whole class.  The grid's d2 axis depends on n
        # and the bound alone, so the class's sectors share it too
        pairs = 0
        for n in range(1, 101):
            for m in range(1, 301):
                if math.gcd(n, m) != 1:
                    continue
                m0 = _m0(n, m)
                s, s0 = sector(n, m), sector(n, m0)
                assert _grid_axes(s, 40)[0] == _grid_axes(s0, 40)[0], (n, m)
                for max_k in (0, 1, 6, 15):
                    shifted = [
                        (d2, e2 + (m - m0) * d2) for d2, e2 in _structured_candidates(s, max_k)
                    ]
                    assert shifted == _structured_candidates(s0, max_k), (n, m, max_k)
                    pairs += len(shifted)
        assert pairs == 63_621

    def test_survivors_in_fraction_order(self):
        # the integer sort key orders the polynomials by their step d*u + e*v
        # (size, then ascending first), then f, then coefficients
        def fraction_key(s, p):
            delta = p.d * s.lines.u + p.e * s.lines.v
            return abs(delta), 0 if delta > 0 else 1, p.f, p.coefficients()

        for nm in GRID_SECTORS:
            s = sector(*nm)
            for polys in _search_detail(s, PARAMS):
                assert polys == sorted(polys, key=lambda p: fraction_key(s, p)), nm

    @pytest.mark.parametrize("nm,rejected", [((8, 5), 0), ((10, 1), 2)])
    def test_certified_once_per_survivor(self, nm, rejected, monkeypatch):
        # one verdict per reduced pair that passes the depth-8 screen, none
        # twice, all on the shear class's table, failing ones included:
        # the search never calls prefix_check
        import sectorpack.verify as verify_mod

        s = sector(*nm)
        n = s.n
        structured = set(_structured_candidates(s, PARAMS.max_k))
        grid = raw_candidates(s, PARAMS.raw_grid_bound)
        assert structured & set(grid)
        candidates = grid + sorted(structured - set(grid))
        triples = filter_candidates(s, candidates, _PREFILTER_N, PARAMS.offset_range)

        screens, calls = [], []
        real_screen, real_verdict = search_mod._screen, search_mod._prefix_verdict

        def screen(shear, rows):
            screens.append(shear)
            return real_screen(shear, rows)

        def verdict(table, A, B, F, unit, n_max):
            calls.append((table, (A, B, F, unit), n_max))
            return real_verdict(table, A, B, F, unit, n_max)

        def no_prefix_check(*args):
            raise AssertionError("the search called prefix_check")

        monkeypatch.setattr(search_mod, "_screen", screen)
        monkeypatch.setattr(search_mod, "_prefix_verdict", verdict)
        monkeypatch.setattr(verify_mod, "prefix_check", no_prefix_check)
        ordered, raw = _search_detail(s, PARAMS)
        assert len(ordered) == 2 and raw == ordered
        (shear,) = screens
        table, q = shear.table, (s.m - shear.table.lines.m) // n
        assert all(called is table and n_max == PARAMS.prefix_n for called, _, n_max in calls)
        scaled = [args for _, args, _ in calls]
        assert len(scaled) == len(set(scaled))
        assert sorted(scaled) == sorted(
            (n * d2, e2 + q * n * d2, 2 * n * f, 2 * n) for d2, e2, f in triples
        )
        assert len(triples) - len(ordered) == rejected

    @given(
        st.sampled_from(
            [
                (n, m)
                for n in range(1, 41)
                for m in range(1, 41)
                if math.gcd(n, m) == 1 and (m - 1) ** 2 % n == 0
            ]
        ),
        st.sampled_from([0, 1, 5, 8, 9, 20, 300]),
        st.integers(0, 10),
        st.integers(0, 40),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_certification_is_prefix_check(self, nm, prefix_n, offset_range, raw):
        # The triples that pass the screen's depth, pair by pair on the
        # sector's own lines: each gets, from _prefix_verdict on its
        # reduced triple on the shear class's table, prefix_check's
        # verdict on its polynomial, and the search keeps exactly those
        # that pass.  Sectors off the integer-valued lattice screen nothing
        # and are not drawn.
        s = sector(*nm)
        n = s.n
        params = SearchParams(prefix_n, 6, offset_range, raw)
        grid = raw_candidates(s, raw)
        candidates = grid + sorted(set(_structured_candidates(s, 6)) - set(grid))
        triples = filter_candidates(s, candidates, min(prefix_n, _PREFILTER_N), offset_range)
        table = _shear_class(s, prefix_n, offset_range).table
        q = (s.m - table.lines.m) // n
        passing = set()
        for d2, e2, f in triples:
            p = _poly_from_scaled(s, d2, e2, f)
            report = prefix_check(s, p, prefix_n)
            reduced = (n * d2, e2 + q * n * d2, 2 * n * f, 2 * n)
            assert _prefix_verdict(table, *reduced, prefix_n).ok == report.ok
            if report.ok:
                passing.add(p.coefficients())
        found, _ = _search_detail(s, params)
        assert len(found) == len(passing)
        assert {p.coefficients() for p in found} == passing

    @pytest.mark.parametrize(
        "nm,triple,want",
        [
            # 434 triples pass the 30x30 raw-40 screen at depth 8 and 359
            # certify
            (
                (10, 1),
                (-28, 40, 9),
                PrefixReport(
                    PrefixStatus.DUPLICATE, 300, 337, 9, LatticePoint(0, 0), LatticePoint(2, 4)
                ),
            ),
            ((18, 7), (-8, 72, 0), PrefixReport(PrefixStatus.MISSING_VALUE, 300, 296, 10)),
        ],
    )
    def test_certification_rejects_screened_triple(self, nm, triple, want):
        s = sector(*nm)
        n = s.n
        rows = box_rows(s, PARAMS.raw_grid_bound)
        assert triple in sector_screen(_shear_class(s, _PREFILTER_N, PARAMS.offset_range), s, rows)
        assert triple not in sector_screen(_shear_class(s, 300, PARAMS.offset_range), s, rows)
        d2, e2, f = triple
        assert _prefix_verdict(_LineTable(s, 1), n * d2, e2, 2 * n * f, 2 * n, 300) == want
        assert prefix_check(s, _poly_from_scaled(s, d2, e2, f), 300) == want


class TestSweep:
    def test_single_sector_row(self):
        (row,) = _class_rows([(8, 5, PARAMS)])
        assert row.match
        assert len(row.classified) == 2 and len(row.searched) == 2

    def test_triple_writer_and_reader_invert(self):
        # search._poly_from_scaled builds a survivor triple's polynomial and
        # search._scaled_key reads a polynomial's triple (2d, 2n*e, f): on
        # the serial 30x30 sweep's classes at raw 40 each inverts the other
        # on every survivor triple and on every classified polynomial that
        # has a triple
        tasks = [(n, m, PARAMS) for n in range(1, 31) for m in range(1, 31) if math.gcd(n, m) == 1]
        triples_seen = keyed = 0
        for group in _shear_classes(tasks):
            sectors = [sector(n, m) for n, m, _ in group]
            for s, triples in zip(sectors, _class_triples(sectors, PARAMS)):
                forced = stanton_quadratic(s)
                for triple in triples:
                    assert _scaled_key(_poly_from_scaled(s, *triple), s.n, forced) == triple
                triples_seen += len(triples)
                for p in classify(s.n, s.m).polynomials():
                    key = _scaled_key(p, s.n, forced)
                    if key is not None:
                        assert _poly_from_scaled(s, *key) == p
                        keyed += 1
        assert (triples_seen, keyed) == (359, 359)

    @pytest.mark.parametrize("change", ["drop", "extra", "homogeneous", "off_grid"])
    def test_row_matches_exact_polynomials_only(self, change, monkeypatch):
        # the row builder matches classify's polynomials to the survivors
        # by their triple (2d, 2n*e, f); one that shares a survivor's
        # triple but not the forced homogeneous part, or one off the
        # integer grid, has no triple: the row is a mismatch, and its
        # searched polynomials are the search's, not classify's
        real = _class_rows([(8, 5, PARAMS)])[0]
        p, *rest = real.classified
        listed = {
            "drop": rest,
            "extra": [p, *rest, replace(p, f=p.f + 1)],
            "homogeneous": [replace(p, a=p.a + 1), *rest],
            "off_grid": [replace(p, d=p.d + Fraction(1, 3)), *rest],
        }[change]
        fake = mock.Mock(polynomials=lambda: list(listed))
        monkeypatch.setattr(sweep_mod, "_classify", lambda n, m, known: fake)
        (row,) = _class_rows([(8, 5, PARAMS)])
        assert real.match and not row.match
        assert row.classified == tuple(listed)
        assert row.searched == real.searched and row.raw_survivors == real.raw_survivors

    def test_tiny_sweep(self):
        report = sweep(2, 2, SearchParams(200, 6, 10, 20), workers=1)
        assert report.ok
        rows = {(r.n, r.m): r for r in report.rows}
        assert set(rows) == {(1, 1), (1, 2), (2, 1)}
        f1, g1 = nathanson_polys(1)
        assert rows[(1, 1)].searched == (f1, g1)
        f2, g2 = nathanson_polys(2)
        assert rows[(2, 1)].searched == (f2, g2)

    def test_small_sweep_agrees(self):
        report = sweep(8, 8, SearchParams(250, 6, 10, 30), workers=1)
        assert report.ok
        assert report.mismatches() == []

    def test_parallel_matches_serial(self):
        serial = sweep(5, 5, SearchParams(200, 5, 8, 20), workers=1)
        parallel = sweep(5, 5, SearchParams(200, 5, 8, 20), workers=2)
        assert serial == parallel

    def test_csv_shape(self):
        report = sweep(3, 2, SearchParams(200, 5, 8, 20), workers=1)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "n,m,classified_count,search_count,match"
        assert lines[1] == "1,1,2,2,true"
        assert all(line.endswith("true") for line in lines[1:])

    @pytest.mark.parametrize("workers", [0, -1, -(10**20)])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            sweep(2, 2, workers=workers)

    def test_rows_sorted(self):
        report = sweep(4, 4, SearchParams(150, 5, 8, 0), workers=1)
        keys = [(r.n, r.m) for r in report.rows]
        assert keys == sorted(keys)
        assert all(math.gcd(n, m) == 1 for n, m in keys)

    def test_shear_classes_split_no_class(self):
        # each task lies in exactly one class, and a class is exactly the
        # tasks whose sectors _shear_class puts on one S(n/m0)
        tasks = [(n, m, PARAMS) for n in range(1, 31) for m in range(1, 61) if math.gcd(n, m) == 1]
        classes = _shear_classes(tasks)
        grouped = sorted((n, m) for group in classes for n, m, _ in group)
        assert grouped == [(n, m) for n, m, _ in tasks]
        bases = set()
        for group in classes:
            (base,) = {
                (n, _shear_class(sector(n, m), params.prefix_n, params.offset_range).table.lines.m)
                for n, m, params in group
            }
            bases.add(base)
            assert group == sorted(group, key=lambda task: task[:2])
        # one class per n and m0 <= n coprime to n: 278 for n <= 30
        assert len(bases) == len(classes) == 278

    def test_classes_are_handed_out_largest_first(self, monkeypatch):
        # the classes go largest first, ties in (n, m0) order, and the
        # counter hands them out in that order from wherever it stands
        tasks = [(n, m, PARAMS) for n in range(1, 9) for m in range(1, 9) if math.gcd(n, m) == 1]
        classes = _shear_classes(tasks)
        sizes = [len(group) for group in classes]
        assert sizes == sorted(sizes, reverse=True) and sizes[:3] == [8, 4, 3]
        claimed = []
        monkeypatch.setattr(sweep_mod, "_class_survivors", lambda group: claimed.append(group) or [])
        counter = multiprocessing.Value("i", 0)
        assert dict(_share(classes, counter)) == dict.fromkeys(range(len(classes)), [])
        assert claimed == classes
        claimed.clear()
        counter.value = 3
        assert [index for index, _ in _share(classes, counter)] == list(range(3, len(classes)))
        assert claimed == classes[3:]

    def test_workers_never_outnumber_classes(self, monkeypatch):
        # workers - 1 children, and no more than there are classes less
        # one: S(n/m), n, m <= 3, is 7 sectors in 4 classes
        started = []

        class Recording(multiprocessing.Process):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(multiprocessing, "Process", Recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        params = SearchParams(150, 5, 8, 0)
        tasks = [(n, m, params) for n in range(1, 4) for m in range(1, 4) if math.gcd(n, m) == 1]
        assert len(tasks) == 7 and len(_shear_classes(tasks)) == 4
        serial = sweep(3, 3, params, workers=1)
        assert started == []
        assert sweep(3, 3, params) == serial and len(started) == 3
        started.clear()
        assert sweep(3, 3, params, workers=2) == serial and len(started) == 1
        started.clear()
        # one class: S(1/m) all shear onto S(1/1), so the caller works alone
        assert len(sweep(1, 6, params, workers=4).rows) == 6 and started == []

    def test_sweep_classifies_each_sector_once(self, monkeypatch):
        # the sectors of a shear class share one dict of classifications,
        # and a slope < 1 sector's reduced target S(n/m0) lies in its
        # class, so each of the 555 sectors is classified once, also where
        # it is a reduced target
        classify_mod = importlib.import_module("sectorpack.classify")

        computed = []
        real = classify_mod._classify

        def counting(n, m, known):
            if (n, m) not in known:
                computed.append((n, m))
            return real(n, m, known)

        monkeypatch.setattr(classify_mod, "_classify", counting)
        monkeypatch.setattr(sweep_mod, "_classify", counting)
        report = sweep(30, 30, SearchParams(150, 5, 8, 0), workers=1)
        assert len(report.rows) == len(computed) == len(set(computed)) == 555
        for row in report.rows:
            assert tuple(classify(row.n, row.m).polynomials()) == row.classified

    def test_rows_do_not_depend_on_class_fill_order(self):
        # the tasks of a shear class share one search state, filled by
        # whichever sector of the class comes first: in (n, m) order,
        # reversed or shuffled, every row is the one that a search of its
        # sector alone, on a fresh state, gives
        tasks = [(n, m, PARAMS) for n in range(1, 31) for m in range(1, 31) if math.gcd(n, m) == 1]
        fresh = {(n, m): _class_rows([(n, m, params)])[0] for n, m, params in tasks}
        rng = random.Random(27)
        for group in _shear_classes(tasks):
            for order in (group, group[::-1], rng.sample(group, len(group))):
                assert _class_rows(order) == [fresh[(n, m)] for n, m, _ in order]

    def test_stair_row_off_the_grid_on_a_shared_class(self):
        # S(1/14) and S(1/29) are sheared onto S(1/1), not onto the
        # quadrant that w_reduce gives for n = 1.  S(1/14)'s stair pair
        # (3, -41) lies off its bound-40 grid, yet its reduced pair (3, -2)
        # is on S(1/1)'s; in every order the three rows are their own
        tasks = [(1, 14, PARAMS), (1, 29, PARAMS), (1, 1, PARAMS)]
        fresh = [_class_rows([task])[0] for task in tasks]
        assert "1/2 -13 169/2 3/2 -41/2 0" in [p.to_string() for p in fresh[0].searched]
        for order in itertools.permutations(range(3)):
            assert _class_rows([tasks[k] for k in order]) == [fresh[k] for k in order]
        assert _shear_class(sector(1, 14), 300, 10).table.lines.m == 1

    @pytest.mark.parametrize(
        "params",
        [
            PARAMS,
            replace(PARAMS, prefix_n=9),
            replace(PARAMS, offset_range=0),
            replace(PARAMS, raw_grid_bound=0),
            replace(PARAMS, raw_grid_bound=7),
        ],
        ids=["raw40", "prefix9", "offset0", "raw0", "raw7"],
    )
    def test_class_search_equals_lone_searches(self, params, monkeypatch):
        # one class search screens its sectors' reduced rows once and gives
        # each sector what it gets searched alone, on a class's sectors
        # with consecutive q and on ones with gaps.  The rows hold each
        # reduced candidate once, d2 ascending, a stair pair only up to
        # k_cap, past which its edge sum n*(2 - k*l) fails the screen's
        # first test: on a whole class and on a contiguous slice of it, no
        # other pair; with gaps in q, the pairs between the grids too.
        # Prefix 9 keeps more on S(11/m) than prefix 300, and offset range
        # 0 less on S(3/m).  At raw 0 every row is a structured pair; with
        # a grid, some structured pairs lie off their own sector's grid,
        # and some of those inside another sector's grid
        screened = []
        real = search_mod._screen

        def screen(shear, rows):
            screened.append(rows)
            return real(shear, rows)

        monkeypatch.setattr(search_mod, "_screen", screen)
        bound = params.raw_grid_bound
        off_grid = inside_run = 0
        for n in (1, 2, 3, 4, 8, 11, 12):
            ms = [m for m in range(1, 81) if math.gcd(n, m) == 1]
            for m0 in sorted({_m0(n, m) for m in ms}):
                group = [sector(n, m) for m in ms if _m0(n, m) == m0]
                lone = {s.m: _search_detail(s, params) for s in group}
                grids = {  # m -> the sector's grid, reduced
                    s.m: {(d2, e2 + (s.m - m0) * d2) for d2, e2 in raw_candidates(s, bound)}
                    for s in group
                }
                reduced = {}  # m -> the sector's candidates, reduced
                s_min = edge_threshold_loop(n, -2 * n * params.offset_range)
                for s in group:
                    k_cap = (2 * n - s_min) // (n * s.l)
                    off = {
                        (d2, e2 + (s.m - m0) * d2)
                        for d2, e2 in _structured_candidates(s, min(params.max_k, k_cap))
                    } - grids[s.m]
                    reduced[s.m] = grids[s.m] | off
                    off_grid += len(off)
                    inside_run += sum(any(pair in grid for grid in grids.values()) for pair in off)
                subsets = [  # (sectors, whether their q are consecutive)
                    (group, True),
                    (group[1:3], True),
                    (group[len(group) // 2 :], True),
                    (group[::-2], False),
                    (group[1::3], False),
                ]
                for sectors, consecutive in subsets:
                    screened.clear()
                    triples = _class_triples(sectors, params)
                    assert [_polys(s, t, bound) for s, t in zip(sectors, triples)] == [
                        lone[s.m] for s in sectors
                    ]
                    pairs = [(d2, e2) for rows in screened for d2, E in rows for e2 in E]
                    assert [d2 for d2, _ in pairs] == sorted(d2 for d2, _ in pairs)
                    assert len(pairs) == len(set(pairs))
                    union = set().union(*(reduced[s.m] for s in sectors))
                    if consecutive:
                        assert set(pairs) == union
                    else:
                        assert set(pairs) >= union
        # at raw 40 each capped stair pair off its own grid lies on another
        # sector's grid; at raw 0 and raw 7 some lie off every grid and make
        # rows of their own
        assert (inside_run > 0) is (bound > 0)
        assert (inside_run < off_grid) is (bound != 40)

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_pooled_rows_match_serial_under_every_start_method(self, method):
        # a fresh interpreter sets the start method before its pooled
        # sweep; spawn and forkserver children import sectorpack afresh
        # and get the classes and the counter pickled, not inherited
        pooled = run_fresh(
            "import multiprocessing\n"
            "from sectorpack import SearchParams, sweep\n"
            f"multiprocessing.set_start_method({method!r})\n"
            f"print(repr(sweep(12, 24, {PARAMS!r}, workers=2).rows))\n"
        )
        assert pooled == repr(sweep(12, 24, PARAMS, workers=1).rows) + "\n"

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("params", [SearchParams(), PARAMS], ids=["raw0", "raw40"])
    def test_pooled_rows_match_serial_field_by_field(self, params, workers):
        # on 30x60 every one of the 49 shear classes with a lattice holds
        # two or more sectors, and each process fills its classes and its
        # classifications in its own order
        tasks = [(n, m) for n in range(1, 31) for m in range(1, 61) if math.gcd(n, m) == 1]
        serial = sweep(30, 60, params, workers=1).rows
        pooled = sweep(30, 60, params, workers=workers).rows
        assert len(pooled) == len(serial) == len(tasks)
        for a, b in zip(pooled, serial):
            for field in fields(SweepRow):
                assert getattr(a, field.name) == getattr(b, field.name), (a.n, a.m, field.name)
        # searched and raw survivors are classify's own objects where the
        # polynomials agree
        for row in pooled:
            for p in row.searched + row.raw_survivors:
                assert all(q is p for q in row.classified if q == p)
        assert any(row.raw_survivors for row in pooled) is (params is PARAMS)

    def test_child_payload_is_plain_data(self):
        # a child sends its classes' survivor triples, plain ints, not rows
        # of Fraction coefficients: on 30x60 at raw 40 the rows of every
        # class pickle to 98,084 bytes
        tasks = [(n, m, PARAMS) for n in range(1, 31) for m in range(1, 61) if math.gcd(n, m) == 1]
        classes = _shear_classes(tasks)

        class Conn:
            def send(self, obj):
                sent.append(obj)

            def close(self):
                pass

        sent = []
        _child(classes, multiprocessing.Value("i", 0), Conn())
        (payload,) = sent
        assert sorted(payload) == list(range(len(classes)))
        assert [len(payload[k]) for k in payload] == [len(classes[k]) for k in payload]

        def leaves(x):
            if isinstance(x, dict):
                x = [*x, *x.values()]
            if not isinstance(x, (list, tuple)):
                return [x]
            return [leaf for item in x for leaf in leaves(item)]

        ints = leaves(payload)
        assert all(type(leaf) is int for leaf in ints) and len(ints) > 3 * len(classes)
        assert len(pickle.dumps(payload)) < 25_000

    # The two failure tests run a script file in a fresh interpreter under
    # each start method.  Its top level replaces _class_survivors, the unit
    # that the sweep's processes claim, so it is replaced in every child: a
    # forked child inherits it, and a spawn or forkserver child imports the
    # script as __mp_main__.  multiprocessing.parent_process() tells the
    # caller from a child.

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_child_exception_reaches_the_caller(self, method, tmp_path):
        out = run_fresh(
            textwrap.dedent(f"""\
                import importlib, multiprocessing, time
                from pathlib import Path
                from sectorpack import SearchParams
                sweep_mod = importlib.import_module("sectorpack.sweep")
                real = sweep_mod._class_survivors
                claimed = Path(__file__).with_name("claimed")

                def failing(group):
                    if multiprocessing.parent_process() is not None:
                        claimed.touch()
                        raise ValueError("raised in a child's share")
                    # the caller works on until a child has claimed a class
                    deadline = time.monotonic() + 30
                    while not claimed.exists():
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    return real(group)

                sweep_mod._class_survivors = failing
                if __name__ == "__main__":
                    multiprocessing.set_start_method({method!r})
                    try:
                        sweep_mod.sweep(8, 8, {PARAMS!r}, workers=2)
                    except ValueError as exc:
                        print(exc)
                    print(multiprocessing.active_children())
            """),
            tmp_path / "child_fails.py",
        )
        assert out == "raised in a child's share\n[]\n"

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_no_child_outlives_sweep(self, method, tmp_path):
        # after a sweep that succeeds, and after one whose caller's share
        # raises while its children still work: sweep terminates them
        # rather than wait out their shares.  The file "failing" turns the
        # failure on
        out = run_fresh(
            textwrap.dedent(f"""\
                import importlib, multiprocessing, time
                from pathlib import Path
                from sectorpack import SearchParams
                sweep_mod = importlib.import_module("sectorpack.sweep")
                real = sweep_mod._class_survivors
                here = Path(__file__).parent

                def failing(group):
                    if not (here / "failing").exists():
                        return real(group)
                    if multiprocessing.parent_process() is not None:
                        (here / "claimed").touch()
                        time.sleep(60)
                        return real(group)
                    # the caller raises once a child has claimed a class
                    deadline = time.monotonic() + 30
                    while not (here / "claimed").exists():
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    raise ValueError("raised in the caller's share")

                sweep_mod._class_survivors = failing
                if __name__ == "__main__":
                    multiprocessing.set_start_method({method!r})
                    rows = sweep_mod.sweep(8, 8, {PARAMS!r}, workers=3).rows
                    print(len(rows), multiprocessing.active_children())
                    (here / "failing").touch()
                    start = time.perf_counter()
                    try:
                        sweep_mod.sweep(8, 8, {PARAMS!r}, workers=3)
                    except ValueError as exc:
                        print(exc)
                    print(time.perf_counter() - start < 30, multiprocessing.active_children())
            """),
            tmp_path / "caller_fails.py",
        )
        assert out == "43 []\nraised in the caller's share\nTrue []\n"
