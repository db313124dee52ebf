from __future__ import annotations

import ast
import hashlib
import itertools
import math
import tracemalloc
from bisect import bisect_left, bisect_right
from dataclasses import replace
from fractions import Fraction
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
    classify,
    enumerate_upto,
    kstair_property_check,
    nathanson_polys,
    necessary_coefficients,
    prefix_check,
    rectangle_points,
    search,
    sector,
    stanton_check,
    sweep,
)
from sectorpack.sweep import _sweep_row
from sectorpack.verify import (
    _PREFILTER_N,
    _LineTable,
    _PairScreen,
    _edge_threshold,
    _grid_axes,
    _lattice_residues,
    _poly_from_scaled,
    _prefix_verdict,
    _scaled,
    _screen,
    _search_detail,
    _structured_candidates,
)

from helpers import (
    box_rows,
    filter_candidates,
    pair_window,
    prefix_report_reference,
    raw_candidates,
)

P_PLUS = QuadPoly.from_string("4 -4 1 -1 1 0")
P127 = QuadPoly.from_string("6 -6 3/2 -8 11/2 2")
P3625 = QuadPoly.from_string("18 -24 8 -11 8 1")

PARAMS = SearchParams(prefix_n=300, max_k=6, offset_range=10, raw_grid_bound=40)


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
    # every value in [lo, hi] at its point: in scan order once its lines
    # are stably sorted by c, each line's values in t order
    bounds, spans, step, total, _, _ = table.walk(A, B, F, 1, lo, hi)
    assert step == A * lines.u + B * lines.v
    mod = abs(step) or 1
    got = []
    for (c, t, count), (r, least, greatest) in sorted(
        zip(spans, bounds), key=lambda line: line[0][0]
    ):
        assert r == least % mod and least <= greatest
        start = least if step >= 0 else greatest
        got += [(c, t + i, start + i * step) for i in range(count)]
        assert got[-1][2] == (greatest if step >= 0 else least)
    # the value is linear in t along a line, so bisect over the line's
    # points finds where its values enter and leave [lo, hi]
    want = []
    for c in range(stop):
        x0, z, count = lines.line(c)

        def value(t: int) -> int:
            return Q * (c * l) ** 2 + F + A * (x0 + t * lines.u) + B * (z + t * lines.v)

        sign = 1 if count < 2 or value(1) >= value(0) else -1
        ts = range(count)
        first = bisect_left(ts, min(sign * lo, sign * hi), key=lambda t: sign * value(t))
        end = bisect_right(ts, max(sign * lo, sign * hi), key=lambda t: sign * value(t))
        want += [(c, t, value(t)) for t in range(first, end)]
    assert got == want and total == len(want)
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


class TestPrefixCheck:
    def test_ok(self):
        report = prefix_check(sector(8, 5), P_PLUS, 22)
        assert report.ok and report.points == 23

    def test_missing_value(self):
        report = prefix_check(sector(8, 5), P_PLUS.with_offset(1), 22)
        assert report.status is PrefixStatus.MISSING_VALUE and report.value == 0

    def test_duplicate(self):
        # flipping e's sign creates a collision at value 0
        report = prefix_check(sector(8, 5), QuadPoly.from_string("4 -4 1 -1 -1 0"), 22)
        assert report.status is PrefixStatus.DUPLICATE
        assert report.value == 0
        assert {tuple(report.point), tuple(report.point2)} == {(0, 0), (2, 2)}

    def test_negative_value(self):
        report = prefix_check(sector(8, 5), P_PLUS.with_offset(-1), 22)
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
        assert "missing" in prefix_check(sector(8, 5), P_PLUS.with_offset(2), 5).describe()

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            prefix_check(sector(8, 5), P_PLUS, -1)

    def test_descending_line_ending_at_zero(self):
        # the range of a descending line whose last value is 0 has stop -1
        s, p = sector(12, 7), QuadPoly.from_string("6 -6 3/2 10 -13/2 2")
        table, A, B, F, D = _scaled(s, p)
        bounds, _, step, *_ = table.walk(A, B, F, D, 0, 20)
        assert step == -3 and (0, 0, 18) in bounds
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
            (P_PLUS.with_offset(1), "missing value 0 (checked up to 0)", 0),
            (P_PLUS.with_offset(-1), "negative value -1 at (0, 0)", 1),
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


def test_verify_imports_neither_classify_nor_sweep():
    # the oracle must not lean on the classification it checks
    import sectorpack.verify as verify_mod

    tree = ast.parse(Path(verify_mod.__file__).read_text())
    parts = set()  # every dotted component of every import, lazy ones too
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            parts.update((getattr(node, "module", None) or "").split("."))
            parts.update(part for alias in node.names for part in alias.name.split("."))
    assert "polynomials" in parts
    assert not parts & {"classify", "sweep"}


class TestKStairPropertyCheck:
    def test_constructed_polys(self):
        assert kstair_property_check(sector(8, 5), P_PLUS, 50)
        assert kstair_property_check(sector(12, 7), P127, 50)

    def test_constant_nonunit_step(self):
        # d=1, e=1 gives constant step 3: still a valid stair structure
        assert kstair_property_check(sector(8, 5), QuadPoly.from_string("4 -4 1 1 1 0"), 50)

    def test_broken_quadratic_part(self):
        assert not kstair_property_check(
            sector(8, 5), QuadPoly.from_string("4 -4 2 -1 1 0"), 50
        )

    def test_zero_step_fails(self):
        assert not kstair_property_check(
            sector(8, 5), QuadPoly.from_string("4 -4 1 2 -1 0"), 50
        )


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
        from sectorpack import kstair_extract

        ks = sorted({kstair_extract(s, p).k for p in found})
        assert ks == [1, 3]

    def test_structured_results_satisfy_stair_property(self):
        for n, m in [(8, 5), (12, 7), (36, 25), (48, 37)]:
            s = sector(n, m)
            for p in search(s, SearchParams(300, 6, 10, 0)):
                assert kstair_property_check(s, p, 50), (n, m, p.to_string())

    def test_raw_survivors_match_coefficient_families(self):
        # anything the raw grid finds has the forced (d, e) pair
        from sectorpack import kstair_extract

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
        from sectorpack import kstair_extract

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
    import sectorpack.verify as verify_mod

    with mock.patch.object(verify_mod, "_structured_candidates", lambda *_: candidates):
        found, raw = _search_detail(s, replace(params, raw_grid_bound=0))
    assert raw == []
    return sorted(p.coefficients() for p in found)


def _grid_searched(s: Sector, params: SearchParams):
    """The search's pipeline on the raw grid of params.raw_grid_bound
    alone, with no structured pairs."""
    import sectorpack.verify as verify_mod

    with mock.patch.object(verify_mod, "_structured_candidates", lambda *_: []):
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
    """How many sector points have filter value P0/2n <= hi, read off two
    walks: the first finds the least value, the second counts from it."""
    table = _LineTable(s, 1)
    vmin = table.walk(s.n * d2, e2, 0, 2 * s.n, 0, hi)[4]
    return table.walk(s.n * d2, e2, 0, 2 * s.n, vmin, hi)[3]


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
        # inside and above its d2 range, stably sorted by d2: the screen
        # keeps what the pair-by-pair reference keeps, in row order.
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
        assert _screen(_PairScreen(s, prefix_n, offset_range), rows) == filter_candidates(
            s, pairs, prefix_n, offset_range
        )

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
        screen = _PairScreen(s, prefix_n, offset_range)
        window = pair_window(screen, d2, e2)
        count = _count_upto(s, d2, e2, prefix_n)
        if window is None:
            assert pair_window(screen, d2 - 2, e2) is None
            assert pair_window(screen, d2, e2 - 2 * s.n) is None
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
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_base_table_is_the_walk(self, nm, i, j, hi):
        # integral sectors (m = 1) included: line c's base K(c) + i*x0(c) +
        # j*z(c) and the step step_ref + i*u + j*v are those the walk of
        # the lattice pair (d_ref + 2i, e_ref + 2n*j) reads, line by line
        s = sector(*nm)
        n, u, v = s.n, s.lines.u, s.lines.v
        screen = _PairScreen(s, _PREFILTER_N, PARAMS.offset_range)
        d_ref, e_ref = screen.ref
        d2, e2 = d_ref + 2 * i, e_ref + 2 * n * j
        bounds, spans, step, *_ = screen.table.walk(n * d2, e2, 0, 2 * n, -hi, hi)
        assert step == screen.step_ref + i * u + j * v
        if spans:
            screen._read_to(max(c for c, _, _ in spans) + 1)
        # on the lattice no line is empty
        assert all(count for *_, count in screen.bases)
        for (c, t, _), (_, least, greatest) in zip(spans, bounds):
            K, x0, z, count = screen.bases[c]
            assert (x0, z, count) == s.lines.line(c)
            base = K + i * x0 + j * z
            assert (greatest if step < 0 else least) == base + t * step
            assert step or least == greatest

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
        screen = _PairScreen(s, _PREFILTER_N, PARAMS.offset_range)
        with pytest.raises(ValueError, match="off the integer-valued lattice"):
            _screen(screen, [row])
        # a lattice row of one pair steps by 1 and is screened
        if screen.ref is not None:
            d_res, e_res = screen.ref
            _screen(screen, [(d_res, range(e_res, e_res + 1))])

    def test_grid_screen_walks_band_and_boundary(self):
        s = sector(8, 5)
        D, E = _grid_axes(s, 40)
        need = _PREFILTER_N + 1
        screen = _PairScreen(s, _PREFILTER_N, PARAMS.offset_range)
        band = 0
        for d2, e2 in raw_candidates(s, 40):
            window = pair_window(screen, d2, e2)
            band += window is not None and window[1] >= need
        assert band

        screen = _PairScreen(s, _PREFILTER_N, PARAMS.offset_range)
        _screen(screen, box_rows(s, 40))
        assert screen.band == band
        assert band <= screen.walked <= len(D) + len(E) + band

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
        import sectorpack.verify as verify_mod

        depths = []
        real = verify_mod._screen

        def screen(pair_screen, rows):
            depths.append(pair_screen.prefix_n)
            return real(pair_screen, rows)

        monkeypatch.setattr(verify_mod, "_screen", screen)
        for prefix_n in (0, 5, 8, 300):
            depths.clear()
            _search_detail(sector(8, 5), replace(PARAMS, prefix_n=prefix_n))
            assert depths == [min(prefix_n, _PREFILTER_N)]

    def test_sweep_walk_budget(self, monkeypatch):
        # the serial 30x30 sweep at raw 40 walked 140,756 pairs when the
        # screen walked every grid pair
        import sectorpack.verify as verify_mod

        screens = []
        real = verify_mod._screen

        def counting(screen, rows):
            screens.append(screen)
            return real(screen, rows)

        monkeypatch.setattr(verify_mod, "_screen", counting)
        assert sweep(30, 30, PARAMS, workers=1).ok
        assert sum(screen.walked for screen in screens) <= 20_000

    def test_structured_pairs_are_the_integer_valued_ones(self, monkeypatch):
        # the lattice test keeps exactly the pairs whose polynomial is
        # integer-valued, with no QuadPoly built
        import sectorpack.verify as verify_mod
        from sectorpack.polynomials import _residue, stanton_quadratic

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
        monkeypatch.setattr(verify_mod, "QuadPoly", None)
        for s, pairs in cases:
            assert _structured_candidates(s, 12) == pairs, s

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
        # one verdict per screened triple, none twice, all on the screen's
        # table, failing ones included: the search never calls prefix_check
        import sectorpack.verify as verify_mod

        s = sector(*nm)
        n = s.n
        structured = set(_structured_candidates(s, PARAMS.max_k))
        assert structured & set(raw_candidates(s, PARAMS.raw_grid_bound))

        screened, calls = [], []
        real_screen, real_verdict = verify_mod._screen, verify_mod._prefix_verdict

        def screen(pair_screen, rows):
            screened.append((pair_screen.table, real_screen(pair_screen, rows)))
            return screened[-1][1]

        def verdict(table, A, B, F, unit, n_max):
            calls.append((table, (A, B, F, unit), n_max))
            return real_verdict(table, A, B, F, unit, n_max)

        def no_prefix_check(*args):
            raise AssertionError("the search called prefix_check")

        monkeypatch.setattr(verify_mod, "_screen", screen)
        monkeypatch.setattr(verify_mod, "_prefix_verdict", verdict)
        monkeypatch.setattr(verify_mod, "prefix_check", no_prefix_check)
        ordered, raw = _search_detail(s, PARAMS)
        assert len(ordered) == 2 and raw == ordered
        ((table, triples),) = screened
        assert all(called is table and n_max == PARAMS.prefix_n for called, _, n_max in calls)
        scaled = [args for _, args, _ in calls]
        assert len(scaled) == len(set(scaled))
        assert sorted(scaled) == sorted((n * d2, e2, 2 * n * f, 2 * n) for d2, e2, f in triples)
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
        # Every triple the search screens gets, from _prefix_verdict on the
        # screen's table, prefix_check's report on its polynomial, field by
        # field; the search keeps exactly those that pass.  Sectors off
        # the integer-valued lattice screen nothing and are not drawn.
        import sectorpack.verify as verify_mod

        s = sector(*nm)
        n = s.n
        screened = []
        real = verify_mod._screen

        def screen(pair_screen, rows):
            screened.append((pair_screen.table, real(pair_screen, rows)))
            return screened[-1][1]

        with mock.patch.object(verify_mod, "_screen", screen):
            found, _ = _search_detail(s, SearchParams(prefix_n, 6, offset_range, raw))
        ((table, triples),) = screened
        passing = set()
        for d2, e2, f in triples:
            p = _poly_from_scaled(s, d2, e2, f)
            report = prefix_check(s, p, prefix_n)
            assert _prefix_verdict(table, n * d2, e2, 2 * n * f, 2 * n, prefix_n) == report
            if report.ok:
                passing.add(p.coefficients())
        assert len(found) == len(passing)
        assert {p.coefficients() for p in found} == passing

    @pytest.mark.parametrize(
        "nm,triple,want",
        [
            # 434 triples pass the 30x30 raw-40 screen and 359 certify
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
        screen = _PairScreen(s, _PREFILTER_N, PARAMS.offset_range)
        assert triple in _screen(screen, box_rows(s, PARAMS.raw_grid_bound))
        d2, e2, f = triple
        assert _prefix_verdict(screen.table, n * d2, e2, 2 * n * f, 2 * n, 300) == want
        assert prefix_check(s, _poly_from_scaled(s, d2, e2, f), 300) == want


class TestSweep:
    def test_single_sector_row(self):
        row = _sweep_row((8, 5, PARAMS))
        assert row.match
        assert len(row.classified) == 2 and len(row.searched) == 2

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

    def test_pool_chunks_and_workers(self, monkeypatch):
        # chunks of ceil(sectors / (4 * workers)), and never more workers
        # than chunks: the fake pool records both and starts no process
        import concurrent.futures
        import os

        pools = []

        class FakePool:
            def __init__(self, max_workers):
                pools.append([max_workers])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                pools[-1].append(chunksize)
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        params = SearchParams(150, 5, 8, 0)
        # 7 sectors on 64 CPUs: 7 chunks of one sector, so 7 workers
        assert sweep(3, 3, params) == sweep(3, 3, params, workers=1)
        assert pools == [[7, 1]]
        pools.clear()
        # 555 sectors on 2 workers: 8 chunks of 70
        assert len(sweep(30, 30, params, workers=2).rows) == 555
        assert pools == [[2, 70]]
