from __future__ import annotations

import dataclasses
import math
import pickle
import random
import sys
import threading
from copy import deepcopy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sectorpack.verify
from helpers import chain_gaps, start_value_scan
from sectorpack import (
    Direction,
    LatticePoint,
    NotConsecutive,
    PointOutsideSector,
    PrefixReport,
    PrefixStatus,
    QuadPoly,
    classify,
    enumerate_upto,
    make_scheme,
    necessary_coefficients,
    prefix_check,
    sector,
    stanton_quadratic,
)
from sectorpack.codec import VERIFY_N
from sectorpack.polynomials import _residue, _start_values

P_PLUS = QuadPoly.from_string("4 -4 1 -1 1 0")
P_MINUS = QuadPoly.from_string("4 -4 1 3 -2 0")
P127 = QuadPoly.from_string("6 -6 3/2 -8 11/2 2")
P_S3 = QuadPoly.from_string("3/2 0 0 -1/2 1 0")


def assert_round_trips(scheme, count=3000):
    """stream, decode and encode agree on the values below count, and far
    values decode to points that encode back (encode refuses points outside
    the sector)."""
    points = scheme.stream(count)
    assert [scheme.decode(v) for v in range(count)] == points
    assert [scheme.encode(p) for p in points] == list(range(count))
    for value in (10**12, 10**30 + 7):
        assert scheme.encode(scheme.decode(value)) == value


@pytest.fixture(scope="module")
def fig1_scheme():
    return make_scheme(sector(8, 5), P_PLUS)


@pytest.fixture(scope="module")
def fig1_desc_scheme():
    return make_scheme(sector(8, 5), P_MINUS)


@pytest.fixture(scope="module")
def fig3_scheme():
    return make_scheme(sector(12, 7), P127)


class TestConstruction:
    def test_metadata(self, fig1_scheme):
        assert fig1_scheme.form.k == 1
        assert fig1_scheme.encode(fig1_scheme.sector.first_stair(0)) == 0

    def test_first_stair_values_permutation(self, fig3_scheme):
        s = fig3_scheme.sector
        values = tuple(fig3_scheme.encode(s.first_stair(c)) for c in range(3))
        assert sorted(values) == [0, 1, 2]
        assert values == (2, 1, 0)

    def test_accept_path_runs_no_oracle(self, monkeypatch):
        # a scheme is proved from its stair form, not prefix-checked: with
        # an oracle that raises, every S(4) entry and P_PLUS still build
        def no_oracle(s, p, n):
            raise AssertionError("prefix_check ran")

        monkeypatch.setattr(sectorpack.verify, "prefix_check", no_oracle)
        for entry in classify(4, 1).entries:
            assert make_scheme(sector(4, 1), entry.poly).form == entry.form
        assert make_scheme(sector(8, 5), P_PLUS).form.k == 1
        with pytest.raises(TypeError):
            make_scheme(sector(8, 5), P_PLUS, 10)

    def test_rejects_non_packing(self):
        with pytest.raises(ValueError):
            make_scheme(sector(8, 5), dataclasses.replace(P_PLUS, f=3))

    def test_refusal_names_the_prefix_witness(self):
        # start values that begin at 3, or repeat (k = 3 on S(8/5)): neither
        # polynomial is construct's, and each refusal reads prefix_check's
        # verdict at depth VERIFY_N = 500
        s = sector(8, 5)
        d, e = necessary_coefficients(s, 3, Direction.ASCENDING)
        for p in (dataclasses.replace(P_PLUS, f=3), QuadPoly(*stanton_quadratic(s), d, e, 0)):
            report = prefix_check(s, p, 500)
            assert not report.ok
            with pytest.raises(ValueError) as info:
                make_scheme(s, p)
            assert str(info.value) == f"not a packing polynomial on S(8/5): {report.describe()}"
        assert VERIFY_N == 500

    def test_refusal_past_the_prefix_depth(self, monkeypatch):
        # a polynomial that is not construct's but packs to depth VERIFY_N
        # (none is known; a stub oracle stands in) is refused as not proved
        ok = PrefixReport(PrefixStatus.OK, checked_upto=500, points=501)
        monkeypatch.setattr(sectorpack.verify, "prefix_check", lambda s, p, n: ok)
        with pytest.raises(ValueError) as info:
            make_scheme(sector(8, 5), dataclasses.replace(P_PLUS, f=3))
        assert str(info.value) == (
            "not a packing polynomial on S(8/5): values 0..500 each attained once, but it is "
            "not the k-stair polynomial construct builds, so it is not proved to pack")

    def test_integral_sector_round_trip(self):
        # every S(4) entry: k = 1 and the k = 2 extras, both directions
        s = sector(4, 1)
        for entry in classify(4, 1).entries:
            scheme = make_scheme(s, entry.poly)
            assert scheme.form == entry.form
            assert_round_trips(scheme)

    def test_json(self, fig3_scheme):
        assert fig3_scheme.to_json_dict() == {
            "sector": "12/7",
            "poly": "6 -6 3/2 -8 11/2 2",
            "k": 3,
            "direction": "asc",
            "f": 2,
        }


class TestEncodeDecode:
    def test_examples(self, fig1_scheme, fig3_scheme):
        assert fig1_scheme.encode(LatticePoint(4, 5)) == 10
        assert fig1_scheme.decode(10) == LatticePoint(4, 5)
        assert fig1_scheme.encode(LatticePoint(0, 0)) == 0
        assert fig1_scheme.decode(0) == LatticePoint(0, 0)
        assert fig3_scheme.encode(LatticePoint(2, 3)) == 4
        assert fig3_scheme.decode(4) == LatticePoint(2, 3)
        assert fig3_scheme.decode(2) == LatticePoint(0, 0)  # value f

    def test_outside_sector(self, fig1_scheme):
        with pytest.raises(PointOutsideSector):
            fig1_scheme.encode(LatticePoint(1, 2))

    def test_roundtrip_points(self, fig1_scheme, fig3_scheme, fig1_desc_scheme):
        for scheme in (fig1_scheme, fig3_scheme, fig1_desc_scheme):
            s = scheme.sector
            for x in range(61):
                for y in range(x * s.n // s.m + 1):
                    pt = LatticePoint(x, y)
                    assert scheme.decode(scheme.encode(pt)) == pt

    def test_roundtrip_values(self, fig1_scheme, fig3_scheme, fig1_desc_scheme):
        for scheme in (fig1_scheme, fig3_scheme, fig1_desc_scheme):
            for value in range(3000):
                assert scheme.encode(scheme.decode(value)) == value

    def test_descending_decode(self, fig1_desc_scheme):
        assert fig1_desc_scheme.form.direction is Direction.DESCENDING
        assert fig1_desc_scheme.decode(0) == LatticePoint(0, 0)
        # last stair of staircase 1 carries value 1 for the descending twin
        assert fig1_desc_scheme.encode(LatticePoint(2, 3)) == 1

    def test_per_class_value_sets(self, fig3_scheme):
        # the staircase class c mod k sweeps out exactly first_value + k*N
        k = fig3_scheme.form.k
        s = fig3_scheme.sector
        firsts = [fig3_scheme.encode(s.first_stair(c)) for c in range(k)]
        for value in range(10_000):
            pt = fig3_scheme.decode(value)
            c0 = s.staircase_index(pt) % k
            assert value % k == firsts[c0] % k


class TestStream:
    def test_examples(self, fig1_scheme, fig3_scheme):
        assert [tuple(p) for p in fig1_scheme.stream(4)] == [
            (0, 0),
            (1, 1),
            (2, 3),
            (1, 0),
        ]
        assert [tuple(p) for p in fig1_scheme.stream(1)] == [(0, 0)]
        assert [tuple(p) for p in fig3_scheme.stream(3)] == [(1, 0), (1, 1), (0, 0)]

    def test_matches_decode(self, fig1_scheme, fig3_scheme, fig1_desc_scheme):
        for scheme in (fig1_scheme, fig3_scheme, fig1_desc_scheme):
            got = scheme.stream(500)
            assert got == [scheme.decode(v) for v in range(500)]

    # (n, m, k, direction): k = 1, 2 and 3 in both directions, negative
    # steps on the descending ones, and the columns (dx = 0) of S(3)
    RUN_SCHEMES = [
        (8, 5, 1, "asc"), (8, 5, 1, "desc"), (12, 7, 3, "asc"), (12, 7, 3, "desc"),
        (36, 25, 2, "asc"), (48, 37, 1, "desc"), (4, 9, 2, "desc"),
        (3, 1, 1, "asc"), (3, 1, 1, "desc"), (3, 1, 3, "asc"), (3, 1, 3, "desc"),
    ]

    @pytest.mark.parametrize("n, m, k, direction", RUN_SCHEMES)
    def test_every_prefix(self, n, m, k, direction):
        # every count ends some run somewhere in some class, so the prefixes
        # cover each cut run and each interleave of the k class lists
        (entry,) = [e for e in classify(n, m).entries
                    if (e.form.k, e.form.direction.value) == (k, direction)]
        scheme = make_scheme(sector(n, m), entry.poly)
        assert scheme.form.k == k
        full = scheme.stream(400)
        assert full == [scheme.decode(v) for v in range(400)]
        for count in range(401):
            assert scheme.stream(count) == full[:count]

    def test_point_type(self, fig1_scheme, fig3_scheme):
        for scheme in (fig1_scheme, fig3_scheme, make_scheme(sector(3, 1), P_S3)):
            for pt in scheme.stream(50) + [scheme.decode(v) for v in (0, 7, 10**20)]:
                assert type(pt) is LatticePoint
                assert (pt.x, pt.y) == tuple(pt)

    def test_empty_and_negative(self, fig1_scheme, fig3_scheme):
        for scheme in (fig1_scheme, fig3_scheme):
            assert scheme.stream(0) == []
            with pytest.raises(ValueError):
                scheme.stream(-1)

    def test_points_distinct_and_valued_in_order(self, fig3_scheme):
        pts = fig3_scheme.stream(800)
        assert len(set(pts)) == len(pts)
        assert [fig3_scheme.encode(p) for p in pts] == list(range(800))


class TestOtherSectors:
    def test_classified_polys_code(self):
        # every entry in both directions, slope < 1 sectors included
        for n, m in [(12, 7), (36, 25), (36, 13), (4, 9), (2, 3), (1, 2), (48, 37)]:
            for entry in classify(n, m).entries:
                scheme = make_scheme(sector(n, m), entry.poly)
                for value in range(200):
                    assert scheme.encode(scheme.decode(value)) == value

    def test_descending_without_dual(self):
        # S(4/9) has no dual sector (n + 2 - m < 1); its descending entries
        # code on their own staircases, read from the last stair down
        desc = [e for e in classify(4, 9).entries if e.form.direction is Direction.DESCENDING]
        assert [e.form.k for e in desc] == [1, 2]
        for entry in desc:
            assert_round_trips(make_scheme(sector(4, 9), entry.poly))


class TestClosedForm:
    def test_decode_matches_stream_on_grid(self):
        # every classified polynomial on coprime n, m <= 40, both directions:
        # the stream is the enumerate_upto order and decode agrees with it
        checked = refused = 0
        for n in range(1, 41):
            for m in range(1, 41):
                if math.gcd(n, m) != 1:
                    continue
                s = sector(n, m)
                for entry in classify(n, m).entries:
                    try:
                        scheme = make_scheme(s, entry.poly)
                    except ValueError:
                        refused += 1
                        continue
                    points = scheme.stream(500)
                    assert [pt for pt, _ in enumerate_upto(s, entry.poly, 499)] == points, (
                        n, m, entry.poly)
                    assert [scheme.decode(v) for v in range(500)] == points, (n, m, entry.poly)
                    checked += 1
        assert (checked, refused) == (522, 0)

    def test_big_values_round_trip(self, fig1_scheme, fig1_desc_scheme, fig3_scheme):
        # encode is injective on the sector, so contains + re-encode pins the point
        rng = random.Random(5)
        schemes = [fig1_scheme, fig1_desc_scheme, fig3_scheme,
                   make_scheme(sector(36, 25), classify(36, 25).entries[0].poly)]
        for scheme in schemes:
            for _ in range(300):
                value = rng.randrange(10 ** rng.randint(1, 100))
                point = scheme.decode(value)
                assert scheme.sector.contains(point)
                assert scheme.encode(point) == value

    def test_staircase_ends_far_out(self, fig1_scheme, fig1_desc_scheme, fig3_scheme):
        # the first and last stair of far staircases sit where a rounded
        # root or a missed step back would land one staircase off; the last
        # stair of an ascending staircase and the first of a descending one
        # are where decode steps back, and the descending schemes read each
        # staircase from its last stair down
        rng = random.Random(6)
        schemes = [fig1_scheme, fig1_desc_scheme, fig3_scheme] + [
            make_scheme(sector(n, m), QuadPoly.from_string(poly))
            for (n, m), poly in [((48, 37), "24 -36 27/2 7 -11/2 0"),
                                 ((12, 7), "6 -6 3/2 10 -13/2 2"),
                                 ((3, 1), "3/2 0 0 11/2 -3 2")]
        ]
        assert [(sch.form.k, sch.form.direction.value) for sch in schemes[3:]] == [
            (1, "desc"), (3, "desc"), (3, "desc")]
        for scheme in schemes:
            lines = scheme.sector.lines
            for _ in range(300):
                c = rng.randrange(10 ** rng.randint(1, 60))
                x0, z, count = lines.line(c)
                if count == 0:
                    continue
                for t in (0, count - 1):
                    point = LatticePoint(x0 + t * lines.u, z + t * lines.v)
                    assert scheme.decode(scheme.encode(point)) == point

    # coprime n, m <= 60 with n | (m-1)**2: the sectors that carry a packing
    # polynomial, integral ones included
    PACKING_SECTORS = [(n, m) for n in range(1, 61) for m in range(1, 61)
                       if math.gcd(n, m) == 1 and (m - 1) ** 2 % n == 0]

    def test_stair_counts_closed_form(self):
        # v = n/l divides l, so staircase c holds c*L + [v | c] stairs, L = l/v
        for n, m in self.PACKING_SECTORS:
            lines = sector(n, m).lines
            L, rem = divmod(lines.l, lines.v)
            assert rem == 0 and L >= 1, (n, m)
            for c in range(3 * lines.v):
                assert lines.line(c)[2] == c * L + (c % lines.v == 0), (n, m, c)

    def test_k_is_a_unit_mod_the_period(self):
        # k = +-u mod v, so every class of staircases c0 + k*j meets v | c
        # once per v staircases
        for n, m in self.PACKING_SECTORS:
            v = sector(n, m).lines.v
            for entry in classify(n, m).entries:
                assert math.gcd(entry.form.k, v) == 1, (n, m, entry.poly)

    def test_wide_period_round_trip(self):
        # v = 10**6: the scheme holds O(k) integers, none sized by v
        s = sector(10**12, 10**6 + 1)
        scheme = make_scheme(s, QuadPoly.from_string("500000000000 -1000000 1/2 -499999 1/2 0"))
        assert s.lines.v == 10**6 and scheme.form.k == 1
        point = scheme.decode(10**30)
        assert point == (776122791247035, 776121377033472626905)
        assert scheme.encode(point) == 10**30
        assert len(pickle.dumps(scheme)) < 1024
        assert scheme.stream(2000) == [scheme.decode(value) for value in range(2000)]


COPRIME_40 = [(n, m) for n in range(1, 41) for m in range(1, 41) if math.gcd(n, m) == 1]


def closed_form_gap(s, d, k, direction, c):
    """g(c) = S(c + k) - S(c) - k*cnt(c) by the closed forms of step 0 of
    the codec docstring, for the forced-part polynomial with linear
    coefficient d and stair step +-k."""
    lines = s.lines
    v, L = lines.v, lines.l // lines.v
    z, rho = -c * lines.r % v, k * lines.r % v
    if direction is Direction.ASCENDING:
        return k * (Fraction(k * L, 2) + (d - rho) / v + (z < rho) - (z == 0))
    return k * ((d + rho) / v - Fraction(k * L, 2) - (z <= rho))


def scheme_candidates(s, polys):
    """polys and their near-misses on s: f moved by 1, and d moved by 1/2
    with e moved to keep the stair step; on a sector with n | (m-1)**2,
    forced-part lattice pairs with |d2| <= 2 and |e2| <= 2n and an integer
    step, at f = 0 and around the offset that puts their start values
    lowest at 0; and x**2, whose homogeneous part is not the forced one."""
    half, shift = Fraction(1, 2), Fraction(s.m - 1, 2 * s.n)
    out = [QuadPoly(1, 0, 0, 0, 0, 0)]
    for p in polys:
        out += [p, dataclasses.replace(p, f=p.f - 1), dataclasses.replace(p, f=p.f + 1),
                dataclasses.replace(p, d=p.d + half, e=p.e - shift),
                dataclasses.replace(p, d=p.d - half, e=p.e + shift)]
    if (s.m - 1) ** 2 % s.n:
        return out
    forced = stanton_quadratic(s)
    for d2 in range(-2, 3):
        for e2 in range(-2 * s.n, 2 * s.n + 1):
            d, e = Fraction(d2, 2), Fraction(e2, 2 * s.n)
            step = d * s.lines.u + e * s.lines.v
            if step == 0 or step.denominator != 1:
                continue
            out.append(QuadPoly(*forced, d, e, 0))
            try:
                f0 = -min(_start_values(s, d, e, Fraction(0), abs(step.numerator)))
            except (NotConsecutive, ValueError):  # ValueError: an empty staircase
                continue
            out += [QuadPoly(*forced, d, e, f0 + df) for df in (-1, 0, 1)]
    return out


class TestProof:
    def test_classified_chains_close(self):
        # the chain argument on every classified entry, by scan: staircases
        # 0..k-1 start at 0..k-1, and g(c) = 0 for c < 3v + k, which passes
        # every z = -c*r mod v at least three times
        checked = 0
        for n, m in COPRIME_40:
            s = sector(n, m)
            for entry in classify(n, m).entries:
                k = entry.form.k
                assert {start_value_scan(s, entry.poly, c) for c in range(k)} == set(range(k))
                assert not any(chain_gaps(s, entry.poly, k, 3 * s.lines.v + k)), (n, m, entry.poly)
                checked += 1
        assert checked == 522

    @given(
        st.sampled_from([(n, m) for n, m in COPRIME_40 if (m - 1) ** 2 % n == 0]),
        st.sampled_from(Direction),
        st.integers(1, 8),
        st.integers(-40, 40),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_gap_closed_forms(self, nm, direction, k, d2):
        # any forced-part polynomial with stair step +-k, k in any class
        # mod v and d off the necessary coefficient too: the closed forms
        # are the raw gaps
        s = sector(*nm)
        lines = s.lines
        d = Fraction(d2, 2)
        step = k if direction is Direction.ASCENDING else -k
        p = QuadPoly(*stanton_quadratic(s), d, (step - d * lines.u) / lines.v, 0)
        c_max = 3 * lines.v + k
        assert chain_gaps(s, p, k, c_max) == [
            closed_form_gap(s, d, k, direction, c) for c in range(c_max)]

    def test_necessary_coefficients_close_the_chain(self):
        # with k in the direction's class and d necessary, both closed
        # forms vanish on every z
        for n, m in COPRIME_40:
            s = sector(n, m)
            if (m - 1) ** 2 % n:
                continue
            v = s.lines.v
            for direction in Direction:
                res, _ = _residue(s, direction)
                for k in range(res or v, 4 * v, v):
                    d, _ = necessary_coefficients(s, k, direction)
                    assert not any(closed_form_gap(s, d, k, direction, c) for c in range(v)), (
                        n, m, k, direction)

    def test_accepts_exactly_classified(self):
        # coprime n, m <= 30: make_scheme accepts exactly classify's
        # polynomials among scheme_candidates, and refuses each other one
        # with prefix_check's verdict at VERIFY_N, or raises what
        # prefix_check raises
        accepted, classified = set(), set()
        for n, m in COPRIME_40:
            if max(n, m) > 30:
                continue
            s = sector(n, m)
            polys = [entry.poly for entry in classify(n, m).entries]
            classified.update((n, m, p) for p in polys)
            for p in scheme_candidates(s, polys):
                try:
                    make_scheme(s, p)
                except Exception as exc:
                    got = type(exc), str(exc)
                else:
                    accepted.add((n, m, p))
                    continue
                try:
                    report = prefix_check(s, p, VERIFY_N)
                except Exception as exc:
                    assert got == (type(exc), str(exc)), (n, m, p)
                else:
                    assert got == (ValueError, f"not a packing polynomial on S({s}): "
                                               f"{report.describe()}"), (n, m, p)
        assert len(classified) == 359
        assert accepted == classified


class TestCopies:
    def test_pickle_round_trip(self, fig3_scheme):
        copy = pickle.loads(pickle.dumps(fig3_scheme))
        assert copy == fig3_scheme
        assert deepcopy(fig3_scheme) == fig3_scheme
        assert [copy.decode(v) for v in range(500)] == fig3_scheme.stream(500)

    def test_frozen(self, fig1_desc_scheme):
        with pytest.raises(dataclasses.FrozenInstanceError):
            fig1_desc_scheme.poly = P_PLUS


class TestThreads:
    def test_concurrent_cold_decodes(self):
        # Four threads decode large values on one fresh scheme at once, with
        # a tiny switch interval so they interleave inside decode; a scheme
        # holds nothing that changes after construction.
        rng = random.Random(1)
        failures = []

        def work(scheme, values):
            for value in values:
                try:
                    point = scheme.decode(value)
                    if scheme.encode(point) != value:
                        failures.append((value, point))
                except Exception as exc:  # a bad point may fall outside the sector
                    failures.append((value, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                scheme = make_scheme(sector(8, 5), P_PLUS)
                threads = [
                    threading.Thread(
                        target=work,
                        args=(scheme, [rng.randrange(10**9) for _ in range(200)]),
                    )
                    for _ in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
