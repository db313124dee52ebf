from __future__ import annotations

import dataclasses
import importlib
import math
import pickle
import random
import sys
import threading
from copy import deepcopy

import pytest

from sectorpack import (
    Direction,
    LatticePoint,
    PointOutsideSector,
    PrefixReport,
    PrefixStatus,
    QuadPoly,
    classify,
    enumerate_upto,
    make_scheme,
    necessary_coefficients,
    sector,
    stanton_quadratic,
)

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
        assert fig1_scheme.verified_n == 500

    def test_first_stair_values_permutation(self, fig3_scheme):
        s = fig3_scheme.sector
        values = tuple(fig3_scheme.encode(s.first_stair(c)) for c in range(3))
        assert sorted(values) == [0, 1, 2]
        assert values == (2, 1, 0)

    def test_verify_depth_is_fixed(self, monkeypatch):
        # every scheme is prefix-checked at the one depth VERIFY_N = 500
        codec = importlib.import_module("sectorpack.codec")
        depths = []
        check = codec.prefix_check
        monkeypatch.setattr(codec, "prefix_check", lambda s, p, n: depths.append(n) or check(s, p, n))
        assert make_scheme(sector(8, 5), P_PLUS).verified_n == codec.VERIFY_N == 500
        assert depths == [500]
        with pytest.raises(TypeError):
            make_scheme(sector(8, 5), P_PLUS, 10)

    def test_rejects_non_packing(self):
        with pytest.raises(ValueError):
            make_scheme(sector(8, 5), dataclasses.replace(P_PLUS, f=3))

    def test_rejects_start_values_off_zero(self, monkeypatch):
        # past the prefix check, the start stairs of staircases 0..k-1 must
        # carry 0..k-1; a stub prefix check lets through polynomials whose
        # start values begin at 3, or repeat (k = 3 on S(8/5))
        codec = importlib.import_module("sectorpack.codec")
        ok = PrefixReport(PrefixStatus.OK, checked_upto=500, points=501)
        monkeypatch.setattr(codec, "prefix_check", lambda s, p, n: ok)
        s = sector(8, 5)
        with pytest.raises(ValueError, match=r"^start-stair values 3\.\.3 are not 0\.\.0$"):
            make_scheme(s, dataclasses.replace(P_PLUS, f=3))
        d, e = necessary_coefficients(s, 3, Direction.ASCENDING)
        with pytest.raises(ValueError, match="staircase 1 repeats start-stair value 0"):
            make_scheme(s, QuadPoly(*stanton_quadratic(s), d, e, 0))

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
            "verified_N": 500,
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


class TestCopies:
    def test_pickle_round_trip(self, fig3_scheme):
        copy = pickle.loads(pickle.dumps(fig3_scheme))
        assert copy == fig3_scheme
        assert deepcopy(fig3_scheme) == fig3_scheme
        assert [copy.decode(v) for v in range(500)] == fig3_scheme.stream(500)

    def test_frozen(self, fig1_desc_scheme):
        with pytest.raises(dataclasses.FrozenInstanceError):
            fig1_desc_scheme.verified_n = 0


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
