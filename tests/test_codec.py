from __future__ import annotations

import pickle
import random
import sys
import threading

import pytest

from sectorpack import (
    Direction,
    LatticePoint,
    PointOutsideSector,
    QuadPoly,
    classify,
    make_scheme,
    sector,
)
from sectorpack.codec import decode, encode, stream

P_PLUS = QuadPoly.from_string("4 -4 1 -1 1 0")
P_MINUS = QuadPoly.from_string("4 -4 1 3 -2 0")
P127 = QuadPoly.from_string("6 -6 3/2 -8 11/2 2")


@pytest.fixture(scope="module")
def fig1_scheme():
    return make_scheme(sector(8, 5), P_PLUS, 500)


@pytest.fixture(scope="module")
def fig1_desc_scheme():
    return make_scheme(sector(8, 5), P_MINUS, 500)


@pytest.fixture(scope="module")
def fig3_scheme():
    return make_scheme(sector(12, 7), P127, 500)


class TestConstruction:
    def test_metadata(self, fig1_scheme):
        assert fig1_scheme.form.k == 1
        assert fig1_scheme.first_stair_values == (0,)
        assert fig1_scheme.verified_n == 500

    def test_first_stair_values_permutation(self, fig3_scheme):
        assert sorted(fig3_scheme.first_stair_values) == [0, 1, 2]
        assert fig3_scheme.first_stair_values == (2, 1, 0)

    def test_verify_floor_is_enforced(self):
        scheme = make_scheme(sector(8, 5), P_PLUS, 10)
        assert scheme.verified_n == 500

    def test_rejects_non_packing(self):
        with pytest.raises(ValueError):
            make_scheme(sector(8, 5), P_PLUS.with_offset(3), 500)

    def test_rejects_integral_sector(self):
        with pytest.raises(ValueError):
            make_scheme(sector(4, 1), QuadPoly.from_string("2 0 0 -1 1 0"), 500)

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
        assert encode(fig1_scheme, LatticePoint(4, 5)) == 10
        assert decode(fig1_scheme, 10) == LatticePoint(4, 5)
        assert encode(fig1_scheme, LatticePoint(0, 0)) == 0
        assert decode(fig1_scheme, 0) == LatticePoint(0, 0)
        assert encode(fig3_scheme, LatticePoint(2, 3)) == 4
        assert decode(fig3_scheme, 4) == LatticePoint(2, 3)
        assert decode(fig3_scheme, 2) == LatticePoint(0, 0)  # value f

    def test_outside_sector(self, fig1_scheme):
        with pytest.raises(PointOutsideSector):
            encode(fig1_scheme, LatticePoint(1, 2))

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
        assert decode(fig1_desc_scheme, 0) == LatticePoint(0, 0)
        # last stair of staircase 1 carries value 1 for the descending twin
        assert fig1_desc_scheme.encode(LatticePoint(2, 3)) == 1

    def test_per_class_value_sets(self, fig3_scheme):
        # the staircase class c mod k sweeps out exactly first_value + k*N
        k = fig3_scheme.form.k
        s = fig3_scheme.sector
        for value in range(10_000):
            pt = fig3_scheme.decode(value)
            c0 = s.staircase_index(pt) % k
            assert value % k == fig3_scheme.first_stair_values[c0] % k


class TestStream:
    def test_examples(self, fig1_scheme, fig3_scheme):
        assert [tuple(p) for p in stream(fig1_scheme, 4)] == [
            (0, 0),
            (1, 1),
            (2, 3),
            (1, 0),
        ]
        assert [tuple(p) for p in stream(fig1_scheme, 1)] == [(0, 0)]
        assert [tuple(p) for p in stream(fig3_scheme, 3)] == [(1, 0), (1, 1), (0, 0)]

    def test_matches_decode(self, fig1_scheme, fig3_scheme, fig1_desc_scheme):
        for scheme in (fig1_scheme, fig3_scheme, fig1_desc_scheme):
            got = stream(scheme, 500)
            assert got == [scheme.decode(v) for v in range(500)]

    def test_points_distinct_and_valued_in_order(self, fig3_scheme):
        pts = stream(fig3_scheme, 800)
        assert len(set(pts)) == len(pts)
        assert [fig3_scheme.encode(p) for p in pts] == list(range(800))


class TestOtherSectors:
    def test_classified_polys_code(self):
        # ascending entries everywhere; descending ones wherever the dual
        # is itself a staircase sector (always the case for slope > 1)
        for n, m in [(12, 7), (36, 25), (36, 13), (4, 9), (2, 3), (1, 2), (48, 37)]:
            for entry in classify(n, m).entries:
                if entry.form.direction is Direction.DESCENDING and n <= m:
                    continue
                scheme = make_scheme(sector(n, m), entry.poly, 500)
                for value in range(200):
                    assert scheme.encode(scheme.decode(value)) == value

    def test_descending_needs_staircase_dual(self):
        desc_49 = classify(4, 9).entries[1]
        assert desc_49.form.direction is Direction.DESCENDING
        with pytest.raises(ValueError):
            make_scheme(sector(4, 9), desc_49.poly, 500)


class TestCopies:
    def test_pickle_round_trip(self, fig3_scheme):
        copy = pickle.loads(pickle.dumps(fig3_scheme))
        assert copy == fig3_scheme
        assert copy._lock is not fig3_scheme._lock
        assert [copy.decode(v) for v in range(500)] == stream(fig3_scheme, 500)


class TestThreads:
    def test_concurrent_cold_decodes(self):
        # Four threads decode large values on fresh schemes at once, so they
        # grow the same cumulative-count cache together; a tiny switch
        # interval makes them interleave inside the growth loop.
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
                scheme = make_scheme(sector(8, 5), P_PLUS, 500)
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
