from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sectorpack import (
    QUADRANT,
    DegenerateDual,
    LatticeMap,
    LatticePoint,
    NegativeImage,
    NotAdmissible,
    NotCoprime,
    NotInvertible,
    PointOutsideSector,
    Quadrant,
    identity_map,
    mod_inverse,
    parse_sector,
    sector,
    t_dual,
    w_reduce,
)
from helpers import first_stair_scan, sector_points, stairs_scan


def coprime_pairs(limit: int) -> list[tuple[int, int]]:
    return [
        (n, m)
        for n in range(1, limit + 1)
        for m in range(1, limit + 1)
        if math.gcd(n, m) == 1
    ]


class TestIntegerHelpers:
    def test_gcd_values(self):
        assert math.gcd(8, 4) == 4
        assert math.gcd(36, 24) == 12
        assert math.gcd(12, 6) == 6
        assert math.gcd(0, 5) == 5

    def test_mod_inverse_values(self):
        assert mod_inverse(2, 3) == 2
        assert mod_inverse(3, 4) == 3
        assert mod_inverse(7, 1) == 0
        assert mod_inverse(-1, 5) == 4

    def test_mod_inverse_not_invertible(self):
        with pytest.raises(NotInvertible):
            mod_inverse(2, 4)

    @given(st.integers(1, 500), st.integers(2, 500))
    @settings(max_examples=200, derandomize=True)
    def test_mod_inverse_property(self, a, modulus):
        if math.gcd(a, modulus) != 1:
            with pytest.raises(NotInvertible):
                mod_inverse(a, modulus)
        else:
            r = mod_inverse(a, modulus)
            assert 0 <= r < modulus
            assert (a * r) % modulus == 1


class TestSectorBasics:
    def test_construction(self):
        assert sector(8, 5).l == 4
        assert sector(12, 7).l == 6
        assert sector(9, 1).l == 9  # gcd(n, 0) convention

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            sector(6, 4)

    def test_parse(self):
        assert parse_sector("8/5") == sector(8, 5)
        assert parse_sector("4") == sector(4, 1)
        with pytest.raises(ValueError):
            parse_sector("8/5/3")
        with pytest.raises(ValueError):
            parse_sector("abc")

    def test_contains(self):
        s = sector(8, 5)
        assert s.contains(LatticePoint(2, 3))
        assert not s.contains(LatticePoint(1, 2))
        assert s.contains(LatticePoint(0, 0))
        assert not s.contains(LatticePoint(-1, 0))

    def test_slope(self):
        assert sector(8, 5).slope == 8 / 5 or str(sector(8, 5).slope) == "8/5"


class TestStaircases:
    def test_staircase_index(self):
        assert sector(8, 5).staircase_index(LatticePoint(2, 3)) == 1
        assert sector(12, 7).staircase_index(LatticePoint(2, 3)) == 1
        assert sector(8, 5).staircase_index(LatticePoint(0, 0)) == 0

    def test_staircase_index_outside(self):
        with pytest.raises(PointOutsideSector):
            sector(8, 5).staircase_index(LatticePoint(1, 2))

    def test_integral_staircases_are_columns(self):
        for n in (1, 2, 4, 7):
            s = sector(n, 1)
            assert (s.lines.u, s.lines.v) == (0, 1)
            for c in range(12):
                assert s.first_stair(c) == LatticePoint(c, 0)
                assert s.stair_count(c) == n * c + 1
                assert stairs_scan(s, c) == [LatticePoint(c, y) for y in range(n * c + 1)]
            for p in sector_points(s, 12):
                assert s.staircase_index(p) == p.x

    def test_first_stair_examples(self):
        assert sector(12, 7).first_stair(1) == LatticePoint(1, 1)
        assert sector(36, 25).first_stair(2) == LatticePoint(2, 2)
        assert sector(8, 5).first_stair(0) == LatticePoint(0, 0)

    def test_first_stair_matches_line_scan(self):
        integral = [(1, 1), (3, 1), (4, 1)]
        for n, m in [(8, 5), (12, 7), (36, 25), (7, 3), (25, 6), (4, 9), (1, 7), *integral]:
            s = sector(n, m)
            for c in range(0, 201, 7):
                assert s.first_stair(c) == first_stair_scan(s, c), (n, m, c)

    def test_stair_count_examples(self):
        assert sector(8, 5).stair_count(2) == 5
        assert sector(36, 25).stair_count(2) == 8
        assert sector(12, 7).stair_count(0) == 1

    def test_stairs_examples(self):
        # a staircase's stairs are its first stair and stair_count - 1 steps
        # (u, v) on; staircase 1 of S(8/5) and S(12/7), staircase 0 of S(8/5)
        for (n, m), c, stairs in [
            ((8, 5), 1, [(1, 1), (2, 3)]),
            ((12, 7), 1, [(1, 1), (2, 3), (3, 5)]),
            ((8, 5), 0, [(0, 0)]),
        ]:
            s = sector(n, m)
            assert stairs_scan(s, c) == [LatticePoint(*q) for q in stairs]
            assert (s.first_stair(c), s.stair_count(c)) == (stairs[0], len(stairs))

    def test_stairs_match_scan_and_count(self):
        # LineFamily.line's (x0, z, count) and step (u, v) give exactly the
        # scanned stairs, on an empty staircase too (S(2/3) and S(7/3))
        for n, m in [(8, 5), (12, 7), (36, 25), (2, 3), (7, 3), (3, 1)]:
            s = sector(n, m)
            u, v = s.lines.u, s.lines.v
            for c in range(40):
                x0, z, count = s.lines.line(c)
                listed = [LatticePoint(x0 + t * u, z + t * v) for t in range(count)]
                assert listed == stairs_scan(s, c), (n, m, c)
                assert len(listed) == s.stair_count(c)

    def test_consecutive_stairs_differ_by_step(self):
        for n, m in [(8, 5), (12, 7), (36, 25)]:
            s = sector(n, m)
            dx, dy = s.lines.u, s.lines.v
            for c in range(30):
                pts = stairs_scan(s, c)
                for a, b in zip(pts, pts[1:]):
                    assert (b.x - a.x, b.y - a.y) == (dx, dy)

    def test_partition_property(self):
        # staircases are pairwise disjoint and cover the sector's points
        for n, m in [(8, 5), (12, 7), (5, 3), (4, 9), (25, 6)]:
            s = sector(n, m)
            points = sector_points(s, 100)
            seen = {}
            for p in points:
                c = s.staircase_index(p)
                assert p in stairs_scan(s, c, p.x), (n, m, p)
                assert p not in seen or seen[p] == c
                seen[p] = c
            by_c: dict[int, set] = {}
            for p, c in seen.items():
                by_c.setdefault(c, set()).add(p)
            # disjointness comes with the indexing; check the union covers
            assert sum(len(v) for v in by_c.values()) == len(points)

    def test_staircase_accessors(self):
        s = sector(8, 5)
        assert s.first_stair(2) == LatticePoint(1, 0)
        assert (s.lines.u, s.lines.v) == (1, 2)
        assert s.stair_count(2) == 5
        assert stairs_scan(s, 2) == [LatticePoint(1 + t, 2 * t) for t in range(5)]


class TestWReduction:
    def test_examples(self):
        target, w = w_reduce(sector(4, 9))
        assert target == sector(4, 1)
        assert (w.a11, w.a12, w.a21, w.a22) == (1, -2, 0, 1)

        target, w = w_reduce(sector(3, 10))
        assert target == sector(3, 1)
        assert (w.a11, w.a12, w.a21, w.a22) == (1, -3, 0, 1)

        target, w = w_reduce(sector(8, 5))
        assert target == sector(8, 5)
        assert w.is_identity()

    def test_quadrant_target(self):
        target, w = w_reduce(sector(1, 7))
        assert isinstance(target, Quadrant)
        assert (w.a11, w.a12, w.a21, w.a22) == (1, -7, 0, 1)
        target, _ = w_reduce(sector(1, 1))
        assert target is QUADRANT or isinstance(target, Quadrant)

    def test_bijective_on_sample(self):
        for n, m in [(4, 9), (3, 10), (5, 8), (1, 4), (2, 11)]:
            s = sector(n, m)
            target, w = w_reduce(s)
            images = [w.apply(p) for p in sector_points(s, 60)]
            assert len(set(images)) == len(images)
            assert all(target.contains(q) for q in images)

    def test_apply_map_example(self):
        _, w = w_reduce(sector(4, 9))
        assert w.apply(LatticePoint(9, 4)) == LatticePoint(1, 4)


class TestTDuality:
    def test_self_dual_example(self):
        dual, t = t_dual(sector(8, 5))
        assert dual == sector(8, 5)
        assert (t.a11, t.a12, t.a21, t.a22) == (5, -3, 8, -5)
        assert t.det == -1
        assert t.compose(t).is_identity()

    def test_twelve_sevenths(self):
        dual, t = t_dual(sector(12, 7))
        assert dual == sector(12, 7)
        assert t.det == -1

    def test_asymmetric_example(self):
        dual, t = t_dual(sector(36, 25))
        assert dual == sector(36, 13)
        assert (t.a11, t.a12, t.a21, t.a22) == (13, -9, 36, -25)

    def test_maps_points_into_dual(self):
        for n, m in [(8, 5), (12, 7), (36, 25), (36, 13), (25, 6)]:
            s = sector(n, m)
            dual, t = t_dual(s)
            for p in sector_points(s, 60):
                assert dual.contains(t.apply(p)), (n, m, p)

    def test_involution_when_self_dual(self):
        s = sector(12, 7)
        _, t = t_dual(s)
        for p in sector_points(s, 40):
            assert t.apply(t.apply(p)) == p

    def test_double_dual_is_inverse(self):
        s = sector(36, 25)
        dual, t = t_dual(s)
        _, t_back = t_dual(dual)
        assert t_back.compose(t).is_identity()

    def test_errors(self):
        with pytest.raises(NotAdmissible):
            t_dual(sector(7, 3))  # 7 does not divide 4
        with pytest.raises(DegenerateDual):
            t_dual(sector(4, 9))  # n + 2 - m < 1

    def test_integral_sector_dual(self):
        # S(4/1) and S(4/5) are dual to one another; the two maps are inverse
        s = sector(4, 1)
        dual, t = t_dual(s)
        assert dual == sector(4, 5)
        assert (t.a11, t.a12, t.a21, t.a22, t.det) == (5, -1, 4, -1, -1)
        back_sector, back = t_dual(dual)
        assert back_sector == s
        assert back.compose(t).is_identity()
        for p in sector_points(s, 40):
            assert dual.contains(t.apply(p))
            assert back.apply(t.apply(p)) == p

    def test_apply_map_example(self):
        _, t = t_dual(sector(8, 5))
        assert t.apply(LatticePoint(1, 1)) == LatticePoint(2, 3)


class TestLatticeMap:
    def test_identity(self):
        s = sector(8, 5)
        assert identity_map(s).apply(LatticePoint(5, 2)) == LatticePoint(5, 2)

    def test_outside_source_rejected(self):
        _, t = t_dual(sector(8, 5))
        with pytest.raises(PointOutsideSector):
            t.apply(LatticePoint(1, 2))

    def test_negative_image_detected(self):
        s = sector(2, 1)
        bad = LatticeMap(1, -1, 0, 1, source=s, target=s)
        with pytest.raises(NegativeImage):
            bad.apply(LatticePoint(1, 2))

    def test_inverse_roundtrip(self):
        for s in [sector(8, 5), sector(36, 25)]:
            _, t = t_dual(s)
            assert t.inverse().compose(t).is_identity()
            assert t.compose(t.inverse()).is_identity()
        _, w = w_reduce(sector(4, 9))
        assert w.inverse().compose(w).is_identity()

    def test_json_dict(self):
        _, t = t_dual(sector(36, 25))
        data = t.to_json_dict()
        assert data == {
            "a11": 13, "a12": -9, "a21": 36, "a22": -25,
            "source": "36/25", "target": "36/13",
        }

    def test_json_quadrant_target(self):
        _, w = w_reduce(sector(1, 3))
        data = w.to_json_dict()
        assert data["target"] == "quadrant"


@given(st.sampled_from(coprime_pairs(12)), st.integers(0, 60), st.integers(0, 60))
@settings(max_examples=300, derandomize=True)
def test_staircase_index_consistency(nm, x, y):
    n, m = nm
    s = sector(n, m)
    p = LatticePoint(x, y)
    if not s.contains(p):
        return
    c = s.staircase_index(p)
    assert c >= 0
    assert p in stairs_scan(s, c, p.x)


@given(st.sampled_from(coprime_pairs(60)), st.integers(0, 200))
@example((4, 1), 7)
@example((1, 1), 0)
@example((60, 1), 200)
@settings(max_examples=300, derandomize=True)
def test_line_family_matches_scan(nm, c):
    # Scan y upward for the lattice points of line (m-1)*y = n*x - c*l; a
    # sector point on it has y <= c*l, and the first one has y < n/l.
    s = sector(*nm)
    n, m, l = s.n, s.m, s.l
    on_line = [
        LatticePoint(((m - 1) * y + c * l) // n, y)
        for y in range(c * l + n)
        if ((m - 1) * y + c * l) % n == 0
    ]
    inside = [p for p in on_line if s.contains(p)]
    x0, z, count = s.lines.line(c)
    assert (x0, z) == on_line[0]
    assert count == len(inside)
    assert inside == on_line[:count]
    if m == 1:
        assert (x0, z, count) == (c, 0, n * c + 1)
