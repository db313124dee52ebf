"""Edge cases around duality, shearing, and out-of-range witnesses."""

from __future__ import annotations

import pytest

from sectorpack import (
    Direction,
    LatticePoint,
    QuadPoly,
    SearchParams,
    admissible_ks,
    classify,
    prefix_check,
    search,
    sector,
    t_dual,
)
from sectorpack.cli import main

ASC, DESC = Direction.ASCENDING, Direction.DESCENDING


class TestAsymmetricDualPairs:
    def test_sixteen_family(self):
        assert admissible_ks(16, 9) == {(1, ASC), (1, DESC)}  # self-dual
        # S(16/5) has only the ascending 1-stair: its dual S(16/13) fails
        # the divisor condition (12 does not divide 16), and vice versa
        assert admissible_ks(16, 5) == {(1, ASC)}
        assert admissible_ks(16, 13) == {(1, DESC)}

    def test_sixteen_five_vs_thirteen(self):
        # S(16/5) and S(16/13) are dual to one another
        s, t = sector(16, 5), None
        dual, t = t_dual(s)
        assert dual == sector(16, 13)
        asc_5 = [e for e in classify(16, 5).entries if e.form.direction is ASC][0]
        desc_13 = [e for e in classify(16, 13).entries if e.form.direction is DESC][0]
        _, t_back = t_dual(dual)
        assert asc_5.poly.compose(t_back) == desc_13.poly

    def test_dual_with_integral_target_still_maps_points(self):
        # n + 2 - m = 1 passes the guards; the map lands in S(n/1)
        s = sector(2, 3)
        dual, t = t_dual(s)
        assert dual == sector(2, 1)
        for x in range(20):
            for y in range(x * 2 // 3 + 1):
                assert dual.contains(t.apply(LatticePoint(x, y)))


class TestShallowSlopeMetadata:
    def test_extract_q_on_shallow_sector(self):
        # on S(4/9) every k is admissible mod n/l = 1; q counts whole steps
        s = sector(4, 9)
        entries = classify(4, 9).entries
        forms = {(e.form.k, e.form.direction): e.form.q for e in entries}
        assert forms[(1, ASC)] == 1
        assert forms[(2, ASC)] == 2

    def test_shallow_search_matches_pullback(self):
        # searching S(3/28) directly agrees with classify through the shear
        s = sector(3, 28)
        found = search(s, SearchParams(300, 6, 10, 40))
        assert sorted(p.coefficients() for p in found) == sorted(
            e.poly.coefficients() for e in classify(3, 28).entries
        )
        assert len(found) == 4


class TestBeyondSweepWitnesses:
    def test_k2_witness_m41(self):
        # m = 41 is 9 mod 16 with n = (m-1)^2/16 = 100
        entries = classify(100, 41).entries
        assert [(e.form.k, e.form.direction) for e in entries] == [(2, ASC)]
        assert entries[0].poly == QuadPoly.from_string("50 -40 8 -19 8 1")
        assert prefix_check(sector(100, 41), entries[0].poly, 1500).ok

    def test_k3_witness_m46(self):
        # m = 46 is 19 mod 27 with n = (m-1)^2/27 = 75
        entries = classify(75, 46).entries
        assert [(e.form.k, e.form.direction) for e in entries] == [(3, ASC)]
        assert prefix_check(sector(75, 46), entries[0].poly, 1500).ok

    def test_search_agrees_on_witnesses(self):
        for n, m in ((100, 41), (75, 46)):
            found = search(sector(n, m), SearchParams(300, 6, 10, 40))
            assert sorted(p.coefficients() for p in found) == sorted(
                e.poly.coefficients() for e in classify(n, m).entries
            )


class TestCliEdges:
    def test_decode_negative_value_exits_2(self, capsys):
        code = main(
            ["decode", "8/5", "--poly", "4 -4 1 -1 1 0", "--value", "-3"]
        )
        assert code == 2

    def test_point_with_negative_coordinate_exits_2(self, capsys):
        code = main(
            ["encode", "8/5", "--poly", "4 -4 1 -1 1 0", "--point=-1,0"]
        )
        assert code == 2

    def test_render_single_point_svg(self, capsys):
        code = main(
            ["render", "8/5", "--poly", "4 -4 1 -1 1 0", "--max-x", "0",
             "--format", "svg"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("<circle") == 1
