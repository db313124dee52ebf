from __future__ import annotations

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorpack import (
    Direction,
    LatticeMap,
    LatticePoint,
    NotCoprime,
    Provenance,
    QuadPoly,
    Quadrant,
    SectorPackError,
    admissible_ks,
    cantor_polys,
    classify,
    kstair_extract,
    nathanson_polys,
    prefix_check,
    sector,
    stanton_check,
    t_dual,
    w_reduce,
)

from helpers import compose_reference

ASC, DESC = Direction.ASCENDING, Direction.DESCENDING
# sha256 of classification_listing(60), recorded when descending polynomials
# were still built on the dual sector.  It pins every entry on the coprime
# n, m <= 60 grid: coefficients, forms, provenance and transport chains.
CLASSIFY_SHA256 = "54debedde00433b011b781d35194acad7803f5cb381cbd574ad9d07cc0039a4a"


def coprime_pairs(limit):
    return [
        (n, m)
        for n in range(1, limit + 1)
        for m in range(1, limit + 1)
        if math.gcd(n, m) == 1
    ]


def classification_listing(limit):
    """One sorted-key JSON line of classify(n, m) per coprime pair, n outer."""
    return "".join(
        json.dumps(classify(n, m).to_json_dict(), sort_keys=True) + "\n"
        for n, m in coprime_pairs(limit)
    )


def test_classification_pinned():
    digest = hashlib.sha256(classification_listing(60).encode("utf-8")).hexdigest()
    assert digest == CLASSIFY_SHA256


class TestAdmissibleKs:
    def test_examples(self):
        assert admissible_ks(8, 5) == {(1, ASC), (1, DESC)}
        assert admissible_ks(12, 7) == {(1, ASC), (3, ASC), (1, DESC), (3, DESC)}
        assert admissible_ks(36, 25) == {(2, ASC), (1, DESC)}
        assert admissible_ks(7, 3) == set()

    def test_dual_symmetry(self):
        assert admissible_ks(36, 13) == {(1, ASC), (2, DESC)}
        assert admissible_ks(48, 37) == {(3, ASC), (1, DESC)}
        assert admissible_ks(48, 13) == {(1, ASC), (3, DESC)}

    def test_no_k_above_three(self):
        for n, m in coprime_pairs(40):
            if m < 2 or n <= m:
                continue
            assert all(k <= 3 for k, _ in admissible_ks(n, m)), (n, m)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            admissible_ks(6, 4)
        with pytest.raises(ValueError):
            admissible_ks(4, 1)
        with pytest.raises(ValueError):
            admissible_ks(4, 9)


class TestClassicalFamilies:
    def test_nathanson_examples(self):
        f2, g2 = nathanson_polys(2)
        assert f2 == QuadPoly.from_string("1 0 0 0 1 0")
        assert f2.eval(LatticePoint(1, 2)) == 3
        assert g2 == QuadPoly.from_string("1 0 0 2 -1 0")
        assert g2.eval(LatticePoint(1, 0)) == 3
        f1, _ = nathanson_polys(1)
        assert f1.eval(LatticePoint(0, 0)) == 0

    def test_cantor_examples(self):
        f, g = cantor_polys()
        assert f.eval(LatticePoint(0, 0)) == 0
        assert f.eval(LatticePoint(0, 1)) == 2
        assert f.eval(LatticePoint(1, 0)) == 1
        assert g.eval(LatticePoint(1, 0)) == 2

    def test_nathanson_flip_relation(self):
        # g_n is f_n composed with the sector's order-2 automorphism
        from sectorpack import LatticeMap

        for n in range(1, 8):
            f_n, g_n = nathanson_polys(n)
            s = sector(n, 1)
            flip = LatticeMap(1, 0, n, -1, source=s, target=s)
            assert f_n.compose(flip) == g_n


class TestClassify:
    def test_fig1(self):
        result = classify(8, 5)
        polys = [e.poly.to_string() for e in result.entries]
        assert polys == ["4 -4 1 -1 1 0", "4 -4 1 3 -2 0"]
        assert [e.provenance for e in result.entries] == [
            Provenance.STAIR_ASC,
            Provenance.STAIR_DESC,
        ]

    def test_fig3(self):
        result = classify(12, 7)
        assert len(result.entries) == 4
        assert sorted({e.form.k for e in result.entries}) == [1, 3]
        three_stair = [e for e in result.entries if e.form.k == 3 and e.form.direction is ASC]
        assert three_stair[0].poly == QuadPoly.from_string("6 -6 3/2 -8 11/2 2")

    def test_empty(self):
        assert classify(7, 3).entries == ()

    def test_reduction_case(self):
        # classify(4, 9) is classify(4, 1) pulled back through the shear
        result = classify(4, 9)
        base = classify(4, 1)
        s = sector(4, 9)
        _, w = w_reduce(s)
        pulled = sorted(e.poly.compose(w).coefficients() for e in base.entries)
        assert sorted(e.poly.coefficients() for e in result.entries) == pulled
        assert all(e.transport is not None for e in result.entries)

    def test_integral_extras(self):
        assert [e.poly.to_string() for e in classify(4, 1).entries] == [
            "2 0 0 -1 1 0",
            "2 0 0 3 -1 0",
            "2 0 0 -3 2 1",
            "2 0 0 5 -2 1",
        ]
        assert [e.poly.to_string() for e in classify(3, 1).entries] == [
            "3/2 0 0 -1/2 1 0",
            "3/2 0 0 5/2 -1 0",
            "3/2 0 0 -7/2 3 2",
            "3/2 0 0 11/2 -3 2",
        ]

    def test_plain_integral(self):
        for n in (1, 2, 5, 6, 10):
            result = classify(n, 1)
            f_n, g_n = nathanson_polys(n)
            assert result.polynomials() == [f_n, g_n]

    def test_quadrant_case(self):
        # S(1/m) carries exactly the diagonal pairing polynomials, sheared
        result = classify(1, 3)
        assert len(result.entries) == 2
        assert {e.provenance for e in result.entries} == {
            Provenance.CANTOR_F,
            Provenance.CANTOR_G,
        }
        s = sector(1, 3)
        _, w = w_reduce(s)
        cf, cg = cantor_polys()
        assert result.entries[0].poly == cf.compose(w)
        assert result.entries[1].poly == cg.compose(w)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            classify(6, 4)

    def test_entry_order_and_dedup(self):
        # sorted by (k, direction), which no two entries share, so the sort
        # alone orders them and no polynomial repeats
        for n, m in coprime_pairs(100):
            entries = classify(n, m).entries
            keys = [(e.form.k, 0 if e.form.direction is ASC else 1) for e in entries]
            assert keys == sorted(set(keys)), (n, m)
            coeffs = [e.poly.coefficients() for e in entries]
            assert len(set(coeffs)) == len(coeffs), (n, m)

    def test_soundness_small_range(self):
        # every classified polynomial really packs, verified to N = 500
        for n, m in coprime_pairs(12):
            s = sector(n, m)
            for entry in classify(n, m).entries:
                report = prefix_check(s, entry.poly, 500)
                assert report.ok, (n, m, entry.poly.to_string(), report.describe())
                assert stanton_check(s, entry.poly)
                assert entry.poly.is_integer_valued()

    def test_k_bound(self):
        for n, m in coprime_pairs(25):
            assert all(e.form.k <= 3 for e in classify(n, m).entries), (n, m)

    def test_duality_coherence(self):
        # each descending entry is the transported ascending entry of the dual
        for n, m in coprime_pairs(20):
            if m < 2 or n <= m or (m - 1) ** 2 % n != 0:
                continue
            s = sector(n, m)
            dual, t = t_dual(s)
            desc_here = {
                e.form.k: e.poly for e in classify(n, m).entries if e.form.direction is DESC
            }
            asc_dual = {
                e.form.k: e.poly
                for e in classify(dual.n, dual.m).entries
                if e.form.direction is ASC
            }
            for k, poly in desc_here.items():
                assert asc_dual[k].compose(t) == poly, (n, m, k)

    def test_transport_chain_is_single_matrix(self):
        # pulled-back entries expose one composed map; applying it lands in
        # the base sector and reproduces the polynomial values
        result = classify(3, 10)
        base = {e.poly.coefficients(): e for e in classify(3, 1).entries}
        for entry in result.entries:
            chain = entry.transport
            assert chain is not None
            assert str(chain.source) == "3/10"

    def test_json_schema(self):
        data = classify(12, 7).to_json_dict()
        assert data["sector"] == "12/7"
        assert len(data["entries"]) == 4
        entry = data["entries"][2]
        assert entry["poly"] == "6 -6 3/2 -8 11/2 2"
        assert entry["k"] == 3
        assert entry["direction"] == "asc"
        assert entry["transport"] is None
        reduced = classify(4, 9).to_json_dict()
        assert all(e["transport"] is not None for e in reduced["entries"])

    def test_forms_match_extraction(self):
        # every form classify carries, through shears too, is the one read
        # off its polynomial, q included
        for n, m in coprime_pairs(60):
            s = sector(n, m)
            for entry in classify(n, m).entries:
                assert kstair_extract(s, entry.poly) == entry.form, (n, m)
                if m == 1:
                    assert entry.form.q == entry.form.k, n


# Coprime n, m <= 40 with at least one classified polynomial.
CLASSIFIED_PAIRS = [(n, m) for n, m in coprime_pairs(40) if classify(n, m).entries]


class TestTransportKeepsPacking:
    @given(st.sampled_from(CLASSIFIED_PAIRS))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_reduced_and_dual_sectors(self, nm):
        # p packs S(n/m); p o M^-1 must pack the image of S(n/m) under M
        s = sector(*nm)
        maps = [w_reduce(s)]
        try:
            maps.append(t_dual(s))
        except SectorPackError:
            pass  # no dual sector
        for target, mapping in maps:
            if isinstance(target, Quadrant):
                continue
            for entry in classify(*nm).entries:
                carried = entry.poly.compose(mapping.inverse())
                report = prefix_check(target, carried, 300)
                assert report.ok, (nm, str(target), entry.poly.to_string(), report.describe())


class TestShearClass:
    def test_classify_commutes_with_the_shear(self):
        # T(x, y) = (x + q*y, y), q = (m - m0)/n and m0 = (m - 1) mod n + 1,
        # maps the lattice points of S(n/m0) one to one onto those of
        # S(n/m), so p packs S(n/m) iff p o T packs S(n/m0).  classify's
        # list on S(n/m) is its list on S(n/m0) with x replaced by x - q*y,
        # each substituted term by term (not by QuadPoly.compose), so
        # classify is complete on S(n/m) iff it is on S(n/m0)
        checked = polys = 0
        for n in range(1, 101):
            for m in range(n + 1, 401):
                if math.gcd(n, m) != 1 or (m - 1) ** 2 % n:
                    continue  # not coprime, or no integer-valued lattice
                m0 = (m - 1) % n + 1
                q = (m - m0) // n
                # (x, y) -> (x - q*y, y), from S(n/m) onto S(n/m0)
                back = LatticeMap(1, -q, 0, 1, source=sector(n, m), target=sector(n, m0))
                want = {
                    compose_reference(p, back).coefficients()
                    for p in classify(n, m0).polynomials()
                }
                assert {p.coefficients() for p in classify(n, m).polynomials()} == want, (n, m)
                checked += 1
                polys += len(want)
        assert (checked, polys) == (2_999, 5_824)
