from __future__ import annotations

import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorpack import (
    CongruenceViolation,
    DegenerateDual,
    Direction,
    LatticeMap,
    LatticePoint,
    NonIntegralOffset,
    NotAdmissible,
    NotConsecutive,
    QuadPoly,
    SectorPackError,
    ZeroStep,
    cantor_polys,
    classify,
    construct,
    kstair_extract,
    nathanson_polys,
    necessary_coefficients,
    prefix_check,
    sector,
    stanton_check,
    stanton_quadratic,
    t_dual,
)
from sectorpack.polynomials import _stair_pair, _start_stairs, _start_values
from helpers import compose_reference, construct_via_dual, eval_raw, offset_reference, stairs_scan

P_PLUS = QuadPoly.from_string("4 -4 1 -1 1 0")
P_MINUS = QuadPoly.from_string("4 -4 1 3 -2 0")
P127 = QuadPoly.from_string("6 -6 3/2 -8 11/2 2")
COPRIME_40 = [(n, m) for n in range(1, 41) for m in range(1, 41) if gcd(n, m) == 1]


class TestEval:
    def test_examples(self):
        assert P_PLUS.eval(LatticePoint(2, 1)) == 8
        assert P127.eval(LatticePoint(1, 0)) == 0
        p = QuadPoly.from_string("1 0 0 0 0 7/2")
        assert p.eval(LatticePoint(0, 0)) == Fraction(7, 2)

    def test_eval_matches_raw(self):
        rng = random.Random(7)
        for _ in range(100):
            p = QuadPoly(*(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(6)))
            x, y = rng.randint(0, 10), rng.randint(0, 10)
            assert p.eval(LatticePoint(x, y)) == eval_raw(p, x, y)

    def test_eval_int(self):
        assert P_PLUS.eval_int(LatticePoint(2, 1)) == 8
        with pytest.raises(ValueError):
            QuadPoly.from_string("1/2 0 0 0 0 0").eval_int(LatticePoint(1, 0))


class TestStringForms:
    def test_roundtrip(self):
        for text in ("4 -4 1 -1 1 0", "6 -6 3/2 -8 11/2 2", "1/2 1 1/2 1/2 3/2 0"):
            assert QuadPoly.from_string(text).to_string() == text

    def test_bad_field_count(self):
        with pytest.raises(ValueError):
            QuadPoly.from_string("1 2 3 4 5")

    @pytest.mark.parametrize(
        "token,why",
        [
            ("1.5", "is not an integer or p/q"),
            ("1e10000000", "is not an integer or p/q"),
            ("nan", "is not an integer or p/q"),
            ("+1", "is not an integer or p/q"),
            ("1/-2", "is not an integer or p/q"),
            ("1_0", "is not an integer or p/q"),
            ("\u00b2", "is not an integer or p/q"),
            ("1/0", "has a zero denominator"),
        ],
    )
    def test_only_the_exact_form(self, token, why):
        # only to_string's integer and p/q tokens; the error names the token
        with pytest.raises(ValueError, match=f"coefficient {re.escape(repr(token))} {why}"):
            QuadPoly.from_string(f"0 0 {token} 0 0 0")

    def test_json_dict(self):
        data = P127.to_json_dict()
        assert data["c2"] == "3/2"

    def test_pretty(self):
        assert P_PLUS.pretty() == "4x^2 - 4xy + y^2 - x + y"
        assert P127.pretty() == "6x^2 - 6xy + (3/2)y^2 - 8x + (11/2)y + 2"


class TestIntegerValued:
    def test_examples(self):
        assert P_PLUS.is_integer_valued()
        assert QuadPoly.from_string("24 -36 27/2 -17 27/2 2").is_integer_valued()
        assert not QuadPoly.from_string("1 0 0 0 1 1/2").is_integer_valued()

    def test_probe_equivalence_random(self):
        # the six-point probe agrees with a direct grid check
        rng = random.Random(2024)
        cases = 0
        while cases < 1000:
            if cases % 2:
                coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(6)]
            else:
                # binomial-basis integers: guaranteed integer-valued
                a2, b, c22, dd, ee, ff = (rng.randint(-6, 6) for _ in range(6))
                coeffs = [
                    Fraction(a2, 2),
                    Fraction(b),
                    Fraction(c22, 2),
                    Fraction(dd) - Fraction(a2, 2),
                    Fraction(ee) - Fraction(c22, 2),
                    Fraction(ff),
                ]
            p = QuadPoly(*coeffs)
            grid_ok = all(
                p.eval(LatticePoint(x, y)).denominator == 1
                for x in range(21)
                for y in range(21)
            )
            assert p.is_integer_valued() == grid_ok
            cases += 1


class TestStantonCheck:
    def test_examples(self):
        assert stanton_check(sector(8, 5), P_PLUS)
        assert not stanton_check(sector(8, 5), QuadPoly.from_string("1 0 0 0 1 0"))
        assert not stanton_check(sector(8, 3), QuadPoly.from_string("4 -2 1/4 0 0 0"))

    def test_integral_form(self):
        # formula degrades gracefully at m = 1: p2 = (n/2) x^2
        assert stanton_check(sector(4, 1), QuadPoly.from_string("2 0 0 -1 1 0"))

    def test_quadratic_helper(self):
        assert stanton_quadratic(sector(8, 5)) == (4, -4, 1)
        assert stanton_quadratic(sector(12, 7)) == (6, -6, Fraction(3, 2))


class TestKStairExtract:
    def test_examples(self):
        f1 = kstair_extract(sector(8, 5), P_PLUS)
        assert (f1.k, f1.direction, f1.q, f1.offset_f) == (1, Direction.ASCENDING, 0, 0)
        f2 = kstair_extract(sector(8, 5), P_MINUS)
        assert (f2.k, f2.direction) == (1, Direction.DESCENDING)
        f3 = kstair_extract(sector(12, 7), P127)
        assert (f3.k, f3.direction, f3.q, f3.offset_f) == (3, Direction.ASCENDING, 1, 2)
        # on S(n) the staircases are the columns: the step is e, and q = k
        f4 = kstair_extract(sector(4, 1), QuadPoly.from_string("2 0 0 5 -2 1"))
        assert (f4.k, f4.direction, f4.q, f4.offset_f) == (2, Direction.DESCENDING, 2, 1)

    def test_zero_step(self):
        p = QuadPoly.from_string("4 -4 1 2 -1 0")  # step = 2*1 + (-1)*2 = 0
        with pytest.raises(ZeroStep):
            kstair_extract(sector(8, 5), p)
        with pytest.raises(ZeroStep):
            kstair_extract(sector(4, 1), QuadPoly.from_string("2 0 0 1 0 0"))

    def test_non_integral_offset(self):
        p = QuadPoly.from_string("4 -4 1 -1 1 1/2")
        with pytest.raises(NonIntegralOffset):
            kstair_extract(sector(8, 5), p)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            kstair_extract(sector(8, 5), QuadPoly.from_string("1 0 0 1 1 0"))


class TestNecessaryCoefficients:
    def test_examples(self):
        assert necessary_coefficients(sector(8, 5), 1, Direction.ASCENDING) == (-1, 1)
        assert necessary_coefficients(sector(12, 7), 3, Direction.ASCENDING) == (
            -8,
            Fraction(11, 2),
        )
        assert necessary_coefficients(sector(36, 25), 2, Direction.ASCENDING) == (-11, 8)
        assert necessary_coefficients(sector(8, 5), 1, Direction.DESCENDING) == (3, -2)
        # S(n): every k is admissible mod n/l = 1, d = 1 -+ k*n/2 and e = +-k
        assert necessary_coefficients(sector(4, 1), 2, Direction.ASCENDING) == (-3, 2)
        assert necessary_coefficients(sector(4, 1), 2, Direction.DESCENDING) == (5, -2)
        assert necessary_coefficients(sector(3, 1), 3, Direction.ASCENDING) == (
            Fraction(-7, 2),
            3,
        )

    def test_congruence_violation(self):
        with pytest.raises(CongruenceViolation):
            necessary_coefficients(sector(8, 5), 2, Direction.ASCENDING)
        with pytest.raises(CongruenceViolation):
            necessary_coefficients(sector(36, 25), 1, Direction.ASCENDING)

    def test_not_admissible(self):
        with pytest.raises(NotAdmissible):
            necessary_coefficients(sector(7, 3), 1, Direction.ASCENDING)


def start_offset(s, p0: QuadPoly, k: int) -> int:
    """The offset that places p0's start-stair values on staircases 0..k-1
    onto {0..k-1}, as construct reads it off _start_values."""
    return -min(_start_values(s, p0.d, p0.e, p0.f, k), default=0)


class TestStartValues:
    def test_examples(self):
        # construct's offset is -min of its k start values
        p3625 = QuadPoly.from_string("18 -24 8 -11 8 1")
        for (n, m), k, want in [((8, 5), 1, P_PLUS), ((12, 7), 3, P127), ((36, 25), 2, p3625)]:
            poly, form = construct(sector(n, m), k, Direction.ASCENDING)
            assert poly == want and form.offset_f == want.f

    def test_descending_reads_last_stairs(self):
        # a negative stair step d*u + e*v makes the last stair of each
        # staircase its start; the first stairs of S(12/7) carry 0, 5, 16
        s = sector(12, 7)
        poly, form = construct(s, 3, Direction.DESCENDING)
        assert poly == QuadPoly.from_string("6 -6 3/2 10 -13/2 2") and form.offset_f == 2
        assert sorted(_start_values(s, poly.d, poly.e, Fraction(0), 3)) == [-2, -1, 0]
        poly, form = construct(sector(4, 9), 2, Direction.DESCENDING)
        assert (poly.d, poly.e, form.offset_f) == (5, -12, 1)

    def test_not_consecutive(self):
        s = sector(8, 5)
        d, e = necessary_coefficients(s, 3, Direction.ASCENDING)
        with pytest.raises(NotConsecutive, match="staircase 1 repeats start-stair value 0"):
            _start_values(s, d, e, Fraction(0), 3)

    def test_stops_at_the_first_bad_staircase(self):
        s = sector(8, 5)
        with pytest.raises(NotConsecutive, match="value 4/3 of staircase 1 is not an integer"):
            _start_values(s, Fraction(1, 3), Fraction(0), Fraction(0), 3)
        # staircase 2 already spreads the values past k = 10**9 + 1, so
        # the other 10**9 staircases are never evaluated
        k = 10**9 + 1
        d, e = necessary_coefficients(s, k, Direction.ASCENDING)
        with pytest.raises(NotConsecutive, match="of staircase 2 spreads") as info:
            _start_values(s, d, e, Fraction(0), k)
        assert len(str(info.value)) < 200

    def test_descending_empty_staircase(self):
        # 7 does not divide 4, so staircase 1 of S(7/3) misses the sector: a
        # negative stair step gives it no last stair to start from
        s = sector(7, 3)
        assert s.stair_count(1) == 0
        with pytest.raises(ValueError, match=r"^staircase 1 has no point in S\(7/3\)$"):
            _start_values(s, Fraction(1), Fraction(-1), Fraction(0), 3)

    @given(st.data())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_scan_reference(self, data):
        # forced-part p0 near the stair pair of a k' <= 12 in either
        # direction, moved by a small rational (off the lattice too): the
        # outcome, an offset or an error and its message, is the scan's;
        # k = 0 reads no staircase and gives offset 0
        n, m = data.draw(st.sampled_from(COPRIME_40))
        s = sector(n, m)
        k = data.draw(st.integers(0, 12))
        near = data.draw(st.one_of(st.just(k), st.integers(1, 12)))
        d2, e2 = _stair_pair(s, near, data.draw(st.sampled_from(Direction)))
        moves = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=2 * n))
        d = Fraction(d2, 2) + data.draw(moves)
        e = Fraction(e2, 2 * n) + data.draw(moves)
        p0 = QuadPoly(*stanton_quadratic(s), d, e, 0)
        assert _result(start_offset, s, p0, k) == _result(offset_reference, s, p0, k)


class TestStartStairs:
    def test_start_stairs_match_line_scan(self):
        # the first stair for a positive stair step A*u + B*v, the last for a
        # negative one; S(4/9) and S(1/7) have slope < 1, S(3) is integral
        assert next(_start_stairs(sector(8, 5), -1, -2, 0, 16, [2]))[:3] == (5, 8, 5)
        cs = range(0, 41, 3)
        for n, m in [(8, 5), (12, 7), (36, 25), (4, 9), (1, 7), (3, 1)]:
            s = sector(n, m)
            u, v = s.lines.u, s.lines.v
            for sign, pick in ((1, min), (-1, max)):
                A, B = sign * u, sign * v
                for c, (x, y, count, w, rem) in zip(cs, _start_stairs(s, A, B, 0, 2 * n, cs)):
                    scanned = stairs_scan(s, c)
                    assert count == len(scanned), (n, m, c)
                    assert (x, y) == pick(scanned, key=lambda q: q.y), (n, m, c, sign)
                    value = Fraction((n * x - (m - 1) * y) ** 2 + A * x + B * y, 2 * n)
                    assert (w, Fraction(rem, 2 * n)) == (value // 1, value % 1)


class TestConstruct:
    def test_fig1_pair(self):
        s = sector(8, 5)
        p_asc, form_asc = construct(s, 1, Direction.ASCENDING)
        assert p_asc == P_PLUS
        assert (form_asc.k, form_asc.direction, form_asc.q) == (1, Direction.ASCENDING, 0)
        p_desc, form_desc = construct(s, 1, Direction.DESCENDING)
        assert p_desc == P_MINUS
        assert form_desc.direction is Direction.DESCENDING

    def test_desc_is_dual_transport(self):
        s = sector(8, 5)
        _, t = t_dual(s)
        p_asc, _ = construct(s, 1, Direction.ASCENDING)
        p_desc, _ = construct(s, 1, Direction.DESCENDING)
        assert p_asc.compose(t) == p_desc

    def test_36_25(self):
        p, form = construct(sector(36, 25), 2, Direction.ASCENDING)
        assert p == QuadPoly.from_string("18 -24 8 -11 8 1")
        assert form.k == 2

    def test_48_37(self):
        p, _ = construct(sector(48, 37), 3, Direction.ASCENDING)
        assert p == QuadPoly.from_string("24 -36 27/2 -17 27/2 2")

    def test_75_46(self):
        # second residue class of the 3-stair condition (m = 19 mod 27)
        p, _ = construct(sector(75, 46), 3, Direction.ASCENDING)
        assert p == QuadPoly.from_string("75/2 -45 27/2 -43/2 27/2 2")
        assert p.is_integer_valued()

    def test_integral_nathanson_pair(self):
        # k = 1 on S(n) builds Nathanson's f_n and g_n; g_n starts each column at its top
        for n in range(1, 13):
            s = sector(n, 1)
            f_n, g_n = nathanson_polys(n)
            assert construct(s, 1, Direction.ASCENDING)[0] == f_n, n
            assert construct(s, 1, Direction.DESCENDING)[0] == g_n, n

    def test_error_propagation(self):
        with pytest.raises(CongruenceViolation):
            construct(sector(8, 5), 2, Direction.ASCENDING)
        with pytest.raises(NotConsecutive):
            construct(sector(8, 5), 3, Direction.ASCENDING)
        # S(4/9) has no dual sector, yet its descending k = 2 polynomial
        # builds in place and is the classified one
        desc_2 = next(e for e in classify(4, 9).entries if e.form.k == 2 and
                      e.form.direction is Direction.DESCENDING)
        assert desc_2.poly == QuadPoly.from_string("2 -8 8 5 -12 1")
        assert construct(sector(4, 9), 2, Direction.DESCENDING) == (desc_2.poly, desc_2.form)
        with pytest.raises(NotAdmissible):
            construct(sector(7, 3), 1, Direction.ASCENDING)

    def test_descending_matches_dual_route(self):
        # the direct descending build against the ascending polynomial on the
        # dual sector carried back; where the sector has no dual, whatever is
        # built must pack and be classified
        built_without_dual = 0
        for n in range(1, 61):
            for m in range(1, 61):
                if gcd(n, m) != 1:
                    continue
                s = sector(n, m)
                for k in range(1, 7):
                    want = _outcome(construct_via_dual, s, k)
                    got = _outcome(construct, s, k, Direction.DESCENDING)
                    if want is not DegenerateDual:
                        assert got == want, (n, m, k)
                    elif isinstance(got, tuple):
                        poly, form = got
                        assert prefix_check(s, poly, 500).ok, (n, m, k)
                        assert (poly, form) in [(e.poly, e.form) for e in classify(n, m).entries]
                        built_without_dual += 1
        assert built_without_dual == 271

    def test_extract_roundtrips_construction(self):
        for n, m, k, direction in [
            (8, 5, 1, Direction.ASCENDING),
            (8, 5, 1, Direction.DESCENDING),
            (12, 7, 3, Direction.ASCENDING),
            (12, 7, 3, Direction.DESCENDING),
            (36, 25, 2, Direction.ASCENDING),
            (48, 37, 3, Direction.ASCENDING),
        ]:
            s = sector(n, m)
            p, form = construct(s, k, direction)
            assert stanton_check(s, p)
            assert p.is_integer_valued()
            extracted = kstair_extract(s, p)
            assert extracted == form

    def test_ascending_stair_increments(self):
        # consecutive stairs of a constructed ascending polynomial differ by +k
        for n, m, k in [(8, 5, 1), (12, 7, 3), (36, 25, 2)]:
            s = sector(n, m)
            p, _ = construct(s, k, Direction.ASCENDING)
            for c in range(101):
                pts = stairs_scan(s, c)
                for a, b in zip(pts, pts[1:]):
                    assert p.eval(b) - p.eval(a) == k

    def test_mod_k_class_property(self):
        # stair values on staircases c and c+k agree mod k
        for n, m, k in [(12, 7, 3), (36, 25, 2)]:
            s = sector(n, m)
            p, _ = construct(s, k, Direction.ASCENDING)
            for c in range(101):
                here = {p.eval_int(q) % k for q in stairs_scan(s, c)}
                there = {p.eval_int(q) % k for q in stairs_scan(s, c + k)}
                assert len(here) == 1 and here == there


def _result(build, *args):
    """build(*args), or the type and message of the error it raises."""
    try:
        return build(*args)
    except (SectorPackError, ValueError) as exc:
        return type(exc), str(exc)


def _outcome(build, *args):
    """build(*args), or the type of the SectorPackError it raises."""
    try:
        return build(*args)
    except SectorPackError as exc:
        return type(exc)


class TestTransport:
    def test_fig1_transport(self):
        _, t = t_dual(sector(8, 5))
        assert P_PLUS.compose(t) == P_MINUS

    def test_identity(self):
        s = sector(8, 5)
        ident = LatticeMap(1, 0, 0, 1, source=s, target=s)
        assert P_PLUS.compose(ident) == P_PLUS

    def test_cantor_swap(self):
        f, g = cantor_polys()
        s = sector(1, 1)
        swap = LatticeMap(0, 1, 1, 0, source=s, target=s)
        assert g.compose(swap) == f

    def test_transport_agrees_pointwise(self):
        s = sector(8, 5)
        _, t = t_dual(s)
        q = P_PLUS.compose(t)
        for x in range(20):
            for y in range(x * 8 // 5 + 1):
                pt = LatticePoint(x, y)
                assert q.eval(pt) == P_PLUS.eval(t.apply(pt))

    @given(
        st.lists(st.tuples(st.booleans(), st.integers(-3, 3)), min_size=1, max_size=4),
        st.tuples(*(st.integers(-6, 6) for _ in range(6))),
    )
    @settings(max_examples=120, derandomize=True)
    def test_unimodular_roundtrip(self, shears, coeffs):
        # transport through M then M^(-1) restores the polynomial
        s = sector(1, 1)
        m = LatticeMap(1, 0, 0, 1, source=s, target=s)
        for upper, amount in shears:
            shear = (
                LatticeMap(1, amount, 0, 1, source=s, target=s)
                if upper
                else LatticeMap(1, 0, amount, 1, source=s, target=s)
            )
            m = m.compose(shear)
        p = QuadPoly(*(Fraction(c, 2) for c in coeffs))
        assert p.compose(m).compose(m.inverse()) == p

    @given(
        st.lists(
            st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 60)),
            min_size=6,
            max_size=6,
        ),
        st.tuples(*(st.integers(-50, 50) for _ in range(4))),
    )
    @settings(max_examples=400, derandomize=True)
    def test_compose_matches_reference(self, coeffs, entries):
        # the integer composition builds the same reduced Fractions as
        # coefficient-by-coefficient Fraction arithmetic
        s = sector(1, 1)
        p = QuadPoly(*coeffs)
        mapping = LatticeMap(*entries, source=s, target=s)
        got = p.compose(mapping)
        assert got == compose_reference(p, mapping)
        assert all(type(c) is Fraction for c in got.coefficients())
