"""Independent truth source: bounded enumeration and exhaustive search.

Nothing in this module trusts the classification theorems.  A candidate
polynomial is accepted only if its values on the sector's lattice points
form exactly the prefix {0..N}, each attained once, with no negative
value anywhere — established by walking the staircase decomposition.

Enumeration terminates because the homogeneous part is constant on each
staircase and grows quadratically with the staircase index: past an
explicit vertex bound, every staircase's minimum value exceeds N.

A prefix_check pass means "verified to N", never "proved"; the theorems
carry the mathematical guarantee, this module carries the evidence.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional

from .classify import classify
from .errors import InvalidEnvironment, NonTerminatingShape
from .polynomials import QuadPoly, stanton_quadratic
from .sectors import LatticePoint, Sector, mod_inverse, sector

__all__ = [
    "PrefixStatus",
    "PrefixReport",
    "SearchParams",
    "enumerate_upto",
    "prefix_check",
    "kstair_property_check",
    "rectangle_points",
    "search",
    "sweep",
    "SweepRow",
    "SweepReport",
]


class PrefixStatus(Enum):
    OK = "ok"
    MISSING_VALUE = "missing_value"
    DUPLICATE = "duplicate"
    NEGATIVE_VALUE = "negative_value"
    NON_INTEGER_VALUE = "non_integer_value"


@dataclass(frozen=True)
class PrefixReport:
    status: PrefixStatus
    checked_upto: int
    points: int
    value: Optional[int] = None
    point: Optional[LatticePoint] = None
    point2: Optional[LatticePoint] = None

    @property
    def ok(self) -> bool:
        return self.status is PrefixStatus.OK

    def describe(self) -> str:
        if self.status is PrefixStatus.OK:
            return (
                f"ok: values 0..{self.checked_upto} each attained exactly once "
                f"({self.points} points)"
            )
        if self.status is PrefixStatus.MISSING_VALUE:
            return f"missing value {self.value} (checked up to {self.checked_upto})"
        if self.status is PrefixStatus.DUPLICATE:
            return (
                f"value {self.value} attained at both {tuple(self.point)} "
                f"and {tuple(self.point2)}"
            )
        if self.status is PrefixStatus.NEGATIVE_VALUE:
            return f"negative value {self.value} at {tuple(self.point)}"
        return f"non-integer value at {tuple(self.point)}"


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
        for name in ("prefix_n", "offset_range", "raw_grid_bound"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")


# ---------------------------------------------------------------------------
# Staircase / column enumeration
# ---------------------------------------------------------------------------


def _family_kind(s: Sector, p: QuadPoly) -> str:
    """Check that the homogeneous part is constant along one line family.

    m >= 2: p2 must be a positive multiple of (n*x - (m-1)*y)**2, which is
    constant on staircases.  m == 1: p2 must be a*x**2, constant on
    columns.  Anything else admits no finite sweep bound.
    """
    n, m = s.n, s.m
    if m >= 2:
        if (
            p.a > 0
            and p.b == Fraction(-2 * (m - 1)) * p.a / n
            and p.c2 == p.a * (m - 1) ** 2 / (n * n)
        ):
            return "stairs"
    elif p.a > 0 and p.b == 0 and p.c2 == 0:
        return "columns"
    raise NonTerminatingShape(
        f"homogeneous part of {p} is not constant along the line family of S({s})"
    )


def _value_sweep(
    s: Sector, p: QuadPoly, lo: int, hi: int
) -> tuple[list[tuple[int, int, int]], int, Optional[LatticePoint]]:
    """Walk the line family of S(n/m) collecting values in [lo, hi].

    Returns (items, vmin, negative_witness) where items are (value, x, y)
    triples in scan order, vmin is the minimum value over every swept
    line, and negative_witness is the first point seen with value < 0.
    The polynomial must be integer-valued and shape-checked.
    """
    kind = _family_kind(s, p)
    n, m = s.n, s.m
    d, e, f = p.d, p.e, p.f

    if kind == "stairs":
        l = s.l
        u, v = (m - 1) // l, n // l
        r = 0 if v == 1 else mod_inverse(u, v)
        lam = p.a / (n * n)
        delta_fr = d * u + e * v
        quad = lam * l * l
        lin = min(Fraction(0), d) * Fraction(m * l, n) + min(Fraction(0), e) * l
    else:
        u, v = 0, 1
        delta_fr = e
        quad = p.a
        lin = d + min(Fraction(0), e) * n

    if delta_fr.denominator != 1:
        raise ValueError("stair step is not an integer; polynomial is not integer-valued")
    delta = delta_fr.numerator
    vertex = max(Fraction(0), -lin / (2 * quad))

    items: list[tuple[int, int, int]] = []
    vmin: Optional[int] = None
    negative: Optional[LatticePoint] = None

    c = 0
    while True:
        if c > vertex and quad * c * c + lin * c + f > hi:
            break
        if kind == "stairs":
            z = 0 if v == 1 else (-c * r) % v
            x0 = ((m - 1) * z + c * l) // n
            cnt = (m * c * l - n * x0) * l // (n * (m - 1)) + 1
            base_fr = lam * (c * l) ** 2 + d * x0 + e * z + f
        else:
            z, x0 = 0, c
            cnt = n * c + 1
            base_fr = p.a * c * c + d * c + f
        if cnt > 0:
            if base_fr.denominator != 1:
                raise ValueError(
                    f"value at staircase {c} is {base_fr}; polynomial is not integer-valued"
                )
            base = base_fr.numerator
            last = base + delta * (cnt - 1)
            line_min = min(base, last)
            if vmin is None or line_min < vmin:
                vmin = line_min
            if negative is None and line_min < 0:
                if delta >= 0 or base < 0:
                    t_neg = 0
                else:
                    t_neg = base // (-delta) + 1
                negative = LatticePoint(x0 + t_neg * u, z + t_neg * v)
            if delta > 0:
                t_lo = 0 if base >= lo else -((base - lo) // delta)
                t_hi = cnt - 1 if last <= hi else (hi - base) // delta
            elif delta < 0:
                step = -delta
                t_lo = 0 if base <= hi else -((hi - base) // step)
                t_hi = cnt - 1 if last >= lo else (base - lo) // step
            else:
                t_lo, t_hi = (0, cnt - 1) if lo <= base <= hi else (1, 0)
            for t in range(t_lo, t_hi + 1):
                items.append((base + t * delta, x0 + t * u, z + t * v))
        c += 1

    return items, (0 if vmin is None else vmin), negative


def enumerate_upto(
    s: Sector, p: QuadPoly, n_max: int
) -> list[tuple[LatticePoint, int]]:
    """All sector lattice points with 0 <= p <= n_max, sorted by value."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not p.is_integer_valued():
        raise ValueError("polynomial is not integer-valued")
    items, _, _ = _value_sweep(s, p, 0, n_max)
    items.sort()
    return [(LatticePoint(x, y), value) for value, x, y in items]


_PROBE_POINTS = [
    LatticePoint(0, 0),
    LatticePoint(1, 0),
    LatticePoint(2, 0),
    LatticePoint(0, 1),
    LatticePoint(0, 2),
    LatticePoint(1, 1),
]


def prefix_check(s: Sector, p: QuadPoly, n_max: int) -> PrefixReport:
    """Is p a bijection from the sector's lattice points onto {0..n_max}?

    Failures are reported deterministically: non-integrality first (with
    the first bad probe point), then the first duplicated value in scan
    order, then the first negative value, then the smallest missing one.
    A negative n_max is a usage error (ValueError).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not p.is_integer_valued():
        witness = next(pt for pt in _PROBE_POINTS if p.eval(pt).denominator != 1)
        return PrefixReport(
            PrefixStatus.NON_INTEGER_VALUE, checked_upto=n_max, points=0, point=witness
        )
    items, _, negative = _value_sweep(s, p, 0, n_max)
    first_at: dict[int, tuple[int, int]] = {}
    for value, x, y in items:
        if value in first_at:
            ox, oy = first_at[value]
            return PrefixReport(
                PrefixStatus.DUPLICATE,
                checked_upto=n_max,
                points=len(items),
                value=value,
                point=LatticePoint(ox, oy),
                point2=LatticePoint(x, y),
            )
        first_at[value] = (x, y)
    if negative is not None:
        return PrefixReport(
            PrefixStatus.NEGATIVE_VALUE,
            checked_upto=n_max,
            points=len(items),
            value=p.eval_int(negative),
            point=negative,
        )
    for value in range(n_max + 1):
        if value not in first_at:
            return PrefixReport(
                PrefixStatus.MISSING_VALUE,
                checked_upto=n_max,
                points=len(items),
                value=value,
            )
    return PrefixReport(PrefixStatus.OK, checked_upto=n_max, points=len(items))


def kstair_property_check(s: Sector, p: QuadPoly, c_max: int) -> bool:
    """Directly verify that consecutive stairs differ by one constant +-k.

    Evaluates p at every pair of consecutive stairs on staircases
    0..c_max; true iff all differences agree and are a nonzero integer.
    """
    diffs = set()
    for c in range(c_max + 1):
        stairs = s.stairs(c)
        for first, second in zip(stairs, stairs[1:]):
            diffs.add(p.eval(second) - p.eval(first))
            if len(diffs) > 1:
                return False
    if not diffs:
        return True
    diff = diffs.pop()
    return diff != 0 and diff.denominator == 1


def rectangle_points(s: Sector, x_max: int) -> list[LatticePoint]:
    """Every sector lattice point with x <= x_max — the dumb enumerator
    used by tests to cross-check the staircase sweep."""
    points = []
    for x in range(x_max + 1):
        for y in range(x * s.n // s.m + 1):
            points.append(LatticePoint(x, y))
    return points


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------
#
# Search candidates share the forced homogeneous part, so a candidate is
# just an integer pair (d2, e2) with d = d2/2 and e = e2/(2n) (for m == 1,
# e itself is an integer).  The filter below works with values scaled by
# 2n, all in exact integer arithmetic:
#
#   P0(x, y) = (n*x - (m-1)*y)**2 + n*d2*x + e2*y       (f left out)
#
# On staircase c the value is base(c) + t*step, so each staircase meets
# the value window [lo, hi] in a t-interval, collected as a range object.
# A packing polynomial must attain minimum value exactly 0, which forces
# f = -min(P0)/(2n); sweeping f over [-offset_range, offset_range] is
# therefore equivalent to checking that single forced offset, which is
# what the filter does.


class _StairTables:
    """Lazily grown per-staircase geometry shared by all candidates."""

    def __init__(self, s: Sector):
        self.n, self.m, self.l = s.n, s.m, s.l
        self.u, self.v = (s.m - 1) // s.l, s.n // s.l
        self.r = 0 if self.v == 1 else mod_inverse(self.u, self.v)
        self.z: list[int] = []
        self.x0: list[int] = []
        self.cnt: list[int] = []
        self.q2: list[int] = []

    def grow(self, c: int) -> None:
        n, m, l = self.n, self.m, self.l
        for cc in range(len(self.z), c + 1):
            z = 0 if self.v == 1 else (-cc * self.r) % self.v
            x0 = ((m - 1) * z + cc * l) // n
            self.z.append(z)
            self.x0.append(x0)
            self.cnt.append((m * cc * l - n * x0) * l // (n * (m - 1)) + 1)
            self.q2.append((cc * l) ** 2)


def _filter_stair_candidates(
    s: Sector,
    candidates: Iterable[tuple[int, int]],
    prefix_n: int,
    offset_range: int,
) -> list[tuple[int, int, int]]:
    """Keep the (d2, e2) pairs that pack to depth prefix_n for some offset.

    Returns (d2, e2, f) triples.  Every candidate must correspond to an
    integer-valued polynomial with the forced homogeneous part.
    """
    tables = _StairTables(s)
    n, m, l = tables.n, tables.m, tables.l
    u, v = tables.u, tables.v
    scale = 2 * n
    hi = scale * prefix_n
    lo = -scale * offset_range
    need = prefix_n + 1
    survivors = []

    for d2, e2 in candidates:
        A = n * d2
        B = e2
        step = A * u + B * v
        if step == 0:
            continue

        # Cheap rejection: the x-axis and the boundary ray are in the
        # sector; a value below lo there cannot be rescued by any offset.
        xv = max(1, -d2 // (2 * n))
        if any(n * n * x * x + A * x < lo for x in (1, xv, xv + 1)):
            continue
        bslope = A * m + B * n
        tv = max(1, -bslope // (2 * n * n))
        if any(n * n * t * t + bslope * t < lo for t in (1, tv, tv + 1)):
            continue

        a_neg = A if A < 0 else 0
        b_neg = B if B < 0 else 0
        vertex = (-(a_neg * m) // n - b_neg) // (2 * l) + 2

        values: list[int] = []
        vmin = 0
        c = 0
        while True:
            if c > vertex and c * c * l * l + (a_neg * m * c * l) // n + b_neg * c * l > hi:
                break
            if c >= len(tables.z):
                tables.grow(c + 64)
            cnt = tables.cnt[c]
            if cnt > 0:
                base = tables.q2[c] + A * tables.x0[c] + B * tables.z[c]
                last = base + step * (cnt - 1)
                line_min = base if step > 0 else last
                if line_min < vmin:
                    vmin = line_min
                if step > 0:
                    t_lo = 0 if base >= lo else -((base - lo) // step)
                    t_hi = cnt - 1 if last <= hi else (hi - base) // step
                    if t_lo <= t_hi:
                        values.extend(
                            range(base + t_lo * step, base + t_hi * step + 1, step)
                        )
                else:
                    down = -step
                    t_lo = 0 if base <= hi else -((hi - base) // down)
                    t_hi = cnt - 1 if last >= lo else (base - lo) // down
                    if t_lo <= t_hi:
                        values.extend(
                            range(base - t_lo * down, base - t_hi * down - 1, -down)
                        )
            c += 1

        if vmin < lo or len(values) < need:
            continue
        f, rem = divmod(-vmin, scale)
        if rem or f > offset_range:
            continue
        seen = bytearray(need)
        count = 0
        ok = True
        for value in values:
            idx = (value - vmin) // scale
            if idx < need:
                if seen[idx]:
                    ok = False
                    break
                seen[idx] = 1
                count += 1
        if ok and count == need:
            survivors.append((d2, e2, f))

    return survivors


def _filter_column_candidates(
    n: int,
    candidates: Iterable[tuple[int, int]],
    prefix_n: int,
    offset_range: int,
) -> list[tuple[int, int, int]]:
    """Integral-sector analog of the staircase filter; e is an integer."""
    hi = 2 * prefix_n
    lo = -2 * offset_range
    need = prefix_n + 1
    survivors = []

    for d2, e in candidates:
        step = 2 * e
        if step == 0:
            continue
        xv = max(1, -d2 // (2 * n))
        if any(n * x * x + d2 * x < lo for x in (1, xv, xv + 1)):
            continue
        bslope = d2 + 2 * e * n
        tv = max(1, -bslope // (2 * n))
        if any(n * t * t + bslope * t < lo for t in (1, tv, tv + 1)):
            continue

        e_neg = step if step < 0 else 0
        vertex = (-d2 - e_neg * n) // (2 * n) + 2
        values: list[int] = []
        vmin = 0
        c = 0
        while True:
            if c > vertex and n * c * c + d2 * c + e_neg * n * c > hi:
                break
            base = n * c * c + d2 * c
            cnt = n * c + 1
            last = base + step * (cnt - 1)
            line_min = base if step > 0 else last
            if line_min < vmin:
                vmin = line_min
            if step > 0:
                t_lo = 0 if base >= lo else -((base - lo) // step)
                t_hi = cnt - 1 if last <= hi else (hi - base) // step
                if t_lo <= t_hi:
                    values.extend(range(base + t_lo * step, base + t_hi * step + 1, step))
            else:
                down = -step
                t_lo = 0 if base <= hi else -((hi - base) // down)
                t_hi = cnt - 1 if last >= lo else (base - lo) // down
                if t_lo <= t_hi:
                    values.extend(range(base - t_lo * down, base - t_hi * down - 1, -down))
            c += 1

        if vmin < lo or len(values) < need:
            continue
        f, rem = divmod(-vmin, 2)
        if rem or f > offset_range:
            continue
        seen = bytearray(need)
        count = 0
        ok = True
        for value in values:
            idx = (value - vmin) // 2
            if idx < need:
                if seen[idx]:
                    ok = False
                    break
                seen[idx] = 1
                count += 1
        if ok and count == need:
            survivors.append((d2, e, f))

    return survivors


def _structured_candidates(s: Sector, max_k: int) -> list[tuple[int, int]]:
    """The (d2, e2) pairs of the stair coefficient families, both
    directions, for every k <= max_k in the right residue class."""
    from .polynomials import Direction, necessary_coefficients

    n, m, l = s.n, s.m, s.l
    if (m - 1) ** 2 % n != 0:
        return []
    a, b, c2 = stanton_quadratic(s)
    u, v = (m - 1) // l, n // l
    out = []
    for direction in (Direction.ASCENDING, Direction.DESCENDING):
        res = u % v if direction is Direction.ASCENDING else (-u) % v
        for k in range(1, max_k + 1):
            if k % v != res:
                continue
            d, e = necessary_coefficients(s, k, direction)
            if not QuadPoly(a, b, c2, d, e, 0).is_integer_valued():
                continue
            out.append((int(2 * d), int(2 * n * e)))
    return out


def _raw_candidates(s: Sector, bound: int) -> Iterable[tuple[int, int]]:
    """Integer-valued (d2, e2) grid with the forced homogeneous part:
    d2 = n mod 2, e2 = -(m-1)^2 mod 2n, |d2| <= bound, |e2| <= bound*n."""
    n, m = s.n, s.m
    if (m - 1) ** 2 % n != 0:
        return
    d_start = -bound + ((n - (-bound)) % 2)
    e_res = (-((m - 1) ** 2)) % (2 * n)
    e_start = -bound * n + ((e_res - (-bound * n)) % (2 * n))
    for d2 in range(d_start, bound + 1, 2):
        for e2 in range(e_start, bound * n + 1, 2 * n):
            yield (d2, e2)


def _integral_candidates(n: int, bound: int) -> Iterable[tuple[int, int]]:
    """Integral-sector grid.  The effective d-bound is raised to n+2 so
    the classical family always lies inside the grid."""
    d_bound = max(bound, n + 2)
    e_bound = max(d_bound // 2, 3)
    d_start = -d_bound + ((n - (-d_bound)) % 2)
    for d2 in range(d_start, d_bound + 1, 2):
        for e in range(-e_bound, e_bound + 1):
            yield (d2, e)


def _poly_from_scaled(s: Sector, d2: int, e2: int, f: int) -> QuadPoly:
    a, b, c2 = stanton_quadratic(s)
    return QuadPoly(a, b, c2, Fraction(d2, 2), Fraction(e2, 2 * s.n), Fraction(f))


def _sort_key(s: Sector, p: QuadPoly) -> tuple:
    if s.m >= 2:
        u, v = (s.m - 1) // s.l, s.n // s.l
        delta = p.d * u + p.e * v
    else:
        delta = p.e
    return (abs(delta), 0 if delta > 0 else 1, p.f, p.coefficients())


# Depth of the cheap first filter pass; _search_detail says why it drops
# nothing the full-depth pass would keep.
_PREFILTER_N = 8


def _filter_two_pass(
    filter_fn, where, candidates: Iterable[tuple[int, int]], params: SearchParams
) -> list[tuple[int, int, int]]:
    """Run filter_fn at depth _PREFILTER_N, then at params.prefix_n on the
    first pass's survivors.  Returns the full-depth (d2, e2, f) triples."""
    if params.prefix_n > _PREFILTER_N:
        first = filter_fn(where, candidates, _PREFILTER_N, params.offset_range)
        candidates = [(d2, e2) for d2, e2, _ in first]
    return filter_fn(where, candidates, params.prefix_n, params.offset_range)


def _search_detail(s: Sector, params: SearchParams) -> tuple[list[QuadPoly], list[QuadPoly]]:
    """(all survivors, raw-stage survivors), each certified by prefix_check.

    Every stage filters in two passes (_filter_two_pass): depth
    _PREFILTER_N first, then depth params.prefix_n on what is left.  The
    first pass is a necessary condition of the second, so the result is
    the same as one full-depth pass.  With values scaled by 2n (2 for
    columns):

    * vmin starts at 0, and a line the shallower pass cuts off early has
      every value above its hi = scale * _PREFILTER_N > 0, so vmin and
      the forced offset f = -vmin / scale are the same at both depths;
    * every scaled value of an integer-valued candidate is a multiple of
      the scale;
    * the window [vmin, vmin + _PREFILTER_N * scale] lies inside both the
      shallow pass's [lo, hi] and the full-depth window, so both passes
      see the same values there, and a candidate that attains each of
      them exactly once at full depth does so in the first pass too.

    prefix_n stays the evidence depth: every survivor is certified by
    prefix_check to params.prefix_n.  prefix_check is deterministic, so a
    raw-stage survivor with the coefficients of an already checked
    structured survivor reuses that verdict instead of checking again.
    """
    found: dict[tuple, QuadPoly] = {}
    raw_found: list[QuadPoly] = []
    verdicts: dict[tuple, bool] = {}

    def certified(p: QuadPoly) -> bool:
        key = p.coefficients()
        if key not in verdicts:
            verdicts[key] = prefix_check(s, p, params.prefix_n).ok
        if verdicts[key]:
            found[key] = p
        return verdicts[key]

    if s.m == 1:
        triples = _filter_two_pass(
            _filter_column_candidates,
            s.n,
            _integral_candidates(s.n, params.raw_grid_bound),
            params,
        )
        a = Fraction(s.n, 2)
        for d2, e, f in triples:
            p = QuadPoly(a, 0, 0, Fraction(d2, 2), Fraction(e), Fraction(f))
            if certified(p):
                raw_found.append(p)
    else:
        structured = _filter_two_pass(
            _filter_stair_candidates, s, _structured_candidates(s, params.max_k), params
        )
        for d2, e2, f in structured:
            certified(_poly_from_scaled(s, d2, e2, f))
        if params.raw_grid_bound > 0:
            raw = _filter_two_pass(
                _filter_stair_candidates,
                s,
                _raw_candidates(s, params.raw_grid_bound),
                params,
            )
            for d2, e2, f in raw:
                p = _poly_from_scaled(s, d2, e2, f)
                if certified(p):
                    raw_found.append(p)

    ordered = sorted(found.values(), key=lambda p: _sort_key(s, p))
    raw_found.sort(key=lambda p: _sort_key(s, p))
    return ordered, raw_found


def search(s: Sector, params: SearchParams) -> list[QuadPoly]:
    """Rediscover every packing polynomial on S(n/m) by brute force.

    For m >= 2 the structured stage runs the stair coefficient families
    for every admissible-residue k <= max_k, and the raw stage (if
    enabled) sweeps the full (d, e) grid with only the homogeneous part
    pinned.  Integral sectors sweep the analogous column grid.  Survivors
    are certified with prefix_check before being returned.

    Each stage filters first at the small depth _PREFILTER_N (8), then at
    params.prefix_n on the survivors.  Packing to depth prefix_n implies
    packing to depth 8 with the same forced offset, so the cheap pass
    rejects nothing the full pass would keep and the result equals a
    single full-depth pass.  Depth 8 is only a cheap first reject: every
    returned polynomial is "verified to prefix_n".
    """
    return _search_detail(s, params)[0]


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    n: int
    m: int
    classified: tuple[QuadPoly, ...]
    searched: tuple[QuadPoly, ...]
    raw_survivors: tuple[QuadPoly, ...]
    match: bool


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.match for row in self.rows)

    def mismatches(self) -> list[SweepRow]:
        return [row for row in self.rows if not row.match]

    def to_csv(self) -> str:
        lines = ["n,m,classified_count,search_count,match"]
        for row in self.rows:
            lines.append(
                f"{row.n},{row.m},{len(row.classified)},{len(row.searched)},"
                f"{'true' if row.match else 'false'}"
            )
        return "\n".join(lines) + "\n"


def _sweep_row(task: tuple[int, int, SearchParams]) -> SweepRow:
    n, m, params = task
    classified = classify(n, m).polynomials()
    searched, raw_found = _search_detail(sector(n, m), params)
    match = {p.coefficients() for p in classified} == {p.coefficients() for p in searched}
    return SweepRow(
        n=n,
        m=m,
        classified=tuple(classified),
        searched=tuple(searched),
        raw_survivors=tuple(raw_found),
        match=match,
    )


def _resolve_workers(requested: Optional[int]) -> int:
    cap = os.environ.get("SECTORPACK_THREADS")
    workers = requested if requested is not None else (os.cpu_count() or 1)
    if cap:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            raise InvalidEnvironment(
                f"SECTORPACK_THREADS must be an integer, got {cap!r}"
            ) from None
    return max(1, workers)


def sweep(
    max_n: int,
    max_m: int,
    params: Optional[SearchParams] = None,
    workers: Optional[int] = None,
) -> SweepReport:
    """Compare search against classify on every coprime (n, m) in range.

    Rows are ordered by (n, m) regardless of how many workers evaluate
    them; SECTORPACK_THREADS caps the worker count.
    """
    params = params or SearchParams()
    tasks = [
        (n, m, params)
        for n in range(1, max_n + 1)
        for m in range(1, max_m + 1)
        if math.gcd(n, m) == 1
    ]
    workers = _resolve_workers(workers)
    if workers == 1 or len(tasks) < 4:
        rows = [_sweep_row(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, tasks, chunksize=8))
    rows.sort(key=lambda row: (row.n, row.m))
    return SweepReport(rows=tuple(rows))
