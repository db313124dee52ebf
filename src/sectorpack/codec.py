"""Verified packing polynomials as pairing functions.

A scheme wraps a stair packing polynomial on any sector S(n/m), integral
ones included, and provides constant-time encode, value-to-point decode,
and an in-order point stream.  Along each staircase the values rise by k
from its start stair: the first stair of an ascending polynomial, the last
stair of a descending one, whose staircases are read backwards.  Both
decode and stream use the residue-class structure: staircases with index
congruent to c0 mod k carry exactly the values start_value(c0) + k*N, in
staircase-then-step order.  Within a class the stair counts grow by k*l
every v staircases, so the cumulative count is a quadratic in the period
index plus a v-entry table, and decode inverts it in closed form with one
isqrt: O(1) big-integer operations and no state that grows with the value.
stream builds each class's values a staircase at a time, as one run of
points start + t*step, and interleaves the k class lists.  Both directions
run the same code; they differ only in the start stairs, read by
polynomials._start_stairs, the steps, and the period shift, which
make_scheme takes from the start stairs of staircases 0 and k*v.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import isqrt

from .errors import NotConsecutive, PointOutsideSector
from .polynomials import Direction, KStairForm, QuadPoly, _start_stairs, _start_values, kstair_extract
from .sectors import LatticePoint, Sector
from .verify import prefix_check

VERIFY_N = 500

# _point((x, y)) builds exactly what LatticePoint(x, y) builds, without the
# NamedTuple's Python-level __new__
_point = partial(tuple.__new__, LatticePoint)


@dataclass(frozen=True)
class PairingScheme:
    """An encode/decode pair backed by a prefix-verified packing polynomial.

    ``verified_n`` records the depth of the prefix check performed at
    construction, VERIFY_N — the verification horizon, not a proof.

    Schemes are immutable: make_scheme builds every table decode reads, one
    period of v stair counts per residue class, so encode, decode and
    stream hold no shared mutable state and may be called from many threads
    at once, and schemes pickle and copy like any frozen dataclass.  stream
    builds its lists in each call's locals.
    """

    sector: Sector
    poly: QuadPoly
    form: KStairForm
    verified_n: int
    # per value residue i, over the staircases c0 + k*j of the class whose
    # start stairs carry i mod k, for one period j < v: (pref, xs, zs),
    # pref[j] the stairs on the first j of them, (xs[j], zs[j]) the start
    # stair of staircase j
    _classes: tuple[tuple[tuple[int, ...], ...], ...] = field(default=(), repr=False)
    # (k, v, k*l, v*k*l, dx, dy, px, py): (dx, dy) the step to the next
    # stair in value order, (px, py) the shift of a start stair one period on
    _steps: tuple[int, ...] = field(default=(), repr=False)
    # (n, m, m - 1, 2n, 2n*d, 2n*e, 2n*f), cached so encode reads one tuple
    _scaled: tuple[int, ...] = field(default=(), repr=False)

    def encode(self, p: LatticePoint) -> int:
        x, y = p
        n, m, m1, two_n, a_s, b_s, c_s = self._scaled
        if x < 0 or y < 0 or y * m > x * n:
            raise PointOutsideSector(f"{tuple(p)} is not in S({self.sector})")
        return ((n * x - m1 * y) ** 2 + a_s * x + b_s * y + c_s) // two_n

    def decode(self, value: int) -> LatticePoint:
        """The unique sector point with encode(point) == value.

        value = k*t + residue is stair t of its class, counted along
        staircases c0 + k*j.  Their counts (c*l - z)//v + 1 repeat with
        period P = v, plus k*l per period, so the stairs before staircase
        j = q*P + r number C(j) = q*T + P*k*l*q*(q-1)/2 + pref[r] + q*r*k*l,
        T = pref[P].  The last q with C(q*P) <= t takes one isqrt; r comes
        from a binary search of the P-entry table.
        """
        if value < 0:
            raise ValueError("values are nonnegative")
        k, v, grow, a, dx, dy, px, py = self._steps
        t, residue = divmod(value, k)
        pref, xs, zs = self._classes[residue]
        # 2*C(q*P) = (a*q + b)*q with a = P*k*l, so C(q*P) <= t exactly when
        # (2*a*q + b)**2 <= b*b + 8*a*t; 2*a*q + b is an integer, so that is
        # |2*a*q + b| <= isqrt(...), and the floored quotient is the last q
        b = 2 * pref[-1] - a
        q = (isqrt(b * b + 8 * a * t) - b) // (2 * a)
        t -= (a * q + b) * q // 2
        # the last r < P with pref[r] + q*r*k*l <= t
        grow *= q
        r, hi = 0, v
        while hi - r > 1:
            mid = (r + hi) // 2
            if pref[mid] + grow * mid <= t:
                r = mid
            else:
                hi = mid
        t -= pref[r] + grow * r
        return _point((xs[r] + q * px + t * dx, zs[r] + q * py + t * dy))

    def stream(self, count: int) -> list[LatticePoint]:
        """Points in value order 0..count-1: each residue class's points
        from _class_points, interleaved into out[i::k]."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        k = self._steps[0]
        if k == 1:
            return self._class_points(0, count)
        out = [None] * count
        for i in range(k):
            out[i::k] = self._class_points(i, len(range(i, count, k)))
        return out

    def _class_points(self, residue: int, count: int) -> list[LatticePoint]:
        """The first count points of a value residue class, in value order.

        The class's staircases j = q*v + r laid end to end, each a run of
        pref[r+1] - pref[r] + q*k*l points (xs[r] + q*px, zs[r] + q*py) +
        t*(dx, dy), the last run cut to the points still wanted.
        """
        _, v, grow, _, dx, dy, px, py = self._steps
        pref, xs, zs = self._classes[residue]
        points: list[LatticePoint] = []
        extend = points.extend
        q = 0
        while count:
            for r in range(v):
                cnt = min(pref[r + 1] - pref[r] + q * grow, count)
                x, y = xs[r] + q * px, zs[r] + q * py
                # an integral sector's staircases are columns: dx = 0
                run_xs = range(x, x + cnt * dx, dx) if dx else [x] * cnt
                extend(map(_point, zip(run_xs, range(y, y + cnt * dy, dy))))
                count -= cnt
                if not count:
                    break
            q += 1
        return points

    def to_json_dict(self) -> dict:
        return {
            "sector": str(self.sector),
            "poly": self.poly.to_string(),
            "k": self.form.k,
            "direction": self.form.direction.value,
            "f": self.form.offset_f,
            "verified_N": self.verified_n,
        }


def make_scheme(s: Sector, p: QuadPoly) -> PairingScheme:
    """Wrap a packing polynomial as a pairing scheme.

    Runs prefix_check to depth VERIFY_N first and refuses polynomials that
    fail it or whose k start stairs miss 0..k-1.
    """
    report = prefix_check(s, p, VERIFY_N)
    if not report.ok:
        raise ValueError(f"not a packing polynomial on S({s}): {report.describe()}")
    form = kstair_extract(s, p)
    k, lines = form.k, s.lines
    try:
        starts = _start_values(s, p.d, p.e, p.f, k)
    except NotConsecutive as exc:
        raise ValueError(f"not a packing polynomial on S({s}): {exc}") from exc
    if min(starts) != 0:
        raise ValueError(f"start-stair values {min(starts)}..{max(starts)} are not 0..{k - 1}")
    A, B, F = (int(2 * s.n * coeff) for coeff in (p.d, p.e, p.f))
    # one period (k*v staircases) on, every start stair moves as staircase 0's
    (x0, y0, *_), (x1, y1, *_) = _start_stairs(s, A, B, F, 2 * s.n, (0, k * lines.v))
    step = (lines.u, lines.v) if form.direction is Direction.ASCENDING else (-lines.u, -lines.v)
    grow = k * lines.l
    return PairingScheme(
        sector=s,
        poly=p,
        form=form,
        verified_n=VERIFY_N,
        _scaled=(s.n, s.m, s.m - 1, 2 * s.n, A, B, F),
        # residue i of the values belongs to the class whose start stair is i
        _classes=tuple(_class_table(s, A, B, F, k, starts[i]) for i in range(k)),
        _steps=(k, lines.v, grow, lines.v * grow, *step, x1 - x0, y1 - y0),
    )


def _class_table(s: Sector, A: int, B: int, F: int, k: int, c0: int) -> tuple[tuple[int, ...], ...]:
    """(pref, xs, zs) of staircases c0 + k*j over one period j < v."""
    pref, xs, zs = [0], [], []
    for x, z, count, _, _ in _start_stairs(s, A, B, F, 2 * s.n, range(c0, c0 + k * s.lines.v, k)):
        pref.append(pref[-1] + count)
        xs.append(x)
        zs.append(z)
    return tuple(pref), tuple(xs), tuple(zs)
