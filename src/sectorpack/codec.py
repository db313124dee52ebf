"""Verified packing polynomials as pairing functions.

A scheme wraps a stair packing polynomial on any sector S(n/m), integral
ones included, and provides constant-time encode, value-to-point decode,
and an in-order point stream.  Decoding an ascending scheme uses the
residue-class structure: staircases with index congruent to c0 mod k carry
exactly the values first_stair_value(c0) + k*N, in staircase-then-step
order.  Within a class the stair counts grow by k*l every v staircases, so
the cumulative count is a quadratic in the period index plus a v-entry
table, and decode inverts it in closed form with one isqrt: O(1)
big-integer operations and no state that grows with the value.

Descending schemes decode through the dual ascending scheme on
S(n/(n+2-m)) (S(n/(n+1)) for an integral sector) and carry the point back
through the duality map; a descending polynomial whose sector has no dual
(t_dual raises DegenerateDual) is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Optional

from .errors import PointOutsideSector, SectorPackError
from .polynomials import Direction, KStairForm, QuadPoly, kstair_extract
from .sectors import LatticeMap, LatticePoint, LineFamily, Sector, t_dual
from .verify import prefix_check

MIN_VERIFY_N = 500


@dataclass(frozen=True)
class PairingScheme:
    """An encode/decode pair backed by a prefix-verified packing polynomial.

    ``first_stair_values`` holds the polynomial's values at the first
    stairs of staircases 0..k-1; for an ascending scheme these are a
    permutation of {0..k-1}.  ``verified_n`` records the depth of the
    prefix check performed at construction — the verification horizon,
    not a proof.

    Schemes are immutable: make_scheme builds every table decode reads, one
    period of v stair counts per residue class, so encode, decode and
    stream hold no shared mutable state and may be called from many threads
    at once, and schemes pickle and copy like any frozen dataclass.  stream
    cursors are local to each call.
    """

    sector: Sector
    poly: QuadPoly
    form: KStairForm
    first_stair_values: tuple[int, ...]
    verified_n: int
    _dual: Optional["PairingScheme"] = field(default=None, repr=False)
    _from_dual: Optional[LatticeMap] = field(default=None, repr=False)
    _class_of_residue: tuple[int, ...] = field(default=(), repr=False)
    # per value residue, over the staircases c0 + k*j of its class for one
    # period j < v: (pref, xs, zs), pref[j] the stairs on the first j of
    # them, (xs[j], zs[j]) the first stair of staircase j
    _classes: tuple[tuple[tuple[int, ...], ...], ...] = field(default=(), repr=False)
    # (k, v, k*l, v*k*l, u), the constants decode reads
    _steps: tuple[int, ...] = field(default=(), repr=False)
    # scaled coefficients, cached so encode stays arithmetic-only
    _scaled: tuple[int, ...] = field(default=(), repr=False)

    def encode(self, p: LatticePoint) -> int:
        x, y = p
        n, m = self.sector.n, self.sector.m
        if x < 0 or y < 0 or y * m > x * n:
            raise PointOutsideSector(f"{tuple(p)} is not in S({self.sector})")
        two_n, a_s, b_s, c_s = self._scaled
        return ((n * x - (m - 1) * y) ** 2 + a_s * x + b_s * y + c_s) // two_n

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
        if self._dual is not None:
            return self._from_dual.apply(self._dual.decode(value))
        k, v, grow, a, u = self._steps
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
        # a period later a staircase has the same z and k more x (P*l = n)
        return LatticePoint(xs[r] + q * k + t * u, zs[r] + t * v)

    def stream(self, count: int) -> list[LatticePoint]:
        """Points in value order 0..count-1, via incremental per-class cursors."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        if self._dual is not None:
            carry = self._from_dual
            return [carry.apply(p) for p in self._dual.stream(count)]
        k = self.form.k
        lines = self.sector.lines
        dx, dy = lines.u, lines.v
        cursors = {}
        for c0 in range(k):
            x0, z, cnt = lines.line(c0)
            cursors[c0] = [c0, 0, cnt, x0, z]
        out = []
        for value in range(count):
            cur = cursors[self._class_of_residue[value % k]]
            c, t, cnt, fx, fy = cur
            out.append(LatticePoint(fx + t * dx, fy + t * dy))
            t += 1
            if t == cnt:
                c += k
                x0, z, cnt = lines.line(c)
                cur[:] = [c, 0, cnt, x0, z]
            else:
                cur[1] = t
        return out

    def to_json_dict(self) -> dict:
        return {
            "sector": str(self.sector),
            "poly": self.poly.to_string(),
            "k": self.form.k,
            "direction": self.form.direction.value,
            "f": self.form.offset_f,
            "verified_N": self.verified_n,
        }


def make_scheme(s: Sector, p: QuadPoly, verify_to: int = MIN_VERIFY_N) -> PairingScheme:
    """Wrap a packing polynomial as a pairing scheme.

    Runs prefix_check to depth max(verify_to, 500) first and refuses
    polynomials that fail it.
    """
    verify_to = max(verify_to, MIN_VERIFY_N)
    report = prefix_check(s, p, verify_to)
    if not report.ok:
        raise ValueError(f"not a packing polynomial on S({s}): {report.describe()}")
    form = kstair_extract(s, p)
    values = tuple(p.eval_int(s.first_stair(c)) for c in range(form.k))
    lookup = classes = steps = ()
    dual = from_dual = None
    if form.direction is Direction.ASCENDING:
        if sorted(values) != list(range(form.k)):
            raise ValueError(
                f"first-stair values {values} are not a permutation of 0..{form.k - 1}"
            )
        # residue i of the values belongs to the class whose first stair is i
        lookup = tuple(sorted(range(form.k), key=values.__getitem__))
        lines = s.lines
        classes = tuple(_class_table(lines, form.k, c0) for c0 in lookup)
        grow = form.k * lines.l
        steps = (form.k, lines.v, grow, lines.v * grow, lines.u)
    else:
        try:
            dual_sector, _ = t_dual(s)
        except SectorPackError as exc:
            raise ValueError(
                f"descending schemes on S({s}) are unsupported: {exc}"
            ) from exc
        from_dual = t_dual(dual_sector)[1]  # the inverse duality map
        dual = make_scheme(dual_sector, p.compose(from_dual), verify_to)
    return PairingScheme(
        sector=s,
        poly=p,
        form=form,
        first_stair_values=values,
        verified_n=verify_to,
        _scaled=(2 * s.n, int(2 * s.n * p.d), int(2 * s.n * p.e), int(2 * s.n * p.f)),
        _dual=dual,
        _from_dual=from_dual,
        _class_of_residue=lookup,
        _classes=classes,
        _steps=steps,
    )


def _class_table(lines: LineFamily, k: int, c0: int) -> tuple[tuple[int, ...], ...]:
    """(pref, xs, zs) of staircases c0 + k*j over one period j < v."""
    pref, xs, zs = [0], [], []
    for j in range(lines.v):
        x0, z, count = lines.line(c0 + k * j)
        pref.append(pref[-1] + count)
        xs.append(x0)
        zs.append(z)
    return tuple(pref), tuple(xs), tuple(zs)


def encode(scheme: PairingScheme, p: LatticePoint) -> int:
    return scheme.encode(p)


def decode(scheme: PairingScheme, value: int) -> LatticePoint:
    return scheme.decode(value)


def stream(scheme: PairingScheme, count: int) -> list[LatticePoint]:
    return scheme.stream(count)
