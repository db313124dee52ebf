"""Verified packing polynomials as pairing functions.

A scheme wraps a stair packing polynomial on a sector with m >= 2 and
provides constant-time encode, value-to-point decode, and an in-order
point stream.  Decoding an ascending scheme uses the residue-class
structure: staircases with index congruent to c mod k carry exactly the
values first_stair_value(c) + k*N, in staircase-then-step order.  The
per-class cumulative stair counts are cached lazily and binary searched,
so decode costs O(log) staircase lookups after an amortized O(sqrt(v))
table extension.

Descending schemes decode through the dual ascending scheme on
S(n/(n+2-m)) and carry the point back through the duality map.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

from .errors import PointOutsideSector, SectorPackError
from .polynomials import Direction, KStairForm, QuadPoly, kstair_extract
from .sectors import LatticeMap, LatticePoint, Sector, t_dual
from .verify import prefix_check

MIN_VERIFY_N = 500


@dataclass
class PairingScheme:
    """An encode/decode pair backed by a prefix-verified packing polynomial.

    ``first_stair_values`` holds the polynomial's values at the first
    stairs of staircases 0..k-1; for an ascending scheme these are a
    permutation of {0..k-1}.  ``verified_n`` records the depth of the
    prefix check performed at construction — the verification horizon,
    not a proof.

    Schemes are logically immutable: decode only appends to a monotone
    cumulative-count cache, and only under the scheme's lock, so encode,
    decode and stream may be called from many threads at once and give the
    same results as one thread.  Reads of an already grown cache take no
    lock.  stream cursors are local to each call.
    """

    sector: Sector
    poly: QuadPoly
    form: KStairForm
    first_stair_values: tuple[int, ...]
    verified_n: int
    _dual: Optional["PairingScheme"] = field(default=None, repr=False)
    _from_dual: Optional[LatticeMap] = field(default=None, repr=False)
    _class_of_residue: tuple[int, ...] = field(default=(), repr=False)
    _cum: list[list[int]] = field(default_factory=list, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)
    # scaled coefficients, cached so encode stays arithmetic-only
    _scaled: tuple[int, ...] = field(default=(), repr=False)

    def __getstate__(self) -> dict:
        # a lock cannot be pickled; each copy gets its own
        return {k: v for k, v in self.__dict__.items() if k != "_lock"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _lock=threading.Lock())

    def encode(self, p: LatticePoint) -> int:
        x, y = p
        n, m = self.sector.n, self.sector.m
        if x < 0 or y < 0 or y * m > x * n:
            raise PointOutsideSector(f"{tuple(p)} is not in S({self.sector})")
        two_n, a_s, b_s, c_s = self._scaled
        return ((n * x - (m - 1) * y) ** 2 + a_s * x + b_s * y + c_s) // two_n

    def decode(self, value: int) -> LatticePoint:
        """The unique sector point with encode(point) == value."""
        if value < 0:
            raise ValueError("values are nonnegative")
        if self.form.direction is Direction.DESCENDING:
            return self._from_dual.apply(self._dual.decode(value))
        k = self.form.k
        lines = self.sector.lines
        c0 = self._class_of_residue[value % k]
        t = (value - self.first_stair_values[c0]) // k
        cum = self._cum[c0]
        if not cum or cum[-1] <= t:
            with self._lock:
                while not cum or cum[-1] <= t:
                    c_next = c0 + k * len(cum)
                    cum.append((cum[-1] if cum else 0) + lines.line(c_next)[2])
        idx = bisect_right(cum, t)
        t_in = t - (cum[idx - 1] if idx else 0)
        x0, z, _ = lines.line(c0 + k * idx)
        return LatticePoint(x0 + t_in * lines.u, z + t_in * lines.v)

    def stream(self, count: int) -> list[LatticePoint]:
        """Points in value order 0..count-1, via incremental per-class cursors."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        if self.form.direction is Direction.DESCENDING:
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
    if s.m < 2:
        raise ValueError("pairing schemes need a staircase sector (m >= 2)")
    verify_to = max(verify_to, MIN_VERIFY_N)
    report = prefix_check(s, p, verify_to)
    if not report.ok:
        raise ValueError(f"not a packing polynomial on S({s}): {report.describe()}")
    form = kstair_extract(s, p)
    values = tuple(p.eval_int(s.first_stair(c)) for c in range(form.k))
    scheme = PairingScheme(
        sector=s,
        poly=p,
        form=form,
        first_stair_values=values,
        verified_n=verify_to,
        _scaled=(2 * s.n, int(2 * s.n * p.d), int(2 * s.n * p.e), int(2 * s.n * p.f)),
    )
    if form.direction is Direction.ASCENDING:
        if sorted(values) != list(range(form.k)):
            raise ValueError(
                f"first-stair values {values} are not a permutation of 0..{form.k - 1}"
            )
        lookup = [0] * form.k
        for c, value in enumerate(values):
            lookup[value] = c
        scheme._class_of_residue = tuple(lookup)
        scheme._cum = [[] for _ in range(form.k)]
    else:
        try:
            dual_sector, to_dual = t_dual(s)
        except SectorPackError as exc:
            raise ValueError(
                f"descending schemes on S({s}) are unsupported: {exc}"
            ) from exc
        if dual_sector.m < 2:
            raise ValueError(
                f"descending schemes on S({s}) are unsupported: dual sector is integral"
            )
        from_dual = t_dual(dual_sector)[1]  # the inverse duality map
        dual_poly = p.compose(from_dual)
        scheme._dual = make_scheme(dual_sector, dual_poly, verify_to)
        scheme._from_dual = from_dual
    return scheme


def encode(scheme: PairingScheme, p: LatticePoint) -> int:
    return scheme.encode(p)


def decode(scheme: PairingScheme, value: int) -> LatticePoint:
    return scheme.decode(value)


def stream(scheme: PairingScheme, count: int) -> list[LatticePoint]:
    return scheme.stream(count)
