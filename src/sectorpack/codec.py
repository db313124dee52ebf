"""Proved packing polynomials as pairing functions.

A scheme wraps a stair packing polynomial on any sector S(n/m), integral
ones included, and provides constant-time encode, value-to-point decode,
and an in-order point stream.  Along each staircase the values rise by k
from its start stair: the first stair of an ascending polynomial, the last
stair of a descending one, whose staircases are read backwards.  Both
decode and stream use the residue-class structure: staircases with index
congruent to c0 mod k carry exactly the values start_value(c0) + k*N, in
staircase-then-step order, so value k*t + i is stair t of the class whose
start value is i.  Step 0 proves this for every polynomial make_scheme
accepts; the stair counts of a class have a closed form, and a scheme
holds three integers per class:

0. make_scheme accepts p exactly when kstair_extract reads a form off it
   (the forced homogeneous part, an integer step +-k with k in the
   direction's class mod v, an integer f) and construct(s, k, direction)
   builds p itself: (d, e) = necessary_coefficients and the offset that
   puts the start values of staircases 0..k-1 onto 0..k-1.  Let S(c) be
   staircase c's start-stair value and cnt(c) = c*L + [v | c] >= 1 its
   stair count (step 1), so its values are S(c) + k*t, t < cnt(c).  With
   x0 = (u*z + c)/v and the homogeneous part (c*l)**2/(2n) = c*c*L/2,
   g(c) = S(c + k) - S(c) - k*cnt(c) loses its c*c and c terms and depends
   on c only through z = -c*r mod v.  With rho = k*r mod v, z(c + k) =
   z - rho + v*[z < rho], and
     ascending:  g = k*(k*L/2 + (d - rho)/v + [z < rho] - [z = 0]),
     descending: g = k*((d + rho)/v - k*L/2 - [z <= rho]).
   The necessary coefficients make g vanish on every z: ascending, k = u
   mod v gives rho = 1 and d = 1 - k*l/2 (rho = 0 and z = 0 when v = 1);
   descending, k = -u mod v gives rho = v - 1 and d = 1 + k*l/2 (again
   rho = 0 when v = 1).  So S(c + k) = S(c) + k*cnt(c) for every c: the
   staircases c0, c0 + k, c0 + 2k, ... carry S(c0) + k*N with no gap and
   no repeat.  Every sector point lies on exactly one staircase c >= 0,
   and S(0..k-1) runs through 0..k-1, one per residue mod k, so p maps
   the sector's points one to one onto the nonnegative integers.  The
   checks cost O(k), and nothing in them grows with v.  A refusal means
   "not proved", never "not packing"; prefix_check then runs to VERIFY_N,
   only to name a witness.
1. n | (m-1)**2 makes v = n/l divide l (l = gcd(n, m-1), u = (m-1)/l, v |
   l*u*u and gcd(u, v) = 1).  Let L = l/v >= 1.  Staircase c holds
   (c*l - z)//v + 1 stairs (LineFamily.line, z = (-c*r) mod v < v and r =
   u^-1 mod v), and since v | c*l that is c*L + [z == 0] = c*L + [v | c].
2. kstair_extract forces k = +-u (mod v), and u is a unit mod v, so
   gcd(k, v) = 1.  Along the class c0 + k*j exactly one staircase in every
   v has v | c, at j = j0 = -c0*k^-1 (mod v).
3. So the stairs before staircase j of the class number
   C(j) = sum of (c0 + k*i)*L + [i = j0 mod v] over i < j
        = (a*j + b)*j/2 + (j + h)//v,
   with a = L*k, b = L*(2*c0 - k) and h = v - 1 - j0.  decode takes the
   last j whose quadratic part P(j) = (a*j + b)*j/2 is at most t, j =
   (isqrt(b*b + 8*a*t) - b)//(2a).  C(j) >= P(j), so the staircase of
   stair t is j or before; if C(j) > t it is j - 1, never earlier: the
   correction (j - 1 + h)//v is at most j - 1 (h < v), and P(j) - P(j - 1)
   = a*(j - 1) + L*c0 >= j - 1, so C(j - 1) <= P(j) <= t.  Stair s of
   staircase c is then (x0 + s*u, z + s*v), with z and x0 = ((m-1)*z +
   c*l)/n those of LineFamily.line, inlined; a descending scheme reads
   stair count - 1 - s.
4. make_scheme keeps (c0, b, h) per residue.  stream reads each
   staircase's start stair and count off polynomials._start_stairs over c0,
   c0 + k, c0 + 2k, ..., as one run of points start + t*step, and
   interleaves the k class lists.

Both directions run the same code; they differ only in the start stairs
and the sign of the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import count as count_from
from math import isqrt

from .errors import PointOutsideSector, SectorPackError
from .polynomials import (
    Direction,
    KStairForm,
    QuadPoly,
    _start_stairs,
    _start_values,
    construct,
    kstair_extract,
)
from .sectors import LatticePoint, Sector, mod_inverse

# the depth to which make_scheme's refusals prefix-check a polynomial to
# name a witness
VERIFY_N = 500

# _point((x, y)) builds exactly what LatticePoint(x, y) builds, without the
# NamedTuple's Python-level __new__
_point = partial(tuple.__new__, LatticePoint)


@dataclass(frozen=True)
class PairingScheme:
    """An encode/decode pair backed by a packing polynomial that
    make_scheme has proved (step 0 of the module docstring).

    Schemes are immutable: make_scheme computes the O(k) integers decode
    reads, so encode, decode and stream hold no shared mutable state and
    may be called from many threads at once, and schemes pickle and copy
    like any frozen dataclass.  stream builds its lists in each call's
    locals.
    """

    sector: Sector
    poly: QuadPoly
    form: KStairForm
    # per value residue i, (c0, b, h) of the class of staircases c0 + k*j
    # whose start stairs carry i mod k (see the module docstring)
    _classes: tuple[tuple[int, int, int], ...] = field(default=(), repr=False)
    # (k, a, L, l, n, m - 1, u, v, r, desc): a = L*k, r = u^-1 mod v, and
    # desc whether values run from a staircase's last stair down
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
        staircases c0 + k*j, of which the first j hold C(j) = (a*j + b)*j/2
        + (j + h)//v stairs.  One isqrt finds the last j whose quadratic
        part is at most t, and one step back corrects it when C(j) > t
        (proof in the module docstring).
        """
        if value < 0:
            raise ValueError("values are nonnegative")
        k, a, L, l, n, m1, u, v, r, desc = self._steps
        t, residue = divmod(value, k)
        c0, b, h = self._classes[residue]
        # (a*j + b)*j/2 <= t exactly when (2*a*j + b)**2 <= b*b + 8*a*t;
        # 2*a*j + b is an integer, so that is |2*a*j + b| <= isqrt(...), and
        # the floored quotient is the last such j
        j = (isqrt(b * b + 8 * a * t) - b) // (2 * a)
        t -= (a * j + b) * j // 2 + (j + h) // v
        c = c0 + k * j
        if t < 0:
            c -= k
            t += c * L + (c % v == 0)
        z = -c * r % v
        if desc:
            t = c * L + (not z) - 1 - t
        return _point(((m1 * z + c * l) // n + t * u, z + t * v))

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
        """The first count points of a value residue class, in value order:
        its staircases c0, c0 + k, ... laid end to end, each a run of its
        stair count of points from its start stair, the last run cut to the
        points still wanted."""
        k, *_, u, v, _, desc = self._steps
        dx, dy = (-u, -v) if desc else (u, v)
        _, _, _, two_n, A, B, F = self._scaled
        stairs = _start_stairs(self.sector, A, B, F, two_n, count_from(self._classes[residue][0], k))
        points: list[LatticePoint] = []
        extend = points.extend
        while count:
            x, y, cnt, _, _ = next(stairs)
            cnt = min(cnt, count)
            # an integral sector's staircases are columns: dx = 0
            run_xs = range(x, x + cnt * dx, dx) if dx else [x] * cnt
            extend(map(_point, zip(run_xs, range(y, y + cnt * dy, dy))))
            count -= cnt
        return points

    def to_json_dict(self) -> dict:
        return {
            "sector": str(self.sector),
            "poly": self.poly.to_string(),
            "k": self.form.k,
            "direction": self.form.direction.value,
            "f": self.form.offset_f,
        }


def make_scheme(s: Sector, p: QuadPoly) -> PairingScheme:
    """Wrap a packing polynomial as a pairing scheme.

    Accepts p exactly when it is construct's polynomial for the step
    kstair_extract reads off it, which proves that p packs the whole
    sector (step 0 of the module docstring).  A refusal is a ValueError
    naming prefix_check's witness at depth VERIFY_N, or a fixed reason if
    p packs to that depth; whatever prefix_check raises propagates.
    """
    try:
        form = kstair_extract(s, p)
        proved = construct(s, form.k, form.direction)[0] == p
    except (ValueError, SectorPackError):
        proved = False
    if not proved:
        from .verify import prefix_check

        report = prefix_check(s, p, VERIFY_N)
        reason = (f"values 0..{VERIFY_N} each attained once, but it is not the k-stair "
                  "polynomial construct builds, so it is not proved to pack"
                  if report.ok else report.describe())
        raise ValueError(f"not a packing polynomial on S({s}): {reason}")
    k, lines = form.k, s.lines
    starts = _start_values(s, p.d, p.e, p.f, k)
    A, B, F = (int(2 * s.n * coeff) for coeff in (p.d, p.e, p.f))
    l, v = lines.l, lines.v
    L, k_inv = l // v, mod_inverse(k, v)
    return PairingScheme(
        sector=s,
        poly=p,
        form=form,
        _scaled=(s.n, s.m, s.m - 1, 2 * s.n, A, B, F),
        # residue i of the values belongs to the class whose start stair is
        # c0 = starts[i]; v | c on its staircase j0 = -c0/k mod v
        _classes=tuple((c0, L * (2 * c0 - k), v - 1 - (-c0 * k_inv) % v)
                       for c0 in map(starts.get, range(k))),
        _steps=(k, L * k, L, l, s.n, s.m - 1, lines.u, v, lines.r,
                form.direction is Direction.DESCENDING),
    )
