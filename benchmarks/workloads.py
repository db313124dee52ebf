"""The benchmark's workloads.

Each workload is a closed loop: the caller issues its next call into the
library only after the previous one returns.  A workload has

* ``setup(rng, scale)``: builds its inputs from the seed;
* ``unit(inputs, round_no, tracer, outcome)``: makes one round of calls,
  checks every output it timed, and returns the timed samples;
* ``headline(samples)``: the workload's own named metrics.

Only the library calls sit inside the timed regions; every check runs
outside them.  ``scales`` holds the input sizes: ``full`` is the measured
benchmark, ``probe`` the smaller inputs of the tracing-overhead probe, and
``tiny`` the sizes of the self-test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import sectorpack
from sectorpack import (
    Direction,
    PrefixStatus,
    QuadPoly,
    SearchParams,
    SectorPackError,
    classify,
    make_scheme,
    nathanson_polys,
    prefix_check,
    rectangle_points,
    sector,
    sweep,
)

from statistics import median

from tracing import percentile

SRC = Path(sectorpack.__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())

ASC, DESC = Direction.ASCENDING, Direction.DESCENDING

# The ROADMAP's headline sweep.  Two workers: the reference machine has two
# CPUs, and the benchmark never runs more workers or threads than that.
SWEEP_PARAMS = SearchParams(prefix_n=300, max_k=6, offset_range=10, raw_grid_bound=40)
SWEEP_WORKERS = 2

# (label, n, m, k, direction) of the stair polynomials the verify and codec
# workloads use.  S(48/37) desc takes the negative-step branch of the oracle.
STAIR_CASES = [
    ("S(8/5) asc k=1", 8, 5, 1, ASC),
    ("S(12/7) asc k=3", 12, 7, 3, ASC),
    ("S(36/25) asc k=2", 36, 25, 2, ASC),
    ("S(48/37) desc k=1", 48, 37, 1, DESC),
]
CODEC_CASES = [
    ("S(8/5) asc k=1", 8, 5, 1, ASC),
    ("S(8/5) desc k=1", 8, 5, 1, DESC),
    ("S(12/7) asc k=3", 12, 7, 3, ASC),
    ("S(36/25) asc k=2", 36, 25, 2, ASC),
    ("S(48/37) desc k=1", 48, 37, 1, DESC),
]


@dataclass
class Outcome:
    """Checked operations of one run; ``failed`` counts those that failed."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # digest of the first round's outputs, compared with golden.json
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def add(self, attempted: int, failed: int, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(what)


@dataclass
class Sample:
    items: int  # work done: sectors, values or codec calls
    seconds: float  # wall time of the calls that did it
    calls: list[float] = field(default_factory=list)  # latency of single calls, seconds
    parts: dict[str, float] = field(default_factory=dict)  # seconds per phase


def run_python(args: list[str]) -> None:
    """Run a fresh interpreter that imports the library from this checkout.

    It waits with no timeout: with one, Popen.wait polls in sleeps of up to
    50 ms, which rounds the timing of every call up to that step.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL, check=True)


def classified_poly(n: int, m: int, k: int, direction: Direction) -> QuadPoly:
    for entry in classify(n, m).entries:
        if entry.form.k == k and entry.form.direction is direction:
            return entry.poly
    raise LookupError(f"classify({n}, {m}) has no k={k} {direction.value} entry")


def verify_cases() -> list[tuple]:
    """(label, sector, poly, should_pack) of the five packing cases."""
    cases = [
        (label, sector(n, m), classified_poly(n, m, k, d), True)
        for label, n, m, k, d in STAIR_CASES
    ]
    cases.append(("S(3/1) nathanson f", sector(3, 1), nathanson_polys(3)[0], True))
    return cases


def codec_specs() -> list[tuple]:
    return [(label, sector(n, m), classified_poly(n, m, k, d)) for label, n, m, k, d in CODEC_CASES]


def near_misses(cases: list[tuple], rng, count: int) -> list[tuple]:
    """Seeded one-coefficient perturbations of packing cases.

    d, e or f moves by a small integer, which keeps the polynomial
    integer-valued and its homogeneous part intact.  By the classification
    every such polynomial that classify does not list fails to pack.
    """
    out = []
    while len(out) < count:
        label, s, p, _ = rng.choice(cases)
        coeff = rng.choice("def")
        delta = rng.choice((-2, -1, 1, 2))
        moved = {name: getattr(p, name) + (delta if name == coeff else 0) for name in "def"}
        q = QuadPoly(p.a, p.b, p.c2, moved["d"], moved["e"], moved["f"])
        if q.coefficients() in {c.coefficients() for c in classify(s.n, s.m).polynomials()}:
            continue
        out.append((f"{label} {coeff}{delta:+d}", s, q, False))
    return out


def _value_absent(s, q: QuadPoly, value: int) -> bool:
    """No point of the sector takes ``value`` under q.

    Brute force over a box that holds every point with q <= value.  With
    t = n*x - (m-1)*y (t = x on integral sectors), q >= lam*t^2 - K*t + f
    and x <= t*m/n on the sector, which bounds t and then x.
    """
    n, m = s.n, s.m
    if m == 1:
        lam, k_lin, x_per_t = q.a, abs(q.d) + n * abs(q.e), Fraction(1)
    else:
        lam = q.a / (n * n)
        k_lin = abs(q.d) * Fraction(m, n) + abs(q.e)
        x_per_t = Fraction(m, n)
    disc = max(float(k_lin * k_lin + 4 * lam * (value - q.f)), 0.0)
    t_max = (float(k_lin) + math.sqrt(disc)) / (2 * float(lam)) + 1
    x_max = math.ceil(t_max * float(x_per_t)) + 1
    # integer coefficients, so the scan stays fast on large boxes
    scale = math.lcm(*(c.denominator for c in q.coefficients()))
    a, b, c2, d, e, f = (int(c * scale) for c in q.coefficients())
    target = value * scale
    return all(
        a * x * x + b * x * y + c2 * y * y + d * x + e * y + f != target
        for x, y in rectangle_points(s, x_max)
    )


def failure_confirmed(s, q: QuadPoly, report, n_max: int) -> bool:
    """Re-check a failing prefix report from its witnesses with eval_int."""
    status = report.status
    if status is PrefixStatus.DUPLICATE:
        a, b = report.point, report.point2
        return (
            a != b
            and s.contains(a)
            and s.contains(b)
            and 0 <= report.value <= n_max
            and q.eval_int(a) == report.value == q.eval_int(b)
        )
    if status is PrefixStatus.NEGATIVE_VALUE:
        return s.contains(report.point) and q.eval_int(report.point) == report.value < 0
    if status is PrefixStatus.MISSING_VALUE:
        return 0 <= report.value <= n_max and _value_absent(s, q, report.value)
    if status is PrefixStatus.NON_INTEGER_VALUE:
        return q.eval(report.point).denominator != 1
    return False


def sweep_failures(report, expected: dict) -> list[str]:
    """The checks of one sweep report against the recorded seed-commit output."""
    failed = []
    if not report.ok:
        failed.append(f"{len(report.mismatches())} mismatched rows")
    if len(report.rows) != expected["rows"]:
        failed.append(f"{len(report.rows)} rows, expected {expected['rows']}")
    digest = hashlib.sha256(report.to_csv().encode()).hexdigest()
    if digest != expected["csv_sha256"]:
        failed.append(f"CSV sha256 {digest[:12]}..., expected {expected['csv_sha256'][:12]}...")
    survivors = sum(len(row.searched) for row in report.rows)
    if survivors != expected["survivors"]:
        failed.append(f"{survivors} survivors, expected {expected['survivors']}")
    return failed


class Sweep30:
    name = "sweep-30"
    items = "sectors"
    # no probe scale: the traced run takes the sweep's overhead from the layers
    scales = {"full": "30x30", "tiny": "8x8"}

    def setup(self, rng, scale):
        return {"expected": dict(GOLDEN["sweep"][scale])}

    def unit(self, inputs, round_no, tracer, outcome):
        expected = inputs["expected"]
        t0 = perf_counter()
        with tracer.span("verify.sweep"):
            report = sweep(expected["max_n"], expected["max_m"], SWEEP_PARAMS, workers=SWEEP_WORKERS)
        dt = perf_counter() - t0
        failed = sweep_failures(report, expected)
        outcome.add(1, bool(failed), "; ".join(failed))
        if round_no == 0:
            outcome.digest.update(report.to_csv().encode())
        return [Sample(len(report.rows), dt)]

    def headline(self, samples):
        return {"sweep_s": (median([s.seconds for s in samples]), "s")}


class VerifyDeep:
    name = "verify-deep"
    items = "values"
    scales = {
        "full": {"n": 10**6, "near_per_round": 3},
        "probe": {"n": 10**5, "near_per_round": 3},
        "tiny": {"n": 2000, "near_per_round": 2},
    }

    def setup(self, rng, scale):
        cases = verify_cases()
        return {"n": scale["n"], "k": scale["near_per_round"], "cases": cases,
                "near": near_misses(cases, rng, 16), "rng": rng}

    def unit(self, inputs, round_no, tracer, outcome):
        n, k, pool = inputs["n"], inputs["k"], inputs["near"]
        todo = inputs["cases"] + [pool[(round_no * k + i) % len(pool)] for i in range(k)]
        inputs["rng"].shuffle(todo)
        samples = []
        for label, s, p, should_pack in todo:
            t0 = perf_counter()
            with tracer.span("verify.prefix_check", case=label):
                report = prefix_check(s, p, n)
            dt = perf_counter() - t0
            if should_pack:
                ok = report.ok and report.points == n + 1
            else:
                ok = failure_confirmed(s, p, report, n)
            outcome.add(1, not ok, f"{label}: {report.describe()}")
            if round_no == 0:
                outcome.digest.update(f"{label}|{report.describe()}\n".encode())
            samples.append(Sample(n + 1, dt))
        return samples

    def headline(self, samples):
        total = sum(s.seconds for s in samples)
        return {"verify_values_per_s": (sum(s.items for s in samples) / total, "1/s")}


def _log_uniform_strata(rng, count: int, lo_exp: float, hi_exp: float) -> list[int]:
    """One seeded value in each of ``count`` equal slices of [10^lo, 10^hi]
    on a log scale, so the spread of sizes is the same for every seed."""
    span = hi_exp - lo_exp
    return [int(10 ** (lo_exp + span * (i + rng.random()) / count)) for i in range(count)]


class CodecRoundtrip:
    """Two phases per round, which use the decode cache in opposite ways.

    The dense phase streams points, then encodes each point and decodes each
    value in seeded order on warm schemes: it reads the cache.  The cold
    phase decodes seeded values, log-uniform in [10^6, 10^10], each on a
    fresh scheme as a CLI decode call does: it grows the cache.
    """

    name = "codec-roundtrip"
    items = "codec calls"
    scales = {
        "full": {"points": 10**5, "values": 100, "lo": 6, "hi": 10},
        "probe": {"points": 10**4, "values": 25, "lo": 6, "hi": 9},
        "tiny": {"points": 500, "values": 10, "lo": 3, "hi": 6},
    }

    def setup(self, rng, scale):
        count = scale["points"]
        specs = codec_specs()
        schemes = [(label, make_scheme(s, p)) for label, s, p in specs]
        for _, scheme in schemes:
            # warm: the last values of every residue class grow each cache
            for value in range(count - 6, count):
                scheme.decode(value)
        order = list(range(count))
        rng.shuffle(order)
        return {"count": count, "schemes": schemes, "order": order, "specs": specs,
                "rng": rng, **scale}

    def unit(self, inputs, round_no, tracer, outcome):
        samples = [self._dense(inputs, label, scheme, round_no, tracer, outcome)
                   for label, scheme in inputs["schemes"]]
        samples.append(self._cold(inputs, round_no, tracer, outcome))
        return samples

    def _dense(self, inputs, label, scheme, round_no, tracer, outcome):
        count, order = inputs["count"], inputs["order"]
        t0 = perf_counter()
        with tracer.span("codec.stream", scheme=label, items=count):
            points = scheme.stream(count)
        t1 = perf_counter()
        encode = scheme.encode
        with tracer.span("codec.encode", scheme=label, items=count):
            codes = [encode(points[i]) for i in order]
        t2 = perf_counter()
        decode = scheme.decode
        with tracer.span("codec.decode", scheme=label, items=count):
            decoded = [decode(v) for v in order]
        t3 = perf_counter()
        # encode(stream[i]) == i and decode(i) == stream[i]; together they
        # give encode(decode(v)) == v and decode(encode(pt)) == pt
        bad = sum(code != v for code, v in zip(codes, order))
        bad += sum(pt != points[v] for pt, v in zip(decoded, order))
        if len(points) != count:
            bad += 2 * count
        outcome.add(2 * count, bad, f"{label}: {bad} wrong round trips")
        if round_no == 0:
            outcome.digest.update(repr(points).encode())
        return Sample(3 * count, t3 - t0,
                      parts={"stream": t1 - t0, "encode": t2 - t1, "decode": t3 - t2})

    def _cold(self, inputs, round_no, tracer, outcome):
        specs, rng = inputs["specs"], inputs["rng"]
        values = _log_uniform_strata(rng, inputs["values"], inputs["lo"], inputs["hi"])
        draws = [(i % len(specs), v) for i, v in enumerate(values)]
        rng.shuffle(draws)
        latency = []
        for which, value in draws:
            label, s, p = specs[which]
            scheme = make_scheme(s, p)
            t0 = perf_counter()
            with tracer.span("codec.decode_cold", scheme=label, value=value):
                point = scheme.decode(value)
            latency.append(perf_counter() - t0)
            ok = s.contains(point) and scheme.encode(point) == value
            outcome.add(1, not ok, f"{label}: decode({value}) = {tuple(point)}")
            if round_no == 0:
                outcome.digest.update(f"{label}|{value}|{tuple(point)}\n".encode())
        return Sample(len(latency), sum(latency), latency)

    def headline(self, samples):
        dense = [s for s in samples if s.parts]
        calls = [c for s in samples for c in s.calls]
        count = dense[0].items // 3

        def rate(part):
            return median([count / s.parts[part] for s in dense])

        return {
            "stream_points_per_s": (rate("stream"), "1/s"),
            "encode_ops_per_s": (rate("encode"), "1/s"),
            "decode_ops_per_s": (rate("decode"), "1/s"),
            "decode_cold_ms_p50": (median(calls) * 1e3, "ms"),
            "decode_cold_ms_p90": (percentile(calls, 90) * 1e3, "ms"),
        }


class CodecShared:
    """Not a listed workload: at the seed commit it fails (the decode race)."""

    name = "codec-shared"
    items = "round trips"
    threads = 2
    scales = {
        "full": {"values": 2000},
        "probe": {"values": 500},
        "tiny": {"values": 100},
    }

    def setup(self, rng, scale):
        return {"specs": codec_specs(), "rng": rng, **scale}

    def unit(self, inputs, round_no, tracer, outcome):
        specs, rng, per_thread = inputs["specs"], inputs["rng"], inputs["values"]
        label, s, p = specs[round_no % len(specs)]
        scheme = make_scheme(s, p)
        values = [[int(10 ** (9 * rng.random())) for _ in range(per_thread)]
                  for _ in range(self.threads)]
        results: list = [None] * self.threads
        barrier = threading.Barrier(self.threads)

        def work(idx: int) -> None:
            barrier.wait(timeout=60)
            bad = 0
            t0 = perf_counter()
            for value in values[idx]:
                try:
                    if scheme.encode(scheme.decode(value)) != value:
                        bad += 1
                except (SectorPackError, ValueError, IndexError):
                    bad += 1
            results[idx] = (bad, perf_counter() - t0)

        workers = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(self.threads)]
        t0 = perf_counter()
        with tracer.span("codec.shared_round", scheme=label):
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        wall = perf_counter() - t0
        bad = sum(r[0] if r is not None else per_thread for r in results)
        outcome.add(self.threads * per_thread, bad, f"{label}: {bad} wrong round trips")
        calls = [r[1] / per_thread for r in results if r is not None]
        return [Sample(self.threads * per_thread, wall, calls)]

    def headline(self, samples):
        return {"decode_ops_per_s": (median([s.items / s.seconds for s in samples]), "1/s")}


LISTED = [Sweep30(), VerifyDeep(), CodecRoundtrip()]
ALL = {w.name: w for w in LISTED + [CodecShared()]}
