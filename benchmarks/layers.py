"""Per-layer metrics, measured by the traced run.

The traced run records a span around every call it makes into a library
module and derives each layer's metrics from those spans.  Every traced run
measures every layer, whatever its workload, so the per-layer report always
has the same metrics; only ``trace.overhead_frac`` belongs to the workload.
"""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
from statistics import median
from time import perf_counter

from sectorpack import (
    admissible_ks,
    classify,
    construct,
    make_scheme,
    prefix_check,
    search,
    sector,
    sweep,
)

import workloads as wl
from tracing import percentile


def _seconds(record: dict) -> float:
    return (record["end_ns"] - record["start_ns"]) / 1e9


def _child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _peak_growth_kb(s, p, call: str) -> float:
    """How far one call raises the peak resident set of a fresh interpreter.

    The interpreter imports the library and builds the sector and polynomial
    first, so only the call's own memory counts.  It reads VmHWM, which exec
    resets, rather than ru_maxrss, which keeps the parent's peak across exec.
    (tracemalloc would give allocation peaks too, but slows the oracle at
    10^6 values fifty-fold.)
    """
    code = "\n".join([
        "def hwm():",
        "    with open('/proc/self/status') as fh:",
        "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM'))",
        "from sectorpack import QuadPoly, make_scheme, prefix_check, sector",
        f"s = sector({s.n}, {s.m})",
        f"p = QuadPoly.from_string({p.to_string()!r})",
        "before = hwm()",
        call,
        "print(hwm() - before)",
    ])
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(wl.SRC)),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def sweep_layers(tr, outcome, grid_key: str, out: dict) -> float:
    """classify, verify.search, verify.oracle certify, polynomials.construct
    and verify.pool on the sweep-30 grid.  Returns the tracing overhead of
    the per-sector loop against the untraced serial sweep."""
    expected = wl.GOLDEN["sweep"][grid_key]
    max_n, max_m = expected["max_n"], expected["max_m"]
    params = wl.SWEEP_PARAMS
    grid = [(n, m) for n in range(1, max_n + 1) for m in range(1, max_m + 1) if math.gcd(n, m) == 1]

    with tr.span("verify.pool.serial") as rec:
        serial = sweep(max_n, max_m, params, workers=1)
    serial_s = _seconds(rec)
    failed = wl.sweep_failures(serial, expected)
    outcome.add(1, bool(failed), "serial sweep: " + "; ".join(failed))

    # The same per-sector work as the serial sweep, one span per call.
    classified = []
    entries = survivors = 0
    t0 = perf_counter()
    for i, (n, m) in enumerate(grid):
        with tr.span("classify", trace=i):
            result = classify(n, m)
        with tr.span("verify.search", trace=i):
            found = search(sector(n, m), params)
        entries += len(result.entries)
        survivors += len(found)
        same = {p.coefficients() for p in result.polynomials()} == {p.coefficients() for p in found}
        outcome.add(1, not same, f"S({n}/{m}): search and classify disagree")
        classified.append((i, sector(n, m), result.polynomials()))
    loop_s = perf_counter() - t0

    for i, s, polys in classified:
        for p in polys:
            with tr.span("verify.oracle.certify", trace=i):
                report = prefix_check(s, p, params.prefix_n)
            outcome.add(1, not report.ok, f"certify S({s}) {p}: {report.describe()}")

    for i, (n, m) in enumerate(grid):
        if m >= 2 and n > m:
            for k, direction in sorted(admissible_ks(n, m), key=lambda kd: (kd[0], kd[1].value)):
                with tr.span("polynomials.construct", trace=i):
                    construct(sector(n, m), k, direction)

    cpu0 = _child_cpu_s()
    with tr.span("verify.pool.sweep", workers=wl.SWEEP_WORKERS) as rec:
        pooled = sweep(max_n, max_m, params, workers=wl.SWEEP_WORKERS)
    pooled_s = _seconds(rec)
    child_cpu = _child_cpu_s() - cpu0
    failed = wl.sweep_failures(pooled, expected)
    outcome.add(1, bool(failed), "pooled sweep: " + "; ".join(failed))

    search_s = tr.seconds("verify.search")
    speedup = serial_s / pooled_s
    out.update({
        "classify.ms_total": (sum(tr.seconds("classify")) * 1e3, "ms"),
        "classify.entries": (entries, "count"),
        "verify.search.ms_total": (sum(search_s) * 1e3, "ms"),
        "verify.search.ms_p50": (median(search_s) * 1e3, "ms"),
        "verify.search.ms_p98": (percentile(search_s, 98) * 1e3, "ms"),
        "verify.search.share": (sum(search_s) / loop_s, "frac"),
        "verify.search.grid_sectors": (len(grid), "count"),
        "verify.search.survivors": (survivors, "count"),
        "verify.oracle.certify_ms_total": (sum(tr.seconds("verify.oracle.certify")) * 1e3, "ms"),
        "polynomials.construct_ms_total": (sum(tr.seconds("polynomials.construct")) * 1e3, "ms"),
        "verify.pool.serial_s": (serial_s, "s"),
        "verify.pool.speedup": (speedup, "x"),
        "verify.pool.efficiency": (speedup / wl.SWEEP_WORKERS, "frac"),
        "verify.pool.child_cpu_s": (child_cpu, "s"),
    })
    return loop_s / serial_s - 1


def oracle_layers(tr, outcome, rng, n_max: int, out: dict) -> None:
    """prefix_check cost per value on each branch, and its allocation peak."""
    cases = wl.verify_cases()
    stairs = cases[0]
    columns = next(c for c in cases if c[1].m == 1)
    fail = wl.near_misses(cases, rng, 1)[0]
    per_value = {}
    for kind, (label, s, p, should_pack) in (("stairs", stairs), ("columns", columns), ("fail", fail)):
        with tr.span(f"verify.oracle.{kind}", case=label) as rec:
            report = prefix_check(s, p, n_max)
        per_value[kind] = _seconds(rec) / (n_max + 1)
        ok = (report.ok and report.points == n_max + 1) if should_pack else wl.failure_confirmed(s, p, report, n_max)
        outcome.add(1, not ok, f"{label}: {report.describe()}")

    label, s, p, _ = stairs
    with tr.span("verify.oracle.alloc", case=label):
        growth_kb = _peak_growth_kb(s, p, f"prefix_check(s, p, {n_max})")

    for kind in ("stairs", "columns", "fail"):
        out[f"verify.oracle.{kind}_ns_per_value"] = (per_value[kind] * 1e9, "ns")
    out["verify.oracle.alloc_peak_mb"] = (growth_kb / 1024, "MB")


def codec_layers(tr, outcome, rng, count: int, out: dict) -> None:
    specs = wl.codec_specs()
    make_ms = []
    schemes = {}
    for _ in range(3):
        for label, s, p in specs:
            with tr.span("codec.make_scheme", scheme=label) as rec:
                schemes[label] = make_scheme(s, p)
            make_ms.append(_seconds(rec) * 1e3)

    stream_us, encode_us, decode_us = {}, {}, {}
    for label, scheme in schemes.items():
        with tr.span("codec.stream", scheme=label, items=count) as rec:
            points = scheme.stream(count)
        stream_us[label] = _seconds(rec) / count * 1e6
        with tr.span("codec.encode", scheme=label, items=count) as rec:
            codes = [scheme.encode(pt) for pt in points]
        encode_us[label] = _seconds(rec) / count * 1e6
        for value in range(count - 6, count):
            scheme.decode(value)
        with tr.span("codec.decode_warm", scheme=label, items=count) as rec:
            decoded = [scheme.decode(v) for v in range(count)]
        decode_us[label] = _seconds(rec) / count * 1e6
        bad = sum(c != v for v, c in enumerate(codes)) + sum(a != b for a, b in zip(decoded, points))
        outcome.add(2 * count, bad, f"{label}: {bad} wrong warm round trips")

    label, s, p = specs[0]
    cold = {}
    for exp in (6, 8, 10):
        times = []
        for _ in range(3):
            scheme = make_scheme(s, p)
            value = 10**exp + rng.randrange(1000)
            with tr.span(f"codec.decode_cold.v1e{exp}", scheme=label, value=value) as rec:
                point = scheme.decode(value)
            times.append(_seconds(rec) * 1e3)
            outcome.add(1, scheme.encode(point) != value, f"{label}: cold decode({value})")
        cold[exp] = median(times)

    value = 10**10 + rng.randrange(1000)
    with tr.span("codec.decode_cold_alloc", scheme=label, value=value):
        growth_kb = _peak_growth_kb(s, p, f"make_scheme(s, p).decode({value})")

    out.update({
        "codec.make_scheme_ms": (median(make_ms), "ms"),
        "codec.encode_us": (median(encode_us.values()), "us"),
        "codec.decode_warm_us": (median(decode_us.values()), "us"),
        "codec.decode_desc_ratio": (decode_us["S(8/5) desc k=1"] / decode_us["S(8/5) asc k=1"], "x"),
        "codec.stream_us_per_point": (median(stream_us.values()), "us"),
        "codec.decode_cold_ms.v1e6": (cold[6], "ms"),
        "codec.decode_cold_ms.v1e8": (cold[8], "ms"),
        "codec.decode_cold_ms.v1e10": (cold[10], "ms"),
        "codec.decode_cold_alloc_peak_kb.v1e10": (growth_kb, "KB"),
    })


def geometry_layers(tr, count: int, out: dict) -> None:
    """sectors.first_stair / stair_count and QuadPoly.eval_int, per call."""
    s = sector(12, 7)
    label, s8, p8 = wl.codec_specs()[0]
    points = make_scheme(s8, p8).stream(count)
    for _ in range(3):
        with tr.span("sectors.first_stair", items=count):
            for c in range(count):
                s.first_stair(c)
        with tr.span("sectors.stair_count", items=count):
            for c in range(count):
                s.stair_count(c)
        with tr.span("polynomials.eval_int", items=count):
            for pt in points:
                p8.eval_int(pt)
    out["sectors.first_stair_us"] = (median(tr.per_item("sectors.first_stair")) * 1e6, "us")
    out["sectors.stair_count_us"] = (median(tr.per_item("sectors.stair_count")) * 1e6, "us")
    out["polynomials.eval_int_us"] = (median(tr.per_item("polynomials.eval_int")) * 1e6, "us")


def cli_layers(tr, out: dict) -> None:
    """Cold start of a fresh interpreter, less the bare interpreter."""
    runs = {"bare": ["-c", "pass"], "import": ["-c", "import sectorpack"],
            "classify": ["-m", "sectorpack.cli", "classify", "12/7"]}
    for _ in range(5):
        for name, args in runs.items():
            with tr.span(f"cli.{name}"):
                wl.run_python(args)
    bare = median(tr.seconds("cli.bare"))
    out["cli.import_ms"] = ((median(tr.seconds("cli.import")) - bare) * 1e3, "ms")
    out["cli.classify_cold_ms"] = ((median(tr.seconds("cli.classify")) - bare) * 1e3, "ms")


def all_layers(tr, outcome, rng, sizes: dict) -> tuple[dict, float]:
    """Every per-layer metric; also returns the sweep loop's tracing overhead."""
    out: dict = {}
    geometry_layers(tr, sizes["geometry"], out)
    codec_layers(tr, outcome, rng, sizes["codec"], out)
    oracle_layers(tr, outcome, rng, sizes["oracle"], out)
    cli_layers(tr, out)
    sweep_overhead = sweep_layers(tr, outcome, sizes["sweep"], out)
    return out, sweep_overhead
