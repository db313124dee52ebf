"""Run one workload of the sectorpack benchmark and report its metrics.

    python3 benchmarks/run.py --workload sweep-30 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports the library from ``src/``
there and from nowhere else, and exits with an error, printing no result,
when those sources are missing.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up is
repeated and its median reported, then the workload's closed loop runs for
``--seconds``.  ``--trace 1`` is the separate traced run: it records spans
around the calls into each library module and reports the per-layer metrics
plus ``trace.overhead_frac``.  Lines starting with ``#`` describe the run
(every metric with its unit and sample count, the workload's own named
metrics, the run metadata); the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
goes to ``benchmarks/out/``, and the traced run's spans next to it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
LAYER_SIZES = {
    "full": {"geometry": 10000, "codec": 20000, "oracle": 10**6, "sweep": "30x30"},
    "tiny": {"geometry": 200, "codec": 500, "oracle": 2000, "sweep": "8x8"},
}


def load_program() -> None:
    """Put this checkout's sources first on the path, or stop."""
    if not (SRC / "sectorpack" / "__init__.py").is_file():
        sys.exit(f"error: no sectorpack sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import sectorpack

    if Path(sectorpack.__file__).resolve().parent != (SRC / "sectorpack").resolve():
        sys.exit(f"error: imported sectorpack from {sectorpack.__file__}, not {SRC}")
    # The sweep's worker count is part of the workload; no outside cap.
    os.environ.pop("SECTORPACK_THREADS", None)


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        with open("/proc/loadavg") as fh:
            loadavg = fh.read().split()[:3]
    except OSError:
        loadavg = [f"{x:.2f}" for x in os.getloadavg()]
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
            "loadavg_start": loadavg}


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024


def measure(workload, seed: int, seconds: float, scale: str):
    """The untraced run: end-to-end metrics of one workload."""
    import workloads as wl
    from tracing import NULL_TRACER

    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl.run_python(["-c", "import sectorpack"])  # the CLI's cold start
        inputs = workload.setup(random.Random(seed), workload.scales[scale])
        setup_s.append(perf_counter() - t0)

    outcome = wl.Outcome()
    samples = []
    rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        gc.collect()
        samples += workload.unit(inputs, rounds, NULL_TRACER, outcome)
        rounds += 1

    golden = wl.GOLDEN["default_seed_round0_sha256"].get(workload.name)
    if seed == wl.GOLDEN["default_seed"] and scale == "full" and golden:
        outcome.add(1, outcome.digest.hexdigest() != golden,
                    "first-round outputs differ from the default-seed digest in golden.json")

    metrics = {
        "setup_s": (median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "rate_per_s": (sum(s.items for s in samples) / sum(s.seconds for s in samples), "1/s"),
    }
    counts = {"setup_s": len(setup_s), "rate_per_s": len(samples), "rounds": rounds}
    named = workload.headline(samples)
    named["error_rate"] = (outcome.failed / outcome.attempted, "frac")
    return metrics, named, counts, outcome


def measure_layers(workload, seed: int, scale: str, tracer):
    """The traced run: every per-layer metric plus this workload's overhead."""
    import layers
    import workloads as wl
    from tracing import NULL_TRACER

    outcome = wl.Outcome()
    rng = random.Random(seed)
    metrics, sweep_overhead = layers.all_layers(tracer, outcome, rng, LAYER_SIZES[scale])
    if isinstance(workload, wl.Sweep30):
        # sweep() runs in worker processes, out of reach of the spans; the
        # per-sector loop of the layer suite is its traced twin.
        overhead = sweep_overhead
        counts = {"trace.overhead_frac": 1}
    else:
        probe = "tiny" if scale == "tiny" else "probe"
        plain, traced = [], []
        for round_no in range(3):
            for times, tr in ((plain, NULL_TRACER), (traced, tracer)):
                # fresh inputs from one seed, so both sides do the same work
                inputs = workload.setup(random.Random(seed), workload.scales[probe])
                gc.collect()
                samples = workload.unit(inputs, round_no, tr, outcome)
                times.append(sum(s.seconds for s in samples))
        overhead = median(traced) / median(plain) - 1
        counts = {"trace.overhead_frac": len(traced)}
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics, counts, outcome


def report(args, workload, info, metrics, named, counts, outcome, tracer=None) -> dict:
    about = {"rate_per_s": f"{workload.items} per second"}
    for name, (value, unit) in metrics.items():
        notes = [f"n={counts[name]}"] if name in counts else []
        notes += [about[name]] if name in about else []
        print(f"# {name} = {value:.6g} {unit}" + (f" ({', '.join(notes)})" if notes else ""))
    for name, (value, unit) in (named or {}).items():
        print(f"# named {name} = {value:.6g} {unit}")
    print(f"# attempted {outcome.attempted}, failed {outcome.failed}")
    for what in outcome.failures:
        print(f"# FAILED {what}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **info, "samples": counts,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in (named or {}).items()},
        "failures": outcome.failures,
    }
    if named is not None:  # the first-round digest means nothing in a traced run
        record["round0_sha256"] = outcome.digest.hexdigest()
    print("# meta " + json.dumps({k: v for k, v in record.items() if k in info or k in ("samples", "round0_sha256")}))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": record["metrics"],
    }


def main(argv=None, scale: str = "full") -> dict:
    load_program()
    import workloads as wl
    from tracing import Tracer

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.ALL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    info = machine_info()
    workload = wl.ALL[args.workload]
    if args.trace:
        tracer = Tracer()
        metrics, counts, outcome = measure_layers(workload, args.seed, scale, tracer)
        result = report(args, workload, info, metrics, None, counts, outcome, tracer)
    else:
        metrics, named, counts, outcome = measure(workload, args.seed, args.seconds, scale)
        result = report(args, workload, info, metrics, named, counts, outcome)
    print(json.dumps(result), flush=True)
    return result


if __name__ == "__main__":
    main()
