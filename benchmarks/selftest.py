"""Self-test of the benchmark, at tiny sizes.

    python3 benchmarks/selftest.py

Run it from the root of a checkout.  It checks that

* every workload prints, as its last line, a result with exactly the keys
  the benchmark contract names, every end-to-end metric of BENCHMARK.json
  with its unit, and its own named metrics on the lines before;
* the traced run prints every per-layer metric of BENCHMARK.json;
* the checks count failures: a corrupted expected sweep CSV digest and a
  wrong decode both show up as failed operations.

It prints one PASS or FAIL line per check and exits 1 if any fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

import workloads as wl  # noqa: E402
from sectorpack import LatticePoint  # noqa: E402
from tracing import NULL_TRACER  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMED = {
    "sweep-30": ["sweep_s"],
    "verify-deep": ["verify_values_per_s"],
    "codec-roundtrip": ["stream_points_per_s", "encode_ops_per_s", "decode_ops_per_s",
                        "decode_cold_ms_p50", "decode_cold_ms_p90"],
    "codec-shared": ["decode_ops_per_s"],
}
problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        problems.append(what)


def run_tiny(workload: str, trace: int) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.main(["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace)],
                 scale="tiny")
    text = buf.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def check_result(workload: str, result: dict, metrics: list[dict]) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result has exactly the contract's keys")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1
          and isinstance(result["failed"], int), f"{workload}: attempted and failed are counts")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in metrics}
    check(got == want, f"{workload}: prints every metric with its unit")
    check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
          f"{workload}: every value is a number")


def main() -> int:
    listed = [w["name"] for w in CONTRACT["workloads"]]
    check(listed == [w.name for w in wl.LISTED], "BENCHMARK.json lists the benchmark's workloads")

    for name in wl.ALL:
        result, text = run_tiny(name, trace=0)
        check_result(name, result, CONTRACT["end_to_end"])
        for metric in NAMED[name] + ["error_rate"]:
            check(f"# named {metric} = " in text, f"{name}: prints its named metric {metric}")
        if name in listed:
            check(result["correct"] and result["failed"] == 0, f"{name}: no failed check")

    result, _ = run_tiny("verify-deep", trace=1)
    check_result("traced verify-deep", result, CONTRACT["per_layer"])
    check(result["correct"], "traced run: no failed check")

    sweep_wl = wl.ALL["sweep-30"]
    inputs = sweep_wl.setup(random.Random(7), sweep_wl.scales["tiny"])
    inputs["expected"]["csv_sha256"] = "0" * 64
    outcome = wl.Outcome()
    sweep_wl.unit(inputs, 0, NULL_TRACER, outcome)
    check(outcome.failed == 1 and "CSV sha256" in outcome.failures[0],
          "a corrupted expected CSV digest counts as a failure")

    real_make_scheme = wl.make_scheme

    class WrongDecode:
        """A scheme whose decode answers a neighbouring sector point."""

        def __init__(self, scheme):
            self._scheme = scheme

        def decode(self, value):
            pt = self._scheme.decode(value)
            return LatticePoint(pt.x + 1, pt.y)

        def encode(self, pt):
            return self._scheme.encode(pt)

        def stream(self, count):
            return self._scheme.stream(count)

    wl.make_scheme = lambda s, p: WrongDecode(real_make_scheme(s, p))
    try:
        workload = wl.ALL["codec-roundtrip"]
        inputs = workload.setup(random.Random(7), workload.scales["tiny"])
        outcome = wl.Outcome()
        workload.unit(inputs, 0, NULL_TRACER, outcome)
        dense, cold = inputs["count"] * len(inputs["schemes"]), inputs["values"]
        check(outcome.failed == dense + cold,
              "codec-roundtrip: every wrong decode counts as a failure, dense and cold")
    finally:
        wl.make_scheme = real_make_scheme

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
