"""Hand mutants of src/sectorpack, each with the tests that must kill it.

Run it from the root of a checkout, with pytest and hypothesis installed:

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py 3 8        # the mutants with these indices
    python3 tests/mutants.py --list     # index, module and why of each

For each mutant the runner copies src/ and tests/ to a temporary
directory, replaces the mutant's old text in its module by its new text,
and runs pytest there on the mutant's tests, with the copy of src/ first
on PYTHONPATH.  The mutant is killed when a test fails and survives when
every test passes; the runner names each survivor and exits 1 if there is
one.  An old text that does not occur exactly once in its module, a
pytest run that ends in neither way, or a run that does not import the
copy is an error (exit 2), so the list follows the code.  A surviving
mutant needs a new test; one shown to be equivalent leaves the list.

Standard library only: the tests it runs import pytest, it does not.
POSIX only: each pytest run gets its own session, and whatever is left of
it when pytest exits is killed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
VERIFY = "tests/test_verify.py"
POLYNOMIALS = "tests/test_polynomials.py"


class Mutant(NamedTuple):
    module: str  # file name under src/sectorpack
    old: str  # exact text, found exactly once in the module
    new: str
    why: str
    tests: tuple[str, ...]  # pytest node ids, one of which must fail


MUTANTS = [
    Mutant(
        "search.py",
        "if seen == full and marked == need:",
        "if seen == full:",
        "the screen accepts a band pair without its mark count; the certification hides it "
        "from every output, so only the pinned certification count sees it",
        (f"{VERIFY}::TestScreenThenCertify::test_sweep_walk_budget",),
    ),
    Mutant(
        "verify.py",
        "        while a * c * c + b * c < need:\n            c += 1\n        return c\n",
        "        while a * c * c + b * c < need:\n            c += 1\n        return c + 1\n",
        "_LineTable.stop reads one line too many",
        (f"{VERIFY}::test_walk_skips_no_window_value",),
    ),
    Mutant(
        "search.py",
        "for t in (t0, t0 + 1))",
        "for t in (t0,))",
        "_edge_threshold tries t0 alone, not the integer on each side of the real peak",
        (f"{VERIFY}::TestEdgeThreshold::test_equals_probe_near_threshold",),
    ),
    Mutant(
        "search.py",
        "            step = row_step + j * v\n            if not step:\n                continue\n",
        "            step = row_step + j * v\n",
        "the screen walks step-0 pairs, whose window has no gap to divide by",
        (f"{VERIFY}::TestScreenThenCertify::test_equals_one_full_depth_pass",),
    ),
    Mutant(
        "verify.py",
        "if step > 0 and 0 <= base and last <= hi:",
        "if step > 0 and -1 <= base and last <= hi:",
        "the walk's direct path records a line whose least value is -1 whole, so its "
        "negative value is never reported",
        (f"{VERIFY}::test_walk_skips_no_window_value",),
    ),
    Mutant(
        "sweep.py",
        "        if isinstance(result, BaseException):\n            raise result\n",
        "        if isinstance(result, BaseException):\n            continue\n",
        "a pooled sweep ignores a child's exception",
        (f"{VERIFY}::TestSweep::test_child_exception_reaches_the_caller",),
    ),
    Mutant(
        "sweep.py",
        "            child.terminate()\n",
        "            pass\n",
        "a pooled sweep whose caller raises waits out its children instead of terminating them",
        (f"{VERIFY}::TestSweep::test_no_child_outlives_sweep",),
    ),
    Mutant(
        "search.py",
        "high[2] + high[0] * d2 + 1, unit)",
        "low[2] + low[0] * d2 + 1, unit)",
        "a class's run for a grid d2 ends at the least-q grid, not the greatest",
        (f"{VERIFY}::TestSweep::test_class_search_equals_lone_searches",),
    ),
    Mutant(
        "search.py",
        "if stair or d2 in D and e2 in E",
        "if d2 in D and e2 in E",
        "a sector keeps only the kept triples on its own grid, losing its stair pairs off it",
        (
            f"{VERIFY}::TestSweep::test_stair_row_off_the_grid_on_a_shared_class",
            f"{VERIFY}::TestSweep::test_class_search_equals_lone_searches",
        ),
    ),
    Mutant(
        "search.py",
        "for d2, e2 in sorted(stairs) if e2 not in runs.get(d2, ())]",
        "for d2, e2 in sorted(stairs)]",
        "a stair pair inside its d2's run gets a row of its own too, so it is screened twice",
        (f"{VERIFY}::TestSweep::test_class_search_equals_lone_searches",),
    ),
    Mutant(
        "verify.py",
        "        lows += range(past, past + held)\n        ends += range(held)\n",
        "",
        "the OK comparison drops the sentinel pairs, each residue's first value past n_max "
        "among the lows and the residue among the ends",
        (f"{VERIFY}::TestPrefixCheck::test_ok", f"{VERIFY}::test_runs_are_the_reference_walk"),
    ),
    Mutant(
        "verify.py",
        "            while j and ends[j - 1] > top:\n",
        "            while j and ends[j - 1] > top + mod:\n",
        "a run takes in a line whose end passes hi + |step|, a line that crosses the window",
        (
            f"{VERIFY}::test_runs_are_the_reference_walk",
            f"{VERIFY}::TestPrefixCheck::test_memory_not_sized_by_depth",
        ),
    ),
    Mutant(
        "verify.py",
        "sorted([x % k * w + x for x in xs[first : last + 1]])",
        "sorted(xs[first : last + 1])",
        "the gap and repeat finder's key drops the residue, so residues mix when |step| > 1",
        (f"{VERIFY}::test_runs_are_the_reference_walk",),
    ),
    Mutant(
        "search.py",
        "    if not _forced_part(s, p):\n        return None\n",
        "",
        "_scaled_key matches a polynomial to a survivor triple whatever its homogeneous part",
        (f"{VERIFY}::TestSweep::test_row_matches_exact_polynomials_only",),
    ),
    Mutant(
        "polynomials.py",
        "    if rest:\n        raise NonIntegralStep(",
        "    if False:\n        raise NonIntegralStep(",
        "kstair_extract drops the step's integrality test and reads k off the step's floor",
        (f"{POLYNOMIALS}::TestKStairExtract::test_matches_fraction_reference",),
    ),
    Mutant(
        "polynomials.py",
        "Fraction(dn * ed * t + en * dd, dd * ed)",
        "Fraction(-dn * ed * t + en * dd, dd * ed)",
        "a shear transports e with the wrong sign of q: e - d*t for e + d*t",
        (f"{POLYNOMIALS}::TestTransport::test_shear_matches_reference",),
    ),
]


def apply(src: Path, mutant: Mutant) -> None:
    """Replace the mutant's old text in its module under ``src``."""
    path = src / "sectorpack" / mutant.module
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise LookupError(f"{mutant.module}: old text found {found} times: {mutant.old!r}")
    path.write_text(text.replace(mutant.old, mutant.new))


def killed(mutant: Mutant) -> bool:
    """Run the mutant's tests on a mutated copy: True when one fails,
    False when all pass; anything else is a RuntimeError."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=ignore)
        apply(copy / "src", mutant)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        imported = subprocess.run(
            [sys.executable, "-c", "import sectorpack; print(sectorpack.__file__)"],
            cwd=copy, env=env, capture_output=True, text=True,
        ).stdout.strip()
        if not Path(imported).is_relative_to(copy / "src"):
            raise RuntimeError(f"the tests would import {imported!r}, not the mutated copy")
        run = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True,
        )
        output, _ = run.communicate()
        try:  # end what the mutant left running, such as a child it never terminated
            os.killpg(run.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if run.returncode not in (0, 1):  # pytest: 0 all passed, 1 some failed
        raise RuntimeError(f"pytest exited {run.returncode}:\n{output}")
    return run.returncode == 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("indices", nargs="*", type=int, help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    if args.list:
        for index, mutant in enumerate(MUTANTS):
            print(f"{index:2}  {mutant.module:12} {mutant.why}")
        return 0
    survivors = []
    for index in args.indices or range(len(MUTANTS)):
        mutant = MUTANTS[index]
        try:
            dead = killed(mutant)
        except (LookupError, RuntimeError) as exc:
            print(f"{index:2}  error: {exc}")
            return 2
        print(f"{index:2}  {'killed' if dead else 'SURVIVED'}: {mutant.why}", flush=True)
        if not dead:
            survivors.append(index)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {survivors}")
        return 1
    print("every mutant was killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
