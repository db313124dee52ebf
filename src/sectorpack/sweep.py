"""Brute-force search against the classification on a range of sectors.

This is the only module that brings the two together; verify, the oracle,
never imports the classification.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

from .classify import classify
from .polynomials import QuadPoly, _exact_key
from .sectors import sector
from .verify import SearchParams, _search_detail

__all__ = ["sweep", "SweepRow", "SweepReport"]


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
    match = {_exact_key(p) for p in classified} == {_exact_key(p) for p in searched}
    return SweepRow(
        n=n,
        m=m,
        classified=tuple(classified),
        searched=tuple(searched),
        raw_survivors=tuple(raw_found),
        match=match,
    )


def sweep(
    max_n: int,
    max_m: int,
    params: Optional[SearchParams] = None,
    workers: Optional[int] = None,
) -> SweepReport:
    """Compare search against classify on every coprime (n, m) in range.

    Rows are ordered by (n, m) regardless of how many workers evaluate
    them.  A zero bound gives an empty report; a negative one raises
    ValueError, and so does a worker count below 1 (None means one worker
    per CPU).

    One worker, or fewer than 4 sectors, run in this process.  Otherwise
    a process pool takes the sectors in chunks of ceil(sectors / (4 *
    workers)), the size multiprocessing.Pool.map picks by default, and
    starts no more workers than there are chunks: the pool forks every
    worker at its first submit, wanted or not.
    """
    if max_n < 0 or max_m < 0:
        raise ValueError(f"max_n and max_m must be nonnegative, got {max_n} and {max_m}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    params = params or SearchParams()
    tasks = [
        (n, m, params)
        for n in range(1, max_n + 1)
        for m in range(1, max_m + 1)
        if math.gcd(n, m) == 1
    ]
    workers = workers if workers is not None else (os.cpu_count() or 1)
    if workers == 1 or len(tasks) < 4:
        rows = [_sweep_row(task) for task in tasks]
    else:
        # imported here: the pool's modules add about a third to the time
        # `import sectorpack` takes
        from concurrent.futures import ProcessPoolExecutor

        chunksize = -(-len(tasks) // (4 * workers))
        workers = min(workers, -(-len(tasks) // chunksize))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, tasks, chunksize=chunksize))
    rows.sort(key=lambda row: (row.n, row.m))
    return SweepReport(rows=tuple(rows))
