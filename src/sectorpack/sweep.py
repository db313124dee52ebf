"""Brute-force search against the classification on a range of sectors.

This is the only module that brings the two together; verify, the oracle,
never imports the classification.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

from .classify import Classification, _classify
from .polynomials import QuadPoly, _exact_key
from .sectors import sector
from .verify import SearchParams, _search_detail, _ShearClass

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


def _sweep_rows(tasks: list[tuple[int, int, SearchParams]]) -> list[SweepRow]:
    """The rows of one chunk of (n, m, params) tasks, in task order.

    The chunk's sectors share one dict of classifications, so a slope < 1
    sector reads its reduced target's when the chunk has already
    classified it, and one dict of search states, one verify._ShearClass
    per shear class, so the sectors of a class screen each reduced pair
    once and certify it once if it passes the screen, and every later
    sector of the class reads the pair's final outcome.
    """
    known: dict[tuple[int, int], Classification] = {}
    screens: dict[tuple[int, int, int, int], _ShearClass] = {}
    rows = []
    for n, m, params in tasks:
        classified = _classify(n, m, known).polynomials()
        own = {_exact_key(p): p for p in classified}
        found, raw_found = _search_detail(sector(n, m), params, screens)
        keys = [_exact_key(p) for p in found]
        # classify's own object wherever the search found the same
        # polynomial, so that a pooled row pickles each polynomial once
        rows.append(SweepRow(
            n=n,
            m=m,
            classified=tuple(classified),
            searched=tuple(own.get(key, p) for key, p in zip(keys, found)),
            raw_survivors=tuple(own.get(_exact_key(p), p) for p in raw_found),
            match=set(own) == set(keys),
        ))
    return rows


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

    One worker, or fewer than 4 sectors, run in this process as one
    chunk.  Otherwise the sectors, in (n, m) order, are cut into chunks
    of ceil(sectors / (4 * workers)), the size multiprocessing.Pool.map
    picks by default, and a process pool maps _sweep_rows over them,
    starting no more workers than there are chunks: the pool forks every
    worker at its first submit, wanted or not.  The sectors of one chunk
    share one dict of classifications, so a slope < 1 sector whose
    reduced target falls in its chunk does not classify the target again,
    and one dict of search states, one per shear class: S(n/m) and
    S(n/(m + q*n)) in one chunk screen each reduced pair once and certify
    it once if it passes (see verify._ShearClass and verify._screen).  A
    chunk's rows are those its sectors give searched alone, in any order,
    so chunking changes no row.
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
        rows = _sweep_rows(tasks)
    else:
        # imported here: the pool's modules add about a third to the time
        # `import sectorpack` takes
        from concurrent.futures import ProcessPoolExecutor

        size = -(-len(tasks) // (4 * workers))
        chunks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        workers = min(workers, len(chunks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for chunk in pool.map(_sweep_rows, chunks) for row in chunk]
    return SweepReport(rows=tuple(rows))
