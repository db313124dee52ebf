"""Brute-force search against the classification on a range of sectors.

This is the only module that brings the two together: neither the
search nor verify, the oracle, imports the classification.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

from .classify import Classification, _classify
from .polynomials import QuadPoly, _exact_key
from .search import SearchParams, _m0, _search_class
from .sectors import sector

__all__ = ["sweep", "SweepRow", "SweepReport"]

# one sector to sweep: (n, m, params)
_Task = tuple[int, int, SearchParams]


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


def _class_rows(group: list[_Task]) -> list[SweepRow]:
    """The rows of one shear class's (n, m, params) tasks, in task order.

    One search._search_class call searches every sector of the class: it
    screens the union of their candidates once, so each reduced pair is
    walked and certified at most once per class, and reads each sector's
    survivors off the class.  The tasks also share one dict of
    classifications, so a slope < 1 sector reads its reduced target's,
    S(n/m0) of the same class, when an earlier task has already
    classified it.  Both go with the class.
    """
    params = group[0][2]
    searched = _search_class([sector(n, m) for n, m, _ in group], params)
    known: dict[tuple[int, int], Classification] = {}
    rows = []
    for (n, m, _), (found, raw_found) in zip(group, searched):
        classified = _classify(n, m, known).polynomials()
        own = {_exact_key(p): p for p in classified}
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


def _shear_classes(tasks: list[_Task]) -> list[list[_Task]]:
    """The tasks grouped by shear class, the sectors with one n and one
    search._m0 (every task shares its params), in task order within a
    class; the class with the most tasks first, ties in order of their
    first task."""
    classes: dict[tuple[int, int], list[_Task]] = {}
    for task in tasks:
        n, m, _ = task
        classes.setdefault((n, _m0(n, m)), []).append(task)
    return sorted(classes.values(), key=len, reverse=True)


def _share(classes: list[list[_Task]], counter) -> list[SweepRow]:
    """The rows of every class this process claims.  It claims the next
    class off ``counter``, a multiprocessing.Value that the sweep's
    processes share, until none is left."""
    rows: list[SweepRow] = []
    while True:
        with counter.get_lock():
            claimed = counter.value
            counter.value += 1
        if claimed >= len(classes):
            return rows
        rows += _class_rows(classes[claimed])


def _child(classes: list[list[_Task]], counter, conn) -> None:
    """A child process's share, sent once through ``conn``: its rows, or
    the exception that its share raised."""
    try:
        result = _share(classes, counter)
    except Exception as exc:
        result = exc
    conn.send(result)
    conn.close()


def _pooled(classes: list[list[_Task]], workers: int) -> list[SweepRow]:
    """The rows of every class, shared out among this process and
    workers - 1 children (see sweep)."""
    # imported here, so that only a pooled sweep loads multiprocessing and
    # the ctypes behind its shared counter, which take several times as
    # long to import as `import sectorpack` does
    import multiprocessing

    counter = multiprocessing.Value("i", 0)
    children, pipes = [], []
    try:
        for _ in range(workers - 1):
            receive, send = multiprocessing.Pipe(duplex=False)
            pipes.append(receive)
            child = multiprocessing.Process(target=_child, args=(classes, counter, send))
            child.start()
            send.close()
            children.append(child)
        rows = _share(classes, counter)
        for receive in pipes:
            try:
                result = receive.recv()
            except EOFError:  # the child died before it could send
                raise RuntimeError("a sweep worker exited without sending its rows") from None
            if isinstance(result, BaseException):
                raise result
            rows += result
    except BaseException:
        for child in children:
            child.terminate()
        raise
    finally:
        for child in children:
            child.join()
        for receive in pipes:
            receive.close()
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

    The unit of work is a shear class: the sectors S(n/m) with one n and
    one m0 = (m - 1) mod n + 1, which one class search screens at once
    (see search._search_class), so no class is ever split.  The calling
    process is one of the workers: it starts workers - 1 child processes,
    never more than there are classes less one, and it and the children
    each claim the next class, the class with the most sectors first, off
    one shared counter until none is left.  A process builds one class
    state, the class search's _ShearClass and a dict of classifications,
    per class it claims, and releases it after the class's rows; no state
    crosses a class.
    Each child sends its rows back once, through its own pipe, and the
    caller sorts all rows into (n, m) order.  An exception in a child's
    share is re-raised in the caller, and every child is joined before
    sweep returns or raises, terminated first if it raises.  One worker,
    one class or fewer than 4 sectors run in this process alone, class by
    class in the same order.  A row is the one its sector gives searched
    alone, whichever sectors of its class share its search, so the split
    changes no row.

    With max_m >= max_n the sweep holds S(n/m0) of every shear class of
    every n <= max_n, so a full match covers every m, not only m <=
    max_m.  With q = (m - m0)/n, T(x, y) = (x + q*y, y) maps the lattice
    points of S(n/m0) one to one onto those of S(n/m), so p packs S(n/m)
    iff p o T packs S(n/m0); and classify(n, m) is classify(n, m0) with x
    replaced by x - q*y (a test checks it on every sector with an
    integer-valued lattice, n <= 100, m <= 400 and q >= 1), so classify
    is complete on S(n/m) iff it is complete on S(n/m0).  Only that
    completeness transports: each sector's raw grid is its own, so a
    row's ``searched`` and ``raw_survivors`` are not its S(n/m0)'s
    sheared.
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
    classes = _shear_classes(tasks)
    workers = min(workers if workers is not None else (os.cpu_count() or 1), len(classes))
    if workers <= 1 or len(tasks) < 4:
        rows = [row for group in classes for row in _class_rows(group)]
    else:
        rows = _pooled(classes, workers)
    rows.sort(key=lambda row: (row.n, row.m))
    return SweepReport(rows=tuple(rows))
