"""Brute-force search against the classification on a range of sectors.

This is the only module that brings the two together: neither the
search nor verify, the oracle, imports the classification.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterator, Optional

from .classify import Classification, _classify
from .polynomials import QuadPoly
from .search import SearchParams, _class_triples, _m0, _polys, _scaled_key
from .sectors import Sector, sector

__all__ = ["sweep", "SweepRow", "SweepReport"]

# one sector to sweep: (n, m, params)
_Task = tuple[int, int, SearchParams]
# one survivor of the search, in integers: (2d, 2n*e, f)
_Triple = tuple[int, int, int]
# one sector, classify's polynomials of it and each one's _Triple (or None)
_Classified = tuple[Sector, list[QuadPoly], list[Optional[_Triple]]]


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


def _classified(group: list[_Task]) -> list[_Classified]:
    """The sector of each of one shear class's tasks, as its
    classification holds it, with classify's polynomials of it and the
    survivor triple that each would be found as (search._scaled_key).  The
    tasks share one dict of classifications, so a slope < 1 sector reads
    its reduced target's, S(n/m0) of the same class, when an earlier task
    has already classified it."""
    known: dict[tuple[int, int], Classification] = {}
    classified = []
    for n, m, _ in group:
        found = _classify(n, m, known)
        s, polys = found.sector, found.polynomials()
        classified.append((s, polys, [_scaled_key(s, p) for p in polys]))
    return classified


def _class_survivors(group: list[_Task]) -> list[list[_Triple]]:
    """The survivor triples of each of one shear class's tasks, from one
    search._class_triples call: the unit of work that a process claims."""
    return _class_triples([sector(n, m) for n, m, _ in group], group[0][2])


def _rows(
    group: list[_Task], classified: list[_Classified], survivors: list[list[_Triple]]
) -> list[SweepRow]:
    """The rows of one shear class's tasks, in task order, from each
    task's sector and classified polynomials with their triples, and its
    survivor triples.

    A survivor that classify lists, matched by its triple, is classify's
    own object, so _poly_from_scaled builds only the others.  A row
    matches iff every classified polynomial has a triple and the two sets
    of triples are equal: the search finds only polynomials with the
    forced homogeneous part and integer triples, so one without either can
    never be found.  A sector with no survivor matches iff classify lists
    nothing on it."""
    bound = group[0][2].raw_grid_bound
    rows = []
    for (n, m, _), (s, polys, keys), triples in zip(group, classified, survivors):
        if triples:
            found, raw_found = _polys(s, triples, bound, dict(zip(keys, polys)))
            match = None not in keys and set(keys) == set(triples)
            rows.append(SweepRow(n, m, tuple(polys), tuple(found), tuple(raw_found), match))
        else:
            rows.append(SweepRow(n, m, tuple(polys), (), (), not polys))
    return rows


def _class_rows(group: list[_Task]) -> list[SweepRow]:
    """The rows of one shear class's tasks, in task order: a serial
    sweep's unit of work.  The class search reads the sectors that the
    classifications hold, so each task's Sector is built once."""
    classified = _classified(group)
    survivors = _class_triples([s for s, _, _ in classified], group[0][2])
    return _rows(group, classified, survivors)


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


def _share(classes: list[list[_Task]], counter) -> Iterator[tuple[int, list[list[_Triple]]]]:
    """(index, survivor triples) of every class this process claims.  It
    claims the next class off ``counter``, a multiprocessing.Value that
    the sweep's processes share, until none is left."""
    while True:
        with counter.get_lock():
            claimed = counter.value
            counter.value += 1
        if claimed >= len(classes):
            return
        yield claimed, _class_survivors(classes[claimed])


def _child(classes: list[list[_Task]], counter, conn) -> None:
    """A child process's share, sent once through ``conn``: a dict of its
    classes' survivor triples by class index, or the exception that its
    share raised."""
    try:
        result = dict(_share(classes, counter))
    except Exception as exc:
        result = exc
    conn.send(result)
    conn.close()


def _received(pipes: list) -> Iterator[tuple[int, list[list[_Triple]]]]:
    """(index, survivor triples) of every class the children claimed,
    read off their pipes in turn; a child's exception is raised here."""
    for receive in pipes:
        try:
            result = receive.recv()
        except EOFError:  # the child died before it could send
            raise RuntimeError("a sweep worker exited without sending its survivors") from None
        if isinstance(result, BaseException):
            raise result
        yield from result.items()


def _pooled(classes: list[list[_Task]], workers: int) -> list[SweepRow]:
    """The rows of every class, the class searches shared out among this
    process and workers - 1 children (see sweep)."""
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
        classified = [_classified(group) for group in classes]
        rows = []
        for index, survivors in itertools.chain(_share(classes, counter), _received(pipes)):
            rows += _rows(classes[index], classified[index], survivors)
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
    (see search._class_triples), so no class is ever split.  A pooled
    sweep divides the work by layer.  The calling process is one of the
    workers: it starts workers - 1 child processes, never more than there
    are classes less one, classifies every sector, with one dict of
    classifications per class, and then it and the children each claim
    the next class, the class with the most sectors first, off one shared
    counter until none is left.  A claimed class's search builds one
    _ShearClass, released after the class; no state crosses a class.  The
    children only search: each sends back once, through its own pipe, a
    dict of plain integers, its classes' survivor triples (2d, 2n*e, f)
    per sector by class index.  The caller builds a class's rows as soon
    as its triples are known, its own classes' at once and a child's when
    they arrive, and sorts all rows into (n, m) order.  An exception in a
    child's share is re-raised in the caller, and every child is joined
    before sweep returns or raises, terminated first if it raises.  One
    worker, one class or fewer than 4 sectors run in this process alone,
    class by class in the same order, each class classified, searched and
    built into rows in turn.  Both paths build rows with one builder, and
    a row is the one its sector gives searched alone, whichever sectors of
    its class share its search, so the split changes no row.

    With max_m >= max_n the sweep holds S(n/m0) of every shear class of
    every n <= max_n, so a full match covers every m, not only m <=
    max_m.  With q = (m - m0)/n, T(x, y) = (x + q*y, y) maps the lattice
    points of S(n/m0) one to one onto those of S(n/m), so p packs S(n/m)
    iff p o T packs S(n/m0); and classify(n, m) is classify(n, m0) with x
    replaced by x - q*y (classify's docstring proves it, and a test checks
    it on every sector with an integer-valued lattice, n <= 100, m <= 400
    and q >= 1), so classify is complete on S(n/m) iff it is complete on
    S(n/m0).  Only that
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
