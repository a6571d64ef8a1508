"""Exhaustive catalogs of small loops, canonical storage, and fixtures.

Loops are stored normalized: the identity is element 0, so the first row
and column read 0..n-1.  Generation therefore enumerates exactly the
reduced Latin squares of each order, in lexicographic order by flattened
table.  Expected counts: 1, 1, 4, 56, 9408 for orders 2 through 6.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import threading
from collections import namedtuple
from pathlib import Path
from typing import Iterator, NoReturn

from .errors import InvariantViolation, OrderTooLarge, ParseError
from .loop_core import (
    LoopTable,
    _labellings,
    _s_subgroup_elements,
    format_row,
    format_table,
    parse_table,
    validate_table,
)
from .perm import Perm

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
INDEX_NAME = "index.tsv"


def _fnv_fold(h: int, data: bytes) -> int:
    """FNV-1a state h advanced over data."""
    prime = FNV_PRIME
    for byte in data:
        h = ((h ^ byte) * prime) & 0xFFFFFFFFFFFFFFFF
    return h


def content_id(L: LoopTable) -> str:
    """64-bit FNV-1a hash of the canonical text form, as 16 hex digits."""
    return f"{_fnv_fold(FNV_OFFSET, format_table(L).encode('ascii')):016x}"


class CatalogEntry(namedtuple("CatalogEntry", "loop associative s_subgroup_count entry_id")):
    """A normalized loop plus the flags recorded in the catalog index."""

    __slots__ = ()

    def __new__(cls, loop: LoopTable, associative: bool, s_subgroup_count: int, entry_id: str):
        if loop.e != 0:
            raise InvariantViolation("catalog entries must be normalized")
        return tuple.__new__(cls, (loop, associative, s_subgroup_count, entry_id))

    @classmethod
    def _make(cls, fields):
        """Built through __new__, so that _replace checks the fields too."""
        return cls(*fields)


def canonical_form(L: LoopTable) -> tuple[LoopTable, Perm]:
    """(M, phi) with M = phi(L) and phi(L.e) = 0, where M is the same table
    for every loop isomorphic to L: the least table of loop_core._labellings
    and the first labelling, in search order, that reaches it."""
    M, phis = _labellings(L)
    return LoopTable(M, 0), Perm(phis[0])


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def fan_out(fn, tasks: list, workers: int) -> Iterator:
    """fn over tasks, yielded in task order, on up to workers processes.

    The workers are forked up front, no more than there are tasks or CPUs
    this process may run on.  With fewer than two, while another thread
    runs (forking a process that runs other threads can deadlock the
    child), or with no os.fork, as on Windows, fn runs in this process.
    Worker k runs tasks k, k + workers, ... of the list it inherited, so
    neither fn nor a task is pickled, and sends back through its own pipe
    one pickled record per task: the result, or the exception fn raised,
    which is raised here at its task.  A worker that dies raises
    ChildProcessError naming its exit status.  Closing the iterator kills
    the workers still running and reaps every one.  Forking starts no
    thread and no fresh interpreter.
    """
    workers = min(workers, len(tasks), available_cpus())
    if workers < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
        yield from map(fn, tasks)
    else:
        yield from _forked(fn, tasks, workers)


def _forked(fn, tasks: list, workers: int) -> Iterator:
    """fan_out over workers forked processes."""
    import pickle
    import signal

    pids, ends = [], []  # ends: the read end of each worker's pipe
    try:
        for k in range(workers):
            r, w = os.pipe()
            ends.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, tasks[k::workers], ends, w)
            finally:
                os.close(w)
            pids.append(pid)
        readers = [open(fd, "rb", closefd=False) for fd in ends]
        for i in range(len(tasks)):
            k = i % workers
            try:
                ok, value = pickle.load(readers[k])
            except (EOFError, pickle.UnpicklingError):
                status = os.waitstatus_to_exitcode(os.waitpid(pids.pop(k), 0)[1])
                raise ChildProcessError(
                    f"fan_out worker {k} ended before task {i}, exit status {status}"
                ) from None
            if not ok:
                raise value
            yield value
    finally:
        for pid in pids:
            if os.waitpid(pid, os.WNOHANG)[0] == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for fd in ends:
            os.close(fd)


def _work(fn, tasks: list, inherited: list, w: int) -> NoReturn:
    """A forked worker: a pickled (True, result) record per task to the
    pipe w, or a last (False, exception) record.

    It closes the pipe read ends it inherited, so that no worker holds
    another's pipe open, and leaves through os._exit on every path, so it
    never returns into the caller's code or runs its exit handlers.
    """
    import pickle

    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(w, "wb") as out:
            for task in tasks:
                try:
                    record = pickle.dumps((True, fn(task)))
                except Exception as exc:
                    out.write(pickle.dumps((False, exc)))
                    break
                out.write(record)
                out.flush()
        code = 0
    finally:
        os._exit(code)


@functools.cache
def _row_codes(n: int) -> tuple[list, dict]:
    """Every permutation of 0..n-1 as a (code, row, format_row bytes)
    triple, in lexicographic order by row, and the same triples keyed by
    code.

    A row's code sets bit n*j + row[j] for each column j.  Two rows clash
    in some column exactly when their codes share a bit, and OR-ing the
    codes of a Latin rectangle's rows gives each column's used symbols.
    """
    rows = []
    for row in itertools.permutations(range(n)):
        code = sum(1 << (n * j + v) for j, v in enumerate(row))
        rows.append((code, row, format_row(row).encode("ascii")))
    return rows, {t[0]: t for t in rows}


def _second_rows(n: int) -> list[tuple]:
    """Every valid row 1 of a reduced square, in lexicographic order.

    These are the rows of _row_codes(n) that start with 1 and clash with
    row 0, the identity, in no column; every such row extends to a full
    reduced square (a Latin rectangle always completes).  There are 1, 1,
    3, 11, 53 for orders 2 through 6.
    """
    rows = _row_codes(n)[0]
    identity = rows[0][0]
    return [row for code, row, _ in rows if row[0] == 1 and not code & identity]


def _reduced_squares(n: int, row1: tuple) -> Iterator[tuple[list, int]]:
    """The reduced squares with row 1 equal to row1, in lexicographic order.

    One recursion fills rows 0..n-2 in turn, each from its options in
    lexicographic order, less those that clash with a row above it: row 0
    has the identity row as its one option, row 1 has row1, and each row
    r >= 2 the rows that start with r and clash with neither.  Each choice
    of row n-2 fills row n-1 by elimination, in the same loop, so no
    generator starts per square.  The rows above the last make an
    (n-1) x n Latin rectangle.  Each symbol sits once in each of the n-1
    rows, in n-1 distinct columns, so it is missing from exactly one
    column.  Row n-1 must hold in each column the one symbol that column
    lacks, and those symbols are distinct, so every rectangle completes to
    exactly one square and the last row needs no search: its code is the
    complement of the rectangle's.

    Yields (rows, state) with state the FNV-1a state of the table's
    canonical text form (format_table), so content_id is f"{state:016x}".
    FNV-1a folds the text one byte at a time, so the state after a row
    extends the state after the row before: each chosen row is hashed
    once, and every square sharing rows 0..r reuses that state.  Squares
    come in lexicographic order, so the subtrees of _second_rows(n), taken
    in that order, make the whole stream of reduced squares in order.
    Squares share the row tuples of _row_codes(n).
    """
    rows, by_code = _row_codes(n)
    second = next(t for t in rows if t[1] == tuple(row1))
    taken = rows[0][0] | second[0]
    block = len(rows) // n  # rows starting with each symbol
    options = [[rows[0]], [second]] + [
        [t for t in rows[r * block:(r + 1) * block] if not t[0] & taken] for r in range(2, n - 1)
    ]
    square = [()] * n
    full = (1 << n * n) - 1
    last = n - 1

    def fill(r: int, used: int, h: int) -> Iterator[tuple[list, int]]:
        for code, row, text in options[r]:
            if not code & used:
                square[r] = row
                if r < last - 1:
                    yield from fill(r + 1, used | code, _fnv_fold(h, text))
                else:
                    _, square[last], tail = by_code[full ^ used ^ code]
                    yield list(square), _fnv_fold(h, text + tail)

    yield from fill(0, 0, _fnv_fold(FNV_OFFSET, f"{n}\n".encode("ascii")))


def _subtree(task: tuple) -> list[tuple]:
    """One row-1 subtree, (n, row1, nonassociative, require_s_subgroup),
    filtered: a (table, associative, S-subgroup count, FNV-1a state) record
    per kept square, in stream order.

    Each square is a LoopTable built directly, without validate_table:
    _reduced_squares proves that it yields reduced Latin squares, so the
    identity is 0.  The tables share the row tuples of _row_codes(n), and
    pickle sends each distinct row of a subtree once.
    """
    n, row1, nonassociative, require_s_subgroup = task
    records = []
    for raw, state in _reduced_squares(n, row1):
        L = LoopTable(tuple(raw), 0)
        if nonassociative and L.associative:
            continue
        count = len(_s_subgroup_elements(L))
        if require_s_subgroup and count == 0:
            continue
        records.append((L.table, L.associative, count, state))
    return records


def _entries(records: list[tuple]) -> list[CatalogEntry]:
    """The CatalogEntry list of one _subtree result, in stream order.

    Each table is built as a LoopTable directly, as in _subtree.
    CatalogEntry still checks that the identity is 0.
    """
    return [
        CatalogEntry(LoopTable(table, 0), associative, count, f"{state:016x}")
        for table, associative, count, state in records
    ]


def generate_loops(
    n: int,
    nonassociative: bool = False,
    require_s_subgroup: bool = False,
    limit: int | None = None,
    allow_order_six: bool = False,
) -> Iterator[CatalogEntry]:
    """Stream every normalized loop of order n, with optional filters.

    The unbounded order-6 run produces 9408 entries, so it must be opted
    into explicitly.  Order and limit checks happen at call time, before
    the stream is touched: each must be an int, and not a bool.

    The search splits at row 1 into the subtrees of _second_rows(n), which
    are generated independently and yielded in order, so the stream is the
    same however they are run.  The unbounded order-6 run hands them to
    fan_out with a worker per CPU; smaller orders take less time than
    forking workers, and a bounded run may need only the first few
    subtrees, so those run in this process.
    """
    for name, value in (("order", n), ("limit", limit)):
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if n < 2 or n > 6:
        raise OrderTooLarge(f"exhaustive generation covers orders 2..6, got {n}")
    if n == 6 and limit is None and not allow_order_six:
        raise OrderTooLarge("order-6 exhaustive run requires allow_order_six=True")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")

    def stream() -> Iterator[CatalogEntry]:
        tasks = [(n, row1, nonassociative, require_s_subgroup) for row1 in _second_rows(n)]
        workers = available_cpus() if n == 6 and limit is None else 1
        with contextlib.closing(fan_out(_subtree, tasks, workers)) as subtrees:
            entries = itertools.chain.from_iterable(map(_entries, subtrees))
            yield from itertools.islice(entries, limit)

    return stream()


def read_table(path) -> LoopTable:
    """Parse a table file; every failure but an OSError is a ParseError whose
    message starts with the path.  A ParseError keeps its line and column."""
    try:
        return parse_table(Path(path).read_text(encoding="ascii"))
    except OSError:
        raise
    except ParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except Exception as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_table(L: LoopTable, path) -> None:
    Path(path).write_text(format_table(L), encoding="ascii")


def write_catalog(entries, out_dir) -> int:
    """Write <id>.loop files plus an index; returns the entry count."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["id\torder\tassociative\ts_subgroups"]
    count = 0
    for entry in entries:
        write_table(entry.loop, out / f"{entry.entry_id}.loop")
        lines.append(
            f"{entry.entry_id}\t{entry.loop.n}\t{int(entry.associative)}\t{entry.s_subgroup_count}"
        )
        count += 1
    (out / INDEX_NAME).write_text("\n".join(lines) + "\n", encoding="ascii")
    return count


def iter_catalog(dir_path) -> list[tuple[str, Path]]:
    """(id, path) pairs for a catalog directory, in index order.

    Each index id must be a plain file name, so that its entry and report
    stay inside the directory.  Falls back to sorted *.loop files when no
    index is present.
    """
    base = Path(dir_path)
    index = base / INDEX_NAME
    if index.exists():
        try:
            text = index.read_text(encoding="ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{index}: {exc}") from None
        pairs = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if lineno == 1 and line.startswith("id\t"):
                continue
            if not line.strip():
                continue
            entry_id = line.split("\t", 1)[0]
            if entry_id in ("", ".", "..") or Path(entry_id).name != entry_id:
                raise ParseError(
                    f"{index}: line {lineno}: entry id {entry_id!r} is not a file name"
                )
            pairs.append((entry_id, base / f"{entry_id}.loop"))
        return pairs
    return [(p.stem, p) for p in sorted(base.glob("*.loop"))]


def cyclic_loop(n: int) -> LoopTable:
    """The cyclic group of order n on 0..n-1."""
    return validate_table([[(i + j) % n for j in range(n)] for i in range(n)])


def n5_loop() -> LoopTable:
    """The smallest-order nonassociative loop used throughout the tests."""
    return validate_table(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
    )

