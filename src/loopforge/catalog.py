"""Exhaustive catalogs of small loops, canonical storage, and fixtures.

Loops are stored normalized: the identity is element 0, so the first row
and column read 0..n-1.  Generation therefore enumerates exactly the
reduced Latin squares of each order, in lexicographic order by flattened
table.  Expected counts: 1, 1, 4, 56, 9408 for orders 2 through 6.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import InvariantViolation, OrderTooLarge, ParseError
from .loop_core import (
    LoopTable,
    format_row,
    format_table,
    parse_table,
    s_subgroups,
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


@dataclass(frozen=True)
class CatalogEntry:
    """A normalized loop plus the flags recorded in the catalog index."""

    loop: LoopTable
    associative: bool
    s_subgroup_count: int
    entry_id: str

    def __post_init__(self):
        if self.loop.e != 0:
            raise InvariantViolation("catalog entries must be normalized")


def normalize(L: LoopTable) -> tuple[LoopTable, Perm]:
    """Relabel so the identity is 0; returns the loop and the relabeling.

    Swapping the identity with 0 is enough: any relabeling that fixes the
    identity to 0 makes the first row and column natural.
    """
    if L.e == 0:
        return L, Perm(range(L.n))
    imgs = list(range(L.n))
    imgs[0], imgs[L.e] = imgs[L.e], imgs[0]
    relabel = Perm(imgs)
    raw = [[0] * L.n for _ in range(L.n)]
    for x in range(L.n):
        for y in range(L.n):
            raw[imgs[x]][imgs[y]] = imgs[L.table[x][y]]
    return validate_table(raw), relabel


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def _second_rows(n: int) -> list[tuple]:
    """Every valid row 1 of a reduced square, in lexicographic order.

    Row 1 starts with 1 and puts no j in column j, where row 0 already has
    it; every such row extends to a full reduced square (a Latin rectangle
    always completes).  There are 1, 1, 3, 11, 53 for orders 2 through 6.
    """
    return [
        p for p in itertools.permutations(range(n))
        if p[0] == 1 and all(p[j] != j for j in range(1, n))
    ]


def _reduced_squares(n: int, row1: tuple) -> Iterator[tuple[list, int]]:
    """Backtracking fill from row 2 in row-major order; rows 0 and 1 and
    the first column fixed.

    Yields (rows, state) with state the FNV-1a state of the table's
    canonical text form (format_table), so content_id is f"{state:016x}".
    FNV-1a folds the text one byte at a time, so the state after a row
    extends the state after the row before: row r is hashed once, when its
    last cell (r, n-1) is set, and every square sharing rows 0..r reuses
    that state.  Each distinct row's text is formatted once.  Squares come
    in lexicographic order, so the subtrees of _second_rows(n), taken in
    that order, make the whole stream of reduced squares in order.
    """
    table = [[-1] * n for _ in range(n)]
    table[0] = list(range(n))
    table[1] = list(row1)
    for i in range(n):
        table[i][0] = i
    full = (1 << n) - 1
    row_used = [full, full] + [1 << i for i in range(2, n)]
    col_used = [full] + [1 << j | 1 << row1[j] for j in range(1, n)]
    cells = [(r, c) for r in range(2, n) for c in range(1, n)]
    m = len(cells)
    # Row tuple -> (that tuple, its format_row bytes).  Squares are yielded
    # as lists of these tuples, so squares that share a row share its
    # object, and pickling a subtree's entries stores each row once.
    row_text = {}
    done = [()] * n  # done[r]: the shared tuple of completed row r

    def fold_row(h: int, r: int) -> int:
        key = tuple(table[r])
        hit = row_text.get(key)
        if hit is None:
            hit = row_text[key] = (key, format_row(key).encode("ascii"))
        done[r] = hit[0]
        return _fnv_fold(h, hit[1])

    # states[r]: FNV-1a state after the order line and rows 0..r-1.
    states = [0] * (n + 1)
    states[1] = fold_row(_fnv_fold(FNV_OFFSET, f"{n}\n".encode("ascii")), 0)
    states[2] = fold_row(states[1], 1)
    if not m:
        yield list(done), states[n]
        return
    # Per cell: the symbols not yet tried there, and the one placed, as bits.
    untried = [0] * m
    placed = [0] * m
    k = 0
    untried[0] = ~(row_used[2] | col_used[1]) & full
    while k >= 0:
        r, c = cells[k]
        bit = placed[k]
        if bit:
            row_used[r] ^= bit
            col_used[c] ^= bit
        left = untried[k]
        if not left:
            placed[k] = 0
            k -= 1
            continue
        bit = left & -left
        untried[k] = left ^ bit
        placed[k] = bit
        table[r][c] = bit.bit_length() - 1
        row_used[r] |= bit
        col_used[c] |= bit
        if c == n - 1:
            states[r + 1] = fold_row(states[r], r)
        if k + 1 == m:
            yield list(done), states[n]
        else:
            k += 1
            r, c = cells[k]
            untried[k] = ~(row_used[r] | col_used[c]) & full


def _subtree(task: tuple) -> list[CatalogEntry]:
    """The entries of one row-1 subtree, (n, row1, nonassociative,
    require_s_subgroup), in stream order.  Top level, so a process pool
    can run it."""
    n, row1, nonassociative, require_s_subgroup = task
    entries = []
    for raw, state in _reduced_squares(n, row1):
        L = validate_table(raw)
        if nonassociative and L.associative:
            continue
        count = len(s_subgroups(L))
        if require_s_subgroup and count == 0:
            continue
        entries.append(CatalogEntry(L, L.associative, count, f"{state:016x}"))
    return entries


def _in_order(pool, tasks: list, window: int) -> Iterator[list[CatalogEntry]]:
    """Results of _subtree over tasks, in task order, with at most window
    tasks submitted ahead of the one being consumed."""
    pending = deque()
    for task in tasks:
        pending.append(pool.submit(_subtree, task))
        if len(pending) > window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


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
    the stream is touched.

    The search splits at row 1 into the subtrees of _second_rows(n), which
    are generated independently and yielded in order, so the stream is the
    same however they are run.  The unbounded order-6 run maps them over a
    process pool when more than one CPU is available and the process runs
    no other thread; smaller orders take less time than starting a pool,
    and a bounded run may need only the first few subtrees, so those run
    in this process.
    """
    if n < 2 or n > 6:
        raise OrderTooLarge(f"exhaustive generation covers orders 2..6, got {n}")
    if n == 6 and limit is None and not allow_order_six:
        raise OrderTooLarge("order-6 exhaustive run requires allow_order_six=True")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")

    def stream() -> Iterator[CatalogEntry]:
        tasks = [(n, row1, nonassociative, require_s_subgroup) for row1 in _second_rows(n)]
        cpus = available_cpus()
        pool = None
        # Pool workers are forked where that is the default start method,
        # and forking a process that runs other threads can deadlock.
        if n == 6 and limit is None and cpus > 1 and threading.active_count() == 1:
            from concurrent.futures import ProcessPoolExecutor

            workers = min(cpus, len(tasks))
            pool = ProcessPoolExecutor(max_workers=workers)
            subtrees = _in_order(pool, tasks, 2 * workers)
        else:
            subtrees = map(_subtree, tasks)
        try:
            produced = 0
            for entries in subtrees:
                for entry in entries:
                    yield entry
                    produced += 1
                    if limit is not None and produced >= limit:
                        return
        finally:
            # Cancels the queued subtrees when the stream is closed early,
            # and waits for the running ones, so no worker outlives it.
            if pool is not None:
                pool.shutdown(cancel_futures=True)

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


def klein_four() -> LoopTable:
    return validate_table([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])


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


CACHE_ENV_VAR = "LOOPFORGE_CACHE"


def report_cache_dir() -> Path | None:
    """Directory named by LOOPFORGE_CACHE, created on demand, or None."""
    value = os.environ.get(CACHE_ENV_VAR)
    if not value:
        return None
    path = Path(value)
    path.mkdir(parents=True, exist_ok=True)
    return path
