import contextlib
import hashlib
import itertools
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import warnings

import pytest

from loopforge import (
    CatalogEntry,
    OrderTooLarge,
    ParseError,
    canonical_form,
    content_id,
    cyclic_loop,
    format_table,
    generate_loops,
    iter_catalog,
    read_table,
    s_subgroups,
    validate_table,
    write_catalog,
    write_table,
)
from loopforge import catalog, errors
from loopforge.catalog import INDEX_NAME
from loopforge.isotopy import law_holds

from conftest import has_children
from oracles import count_reduced_squares_colmajor, fnv64, relabel


@contextlib.contextmanager
def deadline(seconds: int):
    """Raises TimeoutError in this process if the block runs past seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestContentId:
    def test_frozen_ids(self, z4, n5):
        assert content_id(z4) == "d29ea407de45234b"
        assert content_id(n5) == "5b3b9c6839e012cc"

    def test_matches_independent_fnv(self, z4, klein, n5):
        for L in (z4, klein, n5, *(e.loop for e in generate_loops(5))):
            expected = f"{fnv64(format_table(L).encode('ascii')):016x}"
            assert content_id(L) == expected

    def test_stream_ids_are_content_ids(self):
        # The stream hashes rows as it fills them; its ids must still be the
        # hash of the whole text form.
        for n in range(2, 7):
            for entry in generate_loops(n, allow_order_six=True):
                expected = f"{fnv64(format_table(entry.loop).encode('ascii')):016x}"
                assert entry.entry_id == content_id(entry.loop) == expected

    def test_distinct_across_order_5(self):
        ids = [e.entry_id for e in generate_loops(5)]
        assert len(ids) == len(set(ids)) == 56


class TestNormalize:
    # canonical_form is the one relabelling that moves the identity to 0.
    def test_already_normalized_is_unchanged(self, z4):
        M, _ = canonical_form(z4)
        assert canonical_form(M)[0] == M

    def test_shifted_identity(self, loop_3x3_shifted, z3):
        M, phi = canonical_form(loop_3x3_shifted)
        assert M.e == 0
        assert M.table == z3.table
        assert phi(loop_3x3_shifted.e) == 0

    def test_relabel_is_an_isomorphism(self, loop_3x3_shifted):
        M, phi = canonical_form(loop_3x3_shifted)
        assert M.table == validate_table(relabel(loop_3x3_shifted, phi.images)).table


def _structured_and_order_7_loops() -> list:
    """(Z2)^3, Z2 x Z4, Z8, and 200 reduced squares of order 7 drawn with a
    fixed seed from the first 500 of 20 row-1 subtrees."""
    z2_cubed = validate_table([[x ^ y for y in range(8)] for x in range(8)])
    z2_z4 = validate_table([[(x ^ y) & 4 | (x + y) & 3 for y in range(8)] for x in range(8)])
    rng = random.Random(7)
    squares = [
        raw
        for row1 in rng.sample(catalog._second_rows(7), 20)
        for raw, _ in itertools.islice(catalog._reduced_squares(7, row1), 500)
    ]
    return [z2_cubed, z2_z4, cyclic_loop(8), *map(validate_table, rng.sample(squares, 200))]


class TestCanonicalForm:
    def test_one_form_per_isomorphism_class(self):
        # McKay, Meynert and Myrvold, "Small Latin squares, quasigroups and
        # loops" (2007): 1, 1, 2, 6 and 109 loops of orders 2..6 up to
        # isomorphism.
        counts = [
            len({canonical_form(e.loop)[0] for e in generate_loops(n, allow_order_six=True)})
            for n in range(2, 7)
        ]
        assert counts == [1, 1, 2, 6, 109]

    def test_form_is_the_loop_relabelled(self, loop_3x3_shifted):
        rng = random.Random(16)
        loops = [loop_3x3_shifted, *(e.loop for e in generate_loops(5))]
        loops += _structured_and_order_7_loops()
        loops += [validate_table(relabel(L, rng.sample(range(L.n), L.n))) for L in loops]
        for L in loops:
            M, phi = canonical_form(L)
            assert M.e == 0 and phi(L.e) == 0
            assert validate_table(M.table).e == 0
            assert law_holds(L.table, M.table, phi.images, phi.images, phi.images)

    def test_relabelled_loops_share_the_form(self):
        rng = random.Random(2007)
        loops = [validate_table([[0]])] + [e.loop for n in range(2, 6) for e in generate_loops(n)]
        loops += rng.sample([e.loop for e in generate_loops(6, allow_order_six=True)], 200)
        loops += _structured_and_order_7_loops()
        for L in loops:
            psi = rng.sample(range(L.n), L.n)
            assert canonical_form(validate_table(relabel(L, psi)))[0] == canonical_form(L)[0]

    def test_z2_to_the_fourth_shares_its_form(self):
        # Every non-identity element has order 2, so the form tries all
        # 15 * 14 * 12 * 8 = |GL(4, 2)| generator sequences.
        z2_fourth = validate_table([[x ^ y for y in range(16)] for x in range(16)])
        M, phi = canonical_form(z2_fourth)
        psi = random.Random(16).sample(range(16), 16)
        assert canonical_form(validate_table(relabel(z2_fourth, psi)))[0] == M
        assert law_holds(z2_fourth.table, M.table, phi.images, phi.images, phi.images)


class TestGeneration:
    def test_counts_small_orders(self):
        assert sum(1 for _ in generate_loops(2)) == 1
        assert sum(1 for _ in generate_loops(3)) == 1
        assert sum(1 for _ in generate_loops(4)) == 4
        assert sum(1 for _ in generate_loops(5)) == 56

    def test_counts_match_colmajor_recount(self):
        for n in (2, 3, 4, 5, 6):
            stream = generate_loops(n, allow_order_six=True)
            assert sum(1 for _ in stream) == count_reduced_squares_colmajor(n)

    def test_stream_is_lexicographic_and_normalized(self):
        # With the recount above: distinct valid reduced squares, as many as
        # there are, so each stream is exactly the set of reduced squares.
        for n in range(2, 7):
            tables = [e.loop.table for e in generate_loops(n, allow_order_six=True)]
            flat = [sum(t, ()) for t in tables]
            assert flat == sorted(flat)
            assert len(set(flat)) == len(flat)
            natural = tuple(range(n))
            for t in tables:
                L = validate_table(t)
                assert L.table == t and L.e == 0
                assert t[0] == natural and tuple(row[0] for row in t) == natural

    def test_first_order_4_entry_is_klein(self, klein):
        first = next(iter(generate_loops(4)))
        assert first.loop.table == klein.table
        assert first.associative
        assert first.s_subgroup_count == 3

    def test_order_4_flags(self):
        entries = list(generate_loops(4))
        assert [e.associative for e in entries] == [True] * 4
        assert [e.s_subgroup_count for e in entries] == [3, 1, 1, 1]

    def test_order_5_filters(self):
        assert sum(1 for _ in generate_loops(5, nonassociative=True)) == 50
        assert sum(1 for _ in generate_loops(5, require_s_subgroup=True)) == 26
        for e in generate_loops(5, require_s_subgroup=True, limit=5):
            assert e.s_subgroup_count == len(s_subgroups(e.loop)) > 0

    def test_limit(self):
        assert sum(1 for _ in generate_loops(5, limit=10)) == 10

    def test_order_gates(self):
        with pytest.raises(OrderTooLarge):
            generate_loops(1)
        with pytest.raises(OrderTooLarge):
            generate_loops(7)
        # the unbounded order-6 run needs the explicit flag ...
        with pytest.raises(OrderTooLarge):
            generate_loops(6)
        # ... but a bounded one does not
        assert sum(1 for _ in generate_loops(6, limit=3)) == 3

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"n": 4, "limit": 2.5}, "limit"), ({"n": 4.0}, "order"),
         ({"n": 4, "limit": True}, "limit"), ({"n": True}, "order")],
    )
    def test_order_and_limit_are_ints_checked_at_call_time(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
            generate_loops(**kwargs)

    def test_second_rows_are_the_row_ones_of_the_stream(self):
        for n, count in zip(range(2, 7), (1, 1, 3, 11, 53)):
            rows = catalog._second_rows(n)
            assert len(rows) == count
            stream = generate_loops(n, allow_order_six=True)
            assert rows == list(dict.fromkeys(e.loop.table[1] for e in stream))

    def test_second_rows_match_the_permutation_scan(self):
        # Row 1 starts with 1 and puts no j in column j, where row 0 has it.
        for n, count in zip(range(2, 8), (1, 1, 3, 11, 53, 309)):
            scan = [
                p for p in itertools.permutations(range(n))
                if p[0] == 1 and all(p[j] != j for j in range(1, n))
            ]
            assert len(scan) == count
            assert catalog._second_rows(n) == scan

    def test_stream_is_pinned(self):
        # Every entry of orders 2-6, in stream order: ids, tables and flags.
        digest = hashlib.sha256()
        for n in range(2, 7):
            for e in generate_loops(n, allow_order_six=True):
                key = (e.entry_id, e.loop.table, e.associative, e.s_subgroup_count)
                digest.update(repr(key).encode("ascii"))
        assert digest.hexdigest() == (
            "800558159d7161f6d8ee49140508fd53601521d76d41cbf29f632c6825f9a88a"
        )

    def test_pooled_order_6_stream_equals_the_one_cpu_stream(self, monkeypatch):
        def key(e):
            return (e.entry_id, e.loop.table, e.associative, e.s_subgroup_count)

        # At least two, so the pool runs on a one-CPU machine too.
        cpus = max(2, catalog.available_cpus())
        monkeypatch.setattr(catalog, "available_cpus", lambda: cpus)
        stream = generate_loops(6, allow_order_six=True)
        pooled = [key(next(stream))]
        assert has_children()
        pooled += map(key, stream)
        monkeypatch.setattr(catalog, "available_cpus", lambda: 1)
        assert [key(e) for e in generate_loops(6, allow_order_six=True)] == pooled

    def test_closing_an_order_6_stream_leaves_no_worker(self, monkeypatch):
        monkeypatch.setattr(catalog, "available_cpus", lambda: 2)
        stream = generate_loops(6, allow_order_six=True)
        with deadline(10):
            next(stream)
            assert has_children()
            stream.close()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_only_the_unbounded_order_6_run_builds_a_pool(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(catalog, "available_cpus", lambda: 64)
        assert sum(1 for _ in generate_loops(6, limit=500)) == 500
        assert sum(1 for _ in generate_loops(5)) == 56
        assert pool_sizes == []
        # Forking while another thread runs can deadlock the child.
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            next(generate_loops(6, allow_order_six=True))
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert pool_sizes == []
        assert sum(1 for _ in generate_loops(6, allow_order_six=True)) == 9408
        assert pool_sizes == [53]

    def test_import_starts_no_process_machinery(self, package_env):
        # fan_out imports pickle only when it forks.
        code = (
            "import sys, threading, loopforge, loopforge.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing', 'pickle')), "
            "threading.active_count())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=package_env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[] 1"

    def test_forking_leaves_no_process_machinery(self, tmp_path, package_env):
        # After a two-worker order-6 stream and a two-worker verify DIR:
        # no executor or multiprocessing module, and no thread but this one.
        write_catalog(generate_loops(4), tmp_path / "cat4")
        code = (
            "import contextlib, io, sys, threading\n"
            "from loopforge import catalog, generate_loops\n"
            "from loopforge.cli import main\n"
            "catalog.available_cpus = lambda: 2\n"
            "def machinery():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.split('.')[0] in ('concurrent', 'multiprocessing')),"
            " threading.active_count(), 'pickle' in sys.modules\n"
            "points = [sum(1 for _ in generate_loops(6, allow_order_six=True)), machinery()]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    points += [main(['verify', sys.argv[1], '--jobs', '2']), machinery()]\n"
            "print(points)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "cat4")],
            env=package_env, capture_output=True, text=True, check=True, timeout=120,
        )
        assert out.stdout.strip() == "[9408, ([], 1, True), 0, ([], 1, True)]"

    def test_import_loads_neither_dataclasses_nor_inspect(self, package_env):
        # A bare interpreter loads neither; dataclasses imports inspect,
        # which imports ast, dis and tokenize.
        code = (
            "import sys, loopforge, loopforge.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=package_env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_entry_must_be_normalized(self, z4, loop_3x3_shifted):
        with pytest.raises(AssertionError):
            CatalogEntry(loop_3x3_shifted, True, 0, "0" * 16)
        with pytest.raises(AssertionError):
            CatalogEntry(z4, True, 0, "0" * 16)._replace(loop=loop_3x3_shifted)


class TestFanOut:
    """fan_out's forked workers; every wait is under a deadline."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(catalog, "available_cpus", lambda: 2)

    def test_workers_run_what_they_inherit(self):
        # A closure cannot be pickled, and need not be.
        offset = 10
        parent = os.getpid()
        with deadline(10):
            out = list(catalog.fan_out(lambda t: (t + offset, os.getpid()), list(range(7)), 3))
        assert [v for v, _ in out] == list(range(10, 17))
        pids = [pid for _, pid in out]
        assert parent not in pids and len(set(pids)) == 2
        assert pids[0::2] == [pids[0]] * 4 and pids[1::2] == [pids[1]] * 3
        assert not has_children()

    @pytest.mark.parametrize(
        "error",
        [errors.InvariantViolation("planted at task 3"), errors.SearchCapExceeded(12, 10)],
        ids=["InvariantViolation", "SearchCapExceeded"],
    )
    def test_a_worker_exception_is_raised_at_its_task(self, error):
        parent = os.getpid()

        def fn(task):
            if task == 3:
                raise error
            return os.getpid()

        stream = catalog.fan_out(fn, list(range(6)), 2)
        with deadline(10):
            pids = [next(stream) for _ in range(3)]
            with pytest.raises(type(error)) as caught:
                next(stream)
        assert parent not in pids
        assert (str(caught.value), vars(caught.value)) == (str(error), vars(error))
        assert not has_children()

    @pytest.mark.parametrize(
        "death, status",
        [(lambda: os._exit(7), 7), (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)],
        ids=["exit", "kill"],
    )
    def test_a_worker_that_dies_ends_the_stream(self, death, status):
        parent = os.getpid()

        def fn(task):
            if task == 3 and os.getpid() != parent:
                death()
            return task

        stream = catalog.fan_out(fn, list(range(6)), 2)
        with deadline(10):
            assert [next(stream) for _ in range(3)] == [0, 1, 2]
            with pytest.raises(ChildProcessError) as caught:
                next(stream)
        assert str(caught.value) == f"fan_out worker 1 ended before task 3, exit status {status}"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_back_to_back_calls_warn_of_no_threaded_fork(self):
        # Python 3.12 and later warn when a process that runs other threads
        # forks; an executor's leftover threads made later forks warn.
        parent = os.getpid()
        with warnings.catch_warnings(record=True) as caught, deadline(120):
            warnings.simplefilter("always")
            for _ in range(150):
                pids = list(catalog.fan_out(lambda t: os.getpid(), [0, 1], 2))
                assert parent not in pids
        assert [str(w.message) for w in caught if "fork()" in str(w.message)] == []
        assert not has_children()

    def test_every_error_round_trips_through_pickle(self):
        # So that a worker's error reaches fan_out's caller as it was raised.
        classes = [
            c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, errors.LoopforgeError)
        ]
        assert len(classes) == 11
        made = {
            errors.ParseError: errors.ParseError("bad token", 3, 2),
            errors.SearchCapExceeded: errors.SearchCapExceeded(12, 10),
        }
        relocated = errors.ParseError("bad token", 3)
        relocated.args = (f"t.loop: {relocated}",)  # as read_table does
        for error in [made.get(c) or c(f"a {c.__name__}") for c in classes] + [relocated]:
            back = pickle.loads(pickle.dumps(error))
            assert type(back) is type(error)
            assert (str(back), back.args, vars(back)) == (str(error), error.args, vars(error))


class TestStorage:
    def test_write_read_round_trip(self, tmp_path, n5):
        path = tmp_path / "n5.loop"
        write_table(n5, path)
        assert path.read_text(encoding="ascii") == format_table(n5)
        assert read_table(path).table == n5.table

    def test_read_reports_file_errors_as_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.loop"
        bad.write_text("2\n0 1\nnope\n", encoding="ascii")
        with pytest.raises(ParseError) as exc:
            read_table(bad)
        assert str(exc.value) == f"{bad}: line 3: expected 2 entries, found 1"
        assert (exc.value.line, exc.value.column) == (3, None)

    def test_catalog_layout(self, tmp_path):
        count = write_catalog(generate_loops(4), tmp_path / "cat")
        assert count == 4
        index = (tmp_path / "cat" / INDEX_NAME).read_text(encoding="ascii")
        lines = index.splitlines()
        assert lines[0] == "id\torder\tassociative\ts_subgroups"
        assert len(lines) == 5
        first_id = lines[1].split("\t")[0]
        assert (tmp_path / "cat" / f"{first_id}.loop").exists()

    def test_iter_catalog_follows_index_order(self, tmp_path):
        write_catalog(generate_loops(4), tmp_path / "cat")
        pairs = iter_catalog(tmp_path / "cat")
        expected = [e.entry_id for e in generate_loops(4)]
        assert [entry_id for entry_id, _ in pairs] == expected
        for entry_id, path in pairs:
            assert content_id(read_table(path)) == entry_id

    def test_iter_catalog_glob_fallback(self, tmp_path):
        write_catalog(generate_loops(4), tmp_path / "cat")
        (tmp_path / "cat" / INDEX_NAME).unlink()
        pairs = iter_catalog(tmp_path / "cat")
        expected = sorted(e.entry_id for e in generate_loops(4))
        assert [entry_id for entry_id, _ in pairs] == expected

    def test_catalog_files_are_byte_exact(self, tmp_path):
        write_catalog(generate_loops(4), tmp_path / "cat")
        for entry, (entry_id, path) in zip(
            generate_loops(4), iter_catalog(tmp_path / "cat")
        ):
            assert path.read_bytes() == format_table(entry.loop).encode("ascii")


class TestFixtures:
    def test_cyclic(self):
        z6 = cyclic_loop(6)
        assert z6.associative
        assert z6.table[4][5] == 3

    def test_klein_is_its_own_inverse_table(self, klein):
        for x in range(4):
            assert klein.table[x][x] == 0

    def test_n5_in_order_5_stream(self, n5):
        target = n5.table
        assert any(e.loop.table == target for e in generate_loops(5, nonassociative=True))
