import hashlib
import json
import random
import subprocess
import sys
import threading

import pytest

from loopforge import (
    CHECK_KEYS,
    DEFAULT_SEARCH_CAP,
    InvariantViolation,
    canonical_form,
    content_id,
    cyclic_loop,
    generate_loops,
    iter_catalog,
    n5_loop,
    validate_table,
    write_catalog,
    write_table,
)
from loopforge import catalog, cli, sbs
from loopforge.cli import main

from oracles import relabel


@pytest.fixture
def z4_file(tmp_path):
    path = tmp_path / "z4.loop"
    write_table(cyclic_loop(4), path)
    return str(path)


@pytest.fixture
def z5_file(tmp_path):
    path = tmp_path / "z5.loop"
    write_table(cyclic_loop(5), path)
    return str(path)


@pytest.fixture
def n5_file(tmp_path):
    path = tmp_path / "n5.loop"
    write_table(n5_loop(), path)
    return str(path)


class TestValidate:
    def test_text(self, z4_file, capsys):
        assert main(["validate", z4_file]) == 0
        out = capsys.readouterr().out
        assert "valid loop of order 4" in out
        assert "identity 0" in out
        assert "associative=yes" in out
        assert "{0,2}" in out

    def test_json(self, n5_file, capsys):
        assert main(["validate", "--json", n5_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["order"] == 5
        assert doc["identity"] == 0
        assert doc["associative"] is False
        assert doc["s_subgroups"] == [[0, 1]]
        assert doc["id"] == "5b3b9c6839e012cc"

    def test_invalid_table(self, tmp_path, capsys):
        bad = tmp_path / "bad.loop"
        bad.write_text("2\n0 1\n1 1\n", encoding="ascii")
        assert main(["validate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.loop")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_ascii_file_is_named(self, tmp_path, capsys):
        bad = tmp_path / "accent.loop"
        bad.write_bytes(b"# caf\xc3\xa9\n2\n0 1\n1 0\n")
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: 'ascii' codec can't decode byte 0xc3 in position 5:"
            " ordinal not in range(128)\n"
        )


class TestAnalyze:
    def test_text_report(self, z4_file, capsys):
        assert main(["analyze", z4_file]) == 0
        out = capsys.readouterr().out
        assert "H={0,2}: |BS|=8 |SBS|=4 |SSYM|=4" in out
        assert "|omega|=8 |theta|=4" in out
        assert "|N_mu|=4 |N_mu^H|=2 |ker|=2" in out
        for key in CHECK_KEYS:
            assert f"  {key:<6} pass" in out
        assert "aggregate: t14 pass" in out

    def test_json_report(self, z4_file, capsys):
        assert main(["analyze", "--json", z4_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["subgroups"] == [[0, 2]]
        rep = doc["reports"][0]
        assert rep["bs"] == 8 and rep["sbs"] == 4 and rep["omega"] == 8
        assert tuple(rep["checks"]) == CHECK_KEYS
        assert doc["aggregate"]["checks"]["t14"]["status"] == "pass"

    def test_subgroup_selection(self, z4_file, capsys):
        assert main(["analyze", z4_file, "--subgroup", "0,2"]) == 0
        out = capsys.readouterr().out
        assert "H={0,2}" in out
        assert "aggregate" not in out

    def test_subgroup_selection_json_drops_aggregate(self, z4_file, capsys):
        assert main(["analyze", "--json", z4_file, "--subgroup", "0,2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "aggregate" not in doc

    def test_rejects_non_subgroup(self, z4_file, capsys):
        assert main(["analyze", z4_file, "--subgroup", "0,1"]) == 2
        assert "not a subgroup" in capsys.readouterr().err
        for whole_or_trivial in ("0,1,2,3", "0"):
            assert main(["analyze", z4_file, "--subgroup", whole_or_trivial]) == 2
            assert "not proper and non-trivial" in capsys.readouterr().err

    def test_rejects_malformed_subgroup(self, z4_file, capsys):
        assert main(["analyze", z4_file, "--subgroup", "0,x"]) == 2
        assert "bad subgroup list" in capsys.readouterr().err

    def test_loop_without_s_subgroup(self, z5_file, capsys):
        assert main(["analyze", z5_file]) == 2
        assert "no proper non-trivial subgroup" in capsys.readouterr().err

    def test_pins_the_z4_document(self, z4_file, capsys):
        # A change to the report text must be deliberate: re-pin the digest.
        assert main(["analyze", "--json", z4_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc.pop("file") == z4_file
        digest = hashlib.sha256(json.dumps(doc, indent=2).encode("ascii")).hexdigest()
        assert digest == "bd0beb27447458f373777b67b3e5ba390026ec8ec87bbe4f4db477d47dd6a2c9"


class TestIsotope:
    def test_writes_isotope_then_validates(self, z4_file, tmp_path, capsys):
        out_path = str(tmp_path / "iso.loop")
        assert main(["isotope", z4_file, "-f", "1", "-g", "2", "-o", out_path]) == 0
        assert "identity 3" in capsys.readouterr().out
        assert main(["validate", out_path]) == 0
        assert "identity 3" in capsys.readouterr().out

    def test_rejects_out_of_range(self, z4_file, tmp_path, capsys):
        out_path = str(tmp_path / "iso.loop")
        assert main(["isotope", z4_file, "-f", "7", "-g", "0", "-o", out_path]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerifyFile:
    def test_all_checks(self, z4_file, capsys):
        assert main(["verify", z4_file]) == 0
        out = capsys.readouterr().out
        assert "16/16 checks passed" in out
        assert "H={0,2} t10 pass:" in out
        assert "aggregate t14 pass:" in out

    def test_single_theorem(self, z4_file, capsys):
        assert main(["verify", z4_file, "--theorem", "t18"]) == 0
        out = capsys.readouterr().out
        assert "1/1 checks passed" in out
        assert "literal_reading=fail" in out
        assert "intersect_reading=pass" in out

    def test_unknown_theorem(self, z4_file, capsys):
        assert main(["verify", z4_file, "--theorem", "t99"]) == 2
        assert "unknown theorem selector" in capsys.readouterr().err

    def test_json(self, n5_file, capsys):
        assert main(["verify", "--json", n5_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["failed"] is False
        keys = [c["key"] for c in doc["checks"]]
        assert keys == list(CHECK_KEYS) + ["t14"]
        statuses = {c["key"]: c["status"] for c in doc["checks"]}
        assert statuses["c23"] == "n/a"

    def test_search_cap(self, z4_file, capsys):
        assert main(["verify", z4_file, "--search-cap", "3"]) == 2
        assert "--search-cap" in capsys.readouterr().err
        assert main(["verify", z4_file, "--search-cap", "1"]) == 2
        assert "search cap must be at least 2" in capsys.readouterr().err

    def test_malformed_subgroup_wins_over_search_cap(self, z4_file, capsys):
        assert main(["verify", z4_file, "--subgroup", "0,x", "--search-cap", "3"]) == 2
        assert capsys.readouterr().err.startswith("error: bad subgroup list '0,x'")

    def test_reads_the_table_once(self, z4_file, monkeypatch, capsys):
        calls = []
        real = catalog.parse_table
        monkeypatch.setattr(catalog, "parse_table", lambda text: calls.append(text) or real(text))
        assert main(["verify", z4_file, "--subgroup", "0,2"]) == 0
        assert len(calls) == 1


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_table_error_wins_over_malformed_subgroup(command, tmp_path, capsys):
    bad = tmp_path / "bad.loop"
    bad.write_text("2\n0 1\n", encoding="ascii")
    assert main([command, str(bad), "--subgroup", "0,x"]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line 1: expected 2 rows, found 1\n"


class TestVerifyDir:
    @pytest.fixture
    def catalog_dir(self, tmp_path):
        target = tmp_path / "cat4"
        assert main(["generate", "4", str(target)]) == 0
        return target

    def test_verifies_catalog(self, catalog_dir, capsys):
        capsys.readouterr()
        assert main(["verify", str(catalog_dir)]) == 0
        out = capsys.readouterr().out
        assert "4 ok, 0 failed, 0 skipped, 0 errors" in out
        reports = list(catalog_dir.glob("*.report.json"))
        assert len(reports) == 4
        doc = json.loads(reports[0].read_text(encoding="ascii"))
        assert tuple(doc["reports"][0]["checks"]) == CHECK_KEYS

    def test_loops_without_s_subgroups_are_skipped(self, tmp_path, capsys):
        target = tmp_path / "cat3"
        main(["generate", "3", str(target)])
        capsys.readouterr()
        assert main(["verify", str(target)]) == 0
        assert "0 ok, 0 failed, 1 skipped, 0 errors" in capsys.readouterr().out

    def test_jobs_output_is_identical(self, catalog_dir, capsys):
        capsys.readouterr()
        assert main(["verify", str(catalog_dir)]) == 0
        sequential = capsys.readouterr().out
        assert main(["verify", str(catalog_dir), "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == sequential

    def test_theorem_selector(self, catalog_dir, capsys):
        capsys.readouterr()
        assert main(["verify", str(catalog_dir), "--theorem", "t18"]) == 0
        for line in capsys.readouterr().out.splitlines()[:-1]:
            assert " ok " in line

    def test_json_summary(self, catalog_dir, capsys):
        capsys.readouterr()
        assert main(["verify", "--json", str(catalog_dir)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"] == {"ok": 4, "fail": 0, "skip": 0, "error": 0}
        assert len(doc["entries"]) == 4

    def test_subgroup_flag_rejected_for_dirs(self, catalog_dir, capsys):
        assert main(["verify", str(catalog_dir), "--subgroup", "0,1"]) == 2
        assert "single-file" in capsys.readouterr().err

    def test_empty_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["verify", str(empty)]) == 2
        assert "no catalog entries" in capsys.readouterr().err

    def test_search_cap(self, catalog_dir, capsys):
        capsys.readouterr()
        assert main(["verify", "--json", str(catalog_dir), "--search-cap", "3"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"] == {"ok": 0, "fail": 0, "skip": 0, "error": 4}
        assert all("exceeds the search cap 3" in row["summary"] for row in doc["entries"])
        assert not list(catalog_dir.glob("*.report.json"))

    def test_pins_every_cat5_report(self, tmp_path, capsys):
        # The same rule over every order-5 loop with a subgroup: hash the
        # report documents, less the path in "file", in id order.
        cat5 = tmp_path / "cat5"
        write_catalog(generate_loops(5), cat5)
        assert main(["verify", str(cat5)]) == 0
        reports = sorted(cat5.glob("*.report.json"))
        docs = [json.loads(p.read_text(encoding="ascii")) for p in reports]
        assert len(docs) == 26
        paths = [doc.pop("file") for doc in docs]
        assert paths == [str(cat5 / f"{doc['id']}.loop") for doc in docs]
        digest = hashlib.sha256(json.dumps(docs, indent=2).encode("ascii")).hexdigest()
        assert digest == "bd888b8d73873b87a685643d76ebbe036f78a8f6cb4a1bbe5b1c6404c659065f"

    def test_bad_jobs_value(self, catalog_dir, capsys):
        assert main(["verify", str(catalog_dir), "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err

    def test_unreadable_entries_are_errors_and_the_rest_still_run(self, catalog_dir, capsys):
        loops = sorted(catalog_dir.glob("*.loop"))
        loops[0].write_bytes(b"# \xc3\n" + loops[0].read_bytes())
        loops[1].unlink()
        capsys.readouterr()
        assert main(["verify", "--json", str(catalog_dir)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"] == {"ok": 2, "fail": 0, "skip": 0, "error": 2}
        rows = {row["id"]: row for row in doc["entries"]}
        bad = rows[loops[0].stem]
        assert bad["status"] == "error"
        assert bad["summary"].startswith(f"{loops[0]}: 'ascii' codec can't decode byte 0xc3")
        missing = rows[loops[1].stem]
        assert missing["status"] == "error" and "No such file" in missing["summary"]
        for path in loops[2:]:
            assert rows[path.stem] == {"id": path.stem, "status": "ok", "summary": "16/16 passed"}
            assert (catalog_dir / f"{path.stem}.report.json").exists()

    def test_an_unwritable_report_is_an_error_and_the_rest_still_run(self, catalog_dir, capsys):
        ids = [entry_id for entry_id, _ in iter_catalog(catalog_dir)]
        blocked = catalog_dir / f"{ids[1]}.report.json"
        blocked.mkdir()
        capsys.readouterr()
        assert main(["verify", "--json", str(catalog_dir), "--jobs", "1"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"] == {"ok": 3, "fail": 0, "skip": 0, "error": 1}
        rows = {row["id"]: row for row in doc["entries"]}
        assert rows[ids[1]]["status"] == "error"
        assert str(blocked) in rows[ids[1]]["summary"]
        for entry_id in ids[:1] + ids[2:]:
            assert rows[entry_id]["status"] == "ok"
            assert (catalog_dir / f"{entry_id}.report.json").is_file()

    def test_non_ascii_index_is_named(self, catalog_dir, capsys):
        index = catalog_dir / "index.tsv"
        index.write_bytes(b"id\torder\xc3\n" + index.read_bytes())
        capsys.readouterr()
        assert main(["verify", str(catalog_dir)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {index}: 'ascii' codec can't decode byte 0xc3 in position 8:"
        )

    @pytest.mark.parametrize("bad_id", ["../outside/evil", "sub/evil", "/abs/evil", "..", "."])
    def test_index_ids_must_stay_in_the_directory(self, catalog_dir, tmp_path, bad_id, capsys):
        outside = tmp_path / "outside"
        outside.mkdir()
        write_table(cyclic_loop(4), outside / "evil.loop")
        index = catalog_dir / "index.tsv"
        with index.open("a", encoding="ascii") as fh:
            fh.write(f"{bad_id}\t4\t1\t1\n")
        capsys.readouterr()
        assert main(["verify", str(catalog_dir)]) == 2
        assert capsys.readouterr().err == (
            f"error: {index}: line 6: entry id {bad_id!r} is not a file name\n"
        )
        assert list(tmp_path.rglob("*.report.json")) == []

    def test_pool_size_is_capped_by_classes(self, tmp_path, pool_sizes, monkeypatch, capsys):
        # The pool gets one task per isomorphism class: cat5's 56 entries
        # fall into 6 classes.
        cat5 = tmp_path / "cat5"
        write_catalog(generate_loops(5), cat5)
        capsys.readouterr()
        assert main(["verify", "--json", str(cat5)]) == 0
        serial = capsys.readouterr().out
        assert main(["verify", "--json", str(cat5), "--jobs", "64"]) == 0
        assert capsys.readouterr().out == serial
        assert all(1 < k <= 6 for k in pool_sizes)
        # and by the CPUs the process may run on
        pool_sizes.clear()
        for cpus in (1, 3):
            monkeypatch.setattr(catalog, "available_cpus", lambda: cpus)
            assert main(["verify", "--json", str(cat5), "--jobs", "64"]) == 0
            assert capsys.readouterr().out == serial
        assert pool_sizes == [3]

    def test_no_pool_while_another_thread_runs(self, catalog_dir, pool_sizes, monkeypatch, capsys):
        monkeypatch.setattr(catalog, "available_cpus", lambda: 2)
        capsys.readouterr()
        assert main(["verify", "--json", str(catalog_dir)]) == 0
        serial = capsys.readouterr().out
        assert main(["verify", "--json", str(catalog_dir), "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert pool_sizes == [2]
        # Forking while another thread runs can deadlock the child.
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            code = main(["verify", "--json", str(catalog_dir), "--jobs", "2"])
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert code == 0
        assert capsys.readouterr().out == serial
        assert pool_sizes == [2]

    def test_invariant_violation_outside_a_check_is_an_error(
        self, catalog_dir, monkeypatch, capsys
    ):
        def broken(L, cap):
            raise InvariantViolation("autotopism set is not a group: identity missing")

        monkeypatch.setattr(sbs, "autotopism_group", broken)
        capsys.readouterr()
        assert main(["verify", "--json", str(catalog_dir)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"] == {"ok": 0, "fail": 0, "skip": 0, "error": 4}
        assert "identity missing" in doc["entries"][0]["summary"]


def _per_file(target) -> tuple[list, dict]:
    """The verify DIR --json rows and the report texts that verifying each
    entry of target on its own gives."""
    rows, texts = [], {}
    for entry_id, path in iter_catalog(target):
        status, text, summary = cli._worker((str(path), DEFAULT_SEARCH_CAP, "all"))
        rows.append({"id": entry_id, "status": status, "summary": summary})
        if text is not None:
            texts[f"{entry_id}.report.json"] = text
    return rows, texts


def _run_verify_dir(target, capsys, *flags) -> tuple[list, dict]:
    for old in target.glob("*.report.json"):
        old.unlink()
    capsys.readouterr()
    main(["verify", "--json", str(target), *flags])
    rows = json.loads(capsys.readouterr().out)["entries"]
    return rows, {p.name: p.read_text(encoding="ascii") for p in target.glob("*.report.json")}


def _off_identity(rng, n) -> list:
    """A random relabelling of 0..n-1 that moves 0."""
    images = rng.sample(range(n), n)
    return images[1:] + images[:1] if images[0] == 0 else images


class TestVerifyByClass:
    """verify DIR verifies one loop per isomorphism class and carries the
    reports over to every member; rows and reports must be those that
    verifying each file on its own gives."""

    @pytest.fixture
    def verified(self, monkeypatch):
        """The loops verify_theorems is called on, in order."""
        loops = []
        real = cli.verify_theorems

        def recording(L, cap):
            loops.append(L)
            return real(L, cap=cap)

        monkeypatch.setattr(cli, "verify_theorems", recording)
        return loops

    def test_cat5_is_verified_once_per_class(self, tmp_path, verified, capsys):
        cat5 = tmp_path / "cat5"
        write_catalog(generate_loops(5), cat5)
        expected = _per_file(cat5)
        verified.clear()
        for jobs in ("1", "2"):
            assert _run_verify_dir(cat5, capsys, "--jobs", jobs) == expected
        assert len(verified) == 6  # the in-process run: one per class

    def test_relabelled_cat5_matches_per_file_verification(self, tmp_path, capsys):
        # Every identity is moved off 0 and there is no index, so the
        # entries are listed from their *.loop names.
        rng = random.Random(5)
        target = tmp_path / "relabelled"
        target.mkdir()
        for entry in generate_loops(5):
            L = validate_table(relabel(entry.loop, _off_identity(rng, 5)))
            write_table(L, target / f"{content_id(L)}.loop")
        assert not (target / "index.tsv").exists()
        rows, texts = _run_verify_dir(target, capsys)
        assert (rows, texts) == _per_file(target)
        assert {row["status"] for row in rows} == {"ok", "skip"}

    def test_a_failing_class_verifies_each_member_on_its_own(
        self, tmp_path, verified, monkeypatch, capsys
    ):
        rng = random.Random(23)
        target = tmp_path / "n5"
        target.mkdir()
        members = [validate_table(relabel(n5_loop(), _off_identity(rng, 5))) for _ in range(3)]
        for L in members:
            write_table(L, target / f"{content_id(L)}.loop")
        members.sort(key=content_id)
        M = canonical_form(members[0])[0]
        assert M not in members
        expected = _per_file(target)
        recording = cli.verify_theorems

        def planted(L, cap):
            # t10 fails, naming the subgroup, on the class's table only.
            ver = recording(L, cap)
            if L != M:
                return ver
            rep = ver.reports[0]
            checks = {**rep.checks, "t10": sbs.CheckResult("fail", f"planted at {rep.subgroup}")}
            return ver._replace(reports=(rep._replace(checks=checks),))

        monkeypatch.setattr(cli, "verify_theorems", planted)
        verified.clear()
        assert _run_verify_dir(target, capsys) == expected
        assert verified == [M, *members]
        assert all(row["status"] == "ok" for row in expected[0])


class TestGenerate:
    def test_text(self, tmp_path, capsys):
        assert main(["generate", "5", str(tmp_path / "cat"), "--limit", "10"]) == 0
        assert "wrote 10 order-5 entries" in capsys.readouterr().out

    def test_json(self, tmp_path, capsys):
        assert main(["generate", "--json", "4", str(tmp_path / "cat")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"] == 4

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_limit_below_one_is_an_error(self, limit, tmp_path, capsys):
        assert main(["generate", "4", str(tmp_path / "cat"), "--limit", limit]) == 2
        assert capsys.readouterr().err == f"error: limit must be at least 1, got {limit}\n"
        assert not (tmp_path / "cat").exists()

    def test_order_6_needs_flag(self, tmp_path, capsys):
        assert main(["generate", "6", str(tmp_path / "cat6")]) == 2
        assert "allow_order_six" in capsys.readouterr().err

    def test_filters(self, tmp_path, capsys):
        assert (
            main(
                [
                    "generate", "5", str(tmp_path / "cat"),
                    "--nonassociative", "--require-s-subgroup",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        count = int(out.split("wrote ")[1].split()[0])
        # the 6 associative order-5 tables have no proper subgroup, so the
        # two filters intersect in all 26 subgroup-bearing loops
        assert count == 26


@pytest.mark.parametrize("command", ["validate", "isotope", "generate"])
def test_search_cap_is_only_for_commands_that_search(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--search-cap" not in capsys.readouterr().out


def test_python_dash_m_runs_the_cli(z4_file, package_env):
    proc = subprocess.run(
        [sys.executable, "-m", "loopforge", "validate", z4_file],
        env=package_env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "valid loop of order 4" in proc.stdout


def test_cli_entry_point_is_wired():
    from loopforge.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["validate", "x.loop"])
    assert args.command == "validate"
