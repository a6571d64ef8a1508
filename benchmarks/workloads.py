"""The benchmark workloads: their inputs, timed passes and correctness gates.

Each workload is a closed loop with one client and no arrival rate: a pass
starts only after the previous one has finished and been checked.  The
gates compare outputs with facts the benchmark knows independently of the
library (group theory, published catalog counts, the FNV-1a id spec); a
mismatch is counted as failed operations, never folded into a timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Library calls go through the package attribute so that a Tracer, which
# rebinds loopforge.<name>, sees them.
import loopforge
from loopforge import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# `python -m loopforge` does not exist, so the CLI entry point is called the
# way the installed console script does it.
CLI_BOOT = "from loopforge.cli import run; run()"
CLI_TIMEOUT_S = 120

# Reduced Latin squares per order (OEIS A000315) and, among them, the group
# tables: the sum over groups G of order n of (n-1)!/|Aut G|.
REDUCED_SQUARES = {4: 4, 5: 56, 6: 9408}
GROUP_ENTRIES = {4: 4, 5: 6, 6: 80}
ID_SPOT_CHECKS = 32


# name -> (table, |Aut G|).  For a group G, |BS| = |G|*|Aut G| and
# |AUT| = |G|^2*|Aut G|; the automorphism group orders are textbook values.
GROUPS = {
    "Z4": ([[(i + j) % 4 for j in range(4)] for i in range(4)], 2),
    "V4": ([[i ^ j for j in range(4)] for i in range(4)], 6),
}

# Inputs per size.  "tiny" is the smoke size: every code path, seconds total.
SIZES = {
    "full": {"catalog_order": 6, "sample": 400, "stream_order": 6},
    "tiny": {"catalog_order": 5, "sample": 20, "stream_order": 5},
}


class Ops:
    """Attempted and failed operation counts for the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def fnv1a64(data: bytes) -> str:
    """Content id as the catalog format specifies it, computed here from bytes."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("LOOPFORGE_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_in_fresh_interpreter() -> None:
    """Start Python and import loopforge: what an in-process user pays first.

    Output is piped: with no pipe to read, subprocess waits by polling at up
    to 50 ms intervals, which would round the time up to that step.
    """
    subprocess.run(
        [sys.executable, "-c", "import loopforge"],
        env=_child_env(),
        cwd=ROOT,
        check=True,
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )


def run_cli_subprocess(args: list) -> tuple:
    """Run the CLI in a fresh interpreter; returns (wall_s, exit code, stdout).

    The CLI runs in its own process group, so that on a timeout its pool
    workers are killed along with it.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", CLI_BOOT, *args],
        env=_child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    wall = perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(stderr)
    return wall, proc.returncode, stdout


def run_cli_inprocess(args: list) -> tuple:
    """Call cli.main in this process; returns (wall_s, exit code, stdout)."""
    out = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    return perf_counter() - t0, code, out.getvalue()


def read_index(out_dir: Path) -> list:
    """Rows of a catalog index.tsv as lists of fields, header dropped."""
    lines = (out_dir / "index.tsv").read_text(encoding="ascii").splitlines()
    return [line.split("\t") for line in lines[1:] if line]


class Workload:
    """A named batch computation.  Subclasses fill in the passes."""

    name = ""
    # Whose peak RSS is the program's: this process when it calls the
    # library in-process, the CLI processes when it runs them.
    rss_who = resource.RUSAGE_SELF

    def __init__(self, size: dict, seed: int, jobs: int, ops: Ops):
        self.size = size
        self.seed = seed
        self.jobs = jobs
        self.ops = ops
        self.work = WORK / self.name
        self.loops_per_pass = 0

    def setup(self) -> None:
        """Build the inputs the next pass uses; timed as setup_s."""
        raise NotImplementedError

    def check_setup(self) -> None:
        """Gate the inputs the last set-up built; not timed."""

    def run(self) -> float:
        """One checked end-to-end pass as users run it; returns its wall time."""
        raise NotImplementedError

    def run_inprocess(self) -> float:
        """One checked pass in this process, so the tracer can see it."""
        return self.run()

    def trace_round(self, tracer) -> tuple:
        """An untraced and a traced in-process pass: (untraced_s, traced_s)."""
        untraced = self.run_inprocess()
        with tracer:
            traced = self.run_inprocess()
        return untraced, traced

    def cli_metrics(self, tracer, rounds: list) -> dict:
        return {"cli.outside_verify_s": (0.0, "s"), "cli.parallel_efficiency": (0.0, "ratio")}


def group_ok(n: int, aut: int, ver) -> bool:
    """All checks pass, and |BS| = n*|Aut G|, |AUT| = n^2*|Aut G| for a group."""
    return ver.all_pass() and all(
        rep.bs == n * aut and rep.aut == n * n * aut for rep in ver.reports
    )


SMALL_FACTS = 4


def check_small_facts() -> int:
    """Failures among the README-pinned Z4 and n5 values and the group
    identities on Z4 and V4 (0 to SMALL_FACTS)."""
    z4 = loopforge.verify_theorems(loopforge.cyclic_loop(4))
    rep = next((r for r in z4.reports if r.subgroup == (0, 2)), None)
    z4_ok = (
        rep is not None
        and z4.all_pass()
        and (rep.bs, rep.sbs, rep.ssym, rep.sa, rep.omega, rep.theta, rep.ker_phi)
        == (8, 4, 4, 2, 8, 4, 2)
    )
    n5 = loopforge.verify_theorems(loopforge.n5_loop())
    n5_ok = n5.all_pass() and [(r.bs, r.sbs, r.sa, r.theta) for r in n5.reports] == [(12, 3, 3, 1)]
    bad = (not z4_ok) + (not n5_ok)
    for rows, aut in GROUPS.values():
        L = loopforge.validate_table(rows)
        bad += not group_ok(L.n, aut, loopforge.verify_theorems(L))
    return bad


class CatalogCli(Workload):
    """`loopforge verify DIR --jobs K --json` over a seeded catalog sample."""

    name = "catalog6_cli"
    rss_who = resource.RUSAGE_CHILDREN

    def __init__(self, *args):
        super().__init__(*args)
        self.dir = self.work / "sample"
        self.parallel_walls = []

    def setup(self) -> None:
        entries = list(loopforge.generate_loops(self.size["catalog_order"], allow_order_six=True))
        # Stratified by subgroup count, so every seed samples the same mix
        # of skipped, cheap and expensive loops and only the loops differ.
        strata = {}
        for i, entry in enumerate(entries):
            strata.setdefault(entry.s_subgroup_count, []).append(i)
        rng = random.Random(self.seed)
        picks = []
        for count in sorted(strata):
            members = strata[count]
            picks += rng.sample(members, round(self.size["sample"] * len(members) / len(entries)))
        self.generated = len(entries)
        self.sampled = len(picks)
        # The sample is the same in every set-up of a run, so later set-ups
        # rewrite the same files in place and the run deletes nothing until
        # it ends.
        loopforge.write_catalog([entries[i] for i in sorted(picks)], self.dir)

    def check_setup(self) -> None:
        rows = read_index(self.dir)
        self.ids = [row[0] for row in rows]
        self.skip_ids = {row[0] for row in rows if row[3] == "0"}
        expected = REDUCED_SQUARES[self.size["catalog_order"]]
        self.ops.record(1, self.generated != expected or len(rows) != self.sampled)
        self.loops_per_pass = len(self.ids)

    def _checked(self, result: tuple) -> float:
        wall, code, stdout = result
        try:
            statuses = {e["id"]: e["status"] for e in json.loads(stdout)["entries"]}
        except (ValueError, KeyError, TypeError):
            statuses = {}
        bad = sum(
            statuses.get(eid) != ("skip" if eid in self.skip_ids else "ok") for eid in self.ids
        )
        reports = sum(1 for p in self.dir.iterdir() if p.name.endswith(".report.json"))
        verified = len(self.ids) - len(self.skip_ids)
        if code != 0 or len(statuses) != len(self.ids) or reports != verified:
            bad = max(bad, 1)
        self.ops.record(len(self.ids), bad)
        return wall

    def _reset(self) -> None:
        # verify DIR writes <id>.report.json beside each entry
        for p in self.dir.iterdir():
            if p.name.endswith(".report.json"):
                p.unlink()

    def _args(self, jobs: int) -> list:
        return ["verify", str(self.dir), "--jobs", str(jobs), "--json"]

    def run(self) -> float:
        self._reset()
        return self._checked(run_cli_subprocess(self._args(self.jobs)))

    def run_inprocess(self) -> float:
        self._reset()
        return self._checked(run_cli_inprocess(self._args(1)))

    def trace_round(self, tracer) -> tuple:
        walls = super().trace_round(tracer)
        self.parallel_walls.append(self.run())
        return walls

    def cli_metrics(self, tracer, rounds: list) -> dict:
        verify_s = tracer.stats["sbs.verify_theorems"].total_s / len(rounds)
        outside_s = statistics.mean(t for _, t in rounds) - verify_s
        # The untraced jobs-1 pass less the work outside verify_theorems:
        # verification time without the tracer's overhead.
        untraced_verify_s = statistics.mean(u for u, _ in rounds) - outside_s
        parallel_s = statistics.median(self.parallel_walls)
        return {
            "cli.outside_verify_s": (outside_s, "s"),
            "cli.parallel_efficiency": (untraced_verify_s / (self.jobs * parallel_s), "ratio"),
        }


def canonical_text(table) -> str:
    """The table file form the catalog format specifies: order, then rows."""
    return f"{len(table)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in table)


class Stream(Workload):
    """generate_loops consumed in-process: generation without file writes."""

    name = "stream6"

    def __init__(self, *args):
        super().__init__(*args)
        self.order = self.size["stream_order"]
        self.loops_per_pass = REDUCED_SQUARES[self.order]
        # The input is the order alone; the seed picks the entries whose
        # ids are re-hashed here.
        self.spot = set(random.Random(self.seed).sample(range(self.loops_per_pass), ID_SPOT_CHECKS))

    def setup(self) -> None:
        # The input is the order alone, so set-up is the import.
        import_in_fresh_interpreter()

    def run(self) -> float:
        t0 = perf_counter()
        ids = []
        groups = 0
        spot = []
        for i, entry in enumerate(loopforge.generate_loops(self.order, allow_order_six=True)):
            ids.append(entry.entry_id)
            groups += entry.associative
            if i in self.spot:
                spot.append(entry)
        wall = perf_counter() - t0
        expected = self.loops_per_pass
        if len(ids) == len(set(ids)) == expected and groups == GROUP_ENTRIES[self.order]:
            bad = sum(
                fnv1a64(canonical_text(e.loop.table).encode("ascii")) != e.entry_id for e in spot
            )
        else:
            bad = expected
        self.ops.record(expected, bad)
        return wall


WORKLOADS = {cls.name: cls for cls in (CatalogCli, Stream)}
