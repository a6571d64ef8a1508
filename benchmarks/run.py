"""loopforge benchmark: one workload per run, metrics as JSON on the last line.

    python3 benchmarks/run.py --workload catalog6_cli --seed 1 --seconds 45 --trace 0

With ``--trace 0`` the run times end-to-end passes with no tracing and
reports wall_s, loops_per_s, setup_s and peak_rss_mb.  With ``--trace 1`` it
alternates untraced and traced in-process passes and reports the per-layer
metrics of the traced ones plus the tracing overhead between the two.
Every pass is checked; the run exits 1 when any check failed.  See
benchmarks/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_JOBS = 2


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "loopforge").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    """HEAD's commit, read from .git without starting git, whose memory
    would otherwise count in peak_rss_mb."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def timed_loop(seconds: float, step) -> list:
    """Call step() until the next call would end past ``seconds``; at least once."""
    start = perf_counter()
    results = []
    while True:
        results.append(step())
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def setup_once(wl) -> float:
    t0 = perf_counter()
    wl.setup()
    wall = perf_counter() - t0
    wl.check_setup()
    return wall


def end_to_end(wl, seconds: float) -> dict:
    # Set-ups alternate with the passes, so that both sample the machine
    # over the whole run.
    setup = []

    def round_():
        setup.append(setup_once(wl))
        return wl.run()

    walls = timed_loop(seconds, round_)
    wall = statistics.median(walls)
    print(f"passes: {len(walls)}  wall_s per pass: {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"set-ups: {len(setup)}  setup_s: {' '.join(f'{w:.4f}' for w in setup)}")
    return {
        "wall_s": (wall, "s"),
        "loops_per_s": (wl.loops_per_pass / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(wl.rss_who).ru_maxrss / 1024, "MB"),
    }


def per_layer(wl, seconds: float) -> dict:
    from tracer import Tracer

    setup_once(wl)
    tracer = Tracer()
    rounds = timed_loop(seconds, lambda: wl.trace_round(tracer))
    untraced = statistics.median(u for u, _ in rounds)
    traced = statistics.median(t for _, t in rounds)
    print(f"traced rounds: {len(rounds)}  untraced {untraced:.3f} s  traced {traced:.3f} s")
    metrics = tracer.metrics(len(rounds))
    metrics.update(wl.cli_metrics(tracer, rounds))
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.traced_wall_s"] = (traced, "s")
    metrics["trace.overhead_ratio"] = (traced / untraced - 1, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, required=True, help="input seed, e.g. the catalog sample"
    )
    parser.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "loopforge" / "__init__.py").is_file():
        print(f"error: no loopforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A report cache would turn verification into file reads.
    os.environ.pop("LOOPFORGE_CACHE", None)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    jobs = min(MAX_JOBS, len(os.sched_getaffinity(0)))
    meta = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": jobs,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "commit": commit(),
        "src_sha256": source_digest(),
    }
    print("meta " + json.dumps(meta))

    ops = workloads.Ops()
    wl = workloads.WORKLOADS[args.workload](workloads.SIZES[args.size], args.seed, jobs, ops)
    try:
        metrics = (per_layer if args.trace else end_to_end)(wl, args.seconds)
    finally:
        shutil.rmtree(wl.work, ignore_errors=True)
    # After the measurement, so that its memory is not in peak_rss_mb.
    ops.record(workloads.SMALL_FACTS, workloads.check_small_facts())

    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    print(f"{'failed_ratio':<48} {ops.failed / max(ops.attempted, 1):>14.6g} ratio")
    correct = ops.failed == 0 and ops.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
