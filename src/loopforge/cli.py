"""Command-line interface: validate, analyze, isotope, verify, generate.

Exit codes: 0 all requested checks passed, 1 a theorem check failed,
2 invalid input (bad table, bad arguments, cap exceeded).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import catalog
from .errors import LoopforgeError, NotSLoop, ParseError, SearchCapExceeded
from .isotopy import DEFAULT_SEARCH_CAP, _check_cap, principal_isotope
from .loop_core import LoopTable, s_subgroups, subgroup_violation
from .sbs import (
    CHECK_KEYS,
    AggregateReport,
    CardinalityReport,
    CheckResult,
    LoopVerification,
    verify_theorems,
)


@dataclass
class CliConfig:
    search_cap: int = DEFAULT_SEARCH_CAP
    jobs: int = 1
    output_format: str = "text"

    def __post_init__(self):
        if self.search_cap < 2:
            raise ValueError(f"search cap must be at least 2, got {self.search_cap}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if self.output_format not in ("text", "json"):
            raise ValueError(f"unknown output format {self.output_format!r}")


def _config(args) -> CliConfig:
    return CliConfig(
        search_cap=getattr(args, "search_cap", DEFAULT_SEARCH_CAP),
        jobs=getattr(args, "jobs", 1),
        output_format="json" if getattr(args, "json", False) else "text",
    )


def _parse_subgroup(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise LoopforgeError(f"bad subgroup list {text!r}; expected comma-separated integers")


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _report_doc(L: LoopTable, ver: LoopVerification) -> dict:
    """Everything in a loop's report but its "file" path, which the caller adds."""
    return {
        "id": catalog.content_id(L),
        "order": L.n,
        "subgroups": [list(rep.subgroup) for rep in ver.reports],
        "reports": [rep.to_json_dict() for rep in ver.reports],
        "aggregate": ver.aggregate.to_json_dict(),
    }


def _select_reports(ver: LoopVerification, subgroup: list[int] | None, L: LoopTable):
    if subgroup is None:
        return list(ver.reports)
    wanted = tuple(sorted(set(subgroup)))
    chosen = [rep for rep in ver.reports if rep.subgroup == wanted]
    if not chosen:
        violation = subgroup_violation(L, wanted)
        if violation is not None:
            raise NotSLoop(f"--subgroup {list(wanted)}: not a subgroup: {violation}")
        raise NotSLoop(f"--subgroup {list(wanted)}: not proper and non-trivial")
    return chosen


def _checks_from_doc(doc: dict) -> dict:
    return {key: CheckResult(**val) for key, val in doc.items()}


def _verification_from_doc(doc: dict) -> LoopVerification:
    """Rebuild a verification from its JSON form (used on cache hits)."""
    reports = [
        CardinalityReport(subgroup=tuple(sub), **{**rep, "checks": _checks_from_doc(rep["checks"])})
        for sub, rep in zip(doc["subgroups"], doc["reports"])
    ]
    agg = doc["aggregate"]
    aggregate = AggregateReport(
        agg["order"], agg["s_subgroups"], agg["bs"], _checks_from_doc(agg["checks"])
    )
    return LoopVerification(tuple(reports), aggregate)


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file and os.replace, so that concurrent
    writers of the same path never leave a torn file."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _verify_file(path: str, cap: int) -> tuple[LoopTable, LoopVerification, str]:
    """Verify one table file, consulting the report cache when configured.

    The cache stores path-free reports, keyed by content id; the "file"
    field always names the path being verified.  The search cap is enforced
    before the cache is read, so a cached report never lifts it.
    """
    L = catalog.read_table(path)
    _check_cap(L.n, cap)
    cache = catalog.report_cache_dir()
    cache_path = cache / f"{catalog.content_id(L)}.report.json" if cache else None
    if cache_path is not None and cache_path.exists():
        doc = json.loads(cache_path.read_text(encoding="ascii"))
        doc.pop("file", None)  # caches written before reports were path-free
        ver = _verification_from_doc(doc)
    else:
        ver = verify_theorems(L, cap=cap)
        doc = _report_doc(L, ver)
        if cache_path is not None:
            _write_atomic(cache_path, json.dumps(doc, indent=2) + "\n")
    return L, ver, json.dumps({"file": str(path), **doc}, indent=2) + "\n"


def cmd_validate(args) -> int:
    cfg = _config(args)
    L = catalog.read_table(args.file)
    subs = s_subgroups(L)
    doc = {
        "file": str(args.file),
        "id": catalog.content_id(L),
        "valid": True,
        "order": L.n,
        "identity": L.e,
        "associative": L.associative,
        "s_subgroups": [list(h.elements) for h in subs],
    }
    if cfg.output_format == "json":
        _emit(doc)
    else:
        groups = " ".join("{" + ",".join(map(str, h.elements)) + "}" for h in subs) or "none"
        print(
            f"{args.file}: valid loop of order {L.n}, identity {L.e}, "
            f"associative={'yes' if L.associative else 'no'}, s-subgroups: {groups}"
        )
    return 0


def cmd_analyze(args) -> int:
    cfg = _config(args)
    L = catalog.read_table(args.file)
    subgroup = _parse_subgroup(args.subgroup) if args.subgroup else None
    ver = verify_theorems(L, cap=cfg.search_cap)
    chosen = _select_reports(ver, subgroup, L)
    failed = any(res.status == "fail" for rep in chosen for res in rep.checks.values())
    if subgroup is None and any(
        res.status == "fail" for res in ver.aggregate.checks.values()
    ):
        failed = True
    if cfg.output_format == "json":
        doc = {"file": str(args.file), **_report_doc(L, ver)}
        if subgroup is not None:
            keep = [list(rep.subgroup) for rep in chosen]
            doc["subgroups"] = keep
            doc["reports"] = [rep.to_json_dict() for rep in chosen]
            doc.pop("aggregate")
        _emit(doc)
    else:
        for rep in chosen:
            h = "{" + ",".join(map(str, rep.subgroup)) + "}"
            print(
                f"{args.file} H={h}: |BS|={rep.bs} |SBS|={rep.sbs} |SSYM|={rep.ssym}"
                f" |AUM|={rep.aum} |SA|={rep.sa} |AUT|={rep.aut}"
                f" |omega|={rep.omega} |theta|={rep.theta}"
                f" |N_mu|={rep.n_mu} |N_mu^H|={rep.n_mu_cap_h} |ker|={rep.ker_phi}"
            )
            for key in CHECK_KEYS:
                res = rep.checks[key]
                print(f"  {key:<6} {res.status:<4} {res.detail}")
        if subgroup is None:
            res = ver.aggregate.checks["t14"]
            print(f"{args.file} aggregate: t14 {res.status} {res.detail}")
    return 1 if failed else 0


def cmd_isotope(args) -> int:
    L = catalog.read_table(args.file)
    if not 0 <= args.f < L.n or not 0 <= args.g < L.n:
        raise LoopforgeError(f"-f/-g must lie in 0..{L.n - 1}")
    record = principal_isotope(L, args.f, args.g)
    catalog.write_table(record.result, args.out)
    print(f"{args.out}: order-{record.result.n} isotope with identity {record.result.e}")
    return 0


def _worker(job: tuple) -> tuple:
    path, cap = job
    try:
        L, ver, text = _verify_file(path, cap)
        return ("fail" if not ver.all_pass() else "ok", text)
    except NotSLoop as exc:
        return ("skip", str(exc))
    except LoopforgeError as exc:
        return ("error", str(exc))


def _verify_dir(args, cfg: CliConfig) -> int:
    base = Path(args.target)
    entries = catalog.iter_catalog(base)
    if not entries:
        raise LoopforgeError(f"{base}: no catalog entries found")
    jobs = [(str(path), cfg.search_cap) for _, path in entries]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            outcomes = list(pool.map(_worker, jobs))
    else:
        outcomes = [_worker(job) for job in jobs]

    selector = args.theorem
    rows = []
    counts = {"ok": 0, "fail": 0, "skip": 0, "error": 0}
    for (entry_id, path), (status, payload) in zip(entries, outcomes):
        if status in ("ok", "fail"):
            (base / f"{entry_id}.report.json").write_text(payload, encoding="ascii")
            doc = json.loads(payload)
            statuses = _selected_statuses(doc, selector)
            status = "fail" if "fail" in statuses else "ok"
            rows.append((entry_id, status, _status_summary(statuses)))
        else:
            rows.append((entry_id, status, payload))
        counts[status] += 1

    if cfg.output_format == "json":
        _emit(
            {
                "dir": str(base),
                "entries": [
                    {"id": entry_id, "status": status, "summary": summary}
                    for entry_id, status, summary in rows
                ],
                "summary": counts,
            }
        )
    else:
        for entry_id, status, summary in rows:
            print(f"{entry_id} {status} {summary}")
        print(
            f"{base}: {counts['ok']} ok, {counts['fail']} failed,"
            f" {counts['skip']} skipped, {counts['error']} errors"
        )
    if counts["error"]:
        return 2
    return 1 if counts["fail"] else 0


def _selected_statuses(doc: dict, selector: str) -> list[str]:
    keys = CHECK_KEYS if selector == "all" else (selector,)
    statuses = []
    for rep in doc["reports"]:
        for key in keys:
            statuses.append(rep["checks"][key]["status"])
    if selector in ("all", "t14"):
        statuses.append(doc["aggregate"]["checks"]["t14"]["status"])
    return statuses


def _status_summary(statuses: list[str]) -> str:
    passed = sum(1 for s in statuses if s == "pass")
    na = sum(1 for s in statuses if s == "n/a")
    tail = f" ({na} n/a)" if na else ""
    return f"{passed}/{len(statuses)} passed{tail}"


def cmd_verify(args) -> int:
    cfg = _config(args)
    if args.theorem != "all" and args.theorem not in CHECK_KEYS:
        raise LoopforgeError(
            f"unknown theorem selector {args.theorem!r}; choose from {', '.join(CHECK_KEYS)} or all"
        )
    if os.path.isdir(args.target):
        if args.subgroup:
            raise LoopforgeError("--subgroup applies to single-file verification only")
        return _verify_dir(args, cfg)

    L = catalog.read_table(args.target)
    subgroup = _parse_subgroup(args.subgroup) if args.subgroup else None
    _, ver, _ = _verify_file(args.target, cfg.search_cap)
    chosen = _select_reports(ver, subgroup, L)
    keys = CHECK_KEYS if args.theorem == "all" else (args.theorem,)
    failed = False
    lines = []
    for rep in chosen:
        h = "{" + ",".join(map(str, rep.subgroup)) + "}"
        for key in keys:
            res = rep.checks[key]
            failed = failed or res.status == "fail"
            lines.append((f"H={h}", key, res))
    if subgroup is None and args.theorem in ("all", "t14"):
        res = ver.aggregate.checks["t14"]
        failed = failed or res.status == "fail"
        lines.append(("aggregate", "t14", res))

    if cfg.output_format == "json":
        _emit(
            {
                "file": str(args.target),
                "checks": [
                    {"scope": scope, "key": key, "status": res.status, "detail": res.detail}
                    for scope, key, res in lines
                ],
                "failed": failed,
            }
        )
    else:
        for scope, key, res in lines:
            print(f"{args.target} {scope} {key} {res.status}: {res.detail}")
        total = len(lines)
        bad = sum(1 for _, _, res in lines if res.status == "fail")
        print(f"{args.target}: {total - bad}/{total} checks passed")
    return 1 if failed else 0


def cmd_generate(args) -> int:
    cfg = _config(args)
    entries = catalog.generate_loops(
        args.order,
        nonassociative=args.nonassociative,
        require_s_subgroup=args.require_s_subgroup,
        limit=args.limit,
        allow_order_six=args.allow_order_6,
    )
    count = catalog.write_catalog(entries, args.out_dir)
    if cfg.output_format == "json":
        _emit({"dir": str(args.out_dir), "order": args.order, "entries": count})
    else:
        print(f"{args.out_dir}: wrote {count} order-{args.order} entries")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopforge",
        description="Finite loops on Cayley tables: isotopes, Bryant-Schneider groups, catalogs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, jobs=False):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument(
            "--search-cap",
            type=int,
            default=DEFAULT_SEARCH_CAP,
            metavar="N",
            help=f"largest order searches will accept (default {DEFAULT_SEARCH_CAP})",
        )
        if jobs:
            p.add_argument("--jobs", type=int, default=1, metavar="K", help="parallel workers")

    p = sub.add_parser("validate", help="check a table file and describe the loop")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="full cardinality report for one loop")
    p.add_argument("file")
    p.add_argument("--subgroup", metavar="CSV", help="restrict to one subgroup, e.g. 0,2")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("isotope", help="write a principal isotope")
    p.add_argument("file")
    p.add_argument("-f", type=int, required=True, metavar="F")
    p.add_argument("-g", type=int, required=True, metavar="G")
    p.add_argument("-o", "--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_isotope)

    p = sub.add_parser("verify", help="run theorem checks on a file or catalog directory")
    p.add_argument("target")
    p.add_argument("--theorem", default="all", metavar="SEL", help="check key or 'all'")
    p.add_argument("--subgroup", metavar="CSV")
    add_common(p, jobs=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="write an exhaustive catalog of one order")
    p.add_argument("order", type=int)
    p.add_argument("out_dir")
    p.add_argument("--nonassociative", action="store_true", help="drop group tables")
    p.add_argument(
        "--require-s-subgroup",
        action="store_true",
        help="keep only loops with a proper non-trivial subgroup",
    )
    p.add_argument("--limit", type=int, metavar="K", help="stop after K entries")
    p.add_argument(
        "--allow-order-6",
        action="store_true",
        help="permit the unbounded order-6 run (9408 entries)",
    )
    add_common(p)
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SearchCapExceeded as exc:
        print(f"error: {exc}; raise --search-cap to proceed", file=sys.stderr)
        return 2
    except (LoopforgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
