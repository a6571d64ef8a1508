"""Command-line interface: validate, analyze, isotope, verify, generate.

Exit codes: 0 all requested checks passed, 1 a theorem check failed,
2 invalid input (bad table, bad arguments, cap exceeded).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from . import catalog
from .errors import LoopforgeError, NotSLoop, SearchCapExceeded
from .isotopy import DEFAULT_SEARCH_CAP, _check_cap, principal_isotope
from .loop_core import LoopTable, s_subgroups, subgroup_violation
from .perm import inverse
from .sbs import CHECK_KEYS, LoopVerification, verify_theorems

SIZES = (
    "|BS|={bs} |SBS|={sbs} |SSYM|={ssym} |AUM|={aum} |SA|={sa} |AUT|={aut}"
    " |omega|={omega} |theta|={theta} |N_mu|={n_mu} |N_mu^H|={n_mu_cap_h} |ker|={ker_phi}"
)


def _parse_subgroup(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise LoopforgeError(f"bad subgroup list {text!r}; expected comma-separated integers")


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _select(L: LoopTable, doc: dict, theorem: str, subgroup: list[int] | None) -> list[tuple]:
    """The (scope, key, check) rows of a report document that --theorem and
    --subgroup pick; check is a {"status", "detail"} dict.

    scope indexes doc["reports"], or is None for the aggregate, which only
    a run over every subgroup includes.
    """
    keys = CHECK_KEYS if theorem == "all" else (theorem,)
    picked = range(len(doc["subgroups"]))
    if subgroup is not None:
        wanted = sorted(set(subgroup))
        picked = [i for i in picked if doc["subgroups"][i] == wanted]
        if not picked:
            violation = subgroup_violation(L, wanted)
            if violation is not None:
                raise NotSLoop(f"--subgroup {wanted}: not a subgroup: {violation}")
            raise NotSLoop(f"--subgroup {wanted}: not proper and non-trivial")
    rows = [(i, key, doc["reports"][i]["checks"][key]) for i in picked for key in keys]
    if subgroup is None and theorem in ("all", "t14"):
        rows.append((None, "t14", doc["aggregate"]["checks"]["t14"]))
    return rows


def _scope(doc: dict, scope: int | None) -> str:
    if scope is None:
        return "aggregate"
    return "H={" + ",".join(map(str, doc["subgroups"][scope])) + "}"


def _failed(rows: list[tuple]) -> bool:
    return any(res["status"] == "fail" for _, _, res in rows)


def _document(entry_id: str, ver: LoopVerification, relabel) -> dict:
    """The path-free report document of ver, for a loop with content id
    entry_id that relabel (element images) carries ver's loop onto.

    Every report field but the subgroup is the same for isomorphic loops,
    so only the subgroups are relabelled, and the reports follow them back
    into s_subgroups order: by size, then by elements.
    """
    relabelled = sorted(
        ((sorted(relabel[x] for x in rep.subgroup), rep.to_json_dict()) for rep in ver.reports),
        key=lambda pair: (len(pair[0]), pair[0]),
    )
    return {
        "id": entry_id,
        "order": ver.aggregate.order,
        "subgroups": [h for h, _ in relabelled],
        "reports": [rep for _, rep in relabelled],
        "aggregate": ver.aggregate.to_json_dict(),
    }


def _verify_file(
    path: str, cap: int, theorem: str = "all", subgroup: str | None = None
) -> tuple[dict, list[tuple]]:
    """One table file's report document, as <id>.report.json holds it, and
    the rows _select picks from it.

    "file" names the path being verified.  A table error wins over a
    malformed --subgroup, which wins over the search cap that
    verify_theorems enforces.
    """
    L = catalog.read_table(path)
    wanted = _parse_subgroup(subgroup) if subgroup else None
    ver = verify_theorems(L, cap=cap)
    doc = {"file": str(path), **_document(catalog.content_id(L), ver, range(L.n))}
    return doc, _select(L, doc, theorem, wanted)


def cmd_validate(args) -> int:
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
    if args.json:
        _emit(doc)
    else:
        groups = " ".join("{" + ",".join(map(str, h.elements)) + "}" for h in subs) or "none"
        print(
            f"{args.file}: valid loop of order {L.n}, identity {L.e}, "
            f"associative={'yes' if L.associative else 'no'}, s-subgroups: {groups}"
        )
    return 0


def cmd_analyze(args) -> int:
    doc, rows = _verify_file(args.file, args.search_cap, subgroup=args.subgroup)
    if args.json:
        if args.subgroup:
            scope = rows[0][0]  # the one report the subgroup picked
            doc["subgroups"] = [doc["subgroups"][scope]]
            doc["reports"] = [doc["reports"][scope]]
            doc.pop("aggregate")
        _emit(doc)
    else:
        shown = None
        for scope, key, res in rows:
            if scope is None:
                print(f"{args.file} aggregate: {key} {res['status']} {res['detail']}")
                continue
            if scope != shown:
                shown = scope
                sizes = SIZES.format_map(doc["reports"][scope])
                print(f"{args.file} {_scope(doc, scope)}: {sizes}")
            print(f"  {key:<6} {res['status']:<4} {res['detail']}")
    return 1 if _failed(rows) else 0


def cmd_isotope(args) -> int:
    L = catalog.read_table(args.file)
    if not 0 <= args.f < L.n or not 0 <= args.g < L.n:
        raise LoopforgeError(f"-f/-g must lie in 0..{L.n - 1}")
    iso = principal_isotope(L, args.f, args.g)
    catalog.write_table(iso, args.out)
    print(f"{args.out}: order-{iso.n} isotope with identity {iso.e}")
    return 0


def _outcome(doc: dict, rows: list[tuple]) -> tuple:
    """(status, report text, summary) of one verified catalog entry."""
    statuses = [res["status"] for _, _, res in rows]
    na = statuses.count("n/a")
    summary = f"{statuses.count('pass')}/{len(statuses)} passed" + (f" ({na} n/a)" if na else "")
    return ("fail" if _failed(rows) else "ok", json.dumps(doc, indent=2) + "\n", summary)


def _verify_class(task: tuple) -> list[tuple]:
    """(status, report text or None, summary) for each member of one
    isomorphism class, in member order.

    task is (M's table, cap, theorem, members), with M a canonical_form
    table and each member (path, content id, the images of the relabelling
    that carries M onto the member).  M is verified once.  Its reports,
    subgroups aside, hold for every member, so each member's document is
    M's with the subgroups carried over and re-sorted.  A loop with no
    proper subgroup is skipped with a message that names no element.  When
    a check on M fails, or M raises another error, each member is verified
    on its own through _verify_file, so a failing detail names the member's
    own elements, and a member that raises is an error row.
    """
    table, cap, theorem, members = task
    M = LoopTable(table, 0)
    try:
        ver = verify_theorems(M, cap=cap)
    except NotSLoop as exc:
        return [("skip", None, str(exc))] * len(members)
    except LoopforgeError:
        ver = None
    results = []
    if ver is None or not ver.all_pass():
        for path, _, _ in members:
            try:
                results.append(_outcome(*_verify_file(path, cap, theorem)))
            except (LoopforgeError, OSError) as exc:
                results.append(("error", None, str(exc)))
        return results
    for path, entry_id, relabel in members:
        doc = {"file": path, **_document(entry_id, ver, relabel)}
        results.append(_outcome(doc, _select(M, doc, theorem, None)))
    return results


def _verify_dir(args) -> int:
    """Verify every catalog entry, one loop per isomorphism class.

    This process reads each entry and enforces the search cap, so a read or
    cap failure is that entry's error row.  The cap check comes before
    canonical_form, which labels each loop by generator closure and tries
    at most n^(log2 n) generator sequences, so the cap bounds its time
    too.  The other entries are grouped
    by their canonical_form table, in order of first appearance, and
    fan_out runs _verify_class on each group.  Reports are written as each
    class's results arrive, and a report that cannot be written makes its
    entry an error row; rows are printed in index order.
    """
    base = Path(args.target)
    entries = catalog.iter_catalog(base)
    if not entries:
        raise LoopforgeError(f"{base}: no catalog entries found")
    rows = [None] * len(entries)  # (status, summary) per entry
    classes = {}  # canonical table -> [(entry index, (path, content id, relabel))]
    for i, (entry_id, path) in enumerate(entries):
        try:
            L = catalog.read_table(path)
            _check_cap(L.n, args.search_cap)
        except (LoopforgeError, OSError) as exc:
            rows[i] = ("error", str(exc))
            continue
        M, phi = catalog.canonical_form(L)
        member = (str(path), catalog.content_id(L), inverse(phi).images)
        classes.setdefault(M.table, []).append((i, member))

    tasks = [
        (table, args.search_cap, args.theorem, [member for _, member in members])
        for table, members in classes.items()
    ]
    with contextlib.closing(catalog.fan_out(_verify_class, tasks, args.jobs)) as outcomes:
        for members, results in zip(classes.values(), outcomes):
            for (i, _), (status, text, summary) in zip(members, results):
                if text is not None:
                    try:
                        (base / f"{entries[i][0]}.report.json").write_text(text, encoding="ascii")
                    except OSError as exc:
                        status, summary = "error", str(exc)
                rows[i] = (status, summary)
    rows = [(entry_id, *row) for (entry_id, _), row in zip(entries, rows)]
    counts = {"ok": 0, "fail": 0, "skip": 0, "error": 0}
    for _, status, _ in rows:
        counts[status] += 1

    if args.json:
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


def cmd_verify(args) -> int:
    if args.theorem != "all" and args.theorem not in CHECK_KEYS:
        raise LoopforgeError(
            f"unknown theorem selector {args.theorem!r}; choose from {', '.join(CHECK_KEYS)} or all"
        )
    if os.path.isdir(args.target):
        if args.subgroup:
            raise LoopforgeError("--subgroup applies to single-file verification only")
        return _verify_dir(args)

    doc, rows = _verify_file(args.target, args.search_cap, args.theorem, args.subgroup)
    if args.json:
        checks = [{"scope": _scope(doc, scope), "key": key, **res} for scope, key, res in rows]
        _emit({"file": str(args.target), "checks": checks, "failed": _failed(rows)})
    else:
        for scope, key, res in rows:
            print(f"{args.target} {_scope(doc, scope)} {key} {res['status']}: {res['detail']}")
        passed = sum(res["status"] != "fail" for _, _, res in rows)
        print(f"{args.target}: {passed}/{len(rows)} checks passed")
    return 1 if _failed(rows) else 0


def cmd_generate(args) -> int:
    entries = catalog.generate_loops(
        args.order,
        nonassociative=args.nonassociative,
        require_s_subgroup=args.require_s_subgroup,
        limit=args.limit,
        allow_order_six=args.allow_order_6,
    )
    count = catalog.write_catalog(entries, args.out_dir)
    if args.json:
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

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    def add_common(p, jobs=False):
        add_json(p)
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
    add_json(p)
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
    add_json(p)
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "search_cap", DEFAULT_SEARCH_CAP) < 2:
            raise LoopforgeError(f"search cap must be at least 2, got {args.search_cap}")
        if getattr(args, "jobs", 1) < 1:
            raise LoopforgeError(f"jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except SearchCapExceeded as exc:
        print(f"error: {exc}; raise --search-cap to proceed", file=sys.stderr)
        return 2
    except (LoopforgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
