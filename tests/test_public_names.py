"""loopforge's public names, pinned so that one enters or leaves only on
purpose: every attribute without a leading underscore that is not a
submodule.  Its private module-level names must each be used elsewhere in
the package, so that no dead helper stays behind."""

import ast
import types
from pathlib import Path

import loopforge

PUBLIC = [
    "AggregateReport", "Autotopism", "CHECK_KEYS", "CardinalityReport", "CatalogEntry",
    "CheckResult", "DEFAULT_SEARCH_CAP", "DegreeMismatch", "InvariantViolation", "LoopTable",
    "LoopVerification", "LoopforgeError", "NoIdentity", "NotLatin", "NotSElements", "NotSLoop",
    "NotSquare", "OrderTooLarge", "ParseError", "Perm", "SLoopContext", "SearchCapExceeded",
    "SubgroupSet", "automorphism_group", "autotopism_group", "bs_group", "canonical_form",
    "check_perm_group", "compose", "content_id", "cyclic_loop", "format_table", "generate_loops",
    "identity", "inverse", "isomorphisms", "iter_catalog", "ker_phi", "middle_nucleus",
    "n5_loop", "omega", "parse_table", "principal_isotope", "read_table", "s_isomorphisms",
    "s_loop_context", "s_subgroups", "sa_group", "sbs_group", "smarandache_principal_isotope",
    "special_witnesses", "ssym", "subgroup_violation", "subgroups", "theta_set",
    "validate_table", "verify_theorems", "write_catalog", "write_table",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name in dir(loopforge)
        if not name.startswith("_") and not isinstance(getattr(loopforge, name), types.ModuleType)
    )
    assert names == PUBLIC


def _private_names_and_uses():
    """(defined, used), two sets of (file, top-level statement index, name):
    each module-level private name the package's modules define, and each
    name they read, attribute or import."""
    defined, used = set(), set()
    for path in sorted(Path(loopforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for i, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                names = []
            defined |= {(path.name, i, n) for n in names
                        if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add((path.name, i, node.id))
                elif isinstance(node, ast.Attribute):
                    used.add((path.name, i, node.attr))
                elif isinstance(node, ast.ImportFrom):
                    used |= {(path.name, i, alias.name) for alias in node.names}
    return defined, used


def test_every_private_name_is_used_elsewhere_in_src():
    # A helper that only its own definition mentions is dead code.
    defined, used = _private_names_and_uses()
    assert defined
    dead = sorted(
        f"{file}: {name}" for file, i, name in defined
        if not any(n == name and (f, j) != (file, i) for f, j, n in used)
    )
    assert dead == []
