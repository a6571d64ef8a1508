"""loopforge's public names, pinned so that one enters or leaves only on
purpose: every attribute without a leading underscore that is not a
submodule."""

import types

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

