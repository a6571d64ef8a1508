"""Finite loop theory on explicit Cayley tables.

Everything an analysis needs is re-exported here: permutations, validated
loop tables, principal isotopes, autotopism and isomorphism searches, the
Bryant-Schneider group and its Smarandache relatives, exhaustive catalogs
of small orders, and the theorem verifier behind the CLI.  The groups are
sorted lists of Perm, and omega and ker_phi are lists of Autotopism whose
witness pair is (a.u.images[e], a.v.images[e]).
"""

from .catalog import (
    CatalogEntry,
    canonical_form,
    content_id,
    cyclic_loop,
    generate_loops,
    iter_catalog,
    n5_loop,
    read_table,
    write_catalog,
    write_table,
)
from .errors import (
    DegreeMismatch,
    InvariantViolation,
    LoopforgeError,
    NoIdentity,
    NotLatin,
    NotSElements,
    NotSLoop,
    NotSquare,
    OrderTooLarge,
    ParseError,
    SearchCapExceeded,
)
from .isotopy import (
    DEFAULT_SEARCH_CAP,
    Autotopism,
    autotopism_group,
    automorphism_group,
    isomorphisms,
    principal_isotope,
    s_isomorphisms,
    smarandache_principal_isotope,
)
from .loop_core import (
    LoopTable,
    SLoopContext,
    SubgroupSet,
    format_table,
    middle_nucleus,
    parse_table,
    s_loop_context,
    s_subgroups,
    subgroup_violation,
    subgroups,
    validate_table,
)
from .perm import Perm, compose, identity, inverse
from .sbs import (
    CHECK_KEYS,
    AggregateReport,
    CardinalityReport,
    CheckResult,
    LoopVerification,
    bs_group,
    check_perm_group,
    ker_phi,
    omega,
    sa_group,
    sbs_group,
    special_witnesses,
    ssym,
    theta_set,
    verify_theorems,
)

__version__ = "0.1.0"
