"""Special maps and their groups, with executable cardinality checks.

A permutation theta is special for (G, *) when some pair (f, g) makes
(theta . R_g^-1, theta . L_f^-1, theta) an autotopism; the special maps form
the Bryant-Schneider group BS(G).  Relative to a chosen subgroup H the same
construction with f, g in H and theta stabilizing H yields the Smarandache
variant SBS, the witness triples form the set omega, and projecting omega
onto its third component is a homomorphism onto SBS whose kernel is pinned
by the middle nucleus.

Every autotopism (U, V, W) has this special shape with theta = W and
witness (f, g) = (U(e), V(e)), so BS, SBS, omega and the kernel are
projections or filters of one autotopism_group result, and SA filters
automorphism_group's.  _derive computes them once per subgroup for the
_CHECKS table, from _stable's split of AUT by H and _pairs' isomorphisms
onto each pair's isotope; each public projection runs only the half it
reads.  The groups come back as sorted lists of Perm, omega and its kernel
as lists of Autotopism whose witness is (a.u.images[e], a.v.images[e]),
and special_witnesses as (f, g) pairs.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .errors import DegreeMismatch, InvariantViolation, NotSLoop
from .isotopy import (
    DEFAULT_SEARCH_CAP,
    Autotopism,
    _check_cap,
    _triple_generators,
    autotopism_group,
    automorphism_group,
    isomorphisms,
    law_holds,
    principal_isotope,
)
from .loop_core import LoopTable, SLoopContext, middle_nucleus, s_subgroups, subgroup_violation
from .perm import Perm, compose_images, generators


def check_perm_group(perms) -> str | None:
    """Closure/identity violation for equal-degree perms, or None."""
    members = [p.images for p in perms]
    if not members:
        return "empty set"
    if len({len(m) for m in members}) > 1:
        raise DegreeMismatch(f"degrees {sorted({len(m) for m in members})} in one set")
    return generators(members, compose_images, tuple(range(len(members[0]))))[1]


def _keeps(images: tuple, hset) -> bool:
    """Whether the permutation maps the subgroup into (hence onto) itself."""
    return all(images[x] in hset for x in hset)


def _sa(aum: list, hset) -> list:
    """SA, the members of AUM that map the subgroup into (hence onto) itself."""
    return [a for a in aum if _keeps(a.images, hset)]


def ssym(ctx: SLoopContext, cap: int = DEFAULT_SEARCH_CAP) -> list[Perm]:
    """All permutations mapping the subgroup into itself, sorted.

    Bijectivity forces the subgroup and its complement to be stabilized
    setwise, so there are |H|! * (n - |H|)! members.
    """
    n = ctx.loop.n
    _check_cap(n, cap)
    h = list(ctx.h.elements)
    rest = [x for x in range(n) if x not in ctx.h]
    members = []
    for ph in itertools.permutations(h):
        for pr in itertools.permutations(rest):
            imgs = dict(zip(h + rest, ph + pr))
            members.append(Perm(imgs[x] for x in range(n)))
    members.sort(key=lambda p: p.images)
    return members


def special_witnesses(L: LoopTable, theta: Perm) -> list[tuple[int, int]]:
    """All (f, g) whose triple with theta passes the autotopism law.

    Every witness satisfies f * g = theta(e), so g is determined by f and
    only n candidate pairs need the full check; the unrestricted scan stays
    in the test suite as an oracle.
    """
    imgs = theta.images
    if len(imgs) != L.n:
        raise DegreeMismatch(f"theta of degree {len(imgs)} on an order-{L.n} loop")
    t, ld, rd = L.table, L.ldiv, L.rdiv
    pairs = [(f, ld[f][imgs[L.e]]) for f in range(L.n)]
    return [(f, g) for f, g in pairs
            if law_holds(t, t, [rd[z][g] for z in imgs], [ld[f][z] for z in imgs], imgs)]


class CheckResult(namedtuple("CheckResult", "status detail")):
    """status is "pass", "fail" or "n/a"; detail says what was compared."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"status": self.status, "detail": self.detail}


def _result(ok: bool, detail: str) -> CheckResult:
    return CheckResult("pass" if ok else "fail", detail)


class _Base(namedtuple("_Base", "loop cap aut bs nucleus isotopes")):
    """What every subgroup of one loop shares: AUT and BS read off it, the
    middle nucleus, and isotopes, the _Pair of each (f, g) asked for, so
    subgroups holding f and g share it."""

    __slots__ = ()


def _base(L: LoopTable, cap: int) -> _Base:
    aut = autotopism_group(L, cap=cap)
    return _Base(
        L, cap, aut, frozenset(a.w.images for a in aut), frozenset(middle_nucleus(L).elements), {}
    )


class _Pair(namedtuple("_Pair", "isotope isos isotopic round_trip")):
    """The (f, g) isotope, the isomorphisms from L onto it, whether L's
    table maps onto its table under (x * g, f * y, id), and whether its
    (g, f) isotope is L's table again."""

    __slots__ = ()


def _stable(b: _Base, hset: frozenset) -> tuple[list, list]:
    """AUT's triples whose W maps H onto H, testing each W of BS once, and
    omega, those with U(e), V(e) in H, in AUT's order."""
    e = b.loop.e
    keep = {w for w in b.bs if _keeps(w, hset)}
    stable = [a for a in b.aut if a.w.images in keep]
    return stable, [a for a in stable if a.u.images[e] in hset and a.v.images[e] in hset]


def _pairs(L: LoopTable, cap: int, memo: dict, h: tuple) -> list:
    """((f, g), its _Pair, the images of its isomorphisms that keep H) for
    each (f, g) in H x H; memo holds the _Pair of each (f, g) asked for."""
    t, hset = L.table, frozenset(h)
    out = []
    for f, g in itertools.product(h, h):
        if (f, g) not in memo:
            M = principal_isotope(L, f, g)
            # One law check, (x * g) o (f * y) = x * y, pins the whole table.
            memo[f, g] = _Pair(
                M, isomorphisms(L, M, cap=cap),
                law_holds(t, M.table, [row[g] for row in t], t[f], tuple(range(L.n))),
                principal_isotope(M, g, f).table == t,
            )
        p = memo[f, g]
        out.append(((f, g), p, [a.images for a in p.isos if _keeps(a.images, hset)]))
    return out


def _kernel(L: LoopTable, om: list, nucleus_h: frozenset) -> tuple[list, CheckResult]:
    """ker, omega's triples whose W is the identity, and t17's comparison of
    it with the pairs of N_mu meet H."""
    n, ld = L.n, L.ldiv
    ide = tuple(range(n))
    ker = [a for a in om if a.w.images == ide]
    expected = {(tuple(L.rdiv[x][g] for x in range(n)), ld[ld[g][L.e]], ide) for g in nucleus_h}
    ok = expected == {a.key() for a in ker}
    return ker, _result(ok, f"|ker|={len(ker)} nucleus pairs={len(expected)}")


class _Subgroup(namedtuple(
    "_Subgroup",
    "h hset ssym stable omega omega_violation sbs sbs_gens sbs_violation sa isos theta ker"
    " kernel n_mu_cap_h gs_loop criterion",
)):
    """Every object the checks compare for one subgroup H; sbs holds image
    tuples, sbs_gens and sbs_violation are the one group walk of sorted(sbs),
    read by t10 and t16, and omega_violation and kernel are t15's and t17's
    outcomes."""

    __slots__ = ()


def _derive(b: _Base, aum: list, hsub) -> _Subgroup:
    """The one derivation of omega, SBS, SA, theta and ker for hsub."""
    L, h = b.loop, hsub.elements
    n, hset = L.n, frozenset(h)
    stable, om = _stable(b, hset)
    isos = _pairs(L, b.cap, b.isotopes, h)
    sbs_set = frozenset(a.w.images for a in om)
    sa = _sa(aum, hset)
    # An H-keeping isomorphism onto the isotope inverts to one back.
    th = [pair for pair, _, kept in isos if kept]
    nucleus_h = b.nucleus & hset
    # Kept in the record so that ker_phi raises exactly when t17 fails.
    ker, kernel = _kernel(L, om, nucleus_h)
    square = len(h) * len(h)
    sbs_gens, sbs_violation = generators(sorted(sbs_set), compose_images, tuple(range(n)))
    return _Subgroup(
        h=h, hset=hset, ssym=math.factorial(len(h)) * math.factorial(n - len(h)), stable=stable,
        omega=om, omega_violation=_triple_generators([a.key() for a in om], n)[1],
        sbs=sbs_set, sbs_gens=sbs_gens, sbs_violation=sbs_violation, sa=sa, isos=isos, theta=th,
        ker=ker, kernel=kernel, n_mu_cap_h=len(nucleus_h), gs_loop=len(th) == square,
        criterion=square * len(sa) == len(sbs_set) * len(nucleus_h),
    )


def bs_group(L: LoopTable, cap: int = DEFAULT_SEARCH_CAP) -> list[Perm]:
    """The Bryant-Schneider group, sorted: third components of the autotopisms."""
    return sorted({a.w for a in autotopism_group(L, cap=cap)})


def sbs_group(ctx: SLoopContext, cap: int = DEFAULT_SEARCH_CAP) -> list[Perm]:
    """The Smarandache Bryant-Schneider group relative to ctx.h, sorted: the
    third components of omega."""
    return sorted({a.w for a in omega(ctx, cap=cap)})


def sa_group(ctx: SLoopContext, cap: int = DEFAULT_SEARCH_CAP) -> list[Perm]:
    """Subgroup-stabilizing automorphisms, sorted: SSYM meet AUM."""
    return _sa(automorphism_group(ctx.loop, cap=cap), frozenset(ctx.h))


def omega(ctx: SLoopContext, cap: int = DEFAULT_SEARCH_CAP) -> list[Autotopism]:
    """All autotopisms (theta . R_g^-1, theta . L_f^-1, theta) with f, g in
    the subgroup and theta stabilizing it, sorted by triple; the witness of
    a is (f, g) = (a.u.images[e], a.v.images[e]).  Raises exactly when t15
    fails."""
    _, om = _stable(_base(ctx.loop, cap), frozenset(ctx.h))
    violation = _triple_generators([a.key() for a in om], ctx.loop.n)[1]
    if violation is not None:
        raise InvariantViolation(f"omega is not a group: {violation}")
    return om


def theta_set(ctx: SLoopContext, cap: int = DEFAULT_SEARCH_CAP) -> list[tuple[int, int]]:
    """Subgroup pairs (f, g) whose Smarandache f,g-principal isotope admits a
    subgroup-preserving isomorphism onto the loop, as (e, e) does via the
    identity map."""
    return [pair for pair, _, kept in _pairs(ctx.loop, cap, {}, ctx.h.elements) if kept]


def ker_phi(ctx: SLoopContext, cap: int = DEFAULT_SEARCH_CAP) -> list[Autotopism]:
    """Omega elements whose third component is the identity.  Raises
    exactly when t17 fails."""
    b, hset = _base(ctx.loop, cap), frozenset(ctx.h)
    _, om = _stable(b, hset)
    ker, kernel = _kernel(ctx.loop, om, b.nucleus & hset)
    if kernel.status == "fail":
        raise InvariantViolation(f"kernel is not the nucleus pairs in H: {kernel.detail}")
    return ker


def _t10(b: _Base, s: _Subgroup) -> CheckResult:
    """SBS lies in BS: each generator of SBS has a special witness on L."""
    detail = f"|SBS|={len(s.sbs)} |BS|={len(b.bs)}"
    # BS is a group, so SBS lies in it when each generator of SBS passes the
    # autotopism law on L with some witness (f, g); t16 checks closure.
    lone = [p for p in s.sbs_gens if not special_witnesses(b.loop, Perm._unchecked(p))]
    if lone:
        return _result(False, f"{detail} not special: {lone}")
    return _result(True, detail)


def _c11(b: _Base, s: _Subgroup) -> CheckResult:
    """SBS sits inside SSYM, of size |H|! (n - |H|)!."""
    extra = sorted(p for p in s.sbs if any(p[x] not in s.hset for x in s.hset))
    detail = f"|SBS|={len(s.sbs)} |SSYM|={s.ssym}"
    if extra:
        detail += f" outside SSYM: {extra}"
    return _result(not extra, detail)


def _not_isotopic(f: int, g: int) -> CheckResult:
    return _result(False, f"({f},{g}) isotope table is not L's under (x*{g}, {f}*y, id)")


def _t12(b: _Base, s: _Subgroup) -> CheckResult:
    """Subgroup-parameter isotopes keep H as a subgroup."""
    # principal_isotope already raised on a non-loop or a wrong identity, and
    # the isotopy check pins the table: a record of another pair cannot pass.
    for (f, g), p, _ in s.isos:
        if not p.isotopic:
            return _not_isotopic(f, g)
        violation = subgroup_violation(p.isotope, s.h)
        if violation is not None:
            return _result(False, f"isotope ({f},{g}) lost the subgroup: {violation}")
    return _result(True, f"{len(s.isos)} isotopes valid, subgroup preserved")


def _t12_1(b: _Base, s: _Subgroup) -> CheckResult:
    """The reversed parameter pair reconstructs the original table."""
    for (f, g), p, _ in s.isos:
        if not p.round_trip:
            return _result(False, f"({f},{g}) round trip altered the table")
    return _result(True, f"{len(s.isos)} round trips exact")


def _t8(b: _Base, s: _Subgroup) -> CheckResult:
    """SBS from AUT and from the isotope-isomorphism search agree."""
    via_iso = {images for _, _, kept in s.isos for images in kept}
    ok = via_iso == s.sbs
    detail = f"witness route {len(s.sbs)}, isotope route {len(via_iso)}"
    if not ok:
        detail += f" difference: {sorted(via_iso ^ s.sbs)}"
    return _result(ok, detail)


def _t13(b: _Base, s: _Subgroup) -> CheckResult:
    """Every subgroup-parameter isotope has the same SBS, read off AUT."""
    # The pair's isotopy check pins the isotope's table to L's under the
    # isotopy (R_g, L_f, id).  Conjugating by that isotopy carries AUT(L)
    # onto the isotope's AUT, keeping W and sending its identity f * g to
    # U(f) * g and f * V(g), which lie in H exactly when U(f) and V(g) do.
    hset, stable = s.hset, [a.key() for a in s.stable]
    for (f, g), p, _ in s.isos:
        if not p.isotopic:
            return _not_isotopic(f, g)
        other = {w for u, v, w in stable if u[f] in hset and v[g] in hset}
        if other != s.sbs:
            detail = f"({f},{g}) isotope SBS has {len(other)} members, base has {len(s.sbs)}"
            return _result(False, detail)
    return _result(True, f"SBS invariant across {len(s.isos)} isotopes")


def _t14(b: _Base, s: _Subgroup) -> CheckResult:
    """|BS| is |SBS| times an integer index (aggregate: averaged form)."""
    ok = len(b.bs) % len(s.sbs) == 0
    detail = f"|BS|={len(b.bs)} |SBS|={len(s.sbs)} index={len(b.bs) / len(s.sbs):g}"
    return _result(ok, detail)


def _t15(b: _Base, s: _Subgroup) -> CheckResult:
    """omega is a subgroup of the full autotopism group."""
    detail = f"|omega|={len(s.omega)} |AUT|={len(b.aut)}"
    if s.omega_violation is not None:
        detail += f" omega is not a group: {s.omega_violation}"
    return _result(s.omega_violation is None, detail)


def _t16(b: _Base, s: _Subgroup) -> CheckResult:
    """SBS is closed, so projecting omega onto SBS is multiplicative."""
    # The triple product is componentwise, so the projected products of
    # omega lie in SBS exactly when SBS is closed.
    detail = f"|SBS|={len(s.sbs)}"
    if s.sbs_violation is not None:
        return _result(False, f"{detail} SBS is not a group: {s.sbs_violation}")
    return _result(True, f"{detail} closed under composition")


def _t17(b: _Base, s: _Subgroup) -> CheckResult:
    """Kernel elements are exactly the nucleus-in-subgroup pairs."""
    return s.kernel


def _t18(b: _Base, s: _Subgroup) -> CheckResult:
    """|omega| = |SBS| * |ker|, with |ker| = |N_mu intersect H|."""
    ker, nucleus = len(s.ker), len(b.nucleus)
    med = ker == s.n_mu_cap_h
    fact = len(s.omega) == len(s.sbs) * ker
    detail = (
        f"|ker|={ker} |N_mu|={nucleus} |N_mu^H|={s.n_mu_cap_h}"
        f" literal_reading={'pass' if ker == nucleus else 'fail'}"
        f" intersect_reading={'pass' if med else 'fail'}"
        f" |omega|={len(s.omega)} |SBS|*|ker|={len(s.sbs) * ker}"
    )
    return _result(med and fact, detail)


def _t19(b: _Base, s: _Subgroup) -> CheckResult:
    """|omega| = |theta| * |SA|."""
    ok = len(s.omega) == len(s.theta) * len(s.sa)
    return _result(ok, f"|omega|={len(s.omega)} |theta|={len(s.theta)} |SA|={len(s.sa)}")


def _t20(b: _Base, s: _Subgroup) -> CheckResult:
    """theta covers H x H exactly when |H|^2 |SA| = |SBS| |N_mu^H|."""
    square_sa = len(s.h) * len(s.h) * len(s.sa)
    rhs_lit = square_sa == len(s.sbs) * len(b.nucleus)
    detail = (
        f"theta covers HxH: {s.gs_loop}; |H|^2*|SA|={square_sa}"
        f" |SBS|*|N_mu^H|={len(s.sbs) * s.n_mu_cap_h}"
        f" |SBS|*|N_mu|={len(s.sbs) * len(b.nucleus)}"
        f" literal_reading={'pass' if s.gs_loop == rhs_lit else 'fail'}"
    )
    return _result(s.gs_loop == s.criterion, detail)


def _c21(b: _Base, s: _Subgroup) -> CheckResult:
    """The t20 criterion read as the isotopy-invariance property."""
    detail = f"gs_loop={str(s.gs_loop).lower()} criterion={str(s.criterion).lower()}"
    return _result(s.gs_loop == s.criterion, detail)


def _c23(b: _Base, s: _Subgroup) -> CheckResult:
    """Index consequences when the loop passes c21 with |N_mu| > 1."""
    hsize, nucleus, sa, sbs = len(s.h), len(b.nucleus), len(s.sa), len(s.sbs)
    if not s.gs_loop or nucleus <= 1:
        return CheckResult("n/a", f"gs_loop={str(s.gs_loop).lower()} |N_mu|={nucleus}")
    by_sa = hsize * sa == sbs
    a_int = hsize == s.n_mu_cap_h
    ok = a_int == by_sa
    detail = (
        f"|H|={hsize} |N_mu|={nucleus} |N_mu^H|={s.n_mu_cap_h}"
        f" |SBS|/|SA|={sbs / sa:g}"
        f" literal_lemma={'pass' if (hsize == nucleus) == by_sa else 'fail'}"
    )
    if a_int:
        total = b.loop.n * sa
        if total % sbs != 0 or total // sbs <= 1:
            ok = False
            detail += f" index |G|*|SA|/|SBS|={total / sbs:g} not an integer > 1"
        else:
            detail += f" index={total // sbs}"
    return _result(ok, detail)


_CHECKS = (
    ("t10", _t10), ("c11", _c11), ("t12", _t12), ("t12_1", _t12_1), ("t8", _t8),
    ("t13", _t13), ("t14", _t14), ("t15", _t15), ("t16", _t16), ("t17", _t17),
    ("t18", _t18), ("t19", _t19), ("t20", _t20), ("c21", _c21), ("c23", _c23),
)
CHECK_KEYS = tuple(key for key, _ in _CHECKS)


class CardinalityReport(namedtuple(
    "CardinalityReport",
    "subgroup order h bs sbs ssym aum sa aut omega theta n_mu n_mu_cap_h ker_phi checks",
)):
    """Sizes of every derived group and set for one subgroup choice."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        """Every field but the subgroup, which the report lists separately."""
        doc = {name: value for name, value in zip(self._fields, self) if name != "subgroup"}
        doc["checks"] = {k: v.to_json_dict() for k, v in self.checks.items()}
        return doc


class AggregateReport(namedtuple("AggregateReport", "order s_subgroup_count bs checks")):
    """Whole-loop summary: the averaged index formula over all subgroups."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        checks = {k: v.to_json_dict() for k, v in self.checks.items()}
        return {"order": self.order, "s_subgroups": self.s_subgroup_count, "bs": self.bs,
                "checks": checks}


class LoopVerification(namedtuple("LoopVerification", "reports aggregate")):
    """The CardinalityReport of each proper subgroup, and the AggregateReport."""

    __slots__ = ()

    def failed_checks(self) -> list[tuple]:
        """(subgroup, key, result) per failed check; None names the aggregate."""
        scoped = [(rep.subgroup, rep.checks) for rep in self.reports]
        scoped.append((None, self.aggregate.checks))
        return [(h, key, res) for h, checks in scoped for key, res in checks.items()
                if res.status == "fail"]

    def all_pass(self) -> bool:
        return not self.failed_checks()


def verify_theorems(L: LoopTable, cap: int = DEFAULT_SEARCH_CAP) -> LoopVerification:
    """Machine-check every recorded identity for each proper subgroup of L.

    Each subgroup's _derive record goes through the (key, check) pairs of
    _CHECKS in order; each check's docstring says what it witnesses.
    Counts involving the middle nucleus are evaluated in two readings, the
    full nucleus and its intersection with H; pass/fail follows the
    intersection reading and the detail string records both.
    """
    _check_cap(L.n, cap)
    n = L.n
    subs = s_subgroups(L)
    if not subs:
        raise NotSLoop(f"order-{n} loop has no proper non-trivial subgroup")

    b = _base(L, cap)
    aum = automorphism_group(L, cap=cap)
    bs = len(b.bs)
    reports = []
    for hsub in subs:
        s = _derive(b, aum, hsub)
        reports.append(CardinalityReport(
            subgroup=s.h, order=n, h=len(s.h), bs=bs, sbs=len(s.sbs), ssym=s.ssym,
            aum=len(aum), sa=len(s.sa), aut=len(b.aut), omega=len(s.omega),
            theta=len(s.theta), n_mu=len(b.nucleus), n_mu_cap_h=s.n_mu_cap_h,
            ker_phi=len(s.ker), checks={key: fn(b, s) for key, fn in _CHECKS},
        ))

    k = len(subs)
    sizes = [rep.sbs for rep in reports]
    total = sum(size * (bs // size) for size in sizes)
    agg_ok = all(bs % size == 0 for size in sizes) and total == k * bs
    agg_detail = (
        f"k={k} |BS|={bs} sum(|SBS_i|*index_i)={total}"
        f" average={'exact' if agg_ok else f'{total}/{k}'}"
    )
    aggregate = AggregateReport(
        order=n, s_subgroup_count=k, bs=bs, checks={"t14": _result(agg_ok, agg_detail)}
    )
    return LoopVerification(tuple(reports), aggregate)
