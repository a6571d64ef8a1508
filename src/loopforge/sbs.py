"""Special maps and their groups, with executable cardinality checks.

A permutation theta is special for (G, *) when some pair (f, g) makes
(theta . R_g^-1, theta . L_f^-1, theta) an autotopism; the special maps form
the Bryant-Schneider group BS(G).  Relative to a chosen subgroup H the same
construction with f, g in H and theta stabilizing H yields the Smarandache
variant SBS, the witness triples form the set omega, and projecting omega
onto its third component is a homomorphism onto SBS whose kernel is pinned
by the middle nucleus.

Every autotopism (U, V, W) has this special shape with theta = W and
witness (f, g) = (U(e), V(e)), so all of these objects are projections or
filters of one autotopism_group result.  The groups come back as sorted
lists of Perm, omega and its kernel as lists of Autotopism whose witness is
read off as (a.u.images[e], a.v.images[e]), and special_witnesses as
(f, g) pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

from .errors import InvariantViolation, NotSLoop
from .isotopy import (
    DEFAULT_SEARCH_CAP,
    Autotopism,
    _check_cap,
    autotopism_group,
    autotopism_set_violation,
    automorphism_group,
    carry_autotopisms,
    diagonal,
    isomorphisms,
    law_holds,
    principal_isotope,
)
from .loop_core import LoopTable, SLoopContext, middle_nucleus, s_subgroups, subgroup_violation
from .perm import Perm, compose_images, generators, group_violation, identity

CHECK_KEYS = (
    "t10", "c11", "t12", "t12_1", "t8", "t13", "t14", "t15",
    "t16", "t17", "t18", "t19", "t20", "c21", "c23",
)

def check_perm_group(perms) -> str | None:
    """Closure/identity violation for equal-degree perms, or None."""
    members = [p.images for p in perms]
    if not members:
        return "empty set"
    return group_violation(members, compose_images, tuple(range(len(members[0]))))


def _keeps(p: Perm, hset) -> bool:
    """Whether p maps the subgroup into (hence onto) itself."""
    return all(p.images[x] in hset for x in hset)


def ssym(ctx: SLoopContext, cap: int = DEFAULT_SEARCH_CAP) -> list[Perm]:
    """All permutations mapping the subgroup into itself, sorted.

    Bijectivity forces the subgroup and its complement to be stabilized
    setwise, so there are |H|! * (n - |H|)! members.
    """
    n = ctx.loop.n
    _check_cap(n, cap)
    h = list(ctx.h.elements)
    rest = [x for x in range(n) if x not in set(h)]
    members = []
    for ph in itertools.permutations(h):
        for pr in itertools.permutations(rest):
            imgs = [0] * n
            for src, dst in zip(h + rest, ph + pr):
                imgs[src] = dst
            members.append(Perm(imgs))
    members.sort(key=lambda p: p.images)
    return members


def special_witnesses(L: LoopTable, theta: Perm, restrict_to=None) -> list[tuple[int, int]]:
    """All (f, g) whose triple with theta passes the autotopism law.

    Every witness satisfies f * g = theta(e), so g is determined by f and
    only n candidate pairs need the full check; the unrestricted scan stays
    in the test suite as an oracle.
    """
    imgs = theta.images
    domain = range(L.n) if restrict_to is None else restrict_to.elements
    t, ld, rd = L.table, L.ldiv, L.rdiv
    out = []
    for f in domain:
        g = ld[f][imgs[L.e]]
        if g not in domain:
            continue
        u = tuple([rd[z][g] for z in imgs])
        v = tuple(map(ld[f].__getitem__, imgs))
        if law_holds(t, t, u, v, imgs):
            out.append((f, g))
    return out


def _in_omega(u: tuple, v: tuple, w: tuple, e: int, hset) -> bool:
    """Whether the image triple has U(e), V(e) in H and W(H) inside H."""
    return u[e] in hset and v[e] in hset and all(w[x] in hset for x in hset)


def _omega_of(aut: list[Autotopism], e: int, hset) -> list[Autotopism]:
    """The triples of aut that _in_omega keeps, in aut's order."""
    return [a for a in aut if _in_omega(*a.key(), e, hset)]


def _isotope_isomorphisms(L: LoopTable, h: tuple, cap: int, memo: dict) -> list[tuple]:
    """((f, g), isotope record, isomorphisms from L onto the isotope) for
    every pair in h x h.

    memo maps (f, g) to the last two, so callers that pass the same dict
    for several subgroups build each isotope and search it once.
    """
    out = []
    for f in h:
        for g in h:
            if (f, g) not in memo:
                record = principal_isotope(L, f, g)
                memo[f, g] = record, isomorphisms(L, record.result, cap=cap)
            out.append(((f, g), *memo[f, g]))
    return out


def _theta_of(isos: list[tuple], hset) -> list[tuple[int, int]]:
    # An H-preserving isomorphism onto the isotope inverts to one back.
    return [pair for pair, _, found in isos if any(_keeps(a, hset) for a in found)]


def bs_group(L: LoopTable, cap: int = DEFAULT_SEARCH_CAP) -> list[Perm]:
    """The Bryant-Schneider group, sorted: third components of the autotopisms."""
    return sorted({a.w for a in autotopism_group(L, cap=cap)})


def sbs_group(ctx: SLoopContext, cap: int = DEFAULT_SEARCH_CAP) -> list[Perm]:
    """The Smarandache Bryant-Schneider group relative to ctx.h, sorted: the
    third components of omega."""
    return sorted({a.w for a in omega(ctx, cap=cap)})


def sa_group(ctx: SLoopContext, cap: int = DEFAULT_SEARCH_CAP) -> list[Perm]:
    """Subgroup-stabilizing automorphisms, sorted: SSYM meet AUM."""
    hset = set(ctx.h.elements)
    return [a for a in automorphism_group(ctx.loop, cap=cap) if _keeps(a, hset)]


def omega(ctx: SLoopContext, cap: int = DEFAULT_SEARCH_CAP) -> list[Autotopism]:
    """All autotopisms (theta . R_g^-1, theta . L_f^-1, theta) with f, g in
    the subgroup and theta stabilizing it, sorted by triple; the witness of
    a is (f, g) = (a.u.images[e], a.v.images[e])."""
    L = ctx.loop
    elements = _omega_of(autotopism_group(L, cap=cap), L.e, set(ctx.h.elements))
    violation = autotopism_set_violation(elements, L.n)
    if violation is not None:
        raise InvariantViolation(f"omega is not a group: {violation}")
    return elements


def theta_set(ctx: SLoopContext, cap: int = DEFAULT_SEARCH_CAP) -> list[tuple[int, int]]:
    """Subgroup pairs (f, g) whose isotope maps back onto the loop.

    A pair qualifies when the Smarandache f,g-principal isotope admits a
    subgroup-preserving isomorphism onto the original loop.  (e, e) always
    qualifies via the identity map.
    """
    isos = _isotope_isomorphisms(ctx.loop, ctx.h.elements, cap, {})
    return _theta_of(isos, set(ctx.h.elements))


def ker_phi(ctx: SLoopContext, cap: int = DEFAULT_SEARCH_CAP) -> list[Autotopism]:
    """Omega elements whose third component is the identity.

    Each kernel element's witness satisfies g * f = e with g in the middle
    nucleus; both facts are checked.
    """
    L = ctx.loop
    ide = identity(L.n)
    nucleus = set(middle_nucleus(L).elements)
    out = [a for a in omega(ctx, cap=cap) if a.w == ide]
    for a in out:
        f, g = a.u.images[L.e], a.v.images[L.e]
        if L.table[g][f] != L.e:
            raise InvariantViolation(f"kernel witness ({f}, {g}) has g*f != e")
        if g not in nucleus:
            raise InvariantViolation(f"kernel witness g={g} outside the middle nucleus")
    return out


@dataclass(frozen=True)
class CheckResult:
    status: str  # "pass" | "fail" | "n/a"
    detail: str

    def to_json_dict(self) -> dict:
        return {"status": self.status, "detail": self.detail}


@dataclass(frozen=True)
class CardinalityReport:
    """Sizes of every derived group and set for one subgroup choice."""

    subgroup: tuple
    order: int
    h: int
    bs: int
    sbs: int
    ssym: int
    aum: int
    sa: int
    aut: int
    omega: int
    theta: int
    n_mu: int
    n_mu_cap_h: int
    ker_phi: int
    checks: dict

    def to_json_dict(self) -> dict:
        """Every field but the subgroup, which the report lists separately."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "subgroup"}
        doc["checks"] = {k: v.to_json_dict() for k, v in self.checks.items()}
        return doc


@dataclass(frozen=True)
class AggregateReport:
    """Whole-loop summary: the averaged index formula over all subgroups."""

    order: int
    s_subgroup_count: int
    bs: int
    checks: dict

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "s_subgroups": self.s_subgroup_count,
            "bs": self.bs,
            "checks": {k: v.to_json_dict() for k, v in self.checks.items()},
        }


@dataclass(frozen=True)
class LoopVerification:
    reports: tuple
    aggregate: AggregateReport

    def failed_checks(self) -> list[tuple]:
        bad = []
        for rep in self.reports:
            for key, res in rep.checks.items():
                if res.status == "fail":
                    bad.append((rep.subgroup, key, res))
        for key, res in self.aggregate.checks.items():
            if res.status == "fail":
                bad.append((None, key, res))
        return bad

    def all_pass(self) -> bool:
        return not self.failed_checks()


def _result(ok: bool, detail: str) -> CheckResult:
    return CheckResult("pass" if ok else "fail", detail)


def _guarded(fn) -> CheckResult:
    try:
        return fn()
    except InvariantViolation as exc:
        return CheckResult("fail", f"invariant violated: {exc}")


def verify_theorems(L: LoopTable, cap: int = DEFAULT_SEARCH_CAP) -> LoopVerification:
    """Machine-check every recorded identity for each proper subgroup of L.

    Check keys and what they witness:
      t10    SBS is contained in BS, and each generator of SBS has a special
             witness on L (closure of SBS is checked by t16)
      c11    SBS sits inside SSYM, of size |H|! (n - |H|)!
      t12    subgroup-parameter isotopes keep H as a subgroup (an isotope that
             is not a loop, or has the wrong identity, raises while it is
             built, so verify_theorems raises instead of reporting a fail)
      t12_1  the reversed parameter pair reconstructs the original table
      t8     SBS from AUT and from the isotope-isomorphism search agree (one
             count per route)
      t13    every subgroup-parameter isotope has the same SBS (AUT carried over,
             every carried triple law-checked on the isotope's table)
      t14    |BS| is |SBS| times an integer index (aggregate: averaged form)
      t15    omega is a subgroup of the full autotopism group
      t16    SBS is closed under composition: the triple product is
             componentwise, so this is what projecting omega onto SBS
             multiplicatively asks
      t17    kernel elements are exactly the nucleus-in-subgroup pairs
      t18    |omega| = |SBS| * |ker|, with |ker| = |N_mu intersect H|
      t19    |omega| = |theta| * |SA|
      t20    theta covers H x H exactly when |H|^2 |SA| = |SBS| |N_mu^H|
      c21    same criterion read as the isotopy-invariance property
      c23    index consequences when the loop passes c21 with |N_mu| > 1

    Counts involving the middle nucleus are evaluated in two readings, the
    full nucleus and its intersection with H; pass/fail follows the
    intersection reading and the detail string records both.
    """
    _check_cap(L.n, cap)
    n = L.n
    subs = s_subgroups(L)
    if not subs:
        raise NotSLoop(f"order-{n} loop has no proper non-trivial subgroup")

    aut = autotopism_group(L, cap=cap)
    keys = [a.key() for a in aut]
    bs_set = frozenset(a.w.images for a in aut)
    aum = diagonal(aut)
    nucleus_set = set(middle_nucleus(L).elements)
    ide = identity(n)

    # Per (f, g), shared by every subgroup containing f and g: the isotope
    # record and its isomorphisms, the round-trip table, and AUT carried
    # onto the isotope.
    isotopes = {}
    round_trips = {}
    carried = {}
    reports = []
    sbs_sizes = []
    for hsub in subs:
        hset = set(hsub.elements)
        hsize = len(hsub)
        om = _omega_of(aut, L.e, hset)
        sbs_set = frozenset(a.w.images for a in om)
        sa = [a for a in aum if _keeps(a, hset)]
        isos = _isotope_isomorphisms(L, hsub.elements, cap, isotopes)
        th = _theta_of(isos, hset)
        ker = [a for a in om if a.w == ide]
        sbs_sizes.append(len(sbs_set))

        ssym_size = math.factorial(hsize) * math.factorial(n - hsize)
        n_mu_cap_h = len(nucleus_set & hset)
        gs_loop = len(th) == hsize * hsize
        criterion = hsize * hsize * len(sa) == len(sbs_set) * n_mu_cap_h

        def check_t10():
            extra = sorted(sbs_set - bs_set)
            detail = f"|SBS|={len(sbs_set)} |BS|={len(bs_set)}"
            if extra:
                return _result(False, f"{detail} outside BS: {extra}")
            # BS is a group, so SBS lies in it when each generator of SBS
            # passes the autotopism law on L with some witness (f, g).
            gens = generators(sorted(sbs_set), compose_images, ide.images)[0]
            lone = [p for p in gens if not special_witnesses(L, Perm._unchecked(p))]
            if lone:
                return _result(False, f"{detail} not special: {lone}")
            return _result(True, detail)

        def check_c11():
            extra = sorted(p for p in sbs_set if any(p[x] not in hset for x in hset))
            detail = f"|SBS|={len(sbs_set)} |SSYM|={ssym_size}"
            if extra:
                detail += f" outside SSYM: {extra}"
            return _result(not extra, detail)

        def check_t12():
            # principal_isotope already raised on a non-loop or a wrong identity.
            # The isotope's products on H are recomputed from L's divisions,
            # so a record of another pair, or relabelled, cannot pass.
            h = hsub.elements
            for (f, g), record, _ in isos:
                ld = L.ldiv[f]
                got = record.result.table
                for x in h:
                    row = L.table[L.rdiv[x][g]]
                    for y in h:
                        if got[x][y] != row[ld[y]]:
                            return _result(
                                False,
                                f"isotope ({f},{g}) gives {x}o{y} = {got[x][y]},"
                                f" but ({x}/{g})*({f}\\{y}) = {row[ld[y]]}",
                            )
                violation = subgroup_violation(record.result, h)
                if violation is not None:
                    return _result(False, f"isotope ({f},{g}) lost the subgroup: {violation}")
            return _result(True, f"{len(isos)} isotopes valid, subgroup preserved")

        def check_t12_1():
            for (f, g), record, _ in isos:
                if (f, g) not in round_trips:
                    round_trips[f, g] = principal_isotope(record.result, g, f).result.table
                if round_trips[f, g] != L.table:
                    return _result(False, f"({f},{g}) round trip altered the table")
            return _result(True, f"{len(isos)} round trips exact")

        def check_t8():
            # Isomorphisms are injective, so a map sending H into H sends it onto H.
            via_iso = {a.images for _, _, found in isos for a in found if _keeps(a, hset)}
            ok = via_iso == sbs_set
            detail = f"witness route {len(sbs_set)}, isotope route {len(via_iso)}"
            if not ok:
                diff = sorted(via_iso ^ sbs_set)
                detail += f" difference: {diff}"
            return _result(ok, detail)

        def check_t13():
            for (f, g), record, _ in isos:
                if (f, g) not in carried:
                    carried[f, g] = carry_autotopisms(keys, record)
                e2 = record.result.e
                other = {w for u, v, w in carried[f, g] if _in_omega(u, v, w, e2, hset)}
                if other != sbs_set:
                    return _result(
                        False,
                        f"({f},{g}) isotope SBS has {len(other)} members, base has {len(sbs_set)}",
                    )
            return _result(True, f"SBS invariant across {len(isos)} isotopes")

        def check_t14():
            ok = len(bs_set) % len(sbs_set) == 0
            detail = (
                f"|BS|={len(bs_set)} |SBS|={len(sbs_set)}"
                f" index={len(bs_set) / len(sbs_set):g}"
            )
            return _result(ok, detail)

        def check_t15():
            violation = autotopism_set_violation(om, n)
            detail = f"|omega|={len(om)} |AUT|={len(aut)}"
            if violation is not None:
                detail += f" omega is not a group: {violation}"
            return _result(violation is None, detail)

        def check_t16():
            # The triple product is componentwise, so the projected products
            # of omega lie in SBS exactly when SBS is closed.
            violation = check_perm_group(sorted({a.w for a in om}))
            detail = f"|SBS|={len(sbs_set)}"
            if violation is not None:
                return _result(False, f"{detail} SBS is not a group: {violation}")
            return _result(True, f"{detail} closed under composition")

        def check_t17():
            expected = set()
            ld = L.ldiv
            for g in sorted(nucleus_set & hset):
                f = ld[g][L.e]
                u = tuple(L.rdiv[x][g] for x in range(n))
                expected.add((u, ld[f], ide.images))
            actual = {a.key() for a in ker}
            ok = expected == actual
            detail = f"|ker|={len(ker)} nucleus pairs={len(expected)}"
            for a in ker:
                f, g = a.u.images[L.e], a.v.images[L.e]
                if L.table[g][f] != L.e or g not in nucleus_set:
                    ok = False
                    detail += f" bad witness ({f},{g})"
            return _result(ok, detail)

        def check_t18():
            lit = len(ker) == len(nucleus_set)
            med = len(ker) == n_mu_cap_h
            fact = len(om) == len(sbs_set) * len(ker)
            detail = (
                f"|ker|={len(ker)} |N_mu|={len(nucleus_set)} |N_mu^H|={n_mu_cap_h}"
                f" literal_reading={'pass' if lit else 'fail'}"
                f" intersect_reading={'pass' if med else 'fail'}"
                f" |omega|={len(om)} |SBS|*|ker|={len(sbs_set) * len(ker)}"
            )
            return _result(med and fact, detail)

        def check_t19():
            ok = len(om) == len(th) * len(sa)
            return _result(ok, f"|omega|={len(om)} |theta|={len(th)} |SA|={len(sa)}")

        def check_t20():
            rhs_lit = hsize * hsize * len(sa) == len(sbs_set) * len(nucleus_set)
            detail = (
                f"theta covers HxH: {gs_loop}; |H|^2*|SA|={hsize * hsize * len(sa)}"
                f" |SBS|*|N_mu^H|={len(sbs_set) * n_mu_cap_h}"
                f" |SBS|*|N_mu|={len(sbs_set) * len(nucleus_set)}"
                f" literal_reading={'pass' if gs_loop == rhs_lit else 'fail'}"
            )
            return _result(gs_loop == criterion, detail)

        def check_c21():
            detail = f"gs_loop={'true' if gs_loop else 'false'} criterion={'true' if criterion else 'false'}"
            return _result(gs_loop == criterion, detail)

        def check_c23():
            if not gs_loop or len(nucleus_set) <= 1:
                return CheckResult(
                    "n/a",
                    f"gs_loop={'true' if gs_loop else 'false'} |N_mu|={len(nucleus_set)}",
                )
            b = hsize * len(sa) == len(sbs_set)
            a_lit = hsize == len(nucleus_set)
            a_int = hsize == n_mu_cap_h
            ok = a_int == b
            detail = (
                f"|H|={hsize} |N_mu|={len(nucleus_set)} |N_mu^H|={n_mu_cap_h}"
                f" |SBS|/|SA|={len(sbs_set) / len(sa):g}"
                f" literal_lemma={'pass' if a_lit == b else 'fail'}"
            )
            if a_int:
                total = n * len(sa)
                if total % len(sbs_set) != 0 or total // len(sbs_set) <= 1:
                    ok = False
                    detail += f" index |G|*|SA|/|SBS|={total / len(sbs_set):g} not an integer > 1"
                else:
                    detail += f" index={total // len(sbs_set)}"
            return _result(ok, detail)

        in_key_order = (
            check_t10, check_c11, check_t12, check_t12_1, check_t8, check_t13, check_t14,
            check_t15, check_t16, check_t17, check_t18, check_t19, check_t20, check_c21,
            check_c23,
        )
        checks = {key: _guarded(fn) for key, fn in zip(CHECK_KEYS, in_key_order)}

        reports.append(
            CardinalityReport(
                subgroup=hsub.elements,
                order=n,
                h=hsize,
                bs=len(bs_set),
                sbs=len(sbs_set),
                ssym=ssym_size,
                aum=len(aum),
                sa=len(sa),
                aut=len(aut),
                omega=len(om),
                theta=len(th),
                n_mu=len(nucleus_set),
                n_mu_cap_h=n_mu_cap_h,
                ker_phi=len(ker),
                checks=checks,
            )
        )

    k = len(subs)
    total = sum(size * (len(bs_set) // size) for size in sbs_sizes)
    exact = all(len(bs_set) % size == 0 for size in sbs_sizes)
    agg_ok = exact and total == k * len(bs_set)
    agg_detail = (
        f"k={k} |BS|={len(bs_set)} sum(|SBS_i|*index_i)={total}"
        f" average={'exact' if agg_ok else f'{total}/{k}'}"
    )
    aggregate = AggregateReport(
        order=n,
        s_subgroup_count=k,
        bs=len(bs_set),
        checks={"t14": _result(agg_ok, agg_detail)},
    )
    return LoopVerification(tuple(reports), aggregate)
