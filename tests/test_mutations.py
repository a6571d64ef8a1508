"""Planted defects: each one must turn its check key to fail, or raise.

A check that reads pass whatever the code computes shows nothing, so each
test monkeypatches one plausible defect into the derivation a key guards and
asserts that the key reads fail on every report of the named loops.  A
defect in AUT itself must trip autotopism_group's group walk or the law
check on the walk's generators.
"""

import itertools

import pytest

from loopforge import (
    Autotopism,
    InvariantViolation,
    Perm,
    autotopism_group,
    cyclic_loop,
    isotopy,
    ker_phi,
    n5_loop,
    omega,
    s_loop_context,
    s_subgroups,
    sbs,
    sbs_group,
    validate_table,
    verify_theorems,
)
from loopforge.perm import identity

from conftest import klein_four
from oracles import relabel

LOOPS = {"n5": n5_loop, "Z4": lambda: cyclic_loop(4), "V4": klein_four}


def _statuses(name: str, key: str) -> list[str]:
    return [rep.checks[key].status for rep in verify_theorems(LOOPS[name]()).reports]


def _patch_stable(monkeypatch, change) -> None:
    """Rewrite each subgroup's split of AUT by H: sbs._stable then returns
    change(stable, omega)."""
    real = sbs._stable
    monkeypatch.setattr(sbs, "_stable", lambda b, hset: change(*real(b, hset)))


def _patch_pairs(monkeypatch, change) -> None:
    """Rewrite each subgroup's pairs and their H-keeping isomorphisms:
    sbs._pairs then returns change(isos)."""
    real = sbs._pairs
    monkeypatch.setattr(sbs, "_pairs", lambda L, cap, memo, h: change(real(L, cap, memo, h)))


@pytest.mark.parametrize("name", ["n5", "Z4", "V4"])
def test_t16_catches_a_hole_in_sbs(name, monkeypatch):
    def without_largest_w(stable, om):
        top = max(a.w.images for a in om)
        return stable, [a for a in om if a.w.images != top]

    _patch_stable(monkeypatch, without_largest_w)
    assert set(_statuses(name, "t16")) == {"fail"}


@pytest.mark.parametrize("name", ["n5", "Z4"])
def test_t8_catches_a_lost_isomorphism(name, monkeypatch):
    real = sbs.isomorphisms
    monkeypatch.setattr(sbs, "isomorphisms", lambda L1, L2, cap: real(L1, L2, cap=cap)[:-1])
    assert set(_statuses(name, "t8")) == {"fail"}


@pytest.mark.parametrize("name", ["n5", "Z4", "V4"])
def test_aut_closure_catches_a_lost_labelling(name, monkeypatch):
    # Each pair (a, b) then yields one automorphism too few.
    real = isotopy._labellings

    def without_last(L):
        M, phis = real(L)
        return M, phis[:-1]

    monkeypatch.setattr(isotopy, "_labellings", without_last)
    with pytest.raises(InvariantViolation, match="autotopism set is not a group"):
        verify_theorems(LOOPS[name]())


def _plant_a_non_autotopism(monkeypatch) -> list:
    """Make one image tuple of the first non-empty read-off onto a target
    whose identity is not L's a bijection that is no isomorphism onto it,
    so it, and its triple in AUT, break the law; returns the planted tuples."""
    real = isotopy._isomorphism_images
    planted = []

    def one_bad_u(L1, L2):
        images = real(L1, L2)
        if images and not planted and L2.e != L1.e:
            bad = next(p for p in itertools.permutations(range(L1.n)) if p not in images)
            assert not isotopy.law_holds(L1.table, L2.table, bad, bad, bad)
            images[-1] = bad
            planted.append(bad)
        return images

    monkeypatch.setattr(isotopy, "_isomorphism_images", one_bad_u)
    return planted


@pytest.mark.parametrize("name", ["n5", "Z4", "V4"])
def test_aut_catches_a_planted_non_autotopism(name, monkeypatch):
    planted = _plant_a_non_autotopism(monkeypatch)
    with pytest.raises(InvariantViolation, match="not a group|non-autotopism"):
        autotopism_group(LOOPS[name]())
    assert planted


@pytest.mark.parametrize("name", ["n5", "Z4", "V4"])
def test_aut_law_checks_the_walks_generators(name, monkeypatch):
    # No product of autotopisms breaks the law, so the walk makes the
    # planted triple a generator: with the walk's verdict dropped, the law
    # check on the generators still sees it.
    planted = _plant_a_non_autotopism(monkeypatch)
    real = isotopy._triple_generators
    monkeypatch.setattr(isotopy, "_triple_generators", lambda keys, n: (real(keys, n)[0], None))
    with pytest.raises(InvariantViolation, match="search produced a non-autotopism"):
        autotopism_group(LOOPS[name]())
    assert planted


def test_isomorphisms_law_checks_each_read_off(monkeypatch):
    # The isotope's identity 1 * 2 = 3 is not Z4's, so the defect lands there.
    L = cyclic_loop(4)
    M = isotopy.principal_isotope(L, 1, 2)
    planted = _plant_a_non_autotopism(monkeypatch)
    with pytest.raises(InvariantViolation, match="search produced a non-isomorphism"):
        isotopy.isomorphisms(L, M)
    assert planted


def test_t13_catches_swapped_isotopy_parameters(monkeypatch):
    # The (g, f) isotope's table for the pair (f, g): only t13's law check
    # of the isotopy from L, keyed by the pair, sees it.
    real = sbs.principal_isotope
    monkeypatch.setattr(sbs, "principal_isotope", lambda L, f, g: real(L, g, f))
    assert _statuses("n5", "t13") == ["fail"]


def test_t13_reads_the_identity_images_at_f_and_g(monkeypatch):
    # The planted (U, U, W) has U swapping e with an x outside H and fixing
    # the rest, so U(e) lies outside H but U(h) = h for h in H other than e;
    # W keeps H but lies outside SBS.  Its W joins the SBS read off AUT for
    # each isotope with f, g != e, and would join none if read at e.
    L = n5_loop()
    (h,) = s_subgroups(L)
    hset = set(h)
    x = min(set(range(L.n)) - hset)
    images = list(range(L.n))
    images[L.e], images[x] = x, L.e
    u = Perm(images)
    base = set(sbs_group(s_loop_context(L, h)))
    w = next(p for p in map(Perm, itertools.permutations(range(L.n)))
             if sbs._keeps(p.images, hset) and p not in base)
    real = sbs.autotopism_group
    monkeypatch.setattr(
        sbs, "autotopism_group", lambda L, cap: real(L, cap=cap) + [Autotopism(u, u, w)]
    )
    assert _statuses("n5", "t13") == ["fail"]


@pytest.mark.parametrize("name", ["n5", "Z4", "V4"])
def test_t12_1_catches_an_isotope_cache_keyed_by_parameters_alone(name, monkeypatch):
    # The round trip on the isotope then gets the original loop's isotope.
    real = sbs.principal_isotope
    memo = {}

    def cached(L, f, g):
        if (f, g) not in memo:
            memo[(f, g)] = real(L, f, g)
        return memo[(f, g)]

    monkeypatch.setattr(sbs, "principal_isotope", cached)
    assert set(_statuses(name, "t12_1")) == {"fail"}


def _relabelled(real):
    # Swaps the isotope's identity f*g with 0.  Both lie in H, so H stays a
    # subgroup of the relabelled table and only H's products show the swap.
    def isotope(L, f, g):
        M = real(L, f, g)
        images = list(range(L.n))
        images[0], images[M.e] = M.e, 0
        return validate_table(relabel(M, images))

    return isotope


def _keyed_by_f(real):
    # Every pair (f, g) gets the isotope of the first pair (f, g0) asked for.
    memo = {}

    def isotope(L, f, g):
        if (L, f) not in memo:
            memo[L, f] = real(L, f, g)
        return memo[L, f]

    return isotope


@pytest.mark.parametrize("defect", [_relabelled, _keyed_by_f])
@pytest.mark.parametrize("name", ["n5", "Z4", "V4"])
def test_t12_recomputes_the_isotope_products_on_h(name, defect, monkeypatch):
    # Both read the one law check per pair of the isotopy (R_g, L_f, id)
    # from L onto the whole isotope table, its products on H among them.
    monkeypatch.setattr(sbs, "principal_isotope", defect(sbs.principal_isotope))
    reports = verify_theorems(LOOPS[name]()).reports
    for key in ("t12", "t13"):
        assert {rep.checks[key].status for rep in reports} == {"fail"}, key


@pytest.mark.parametrize("name", ["n5", "Z4", "V4"])
def test_t14_catches_a_lost_bs_member(name, monkeypatch):
    real = sbs.autotopism_group

    def without_largest_w(L, cap):
        aut = real(L, cap=cap)
        top = max(a.w.images for a in aut)
        return [a for a in aut if a.w.images != top]

    monkeypatch.setattr(sbs, "autotopism_group", without_largest_w)
    assert set(_statuses(name, "t14")) == {"fail"}


@pytest.mark.parametrize("name", ["n5", "Z4", "V4"])
def test_t15_catches_a_lost_omega_element(name, monkeypatch):
    _patch_stable(monkeypatch, lambda stable, om: (stable, om[:-1]))
    assert set(_statuses(name, "t15")) == {"fail"}


@pytest.mark.parametrize("name", ["n5", "Z4", "V4"])
def test_omega_raises_where_t15_fails(name, monkeypatch):
    _patch_stable(monkeypatch, lambda stable, om: (stable, om[:-1]))
    L = LOOPS[name]()
    for h in s_subgroups(L):
        with pytest.raises(InvariantViolation, match="omega is not a group"):
            omega(s_loop_context(L, h))


@pytest.mark.parametrize("key", ["t17", "t18"])
@pytest.mark.parametrize("name", ["Z4", "V4"])
def test_kernel_checks_catch_the_full_nucleus(key, name, monkeypatch):
    # Without the witness filter, omega's kernel is all of ker pi_3, which
    # is the full middle nucleus; only loops whose nucleus leaves H notice.
    _patch_stable(monkeypatch, lambda stable, om: (stable, stable))
    assert set(_statuses(name, key)) == {"fail"}


@pytest.mark.parametrize("name", ["Z4", "V4"])
def test_ker_phi_raises_where_t17_fails(name, monkeypatch):
    # Every extra kernel element of the full nucleus also has g * f = e and
    # g in N_mu, so only t17's comparison with the pairs from N_mu and H
    # can reject it.
    _patch_stable(monkeypatch, lambda stable, om: (stable, stable))
    L = LOOPS[name]()
    for h in s_subgroups(L):
        with pytest.raises(InvariantViolation, match="kernel"):
            ker_phi(s_loop_context(L, h))


@pytest.mark.parametrize(
    "key, name",
    [("t19", "n5"), ("t19", "Z4"), ("t19", "V4"),
     ("t20", "Z4"), ("t20", "V4"), ("c21", "Z4"), ("c21", "V4")],
)
def test_theta_checks_catch_a_lost_pair(key, name, monkeypatch):
    # n5's theta is only (e, e), so dropping it leaves "theta covers HxH"
    # false, as it was; t20 and c21 see the loss only where theta was full.
    # The last theta pair loses its H-keeping isomorphisms.
    def without_last_pair(isos):
        last = max(i for i, (_, _, kept) in enumerate(isos) if kept)
        pair, p, _ = isos[last]
        return isos[:last] + [(pair, p, [])] + isos[last + 1:]

    _patch_pairs(monkeypatch, without_last_pair)
    assert set(_statuses(name, key)) == {"fail"}


@pytest.mark.parametrize(
    "name, lost, detail",
    [("n5", lambda: cyclic_loop(5), "not closed: 1*1 = 2"),
     ("Z4", lambda: validate_table(relabel(cyclic_loop(4), (0, 2, 1, 3))), "not closed: 2*2 = 1")],
)
def test_t12_catches_an_isotope_that_lost_the_subgroup(name, lost, detail, monkeypatch):
    # Each pair keeps its isotopy verdict but gets a table in which H, the
    # loop's one subgroup, is not closed.
    def with_lost_isotopes(isos):
        return [(pair, p._replace(isotope=lost()), kept) for pair, p, kept in isos]

    _patch_pairs(monkeypatch, with_lost_isotopes)
    (rep,) = verify_theorems(LOOPS[name]()).reports
    assert rep.checks["t12"] == ("fail", f"isotope (0,0) lost the subgroup: {detail}")


def test_c11_catches_a_skipped_stabilizer_filter(monkeypatch):
    # Every W of BS then passes the one W(H) = H test, and so does every
    # automorphism and isomorphism; c11 tests SBS against H on its own.
    monkeypatch.setattr(sbs, "_keeps", lambda images, hset: True)
    assert set(_statuses("V4", "c11")) == {"fail"}


def test_c23_catches_a_lost_automorphism(monkeypatch):
    real = sbs.automorphism_group
    monkeypatch.setattr(sbs, "automorphism_group", lambda L, cap: real(L, cap=cap)[:-1])
    assert _statuses("Z4", "c23") == ["fail"]


@pytest.mark.parametrize("name", ["n5", "Z4"])
def test_t10_witnesses_the_sbs_generators_on_the_loop(name, monkeypatch):
    # A triple whose W lies outside the loop's BS joins AUT and every omega,
    # so BS and SBS, both read off AUT, still agree: only the law checks on
    # L behind each generator of SBS can see it.
    L = LOOPS[name]()
    bs = set(sbs.bs_group(L))
    w = next(p for p in map(Perm, itertools.permutations(range(L.n))) if p not in bs)
    bogus = Autotopism(identity(L.n), identity(L.n), w)
    real_aut = sbs.autotopism_group
    monkeypatch.setattr(sbs, "autotopism_group", lambda L, cap: real_aut(L, cap=cap) + [bogus])
    _patch_stable(
        monkeypatch, lambda stable, om: (stable, [a for a in om if a != bogus] + [bogus])
    )
    assert set(_statuses(name, "t10")) == {"fail"}


def test_v4_has_no_w_outside_bs():
    # Why the t10 defect above skips V4: its BS is all of S_4.
    assert len(sbs.bs_group(klein_four())) == 24
