import hashlib
import json
import math
import random
import subprocess
import sys
from itertools import permutations

import pytest

from loopforge import (
    CHECK_KEYS,
    DegreeMismatch,
    NotSLoop,
    Perm,
    autotopism_group,
    bs_group,
    check_perm_group,
    generate_loops,
    identity,
    ker_phi,
    sbs,
    omega,
    principal_isotope,
    s_loop_context,
    s_subgroups,
    sa_group,
    sbs_group,
    special_witnesses,
    ssym,
    theta_set,
    validate_table,
    verify_theorems,
)

from oracles import (
    brute_bs,
    brute_isomorphisms,
    brute_special_witnesses,
    brute_ssym,
    group_axiom_violation,
    is_autotopism,
    relabel,
)


class TestSSym:
    def test_z4_members(self, z4_ctx):
        g = ssym(z4_ctx)
        assert [p.images for p in g] == [
            (0, 1, 2, 3),
            (0, 3, 2, 1),
            (2, 1, 0, 3),
            (2, 3, 0, 1),
        ]

    def test_size_formula(self, z4_ctx, n5_ctx):
        assert len(ssym(z4_ctx)) == math.factorial(2) * math.factorial(2)
        assert len(ssym(n5_ctx)) == math.factorial(2) * math.factorial(3)

    def test_matches_oracle(self, z4_ctx, n5_ctx):
        for ctx in (z4_ctx, n5_ctx):
            got = sorted(p.images for p in ssym(ctx))
            assert got == sorted(brute_ssym(ctx.loop, ctx.h.elements))

    def test_is_a_group(self, n5_ctx):
        assert group_axiom_violation([p.images for p in ssym(n5_ctx)]) is None


class TestSpecialWitnesses:
    def test_narrowing_agrees_with_full_scan_z4(self, z4):
        for imgs in permutations(range(4)):
            theta = Perm(imgs)
            got = special_witnesses(z4, theta)
            assert got == brute_special_witnesses(z4, imgs)

    def test_narrowing_agrees_with_full_scan_n5(self, n5):
        for imgs in permutations(range(5)):
            theta = Perm(imgs)
            got = special_witnesses(n5, theta)
            assert got == brute_special_witnesses(n5, imgs)

    def test_z4_shift_example(self, z4):
        # theta = x + 1: witness pairs are exactly those with f + g = 1
        theta = Perm([1, 2, 3, 0])
        pairs = special_witnesses(z4, theta)
        assert pairs == [(0, 1), (1, 0), (2, 3), (3, 2)]

    def test_every_witness_splits_theta_of_e(self, n5):
        for imgs in permutations(range(5)):
            for f, g in special_witnesses(n5, Perm(imgs)):
                assert n5.table[f][g] == imgs[n5.e]

    def test_restricted_scan(self, z4, z4_ctx):
        theta = Perm([0, 1, 2, 3])
        h = set(z4_ctx.h.elements)
        got = [(f, g) for f, g in special_witnesses(z4, theta) if f in h and g in h]
        full = brute_special_witnesses(z4, (0, 1, 2, 3), domain=(0, 2))
        assert got == full == [(0, 0), (2, 2)]

    @pytest.mark.parametrize("theta", [Perm([1, 0]), Perm(range(7))], ids=["short", "long"])
    def test_rejects_theta_of_another_degree(self, n5, theta):
        with pytest.raises(DegreeMismatch):
            special_witnesses(n5, theta)


class TestBSGroup:
    def test_z4_members_are_affine(self, z4):
        g = bs_group(z4)
        assert len(g) == 8
        affine = sorted(
            tuple((s * x + c) % 4 for x in range(4)) for s in (1, 3) for c in range(4)
        )
        assert sorted(p.images for p in g) == affine

    def test_n5_size(self, n5):
        assert len(bs_group(n5)) == 12

    def test_matches_oracle(self, z4, klein, n5):
        for L in (z4, klein, n5):
            assert sorted(p.images for p in bs_group(L)) == sorted(brute_bs(L))

    def test_equals_third_projection_of_autotopisms(self, z4, n5):
        for L in (z4, n5):
            via_aut = {a.w.images for a in autotopism_group(L)}
            assert {p.images for p in bs_group(L)} == via_aut


class TestSBSGroup:
    def test_z4_equals_ssym(self, z4_ctx):
        g = sbs_group(z4_ctx)
        assert [p.images for p in g] == [
            (0, 1, 2, 3),
            (0, 3, 2, 1),
            (2, 1, 0, 3),
            (2, 3, 0, 1),
        ]

    def test_n5_members(self, n5_ctx):
        g = sbs_group(n5_ctx)
        assert [p.images for p in g] == [
            (0, 1, 2, 3, 4),
            (0, 1, 3, 4, 2),
            (0, 1, 4, 2, 3),
        ]

    def test_contained_in_bs_and_ssym(self, z4_ctx, n5_ctx):
        for ctx in (z4_ctx, n5_ctx):
            sbs_set = {p.images for p in sbs_group(ctx)}
            assert sbs_set <= {p.images for p in bs_group(ctx.loop)}
            assert sbs_set <= {p.images for p in ssym(ctx)}

    def test_is_a_group(self, z4_ctx, n5_ctx):
        for ctx in (z4_ctx, n5_ctx):
            assert group_axiom_violation([p.images for p in sbs_group(ctx)]) is None


class TestSAGroup:
    def test_z4(self, z4_ctx):
        assert [p.images for p in sa_group(z4_ctx)] == [(0, 1, 2, 3), (0, 3, 2, 1)]

    def test_n5_keeps_all_automorphisms(self, n5_ctx):
        assert len(sa_group(n5_ctx)) == 3

    def test_subset_of_sbs(self, z4_ctx, n5_ctx):
        for ctx in (z4_ctx, n5_ctx):
            assert {p.images for p in sa_group(ctx)} <= {p.images for p in sbs_group(ctx)}

    @pytest.mark.parametrize("name", ["n5", "z4", "m_s3"])
    def test_reads_aum_only(self, name, request, monkeypatch):
        # SA filters AUM, so sa_group needs neither the autotopism search
        # nor the isotope isomorphisms that the verify route reads.
        L = request.getfixturevalue(name)
        b, aum = sbs._base(L, 12), sbs.automorphism_group(L, cap=12)
        expected = {h.elements: sbs._derive(b, aum, h).sa for h in s_subgroups(L)}

        def refuse(*args, **kwargs):
            raise RuntimeError("sa_group must read AUM only")

        monkeypatch.setattr(sbs, "autotopism_group", refuse)
        monkeypatch.setattr(sbs, "isomorphisms", refuse)
        for h, sa in expected.items():
            assert sa_group(s_loop_context(L, h), cap=12) == sa


@pytest.fixture(scope="module")
def verify_at_12():
    """verify_theorems(L, cap=12), run once per table in this module."""
    done = {}

    def verify(L):
        if L.table not in done:
            done[L.table] = verify_theorems(L, cap=12)
        return done[L.table]

    return verify


class TestProjectionsRunOnlyTheirSearch:
    @pytest.mark.parametrize("name", ["z2_cubed", "m_s3"])
    def test_sizes_match_the_reports(self, name, request, verify_at_12, monkeypatch):
        # theta_set reads the isotope isomorphisms alone; omega, ker_phi and
        # sbs_group read AUT alone, with no isotope or isomorphism search.
        L = request.getfixturevalue(name)
        reports = verify_at_12(L).reports
        aut = autotopism_group(L, cap=12)

        def refuse(*args, **kwargs):
            raise RuntimeError("a search this projection does not read")

        with monkeypatch.context() as m:
            m.setattr(sbs, "autotopism_group", refuse)
            for rep in reports:
                assert len(theta_set(s_loop_context(L, rep.subgroup), cap=12)) == rep.theta
        # AUT is searched once above and handed back to each call.
        monkeypatch.setattr(sbs, "autotopism_group", lambda M, cap: aut if M is L else refuse())
        for search in ("isomorphisms", "automorphism_group", "principal_isotope"):
            monkeypatch.setattr(sbs, search, refuse)
        for rep in reports:
            ctx = s_loop_context(L, rep.subgroup)
            assert len(omega(ctx, cap=12)) == rep.omega
            assert len(ker_phi(ctx, cap=12)) == rep.ker_phi
            assert len(sbs_group(ctx, cap=12)) == rep.sbs


class TestOmega:
    def test_z4_size(self, z4_ctx):
        assert len(omega(z4_ctx)) == 8

    def test_n5_size(self, n5_ctx):
        assert len(omega(n5_ctx)) == 3

    def test_elements_are_autotopisms_with_subgroup_witnesses(self, z4_ctx):
        hset = set(z4_ctx.h.elements)
        ssym_set = {p.images for p in ssym(z4_ctx)}
        for a in omega(z4_ctx):
            assert is_autotopism(z4_ctx.loop, *a.key())
            assert a.u.images[0] in hset and a.v.images[0] in hset
            assert a.w.images in ssym_set

    def test_triples_are_distinct(self, z4_ctx, n5_ctx):
        for ctx in (z4_ctx, n5_ctx):
            keys = [a.key() for a in omega(ctx)]
            assert len(keys) == len(set(keys))

    def test_projection_covers_sbs(self, z4_ctx, n5_ctx):
        for ctx in (z4_ctx, n5_ctx):
            proj = {a.w.images for a in omega(ctx)}
            assert proj == {p.images for p in sbs_group(ctx)}


class TestTheta:
    def test_z4_covers_the_square(self, z4_ctx):
        assert theta_set(z4_ctx) == [(0, 0), (0, 2), (2, 0), (2, 2)]

    def test_n5_only_identity_pair(self, n5_ctx):
        assert theta_set(n5_ctx) == [(0, 0)]


class TestKerPhi:
    def test_z4_witnesses(self, z4, z4_ctx):
        ker = ker_phi(z4_ctx)
        assert len(ker) == 2
        assert sorted((a.u.images[0], a.v.images[0]) for a in ker) == [(0, 0), (2, 2)]
        for a in ker:
            assert a.w == identity(4)
            assert z4.table[a.v.images[0]][a.u.images[0]] == 0

    def test_n5(self, n5_ctx):
        assert len(ker_phi(n5_ctx)) == 1

    def test_counting_identities(self, z4_ctx, n5_ctx):
        for ctx in (z4_ctx, n5_ctx):
            om = omega(ctx)
            assert len(om) == len(sbs_group(ctx)) * len(ker_phi(ctx))
            assert len(om) == len(theta_set(ctx)) * len(sa_group(ctx))


class TestCheckPermGroup:
    def test_accepts_symmetric_group(self):
        perms = [Perm(imgs) for imgs in permutations(range(3))]
        assert check_perm_group(perms) is None

    def test_flags_empty(self):
        assert check_perm_group([]) == "empty set"

    def test_flags_missing_identity(self):
        assert "identity" in check_perm_group([Perm([1, 0, 2])])

    @pytest.mark.parametrize("degrees", [(2, 3), (3, 2)])
    def test_rejects_mixed_degrees(self, degrees):
        # Either order: the smaller degree first used to pass as a group,
        # the larger first to raise a bare IndexError.
        with pytest.raises(DegreeMismatch):
            check_perm_group([identity(n) for n in degrees])

    def test_flags_missing_product(self):
        # identity plus two involutions whose product is absent
        perms = [Perm([0, 1, 2]), Perm([1, 0, 2]), Perm([0, 2, 1])]
        assert "product" in check_perm_group(perms)

    @staticmethod
    def _generated(gens):
        """Subgroup of S_4 generated by gens, in breadth-first order."""
        found = [tuple(range(4))]
        for x in found:
            for g in gens:
                y = tuple(g[v] for v in x)
                if y not in found:
                    found.append(y)
        return found

    def test_agrees_with_oracle_on_random_subsets_of_s4(self):
        rng = random.Random(20240611)
        s4 = list(permutations(range(4)))
        cases = []
        for _ in range(200):
            group = self._generated(rng.sample(s4, rng.randint(1, 2)))
            cases.append(group)
            cases.append(group + [rng.choice(s4)])
            drop = rng.choice(group)
            cases.append([p for p in group if p != drop])
            cases.append(rng.sample(s4, rng.randint(1, 24)))
        verdicts = set()
        for case in cases:
            rng.shuffle(case)
            verdict = check_perm_group([Perm(p) for p in case]) is None
            assert verdict == (group_axiom_violation(case) is None), case
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_closed_under_first_generator_but_not_second(self):
        rng = random.Random(7)
        s4 = list(permutations(range(4)))
        checked = 0
        while checked < 50:
            first, second = rng.sample(s4, 2)
            cyclic = self._generated([first])
            case = cyclic + [second]
            if second in cyclic or group_axiom_violation(case) is None:
                continue
            violation = check_perm_group([Perm(p) for p in case])
            assert violation is not None and "product" in violation
            checked += 1


@pytest.fixture(scope="module")
def small_contexts():
    """Every (loop, H) of orders 3 to 5."""
    return [
        s_loop_context(entry.loop, h.elements)
        for n in (3, 4, 5)
        for entry in generate_loops(n)
        for h in s_subgroups(entry.loop)
    ]


class TestDerivedFromAutotopisms:
    """BS, SBS, SA, omega, ker and theta, filtered from one autotopism
    search, against the brute-force witness and isomorphism scans."""

    def test_match_oracle_routes(self, small_contexts):
        assert len(small_contexts) == 38
        reports = {}
        for ctx in small_contexts:
            L, h = ctx.loop, ctx.h.elements
            n, hset = L.n, set(h)
            if L not in reports:
                reports[L] = {rep.subgroup: rep for rep in verify_theorems(L).reports}
            rep = reports[L][h]

            bs = sorted(brute_bs(L))
            assert [p.images for p in bs_group(L)] == bs and rep.bs == len(bs)

            triples = sorted(
                (
                    tuple(L.rdiv[theta[x]][g] for x in range(n)),
                    tuple(L.ldiv[f][theta[y]] for y in range(n)),
                    theta,
                )
                for theta in brute_ssym(L, h)
                for f, g in brute_special_witnesses(L, theta, domain=h)
            )
            om = omega(ctx)
            assert [a.key() for a in om] == triples and rep.omega == len(om)
            for a in om:
                witness = (a.u.images[L.e], a.v.images[L.e])
                assert witness in brute_special_witnesses(L, a.w.images, domain=h)

            sbs = sorted({t[2] for t in triples})
            assert [p.images for p in sbs_group(ctx)] == sbs and rep.sbs == len(sbs)

            kernel = [t for t in triples if t[2] == tuple(range(n))]
            assert [a.key() for a in ker_phi(ctx)] == kernel
            assert rep.ker_phi == len(kernel)

            def keeps(a):
                return all(a[x] in hset for x in h)

            sa = [a for a in brute_isomorphisms(L, L) if keeps(a)]
            assert [p.images for p in sa_group(ctx)] == sa and rep.sa == len(sa)

            theta = [
                (f, g)
                for f in h
                for g in h
                if any(keeps(a) for a in brute_isomorphisms(principal_isotope(L, f, g), L))
            ]
            assert theta_set(ctx) == theta and rep.theta == len(theta)


class TestInvariants:
    SCRIPT = """
import sys
from loopforge import InvariantViolation, cyclic_loop, s_loop_context, sbs

if __debug__:
    sys.exit("expected python -O")
L = cyclic_loop(4)
ctx = s_loop_context(L, [0, 2])
aut = sbs.autotopism_group(L)
drop = sbs.omega(ctx)[-1]
sbs.autotopism_group = lambda L, cap=10: [a for a in aut if a != drop]
try:
    sbs.omega(ctx)
except InvariantViolation as exc:
    print("raised:", exc)
print("t15", sbs.verify_theorems(L).reports[0].checks["t15"].status)
"""

    def test_closure_check_survives_python_O(self, package_env):
        # A set missing one element of omega is not closed; under -O an
        # assert would let it through, the explicit check must not.
        proc = subprocess.run(
            [sys.executable, "-O", "-c", self.SCRIPT],
            env=package_env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("raised: omega is not a group: product of")
        assert lines[1] == "t15 fail"


class TestVerifyTheorems:
    def test_z4_all_pass(self, z4):
        ver = verify_theorems(z4)
        assert ver.all_pass()
        assert ver.failed_checks() == []
        assert len(ver.reports) == 1
        rep = ver.reports[0]
        assert tuple(rep.checks) == CHECK_KEYS
        assert all(res.status == "pass" for res in rep.checks.values())

    def test_z4_cardinalities(self, z4):
        rep = verify_theorems(z4).reports[0]
        assert rep.subgroup == (0, 2)
        assert (rep.order, rep.h) == (4, 2)
        assert (rep.bs, rep.sbs, rep.ssym) == (8, 4, 4)
        assert (rep.aum, rep.sa, rep.aut) == (2, 2, 32)
        assert (rep.omega, rep.theta) == (8, 4)
        assert (rep.n_mu, rep.n_mu_cap_h, rep.ker_phi) == (4, 2, 2)

    def test_z4_records_both_nucleus_readings(self, z4):
        rep = verify_theorems(z4).reports[0]
        detail = rep.checks["t18"].detail
        assert "literal_reading=fail" in detail
        assert "intersect_reading=pass" in detail
        assert rep.checks["t18"].status == "pass"

    def test_z4_c23_applies(self, z4):
        rep = verify_theorems(z4).reports[0]
        assert rep.checks["c23"].status == "pass"
        assert "index=2" in rep.checks["c23"].detail

    def test_n5_all_pass_with_c23_not_applicable(self, n5):
        ver = verify_theorems(n5)
        assert ver.all_pass()
        rep = ver.reports[0]
        assert rep.checks["c23"].status == "n/a"
        assert "gs_loop=false" in rep.checks["c23"].detail
        assert (rep.bs, rep.sbs, rep.sa) == (12, 3, 3)

    def test_rejects_loop_without_s_subgroup(self, z5):
        with pytest.raises(NotSLoop):
            verify_theorems(z5)

    def test_aggregate(self, z4):
        agg = verify_theorems(z4).aggregate
        assert agg.s_subgroup_count == 1
        assert agg.bs == 8
        assert agg.checks["t14"].status == "pass"

    def test_klein_covers_every_subgroup(self, klein):
        ver = verify_theorems(klein)
        assert ver.all_pass()
        assert [rep.subgroup for rep in ver.reports] == [(0, 1), (0, 2), (0, 3)]

    @staticmethod
    def _digest(ver) -> str:
        # The reports, each with its subgroup, and the aggregate, as the
        # report files indent them.
        doc = {"reports": [[list(r.subgroup), r.to_json_dict()] for r in ver.reports],
               "aggregate": ver.aggregate.to_json_dict()}
        return hashlib.sha256(json.dumps(doc, indent=2).encode("ascii")).hexdigest()

    def test_frozen_reports_for_chein_s3(self, m_s3, verify_at_12):
        ver = verify_at_12(m_s3)
        assert len(ver.reports) == 22 and ver.all_pass()
        assert {(r.aut, r.aum, r.bs, r.n_mu) for r in ver.reports} == {(15552, 108, 15552, 1)}
        assert self._digest(ver) == (
            "260650fd29910ea28bbd08b646afa667d62fbc96a890f59588f202419c1ccc13"
        )

    def test_frozen_reports_for_z2_cubed(self, z2_cubed, verify_at_12):
        # 14 subgroups share the 64 pairs of (Z2)^3, so t8, t12 and t13 read
        # each pair's record from many subgroups.
        ver = verify_at_12(z2_cubed)
        assert len(ver.reports) == 14 and ver.all_pass()
        assert self._digest(ver) == (
            "962b0d77e9d009e7849ad6d5f10e5a06b347469a5924ebe3a69102492f80f304"
        )

    def test_one_isotopy_check_and_two_isotopes_per_pair(self, z2_cubed, monkeypatch):
        # (Z2)^3 has 64 distinct pairs (f, g) over its 14 subgroups, which
        # hold 140 (subgroup, pair) combinations between them.
        calls = {"law": 0, "isotope": 0}
        real_law, real_isotope = sbs.law_holds, sbs.principal_isotope

        def law(t1, t2, u, v, w):
            calls["law"] += t2 is not z2_cubed.table
            return real_law(t1, t2, u, v, w)

        def isotope(L, f, g):
            calls["isotope"] += 1
            return real_isotope(L, f, g)

        monkeypatch.setattr(sbs, "law_holds", law)
        monkeypatch.setattr(sbs, "principal_isotope", isotope)
        assert verify_theorems(z2_cubed).all_pass()
        assert calls == {"law": 64, "isotope": 128}

    def test_relabelling_changes_only_the_subgroups(self):
        # So verify DIR may verify one loop per isomorphism class: relabelling
        # a loop by psi relabels each report's subgroup H as psi(H), and
        # leaves every other field, and the aggregate, as it was.
        rng = random.Random(1980)
        loops = [e.loop for n in (4, 5) for e in generate_loops(n)]
        loops += rng.sample([e.loop for e in generate_loops(6, allow_order_six=True)], 140)
        moved = verified = 0
        for L in loops:
            psi = rng.sample(range(L.n), L.n)
            moved += psi[0] != 0
            K = validate_table(relabel(L, psi))
            try:
                ver = verify_theorems(L)
            except NotSLoop:
                with pytest.raises(NotSLoop):
                    verify_theorems(K)
                continue
            other = verify_theorems(K)
            by_subgroup = {rep.subgroup: rep for rep in other.reports}
            assert len(by_subgroup) == len(ver.reports)
            for rep in ver.reports:
                image = tuple(sorted(psi[x] for x in rep.subgroup))
                assert by_subgroup[image]._replace(subgroup=rep.subgroup) == rep
            assert other.aggregate == ver.aggregate
            verified += 1
        assert 0 < moved < len(loops) and verified > 100


def _group_table(elements, product):
    index = {x: i for i, x in enumerate(elements)}
    return validate_table([[index[product(x, y)] for y in elements] for x in elements])


def z2_x_z4():
    return _group_table(
        [(a, b) for a in range(2) for b in range(4)],
        lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 4),
    )


def dihedral_8():
    # r^i s^j as (i, j); s r = r^-1 s.
    return _group_table(
        [(i, j) for j in range(2) for i in range(4)],
        lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 2),
    )


class TestOrder8Groups:
    """Frozen values for two order-8 groups with a non-trivial nucleus.

    For a group, ker pi_3 is N_mu = G, so |BS| = |G| * |Aut(G)| = 8 * 8.
    """

    @pytest.mark.parametrize(
        "make, per_subgroup",
        [
            (
                z2_x_z4,
                {(2, 8, 4, 16, 4, 2): 2, (2, 16, 8, 32, 4, 2): 1,
                 (4, 16, 4, 64, 16, 4): 2, (4, 32, 8, 128, 16, 4): 1},
            ),
            (
                dihedral_8,
                {(2, 4, 2, 8, 4, 2): 4, (2, 16, 8, 32, 4, 2): 1,
                 (4, 16, 4, 64, 16, 4): 2, (4, 32, 8, 128, 16, 4): 1},
            ),
        ],
        ids=["Z2xZ4", "D4"],
    )
    def test_frozen_values(self, make, per_subgroup):
        ver = verify_theorems(make())
        assert ver.aggregate.bs == 64
        assert ver.aggregate.checks["t14"].status == "pass"
        seen = {}
        for rep in ver.reports:
            assert (rep.bs, rep.aut, rep.aum, rep.n_mu) == (64, 512, 8, 8)
            assert {res.status for res in rep.checks.values()} == {"pass"}
            sizes = (rep.h, rep.sbs, rep.sa, rep.omega, rep.theta, rep.ker_phi)
            seen[sizes] = seen.get(sizes, 0) + 1
        assert seen == per_subgroup


class TestJsonShape:
    def test_report_keys_are_pinned(self, z4):
        rep = verify_theorems(z4).reports[0]
        doc = rep.to_json_dict()
        assert tuple(doc) == (
            "order", "h", "bs", "sbs", "ssym", "aum", "sa", "aut",
            "omega", "theta", "n_mu", "n_mu_cap_h", "ker_phi", "checks",
        )
        assert tuple(doc["checks"]) == CHECK_KEYS
        for val in doc["checks"].values():
            assert tuple(val) == ("status", "detail")
            assert val["status"] in ("pass", "fail", "n/a")

    def test_aggregate_keys(self, z4):
        doc = verify_theorems(z4).aggregate.to_json_dict()
        assert tuple(doc) == ("order", "s_subgroups", "bs", "checks")
