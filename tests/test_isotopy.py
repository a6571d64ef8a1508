import collections
import functools
import hashlib
import itertools
import random

import pytest

from loopforge import (
    InvariantViolation,
    NotSElements,
    SearchCapExceeded,
    autotopism_group,
    automorphism_group,
    bs_group,
    canonical_form,
    cyclic_loop,
    generate_loops,
    isomorphisms,
    middle_nucleus,
    principal_isotope,
    s_isomorphisms,
    s_loop_context,
    s_subgroups,
    smarandache_principal_isotope,
    validate_table,
)
from loopforge import isotopy, loop_core
from loopforge.perm import _inverse_images, compose_images

from oracles import (
    brute_autotopisms_by_u,
    brute_autotopisms_pairs,
    brute_autotopisms_triples,
    brute_isomorphisms,
    carry_autotopisms,
    group_axiom_violation,
    is_autotopism,
)


class TestPrincipalIsotope:
    def test_z4_example(self, z4):
        M = principal_isotope(z4, 1, 2)
        assert M.e == z4.table[1][2] == 3
        assert M.table == (
            (1, 2, 3, 0),
            (2, 3, 0, 1),
            (3, 0, 1, 2),
            (0, 1, 2, 3),
        )

    def test_identity_parameters_reproduce_the_loop(self, n5):
        assert principal_isotope(n5, 0, 0).table == n5.table

    def test_defining_law(self, n5):
        # x' * y' = x * y for x' = x * g, y' = f * y
        f, g = 1, 1
        t = n5.table
        iso = principal_isotope(n5, f, g).table
        for x in range(5):
            for y in range(5):
                assert iso[t[x][g]][t[f][y]] == t[x][y]

    def test_round_trip_swaps_parameters(self, z4, n5):
        for L in (z4, n5):
            for f in range(L.n):
                for g in range(L.n):
                    back = principal_isotope(principal_isotope(L, f, g), g, f)
                    assert back.table == L.table

    def test_rejects_out_of_range(self, z4):
        with pytest.raises(IndexError):
            principal_isotope(z4, 4, 0)
        with pytest.raises(IndexError):
            principal_isotope(z4, 0, -1)

    @pytest.mark.parametrize("f, g", [(True, 0), (0, False), (1.0, 0), (0, "1"), (None, 0)])
    def test_rejects_non_int_parameters(self, z4, f, g):
        # bool is an int subclass, and 1.0 indexes no tuple.
        with pytest.raises(ValueError, match="not both ints"):
            principal_isotope(z4, f, g)


class TestSmarandacheIsotope:
    def test_subgroup_carries_over(self, n5_ctx):
        ictx = smarandache_principal_isotope(n5_ctx, 1, 1)
        assert ictx.h.elements == (0, 1)
        assert ictx.loop.table == principal_isotope(n5_ctx.loop, 1, 1).table
        assert ictx.loop.e == 0  # 1 * 1 = 0 in the base loop

    def test_rejects_parameters_outside_subgroup(self, z4_ctx):
        with pytest.raises(NotSElements):
            smarandache_principal_isotope(z4_ctx, 1, 2)
        with pytest.raises(NotSElements):
            smarandache_principal_isotope(z4_ctx, 0, 3)

    def test_lost_subgroup_is_an_invariant_violation(self, z4_ctx, monkeypatch):
        # Z4 relabelled by the swap 1 <-> 2: there 2 has order 4, so {0, 2} is not closed
        swap = (0, 2, 1, 3)
        rows = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(4):
                rows[swap[i]][swap[j]] = swap[(i + j) % 4]
        lost = validate_table(rows)
        monkeypatch.setattr(isotopy, "principal_isotope", lambda L, f, g: lost)
        with pytest.raises(
            InvariantViolation, match=r"^subgroup lost under isotopy: not closed: 2\*2 = 1$"
        ):
            smarandache_principal_isotope(z4_ctx, 0, 2)

    def test_each_context_certifies_its_subgroup_once(self, z4, monkeypatch):
        # SubgroupSet certifies through subgroup_violation, and both end in
        # the one group check.
        calls = []
        real = loop_core._group_violation

        def counted(L, sset, s):
            calls.append(tuple(s))
            return real(L, sset, s)

        monkeypatch.setattr(loop_core, "_group_violation", counted)
        ctx = s_loop_context(z4, [0, 2])
        assert calls == [(0, 2)]
        calls.clear()
        smarandache_principal_isotope(ctx, 0, 2)
        assert calls == [(0, 2)]


class TestAutotopisms:
    def test_identity_autotopism(self, z4):
        ide = tuple(range(4))
        assert is_autotopism(z4, ide, ide, ide)
        assert autotopism_group(z4)[0].key() == (ide, ide, ide)

    def test_law_holds_rejects_wrong_triple(self, z4):
        t, shift, ide = z4.table, (1, 2, 3, 0), (0, 1, 2, 3)
        assert not isotopy.law_holds(t, t, shift, ide, ide)
        # U = shift by 1, V = identity, W = shift by 1 works in Z4
        assert isotopy.law_holds(t, t, shift, ide, shift)

    def test_law_holds_rejects_another_degree(self, z4):
        t = z4.table
        for n in (2, 8):
            ide = tuple(range(n))
            assert not isotopy.law_holds(t, t, ide, ide, ide)
        ide = tuple(range(4))
        assert not isotopy.law_holds(t, t, ide, ide, tuple(range(5)))

    def test_law_kernel_rejects_short_tuples(self, z4):
        t = z4.table
        assert isotopy.law_holds(t, t, (0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3))
        assert not isotopy.law_holds(t, t, (0, 1), (0, 1), (0, 1))
        assert not isotopy.law_holds(t, t, (0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2))

    def test_matches_triple_oracle_small(self, z3, z4, klein):
        for L in (z3, z4, klein):
            found = [a.key() for a in autotopism_group(L)]
            assert found == brute_autotopisms_triples(L)

    def test_matches_pair_oracle_order_5(self, n5):
        assert len(autotopism_group(n5)) == 12
        for entry in generate_loops(5):
            found = [a.key() for a in autotopism_group(entry.loop)]
            assert found == brute_autotopisms_pairs(entry.loop)

    def test_matches_u_oracle_on_an_order_6_sample(self):
        # Most (a, b) searches on these loops are cut by the power-order
        # labels, so a label that isomorphisms do not keep loses autotopisms.
        picks = set(random.Random(6).sample(range(9408), 50))
        sample = [
            entry.loop
            for i, entry in enumerate(generate_loops(6, allow_order_six=True))
            if i in picks
        ]
        assert len(sample) == 50 and sum(L.associative for L in sample) < 50
        for L in sample:
            found = [a.key() for a in autotopism_group(L)]
            assert found == brute_autotopisms_by_u(L)

    def test_whole_loop_identities(self):
        # Autotopisms with the same pair (U(e), V(e)) differ by an
        # automorphism, so |AUT| = |AUM| * |P| over the pairs P; the kernel
        # of AUT -> BS is the N_mu triples, so |AUT| = |BS| * |N_mu|.
        loops = [entry.loop for n in (2, 3, 4, 5) for entry in generate_loops(n)]
        picks = set(random.Random(6).sample(range(9408), 300))
        loops += [
            entry.loop
            for i, entry in enumerate(generate_loops(6, allow_order_six=True))
            if i in picks
        ]
        assert len(loops) == 362
        for L in loops:
            aut = autotopism_group(L)
            pairs = {(a.u.images[L.e], a.v.images[L.e]) for a in aut}
            assert len(aut) == len(automorphism_group(L)) * len(pairs), L
            assert len(aut) == len(bs_group(L)) * len(middle_nucleus(L)), L

    def test_sizes_for_abelian_groups(self, z4, klein):
        # for an abelian group: |AUT| = n^2 * |AUM|
        assert len(autotopism_group(z4)) == 16 * 2
        assert len(autotopism_group(klein)) == 16 * 6

    def test_product_and_inverse_stay_autotopisms(self, n5):
        keys = [a.key() for a in autotopism_group(n5)]
        for a in keys[:6]:
            assert is_autotopism(n5, *map(_inverse_images, a))
            for b in keys[:6]:
                assert is_autotopism(n5, *map(compose_images, a, b))

    def test_cap(self, z4):
        with pytest.raises(SearchCapExceeded):
            autotopism_group(z4, cap=3)

    def test_frozen_sizes_for_z2_cubed(self):
        # A group, so ker pi_3 is N_mu = G and |BS| = |G| * |Aut(G)|, with
        # Aut((Z2)^3) = GL(3, 2) of order 168.
        z2_cubed = validate_table([[x ^ y for y in range(8)] for x in range(8)])
        aut = autotopism_group(z2_cubed)
        assert len(aut) == 10752
        assert len({a.w for a in aut}) == 1344
        assert sum(a.u == a.v == a.w for a in aut) == 168

    def test_frozen_sizes_for_chein_s3(self, m_s3):
        assert not m_s3.associative
        aut = autotopism_group(m_s3, cap=12)
        assert len(aut) == 15552
        assert sum(a.u == a.v == a.w for a in aut) == 108


@functools.cache
def _pinned_loops() -> tuple:
    """Every loop of orders 2-5 and one per isomorphism class of order 6,
    the first of its class in stream order, which does not depend on how
    the canonical form labels the class: 62 + 109 loops, sorted by order
    and table."""
    loops = [e.loop for n in range(2, 6) for e in generate_loops(n)]
    firsts = {}
    for e in generate_loops(6, allow_order_six=True):
        firsts.setdefault(canonical_form(e.loop)[0], e.loop)
    return tuple(sorted(loops + list(firsts.values()), key=lambda L: (L.n, L.table)))


def _order_6_twins() -> list:
    """Consecutive pairs, in _pinned_loops order, of order-6 class
    representatives with the same sorted power orders."""
    by_orders = collections.defaultdict(list)
    for L in _pinned_loops():
        if L.n == 6:
            by_orders[tuple(sorted(loop_core._power_orders(L.table, L.e)))].append(L)
    return [pair for group in by_orders.values() for pair in zip(group, group[1:])]


def test_both_searches_are_pinned():
    # Each digest is over the repr of one list per loop, autotopism keys
    # and automorphism images.
    loops = _pinned_loops()
    assert len(loops) == 171
    auts = [[a.key() for a in autotopism_group(L)] for L in loops]
    isos = [[p.images for p in isomorphisms(L, L)] for L in loops]

    def digest(obj):
        return hashlib.sha256(repr(obj).encode("ascii")).hexdigest()

    assert digest(auts) == "34d9019cf71aed09a77a78b842fe74bd1a065ac1513963b1c78a6ec3e41b5140"
    assert digest(isos) == "11d0de709875349381f5bb4db85678ff132e4cbc5880b56ec95b6f856780a78d"


def test_automorphisms_are_the_diagonal_of_aut():
    # AUM comes from isomorphisms(L, L), AUT from the isotope searches; the
    # diagonal triples (A, A, A) of AUT, in AUT's order, must be the same list.
    for L in _pinned_loops():
        diagonal = [a.w for a in autotopism_group(L) if a.u == a.v == a.w]
        assert automorphism_group(L) == diagonal, L.table


def test_differing_power_orders_are_rejected_before_labelling(monkeypatch):
    # Z6 has an element of order 6 and S3 none, so S3 is never labelled;
    # Z6 with 0 and 1 swapped shares Z6's orders and is labelled as before.
    z6 = cyclic_loop(6)
    group = list(itertools.permutations(range(3)))
    s3 = validate_table([[group.index(tuple(g[x] for x in h)) for h in group] for g in group])
    swap = (1, 0, 2, 3, 4, 5)
    relabelled = validate_table(
        [[swap[(swap[x] + swap[y]) % 6] for y in range(6)] for x in range(6)]
    )
    labelled = []
    real = isotopy._labellings

    def counted(L):
        labelled.append(L)
        return real(L)

    monkeypatch.setattr(isotopy, "_labellings", counted)
    assert isomorphisms(z6, s3) == []
    assert not any(L is s3 for L in labelled)
    found = isomorphisms(z6, relabelled)
    assert [p.images for p in found] == brute_isomorphisms(z6, relabelled) != []
    assert any(L is relabelled for L in labelled)


def test_power_orders_are_computed_once_per_loop(monkeypatch):
    # autotopism_group compares L with n^2 isotopes, each a new LoopTable,
    # so n^2 + 1 loops have power orders; each is computed once.  isotopy
    # holds no name of its own for _power_orders, so patching loop_core's
    # counts every call.
    assert not hasattr(isotopy, "_power_orders")
    L = cyclic_loop(6)
    computed = []
    real = loop_core._power_orders

    def counted(t, e):
        computed.append(t)
        return real(t, e)

    monkeypatch.setattr(loop_core, "_power_orders", counted)
    assert len(autotopism_group(L)) == 6 * 12
    assert 0 < len(computed) <= 6 * 6 + 1
    assert sum(t is L.table for t in computed) == 1


def test_principal_isotopes_split_by_class_as_aut_predicts():
    # Group the n^2 principal isotopes of L by canonical form, c_M of them
    # isomorphic to M.  Then the c_M sum to n^2 and c_M * |Aut(M)| = |AUT(L)|
    # for every M: the isotopy-class identity of ROADMAP item 4.
    pairs = 0
    for L in _pinned_loops():
        n = L.n
        counts = collections.Counter(
            canonical_form(principal_isotope(L, f, g))[0] for f in range(n) for g in range(n)
        )
        assert sum(counts.values()) == n * n
        aut = len(autotopism_group(L))
        for M, c in counts.items():
            assert c * len(isomorphisms(M, M)) == aut, (L.table, M.table)
        pairs += len(counts)
    assert pairs == 1053


def _carried_keys(L, aut, f, g):
    """The keys of aut, the autotopisms of L, carried onto L's
    f,g-principal isotope, sorted as autotopism_group sorts its output."""
    return sorted(carry_autotopisms(L, [a.key() for a in aut], f, g))


def _sbs_keys(keys, f, g, hset) -> set:
    """The W of each triple in keys with U(f), V(g) in H and W(H) = H."""
    return {w for u, v, w in keys
            if u[f] in hset and v[g] in hset and all(w[x] in hset for x in hset)}


class TestTransport:
    def test_equals_direct_search_on_subgroup_isotopes(self):
        # Conjugating by the isotopy (R_g, L_f, id) keeps W and sends the
        # isotope's identity f * g to U(f) * g and f * V(g), so the isotope's
        # SBS is the W of each autotopism of L with U(f), V(g) in H: the
        # lemma t13 reads the isotope's SBS by.
        checked = 0
        for n in (4, 5):
            for entry in generate_loops(n):
                L = entry.loop
                aut = autotopism_group(L)
                keys = [a.key() for a in aut]
                direct = {}
                for h in s_subgroups(L):
                    hset = set(h)
                    for f in h:
                        for g in h:
                            M = principal_isotope(L, f, g)
                            if (f, g) not in direct:
                                direct[f, g] = [a.key() for a in autotopism_group(M)]
                                assert _carried_keys(L, aut, f, g) == direct[f, g]
                                checked += 1
                            e2 = M.e
                            via_aut = _sbs_keys(keys, f, g, hset)
                            assert _sbs_keys(direct[f, g], e2, e2, hset) == via_aut
        assert checked == 144

    def test_carry_keeps_the_order_of_its_input(self, n5):
        aut = autotopism_group(n5)
        carried = carry_autotopisms(n5, [a.key() for a in aut], 1, 2)
        assert [w for _, _, w in carried] == [a.w.images for a in aut]
        direct = autotopism_group(principal_isotope(n5, 1, 2))
        assert sorted(carried) == [a.key() for a in direct]

    def test_equals_direct_search_for_every_pair(self, n5):
        aut = autotopism_group(n5)
        for f in range(5):
            for g in range(5):
                direct = [a.key() for a in autotopism_group(principal_isotope(n5, f, g))]
                assert _carried_keys(n5, aut, f, g) == direct


class TestIsomorphisms:
    def test_z4_to_own_isotope(self, z4):
        M = principal_isotope(z4, 1, 2)
        found = isomorphisms(z4, M)
        assert len(found) == 2
        assert [p.images for p in found] == brute_isomorphisms(z4, M)

    def test_z4_not_isomorphic_to_klein(self, z4, klein):
        assert isomorphisms(z4, klein) == []

    def test_degree_mismatch_is_empty(self, z3, z4):
        assert isomorphisms(z3, z4) == []

    def test_matches_oracle(self, z3, z4, klein, n5, loop_3x3_shifted):
        pairs = [(L1, L2) for L1 in (z4, klein) for L2 in (z4, klein)]
        pairs += [(n5, n5), (z3, loop_3x3_shifted), (loop_3x3_shifted, z3)]
        # Isotopes have the identity f * g, so most pairs have two identities.
        for entry in generate_loops(5):
            L = entry.loop
            pairs += [(L, principal_isotope(L, f, g)) for f in range(5) for g in range(5)]
        # Order-6 classes that share a power-order multiset pass the
        # pre-test, so only their labellings can tell them apart.
        twins = _order_6_twins()
        assert len(twins) == 79
        pairs += twins
        # Isotopes with identity 2 * 3, which is not 0.
        isotopes = [(L1, principal_isotope(L2, 2, 3)) for L1, L2 in twins[:6]]
        isotopes = [(L1, L2) for L1, L2 in isotopes if L2.e != 0]
        assert len(isotopes) == 5
        pairs += isotopes
        for L1, L2 in pairs:
            assert [p.images for p in isomorphisms(L1, L2)] == brute_isomorphisms(L1, L2)

    def test_labellings_that_reach_the_form_count_the_automorphisms(self):
        for n in range(2, 6):
            for entry in generate_loops(n):
                L = entry.loop
                assert len(loop_core._labellings(L)[1]) == len(brute_isomorphisms(L, L))

    def test_automorphism_groups(self, z4, z5, klein, n5):
        assert [p.images for p in automorphism_group(z4)] == [(0, 1, 2, 3), (0, 3, 2, 1)]
        assert len(automorphism_group(z5)) == 4
        assert len(automorphism_group(klein)) == 6
        assert [p.images for p in automorphism_group(n5)] == [
            (0, 1, 2, 3, 4),
            (0, 1, 3, 4, 2),
            (0, 1, 4, 2, 3),
        ]

    def test_cap(self, z4):
        with pytest.raises(SearchCapExceeded):
            isomorphisms(z4, z4, cap=2)


def _into(ctx1, ctx2):
    """Isomorphisms of the two loops that map ctx1.h into ctx2.h."""
    h2 = set(ctx2.h.elements)
    return [
        a for a in isomorphisms(ctx1.loop, ctx2.loop)
        if {a.images[x] for x in ctx1.h.elements} <= h2
    ]


class TestSIsomorphisms:
    def test_into_equals_onto_for_equal_sizes(self, n5_ctx):
        ictx = smarandache_principal_isotope(n5_ctx, 1, 1)
        assert _into(ictx, n5_ctx) == s_isomorphisms(ictx, n5_ctx)

    def test_into_can_exceed_onto(self):
        z8 = cyclic_loop(8)
        small = s_loop_context(z8, [0, 4])
        large = s_loop_context(z8, [0, 2, 4, 6])
        assert len(_into(small, large)) == 4
        assert s_isomorphisms(small, large) == []

    def test_filters_by_subgroup_image(self, z4, z4_ctx):
        # both automorphisms of Z4 fix {0, 2} setwise
        assert len(s_isomorphisms(z4_ctx, z4_ctx)) == 2

    def test_group_axioms_of_automorphisms(self, n5):
        assert group_axiom_violation([p.images for p in automorphism_group(n5)]) is None
