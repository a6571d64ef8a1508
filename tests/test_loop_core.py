import copy
import pickle
from collections import Counter
from enum import IntEnum

import pytest

from loopforge import (
    NoIdentity,
    NotLatin,
    NotSLoop,
    NotSquare,
    ParseError,
    SLoopContext,
    SubgroupSet,
    cyclic_loop,
    format_table,
    generate_loops,
    loop_core,
    middle_nucleus,
    parse_table,
    principal_isotope,
    s_loop_context,
    s_subgroups,
    subgroup_violation,
    subgroups,
    validate_table,
    verify_theorems,
)

from oracles import brute_associative, brute_first_nonassociative, brute_subgroups


class TestValidation:
    def test_accepts_z4(self, z4):
        assert z4.n == 4
        assert z4.e == 0
        assert z4.associative

    def test_identity_not_at_zero(self, loop_3x3_shifted):
        assert loop_3x3_shifted.e == 2

    def test_n5_is_nonassociative(self, n5):
        assert not n5.associative
        assert n5.e == 0

    def test_rejects_ragged(self):
        with pytest.raises(NotSquare):
            validate_table([[0, 1], [1]])

    def test_rejects_non_integer(self):
        with pytest.raises(NotSquare):
            validate_table([[0, "1"], [1, 0]])
        with pytest.raises(NotSquare):
            validate_table([[0, True], [1, 0]])

    def test_rejects_bool_after_an_all_int_row(self):
        with pytest.raises(NotSquare, match=r"^row 2, column 1: non-integer entry False$"):
            validate_table([[0, 1, 2], [1, 2, 0], [2, False, 1]])

    def test_accepts_int_subclass_entries(self):
        Sym = IntEnum("Sym", "a b c", start=0)
        L = validate_table([[Sym((i + j) % 3) for j in range(3)] for i in range(3)])
        assert L.e == 0
        assert L.associative
        assert L.table == cyclic_loop(3).table

    def test_rejects_empty(self):
        with pytest.raises(NotSquare):
            validate_table([])

    def test_rejects_repeated_row_entry(self):
        with pytest.raises(NotLatin) as exc:
            validate_table([[0, 1], [1, 1]])
        assert str(exc.value) == "row 1 is not a permutation of 0..1: [1, 1]"

    def test_rejects_out_of_range_row_entry(self):
        with pytest.raises(NotLatin) as exc:
            validate_table([[0, 1], [1, 2]])
        assert str(exc.value) == "row 1 is not a permutation of 0..1: [1, 2]"

    def test_rejects_repeated_column_entry(self):
        # rows are permutations but column 0 repeats
        with pytest.raises(NotLatin) as exc:
            validate_table([[0, 1, 2], [0, 2, 1], [1, 0, 2]])
        assert str(exc.value) == "column 0 is not a permutation of 0..2"

    def test_rejects_quasigroup_without_identity(self):
        with pytest.raises(NoIdentity) as exc:
            validate_table([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
        assert str(exc.value) == "no element is a two-sided identity"

    def test_associative_flag_matches_triple_scan(self, loop_3x3_shifted):
        loops = [e.loop for n in range(2, 6) for e in generate_loops(n)]
        assert len(loops) == 62
        for L in (*loops, loop_3x3_shifted):
            assert L.associative == brute_associative(L)


class TestDivision:
    def test_ldiv_solves(self, n5):
        for a in range(5):
            for b in range(5):
                assert n5.table[a][n5.ldiv[a][b]] == b

    def test_rdiv_solves(self, n5):
        for a in range(5):
            for b in range(5):
                assert n5.table[n5.rdiv[b][a]][a] == b


def _u_times_z2():
    """The unipotent order-5 loop U times Z2, as (a, b) -> 2a + b."""
    u = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    return validate_table([[2 * u[x // 2][y // 2] + (x + y) % 2 for y in range(10)]
                           for x in range(10)])


class TestSubgroups:
    def test_z4_subgroups(self, z4):
        assert [h.elements for h in subgroups(z4)] == [(0,), (0, 2), (0, 1, 2, 3)]
        assert [h.elements for h in s_subgroups(z4)] == [(0, 2)]

    def test_klein_subgroups(self, klein):
        assert [h.elements for h in s_subgroups(klein)] == [(0, 1), (0, 2), (0, 3)]

    def test_n5_subgroups(self, n5):
        assert [h.elements for h in s_subgroups(n5)] == [(0, 1)]

    def test_z5_has_no_proper_subgroup(self, z5):
        assert s_subgroups(z5) == []

    def test_matches_powerset_oracle(self, z4, z5, klein, n5, loop_3x3_shifted, z2_cubed, m_s3):
        # Above order 6 the loops hold subgroups S with 4|S| > n, from which
        # no join is tried; the isotopes have identities other than 0.
        isotopes = [principal_isotope(L, f, g)
                    for L, pairs in ((z2_cubed, ((1, 2), (3, 5), (6, 7), (7, 6), (4, 4), (5, 1))),
                                     (m_s3, ((1, 2), (3, 5), (6, 7), (7, 6), (9, 11), (11, 4))))
                    for f, g in pairs]
        assert len({M.e for M in isotopes}) > 6
        for L in (z4, z5, klein, n5, loop_3x3_shifted, cyclic_loop(8), cyclic_loop(9), z2_cubed,
                  m_s3, _u_times_z2(), cyclic_loop(12), *isotopes):
            assert [h.elements for h in subgroups(L)] == brute_subgroups(L)

    def test_matches_powerset_oracle_on_every_loop_up_to_order_6(self):
        for n in range(2, 6):
            for entry in generate_loops(n):
                assert [h.elements for h in subgroups(entry.loop)] == brute_subgroups(entry.loop)
        counts = Counter()
        groups = 0
        for entry in generate_loops(6, allow_order_six=True):
            found = [h.elements for h in subgroups(entry.loop)]
            assert found == brute_subgroups(entry.loop), entry.loop.table
            assert entry.s_subgroup_count == len(found) - 1 - entry.associative
            counts[entry.s_subgroup_count] += 1
            groups += entry.associative
        assert counts == {0: 3360, 1: 3760, 2: 1680, 3: 480, 4: 80, 5: 48}
        assert groups == 80

    def test_subgroup_of_half_the_order_in_a_nonassociative_loop(self):
        # Z8 with the intercalate on rows and columns {1, 5} switched (2 <-> 6):
        # no switched cell lies in {0,2,4,6}^2, so {0,2,4,6} keeps its table
        # and is a subgroup of exactly n/2 elements, the most a proper
        # subloop can have.
        rows = [list(r) for r in cyclic_loop(8).table]
        for r, c in ((1, 1), (1, 5), (5, 1), (5, 5)):
            rows[r][c] = {2: 6, 6: 2}[rows[r][c]]
        L = validate_table(rows)
        assert not L.associative
        found = [h.elements for h in subgroups(L)]
        assert (0, 2, 4, 6) in found
        assert found == brute_subgroups(L)

    def test_identity_skips_follow_e_on_principal_isotopes(self):
        # The (f, g) isotope has identity f*g, so the identity of most of
        # these loops is not 0, and many of them are not associative.  The
        # associativity scans skip the identity's rows.  Skipping 0's rows
        # instead makes subgroup_violation name a later triple than the
        # first violating one.  In the whole-table scan such a slip cannot
        # change the answer: from order 4 on, (x*y)*z = x*(y*z) on the other
        # rows implies it on the rows of any one element.
        identities = Counter()
        nonassociative = 0
        for entry in generate_loops(5):
            for f in range(5):
                for g in range(5):
                    M = principal_isotope(entry.loop, f, g)
                    # Built without validate_table, which must agree.
                    checked = validate_table(M.table)
                    assert (checked.table, checked.e) == (M.table, M.e)
                    assert M.e == entry.loop.table[f][g]
                    first = brute_first_nonassociative(M)
                    assert M.associative == (first is None)
                    assert [h.elements for h in subgroups(M)] == brute_subgroups(M)
                    expected = None if first is None else f"not associative at {first}"
                    assert subgroup_violation(M, range(5)) == expected
                    identities[M.e] += 1
                    nonassociative += first is not None
        assert identities == {e: 280 for e in range(5)}
        assert nonassociative == 1250

    def test_grown_subgroups_follow_e_on_principal_isotopes(self, z2_cubed, z2_z4):
        # From order 8 on, subgroups of order 2 are joined into larger ones,
        # which no loop of order 6 or less needs; the identity f*g of most of
        # these isotopes is not 0.
        identities = Counter()
        for L in (z2_cubed, z2_z4):
            for f in range(8):
                for g in range(8):
                    M = principal_isotope(L, f, g)
                    assert [h.elements for h in subgroups(M)] == brute_subgroups(M), (L.table, f, g)
                    assert len(loop_core._s_subgroup_elements(M)) == len(s_subgroups(M))
                    identities[M.e] += 1
        assert identities == {e: 16 for e in range(8)}

    def test_violation_is_none_exactly_on_the_oracles_subgroups(self):
        # No inverse check: a closed, associative subset holding e is a group.
        for n in range(2, 6):
            for entry in generate_loops(n):
                L = entry.loop
                listed = set(brute_subgroups(L))
                for mask in range(1 << n):
                    s = tuple(x for x in range(n) if mask >> x & 1)
                    assert (subgroup_violation(L, s) is None) == (s in listed), (L.table, s)

    def test_rejects_a_closed_subloop_that_is_not_a_group(self, monkeypatch):
        # U x {0} is a closed proper subloop of order 5 that is not associative.
        L = _u_times_z2()
        rejected = []
        real = loop_core._group_violation

        def certify(parent, sset, s):
            violation = real(parent, sset, s)
            if violation is not None:
                rejected.append((tuple(s), violation))
            return violation

        monkeypatch.setattr(loop_core, "_group_violation", certify)
        found = [h.elements for h in subgroups(L)]
        assert ((0, 2, 4, 6, 8), "not associative at (2, 2, 4)") in rejected
        assert found == brute_subgroups(L)

    def test_s_subgroups_certifies_only_proper_nontrivial_sets(self, z2_cubed, n5, monkeypatch):
        # Z6 with the intercalate on rows and columns {1, 4} switched
        # (2 <-> 5): {0, 3} keeps its table, {0, 2, 4} is no longer closed.
        rows = [list(r) for r in cyclic_loop(6).table]
        for r, c in ((1, 1), (1, 4), (4, 1), (4, 4)):
            rows[r][c] = {2: 5, 5: 2}[rows[r][c]]
        switched = validate_table(rows)
        assert not switched.associative
        built = []
        real = loop_core._group_violation

        def certify(parent, sset, s):
            assert sset == set(s) and list(s) == sorted(s)
            built.append(tuple(s))
            return real(parent, sset, s)

        monkeypatch.setattr(loop_core, "_group_violation", certify)
        for L in (cyclic_loop(6), z2_cubed, n5, switched):
            built.clear()
            found = [h.elements for h in s_subgroups(L)]
            assert found == [s for s in brute_subgroups(L) if 1 < len(s) < L.n]
            assert [s for s in built if len(s) in (1, L.n)] == []
            assert len(built) == len(set(built))
            assert set(found) <= set(built)
        assert [h.elements for h in subgroups(validate_table([[0]]))] == [(0,)]
        assert [h.elements for h in subgroups(cyclic_loop(2))] == [(0,), (0, 1)]

    def test_order_7_loop_with_a_z3_subgroup(self):
        L = validate_table(
            [
                [0, 1, 2, 3, 4, 5, 6],
                [1, 2, 0, 4, 3, 6, 5],
                [2, 0, 1, 5, 6, 3, 4],
                [3, 4, 5, 6, 0, 1, 2],
                [4, 3, 6, 0, 5, 2, 1],
                [5, 6, 3, 1, 2, 4, 0],
                [6, 5, 4, 2, 1, 0, 3],
            ]
        )
        assert not L.associative
        found = [h.elements for h in subgroups(L)]
        assert found == brute_subgroups(L) == [(0,), (0, 1, 2)]

    def test_violation_messages(self, z4):
        assert subgroup_violation(z4, [0, 2]) is None
        assert "closed" in subgroup_violation(z4, [0, 1])
        assert "identity" in subgroup_violation(z4, [1, 3])
        assert "empty" in subgroup_violation(z4, [])
        assert "outside" in subgroup_violation(z4, [0, 9])
        assert "non-integer" in subgroup_violation(z4, [0, 2.0])
        assert subgroup_violation(z4, [0, 1, 2, 3]) is None
        assert subgroup_violation(z4, [0, 3]) is not None

    def test_nonassociative_subset_rejected(self, n5):
        # {0,1,2,3,4} is the whole loop and fails associativity
        assert "associative" in subgroup_violation(n5, range(5))


class TestMiddleNucleus:
    def test_z4_nucleus_is_everything(self, z4):
        assert middle_nucleus(z4).elements == (0, 1, 2, 3)

    def test_n5_nucleus_is_trivial(self, n5):
        assert middle_nucleus(n5).elements == (0,)

    def test_nucleus_definition(self, n5):
        nuc = set(middle_nucleus(n5).elements)
        t = n5.table
        for g in range(5):
            holds = all(
                t[t[x][g]][y] == t[x][t[g][y]] for x in range(5) for y in range(5)
            )
            assert (g in nuc) == holds


class TestSLoopContext:
    def test_accepts_z4(self, z4):
        ctx = s_loop_context(z4, [0, 2])
        assert ctx.h.elements == (0, 2)
        assert 2 in ctx.h
        assert len(ctx.h) == 2

    def test_rejects_non_subgroup(self, z4):
        with pytest.raises(NotSLoop, match=r"^not a subgroup: not closed: 1\*1 = 2$"):
            s_loop_context(z4, [0, 1])

    def test_rejects_trivial_and_full(self, z4):
        with pytest.raises(NotSLoop):
            s_loop_context(z4, [0])
        with pytest.raises(NotSLoop):
            s_loop_context(z4, [0, 1, 2, 3])

    def test_rejects_a_subgroup_of_another_loop(self, z4, klein):
        h = SubgroupSet((0, 2), klein)
        with pytest.raises(NotSLoop, match=r"^subgroup belongs to a different loop$"):
            SLoopContext(z4, h)
        with pytest.raises(NotSLoop, match=r"^subgroup belongs to a different loop$"):
            s_loop_context(z4, [0, 2])._replace(h=h)

    def test_subgroup_set_rejects_with_not_s_loop(self, z4):
        with pytest.raises(NotSLoop, match=r"^not a subgroup: identity 0 missing$"):
            SubgroupSet((1, 3), z4)
        # 2.0 and True sort like 2 and 1 but cannot index a row.
        with pytest.raises(NotSLoop, match=r"^not a subgroup: non-integer elements: \[2\.0\]$"):
            s_loop_context(z4, [0, 2.0])
        with pytest.raises(NotSLoop, match=r"^not a subgroup: non-integer elements: \[True\]$"):
            SubgroupSet((0, True), z4)

    def test_subgroup_set_is_a_value(self, z4, klein):
        h = SubgroupSet((2, 0, 2), z4)
        assert h == SubgroupSet((0, 2), z4) != SubgroupSet((0, 2), klein)
        assert hash(h) == hash(SubgroupSet([0, 2], z4))
        assert repr(h) == (
            "SubgroupSet(elements=(0, 2), parent=LoopTable(n=4, e=0, associative=True))"
        )
        assert pickle.loads(pickle.dumps(h)) == copy.copy(h) == h


def test_value_fields_are_read_only(z4):
    ctx = s_loop_context(z4, [0, 2])
    values = [
        (ctx.h, "elements"),
        (ctx, "h"),
        (next(generate_loops(4)), "entry_id"),
        (verify_theorems(z4).reports[0], "checks"),
    ]
    for obj, field in values:
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            obj.extra = None


class TestTextFormat:
    def test_format_z4(self, z4):
        assert format_table(z4) == "4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n"

    def test_round_trip(self, z4, z5, klein, n5, loop_3x3_shifted):
        for L in (z4, z5, klein, n5, loop_3x3_shifted):
            assert parse_table(format_table(L)).table == L.table

    def test_comments_and_blanks_ignored(self):
        text = "# a loop\n\n2\n# table follows\n0 1\n\n1 0\n"
        assert parse_table(text).n == 2

    def test_error_positions(self):
        with pytest.raises(ParseError) as exc:
            parse_table("2\n0 1\n1 x\n")
        assert exc.value.line == 3
        assert exc.value.column == 2
        assert "line 3, column 2" in str(exc.value)

        with pytest.raises(ParseError) as exc:
            parse_table("x\n")
        assert exc.value.line == 1

        with pytest.raises(ParseError) as exc:
            parse_table("2\n0 1\n1 0 0\n")
        assert exc.value.line == 3

    def test_missing_and_extra_rows(self):
        with pytest.raises(ParseError):
            parse_table("3\n0 1 2\n1 2 0\n")
        with pytest.raises(ParseError):
            parse_table("2\n0 1\n1 0\n0 1\n")
        with pytest.raises(ParseError):
            parse_table("")
        with pytest.raises(ParseError):
            parse_table("0\n")

    def test_invalid_table_still_rejected_after_parse(self):
        with pytest.raises(NotLatin):
            parse_table("2\n0 1\n1 1\n")
