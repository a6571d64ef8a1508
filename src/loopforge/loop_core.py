"""Finite loops as Cayley tables: validation, division, subgroups, nuclei.

Elements are 0..n-1.  A valid table has every row and column a permutation
(unique division on both sides) and a two-sided identity element, so each
instance is a loop; associativity is recorded but not required.
"""

from __future__ import annotations

import collections
from typing import Iterable, Sequence

from .errors import NoIdentity, NotLatin, NotSLoop, NotSquare, ParseError
from .perm import _inverse_images


class LoopTable:
    """Validated n x n Cayley table.  Immutable; build via validate_table.

    Division tables, the associativity flag, _orders_of and _labellings are
    derived on first read: ldiv[a][b] solves a*y = b and rdiv[b][a] solves
    x*a = b.
    """

    __slots__ = ("n", "table", "e", "_associative", "_ldiv", "_rdiv", "_orders", "_labelled")

    def __init__(self, table: tuple, e: int):
        self.table = table
        self.n = len(table)
        self.e = e
        self._associative = None
        self._ldiv = None
        self._rdiv = None
        self._orders = None
        self._labelled = None

    @property
    def associative(self) -> bool:
        if self._associative is None:
            self._associative = _associative(self.table, self.e)
        return self._associative

    @property
    def ldiv(self) -> tuple:
        if self._ldiv is None:  # row a sends y to a*y
            self._ldiv = tuple(map(_inverse_images, self.table))
        return self._ldiv

    @property
    def rdiv(self) -> tuple:
        if self._rdiv is None:  # column a sends x to x*a
            self._rdiv = tuple(zip(*map(_inverse_images, zip(*self.table))))
        return self._rdiv

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LoopTable) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"LoopTable(n={self.n}, e={self.e}, associative={self.associative})"


def validate_table(raw: Sequence[Sequence[int]]) -> LoopTable:
    """Check squareness, the Latin property, and a two-sided identity."""
    rows = [tuple(r) for r in raw]
    n = len(rows)
    if n == 0:
        raise NotSquare("empty table")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise NotSquare(f"row {i} has {len(row)} entries, expected {n}")
        # Fast path for rows of plain ints.  bool is an int subclass, so any
        # other type goes through the entry-by-entry test.
        if set(map(type, row)) == {int}:
            continue
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool):
                raise NotSquare(f"row {i}, column {j}: non-integer entry {v!r}")

    # n entries forming the set 0..n-1 are a permutation of it.
    symbols = set(range(n))
    for i, row in enumerate(rows):
        if set(row) != symbols:
            raise NotLatin(f"row {i} is not a permutation of 0..{n - 1}: {list(row)}")
    cols = list(zip(*rows))
    for j, col in enumerate(cols):
        if set(col) != symbols:
            raise NotLatin(f"column {j} is not a permutation of 0..{n - 1}")

    natural = tuple(range(n))
    e = -1
    for x in range(n):
        if rows[x] == natural and cols[x] == natural:
            e = x
            break
    if e < 0:
        raise NoIdentity("no element is a two-sided identity")

    return LoopTable(tuple(rows), e)


def _associative(rows: tuple, e: int) -> bool:
    """(x*y)*z = x*(y*z) for all x, y, z, compared a whole row of z at a time.

    Rows x = e and y = e are skipped: there both sides are y*z, or x*z, in
    every loop.
    """
    others = [(y, ry) for y, ry in enumerate(rows) if y != e]
    for x, rx in others:
        get = rx.__getitem__
        for y, ry in others:
            if rows[rx[y]] != tuple(map(get, ry)):
                return False
    return True


def subgroup_violation(L: LoopTable, elements: Iterable[int]) -> str | None:
    """Why the subset fails to be a group under L's operation, or None."""
    sset = set(elements)
    return _violation(L, sset, sorted(sset))


def _violation(L: LoopTable, sset: set, s: Sequence[int]) -> str | None:
    """subgroup_violation for a subset given as a set and as sorted(set)."""
    if not s:
        return "empty subset"
    bad = [x for x in s if not isinstance(x, int) or isinstance(x, bool)]  # as validate_table
    if bad:
        return f"non-integer elements: {bad}"
    if s[0] < 0 or s[-1] >= L.n:
        return f"elements outside 0..{L.n - 1}: {s}"
    if L.e not in sset:
        return f"identity {L.e} missing"
    return _group_violation(L, sset, s)


def _group_violation(L: LoopTable, sset: set, s: Sequence[int]) -> str | None:
    """_violation for a subset of L's elements that holds its identity."""
    t, e = L.table, L.e
    for a in s:
        ra = t[a]
        for b in s:
            if ra[b] not in sset:
                return f"not closed: {a}*{b} = {ra[b]}"
    # A triple with a = e or b = e is associative in every loop, so skipping
    # those keeps the first violating triple.
    rest = [a for a in s if a != e]
    for a in rest:
        ra = t[a]
        for b in rest:
            rab = t[ra[b]]
            rb = t[b]
            for c in s:
                if rab[c] != ra[rb[c]]:
                    return f"not associative at ({a}, {b}, {c})"
    # y -> a*y and y -> y*a are injective maps of the finite closed subset into
    # itself, so onto: a has inverses on both sides in it, equal by associativity.
    return None


class SubgroupSet:
    """A subset certified on construction to form a group inside its loop;
    any other subset raises NotSLoop("not a subgroup: <violation>").

    Its fields, elements (sorted) and parent, are read-only; equality and
    hashing go by them.  It is not a tuple, since len, iteration and
    membership run over the elements.
    """

    __slots__ = ("elements", "parent")

    def __new__(cls, elements: Iterable[int], parent: LoopTable):
        sset = set(elements)
        s = tuple(sorted(sset))
        violation = _violation(parent, sset, s)
        if violation is not None:
            raise NotSLoop(f"not a subgroup: {violation}")
        return cls._certified(s, parent)

    @classmethod
    def _certified(cls, elements: tuple, parent: LoopTable) -> "SubgroupSet":
        """A SubgroupSet on sorted elements that _group_violation has passed,
        built without checking them again (see _s_subgroup_elements)."""
        h = object.__new__(cls)
        object.__setattr__(h, "elements", elements)
        object.__setattr__(h, "parent", parent)
        return h

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not SubgroupSet:
            return NotImplemented
        return self.elements == other.elements and self.parent == other.parent

    def __hash__(self) -> int:
        return hash((self.elements, self.parent))

    def __repr__(self) -> str:
        return f"SubgroupSet(elements={self.elements!r}, parent={self.parent!r})"

    def __reduce__(self):
        return SubgroupSet, (self.elements, self.parent)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.elements


def _power_orders(t: Sequence[Sequence[int]], e: int) -> list[int]:
    """For each x, the least k <= n with x^k = e in t, where x^1 = x and
    x^(k+1) = x^k * x; n + 1 when there is no such k.

    This right-power order is an isomorphism invariant: an isomorphism A
    has A(x^k) = A(x)^k by induction on k, and is injective, so x^k = e
    exactly when A(x)^k = A(e), the target's identity.  _labellings draws
    its first generator by these orders, and isotopy._isomorphism_images
    returns no isomorphism between two loops whose sorted orders differ
    before labelling either; both read them through _orders_of.
    """
    n = len(t)
    out = []
    for x in range(n):
        p, k = x, 1
        while p != e and k <= n:
            p = t[p][x]
            k += 1
        out.append(k)
    return out


def _orders_of(L: LoopTable) -> tuple:
    """_power_orders of L's table, computed once per LoopTable."""
    if L._orders is None:
        L._orders = tuple(_power_orders(L.table, L.e))
    return L._orders


def _close(t: tuple, n: int, elems: set, x: int) -> bool:
    """Grow the closed set elems in place to the smallest closed superset of
    elems | {x}; False, leaving elems part grown, as soon as it has more
    than n/2 elements.

    Products of two old elements already lie in elems, so each round
    multiplies only by the elements the round before added.  A closed
    subset S of a finite loop is a subloop: for a in S, y -> a*y maps S
    into, so onto, itself.  A proper subloop H of a loop K has |H| <= |K|/2:
    for z in K outside H the products h*z, h in H, are distinct, and none
    lies in H, since h*z in H would put z = h\\(h*z) in H.
    """
    elems.add(x)
    frontier = [x]
    while frontier:
        if 2 * len(elems) > n:
            return False
        fresh = set()
        for b in frontier:
            rb = t[b]
            for a in elems:
                fresh.add(t[a][b])
                fresh.add(rb[a])
        frontier = fresh - elems
        elems |= frontier
    return True


def _labellings(L: LoopTable) -> tuple[tuple, list[list]]:
    """(M, phis): the least table M = phi(L) over the labellings phi below,
    and every phi that reaches it, as image lists in search order; phi(e)
    is 0.  M is the same table for every loop isomorphic to L.  Cached on L.

    phi labels the elements in the order a generator sequence reaches them
    (G. L. Miller, "On the n^(log n) isomorphism technique", 1978).  The
    sequence starts as [e, x1], x1 any non-identity element of the power
    order (see _power_orders) that the fewest non-identity elements share,
    the least such order on a tie.  It is closed: for i = 0, 1, ... over
    the growing sequence and each j <= i, s_i*s_j and then s_j*s_i are
    appended when new, which ends at the subloop generated.  Until that is
    the whole loop, each element outside it in turn is appended and the
    sequence closed again.  Each complete sequence s gives phi[s_k] = k,
    and phi(L) is built row by row up to the first row above M's so far.
    Each generator at least doubles the subloop (see _close), so there
    are at most floor(log2 n) generators and (n-1)*n^(floor(log2 n)-1)
    sequences.  An isomorphism psi keeps power orders and products, so it
    carries the sequences of L onto those of psi(L) label for label.

    phis is phis[0] o Aut(L) (B. D. McKay, "Practical graph isomorphism",
    1981): if phi(L) = phi'(L) = M, then phi'^-1 o phi is in Aut(L), and
    each alpha in Aut(L) carries sequences onto sequences, so phis[0] o
    alpha, the labelling of alpha^-1(phis[0]'s sequence), is reached too.
    """
    if L._labelled is not None:
        return L._labelled
    n, e, t = L.n, L.e, L.table
    cols = tuple(zip(*t))
    orders = _orders_of(L)
    shared = collections.Counter(orders[x] for x in range(n) if x != e)
    first = min(shared, key=lambda k: (shared[k], k), default=None)
    best = []  # rows of M found so far
    phis = []

    def search(seq: list, label: list, i: int) -> None:
        while i < len(seq):
            row, col = t[seq[i]], cols[seq[i]]
            for b in seq[:i + 1]:
                c = row[b]
                if label[c] < 0:
                    label[c] = len(seq)
                    seq.append(c)
                c = col[b]
                if label[c] < 0:
                    label[c] = len(seq)
                    seq.append(c)
            i += 1
        if i == n:
            r = 1 if best else 0  # row 0 of every phi(L) is 0..n-1
            while r < len(best) and (row := tuple([label[t[seq[r]][b]] for b in seq])) == best[r]:
                r += 1
            if r < len(best) and row > best[r]:
                return
            if r < n:  # a new least table, from row r on
                best[r:] = [tuple([label[t[a][b]] for b in seq]) for a in seq[r:]]
                phis.clear()
            phis.append(label)
            return
        for x in range(n):
            if label[x] < 0 and (i > 1 or orders[x] == first):
                grown = label.copy()
                grown[x] = i
                search(seq + [x], grown, i)

    search([e], [0 if x == e else -1 for x in range(n)], 0)
    L._labelled = tuple(best), phis
    return L._labelled


def subgroups(L: LoopTable) -> list[SubgroupSet]:
    """Every subgroup, sorted by size, then by elements: {e}, then
    s_subgroups(L), then the whole loop when it is associative."""
    whole = [SubgroupSet(range(L.n), L)] if L.n > 1 and L.associative else []
    return [SubgroupSet((L.e,), L)] + s_subgroups(L) + whole


def s_subgroups(L: LoopTable) -> list[SubgroupSet]:
    """Proper non-trivial subgroups, 2 <= size < n, in subgroups' order."""
    return [SubgroupSet._certified(s, L) for s in _s_subgroup_elements(L)]


def _s_subgroup_elements(L: LoopTable) -> list[tuple]:
    """The sorted elements of each s_subgroups(L) member, in its order.

    Only proper subgroups are grown, one generator at a time, and none is
    missed.  A closed subset of a finite group is a subgroup, so each H is
    reached through a chain of its own subgroups {e} < <x1> < <x1, x2> <
    ... < H, while a closed set that is not a group lies in no subgroup and
    is never extended.  So an x with x*(x*x) != (x*x)*x, or whose closure
    with e is not a proper subgroup, is never a generator.  Every closed set
    _close completes is proper, and _group_violation certifies or rejects
    it once.  An S with 4|S| > n is not extended: any closed K > S has S as
    a proper subloop, so |K| >= 2|S| > n/2 and K = L (see _close).
    """
    t, n = L.table, L.n
    groups = {}  # sorted proper closed set -> whether it is a group
    generators = []  # each x whose closure with e is a group
    queue = [({L.e}, range(n))]  # a subgroup to extend, and the x to try
    while queue:
        s, xs = queue.pop()
        for x in xs:
            xx = t[x][x]
            if x not in s and t[x][xx] == t[xx][x] and _close(t, n, closed := set(s), x):
                key = tuple(sorted(closed))
                if key not in groups:
                    groups[key] = _group_violation(L, closed, key) is None
                    if groups[key] and 4 * len(key) <= n:
                        queue.append((closed, generators))
                if groups[key] and len(s) == 1:  # s = {e}, done before any other s
                    generators.append(x)
    return sorted((s for s, group in groups.items() if group), key=lambda s: (len(s), s))


def middle_nucleus(L: LoopTable) -> SubgroupSet:
    """Elements g with (x*g)*y = x*(g*y) for all x, y."""
    t = L.table
    n = L.n
    members = []
    for g in range(n):
        col = [t[x][g] for x in range(n)]
        row = t[g]
        if all(t[col[x]][y] == t[x][row[y]] for x in range(n) for y in range(n)):
            members.append(g)
    return SubgroupSet(tuple(members), L)


class SLoopContext(collections.namedtuple("SLoopContext", "loop h")):
    """A loop paired with a chosen proper non-trivial subgroup."""

    __slots__ = ()

    def __new__(cls, loop: LoopTable, h: SubgroupSet):
        if h.parent != loop:
            raise NotSLoop("subgroup belongs to a different loop")
        if not 2 <= len(h) < loop.n:
            raise NotSLoop(f"subgroup size {len(h)} not in 2..{loop.n - 1}")
        return super().__new__(cls, loop, h)

    @classmethod
    def _make(cls, fields):
        """Built through __new__, so that _replace checks the fields too."""
        return cls(*fields)


def s_loop_context(L: LoopTable, elements: Iterable[int]) -> SLoopContext:
    """Validate elements as a proper non-trivial subgroup and pair it with L."""
    return SLoopContext(L, SubgroupSet(tuple(elements), L))


def format_row(row: Sequence[int]) -> str:
    """One row of the canonical text form: entries joined by spaces, then a newline."""
    return " ".join(map(str, row)) + "\n"


def format_table(L: LoopTable) -> str:
    """Canonical text form: order line, then one format_row line per row."""
    return f"{L.n}\n" + "".join(map(format_row, L.table))


def parse_table(text: str) -> LoopTable:
    """Parse the text form; '#' lines and blank lines are ignored."""
    significant = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        significant.append((lineno, stripped))
    if not significant:
        raise ParseError("no table data")

    lineno, head = significant[0]
    try:
        n = int(head)
    except ValueError:
        raise ParseError(f"expected the order, got {head!r}", line=lineno) from None
    if n < 1:
        raise ParseError(f"order must be positive, got {n}", line=lineno)
    if len(significant) - 1 < n:
        raise ParseError(f"expected {n} rows, found {len(significant) - 1}", line=lineno)
    if len(significant) - 1 > n:
        extra_line = significant[n + 1][0]
        raise ParseError("unexpected data after the table", line=extra_line)

    rows = []
    for lineno, content in significant[1:]:
        tokens = content.split()
        if len(tokens) != n:
            raise ParseError(f"expected {n} entries, found {len(tokens)}", line=lineno)
        row = []
        for col, tok in enumerate(tokens, start=1):
            try:
                row.append(int(tok))
            except ValueError:
                raise ParseError(f"non-integer entry {tok!r}", line=lineno, column=col) from None
        rows.append(row)
    return validate_table(rows)
