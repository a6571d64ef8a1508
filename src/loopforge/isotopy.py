"""Principal isotopes and searches for autotopisms and isomorphisms.

An autotopism of (G, *) is a triple (U, V, W) of permutations with
U(x) * V(y) = W(x * y) for all x, y.  The diagonal case U = V = W is an
automorphism.  With a = U(e) and b = V(e), U is an isomorphism of the
loop onto its isotope p o q = (p * (a \\ (q * b))) / b.  Isomorphisms are
read off the labellings of the canonical-form search,
loop_core._labellings, which is the one search in the library; plain brute
force lives in the test suite as an oracle.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvariantViolation, NotSElements, SearchCapExceeded
from .loop_core import (
    LoopTable,
    SLoopContext,
    SubgroupSet,
    _labellings,
    _orders_of,
    subgroup_violation,
)
from .perm import Perm, _inverse_images, compose_images, generators

DEFAULT_SEARCH_CAP = 10


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise SearchCapExceeded(n, cap)


def law_holds(t1, t2, u, v, w) -> bool:
    """Whether u(x) o v(y) = w(x * y) for all x, y, with x * y read in t1
    and the left-hand product in t2; u, v, w are image tuples.

    Image tuples whose length is not the order of both tables fail.  With
    t1 = t2 this is the autotopism law, with u = v = w and two tables the
    isomorphism law; every such check in the library goes through here.
    """
    n = len(t1)
    if len(t2) != n or len(u) != n or len(v) != n or len(w) != n:
        return False
    for x in range(n):
        row = t2[u[x]]
        tx = t1[x]
        for y in range(n):
            if row[v[y]] != w[tx[y]]:
                return False
    return True


class Autotopism(namedtuple("Autotopism", "u v w")):
    """Permutation triple (u, v, w) with u(x) * v(y) = w(x * y)."""

    __slots__ = ()

    def key(self) -> tuple:
        return (self.u.images, self.v.images, self.w.images)


def _triple_generators(keys: list[tuple], n: int) -> tuple[list, str | None]:
    """perm.generators on degree-n image triples, composed componentwise."""
    one = tuple(range(n))
    return generators(keys, lambda a, b: tuple(map(compose_images, a, b)), (one, one, one))


def principal_isotope(L: LoopTable, f: int, g: int) -> LoopTable:
    """The loop whose product sends (x, y) to (x / g) * (f \\ y).

    Its identity element is f * g.  The table is built without
    validate_table, as autotopism_group builds its targets: row x is row
    x / g of L with its columns permuted by y -> f \\ y, so it is a Latin
    square by construction, and row and column f * g are the identity's.
    """
    n = L.n
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (f, g)):
        raise ValueError(f"parameters ({f!r}, {g!r}) are not both ints")
    if not 0 <= f < n or not 0 <= g < n:
        raise IndexError(f"parameters ({f}, {g}) outside 0..{n - 1}")
    t, ld = L.table, L.ldiv[f]
    table = tuple(tuple([t[row[g]][z] for z in ld]) for row in L.rdiv)  # row[g] = x / g
    return LoopTable(table, t[f][g])


def smarandache_principal_isotope(ctx: SLoopContext, f: int, g: int) -> SLoopContext:
    """Principal isotope with f, g drawn from the chosen subgroup.

    The subgroup carries over: the same element set is certified as a group
    under the isotope's operation before the new context is returned.
    """
    if f not in ctx.h or g not in ctx.h:
        raise NotSElements(f"({f}, {g}) not inside the subgroup {list(ctx.h.elements)}")
    iso = principal_isotope(ctx.loop, f, g)
    violation = subgroup_violation(iso, ctx.h)
    if violation is not None:
        raise InvariantViolation(f"subgroup lost under isotopy: {violation}")
    return SLoopContext(iso, SubgroupSet._certified(ctx.h.elements, iso))


def autotopism_group(L: LoopTable, cap: int = DEFAULT_SEARCH_CAP) -> list[Autotopism]:
    """All autotopisms of L, sorted by component images.

    Any autotopism satisfies W = U . R_b and V = L_a^-1 . W for a = U(e),
    b = V(e).  So U is an isomorphism of L onto the isotope
    p o q = (p * (a \\ (q * b))) / b, whose identity is a, read off the
    labellings of the two loops.  That isotope's table is built without
    validate_table: each row is a row of L with its columns permuted
    by q -> a \\ (q * b) and its symbols by r -> r / b, so it is a Latin
    square by construction.  It is built column-wise, by zip, which costs
    less than an entry-by-entry comprehension.

    No triple is law-checked on its own: with no violation, perm.generators
    shows each is the identity or a product of the generators it returns,
    and both are autotopisms once those generators pass the law.
    """
    n = L.n
    _check_cap(n, cap)
    t, ld, rd = L.table, L.ldiv, L.rdiv
    found = []
    for b in range(n):
        col_b = [row[b] for row in t]
        beta = [row[b] for row in rd]  # r -> r / b
        cols = list(zip(*[[beta[r] for r in row] for row in t]))  # cols[q][p] = (p * q) / b
        for a in range(n):
            ld_a = ld[a]
            alpha = [ld_a[z] for z in col_b]  # q -> a \ (q * b)
            target = tuple(zip(*[cols[q] for q in alpha]))
            for u in _isomorphism_images(L, LoopTable(target, a)):
                w = tuple([col_b[x] for x in u])
                found.append((u, tuple([ld_a[z] for z in w]), w))
    found.sort()
    gens, violation = _triple_generators(found, n)
    if violation is not None:
        raise InvariantViolation(f"autotopism set is not a group: {violation}")
    for u, v, w in gens:
        if not law_holds(t, t, u, v, w):
            raise InvariantViolation(f"search produced a non-autotopism {(u, v, w)}")
    return [Autotopism(*map(Perm._unchecked, key)) for key in found]


def _isomorphism_images(L1: LoopTable, L2: LoopTable) -> list[tuple]:
    """Image tuples of every isomorphism of L1 onto L2, in search order:
    none when their sorted power orders differ, checked before either loop
    is labelled, or when their tables M differ; else psi^-1 o phi for psi
    one labelling of L2 and each labelling phi of L1.  Each isomorphism A
    arises once, from phi = psi o A, the labelling of A^-1(psi's sequence).
    """
    if sorted(_orders_of(L1)) != sorted(_orders_of(L2)):
        return []
    M1, phis = _labellings(L1)
    M2, psis = _labellings(L2)
    if M1 != M2:
        return []
    back = _inverse_images(psis[0])  # back[k] = psi^-1(k)
    return [tuple([back[k] for k in phi]) for phi in phis]


def isomorphisms(L1: LoopTable, L2: LoopTable, cap: int = DEFAULT_SEARCH_CAP) -> list[Perm]:
    """All bijections A with A(x) * A(y) = A(x * y) from L1 onto L2, sorted."""
    if L1.n != L2.n:
        return []
    _check_cap(L1.n, cap)
    t1, t2 = L1.table, L2.table
    found = []
    for img in sorted(_isomorphism_images(L1, L2)):
        if not law_holds(t1, t2, img, img, img):
            raise InvariantViolation(f"search produced a non-isomorphism {list(img)}")
        found.append(Perm._unchecked(img))
    return found


def automorphism_group(L: LoopTable, cap: int = DEFAULT_SEARCH_CAP) -> list[Perm]:
    """All A with (A, A, A) an autotopism of L, sorted: isomorphisms(L, L)."""
    return isomorphisms(L, L, cap=cap)


def s_isomorphisms(
    ctx1: SLoopContext, ctx2: SLoopContext, cap: int = DEFAULT_SEARCH_CAP
) -> list[Perm]:
    """Isomorphisms A from ctx1.loop to ctx2.loop with A(ctx1.h) = ctx2.h."""
    h2 = set(ctx2.h.elements)
    return [
        a for a in isomorphisms(ctx1.loop, ctx2.loop, cap=cap)
        if {a.images[x] for x in ctx1.h.elements} == h2
    ]
