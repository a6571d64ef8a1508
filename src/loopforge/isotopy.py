"""Principal isotopes and searches for autotopisms and isomorphisms.

An autotopism of (G, *) is a triple (U, V, W) of permutations with
U(x) * V(y) = W(x * y) for all x, y.  The diagonal case U = V = W is an
automorphism.  With a = U(e) and b = V(e), U is an isomorphism of the
loop onto its isotope p o q = (p * (a \\ (q * b))) / b, so autotopisms and
isomorphisms come from one propagating backtracker; plain brute force lives
in the test suite as an oracle.

The backtracker prunes by right-power order, an isomorphism invariant
(see loop_core._power_orders): a branch that maps x to an element of
another order cannot lead to a solution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, NotSElements, NotSLoop, SearchCapExceeded
from .loop_core import LoopTable, SLoopContext, SubgroupSet, _power_orders, validate_table
from .perm import Perm, compose, compose_images, group_violation, identity, inverse

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


@dataclass(frozen=True)
class Autotopism:
    """Permutation triple (u, v, w) with u(x) * v(y) = w(x * y)."""

    u: Perm
    v: Perm
    w: Perm

    def key(self) -> tuple:
        return (self.u.images, self.v.images, self.w.images)

    def holds_for(self, L: LoopTable) -> bool:
        """Whether the triple is an autotopism of L; False for another degree."""
        return law_holds(L.table, L.table, self.u.images, self.v.images, self.w.images)


def autotopism_product(a: Autotopism, b: Autotopism) -> Autotopism:
    return Autotopism(compose(a.u, b.u), compose(a.v, b.v), compose(a.w, b.w))


def autotopism_inverse(a: Autotopism) -> Autotopism:
    return Autotopism(inverse(a.u), inverse(a.v), inverse(a.w))


def identity_autotopism(n: int) -> Autotopism:
    i = identity(n)
    return Autotopism(i, i, i)


def autotopism_set_violation(auts, n: int) -> str | None:
    """Why a set of degree-n triples is not a group under composition, or None."""
    return group_violation(
        [a.key() for a in auts],
        lambda a, b: tuple(map(compose_images, a, b)),
        identity_autotopism(n).key(),
    )


@dataclass(frozen=True)
class PrincipalIsotopeRecord:
    """A source loop, the pair (f, g), and the resulting isotope."""

    source: LoopTable
    f: int
    g: int
    result: LoopTable


def principal_isotope(L: LoopTable, f: int, g: int) -> PrincipalIsotopeRecord:
    """The loop whose product sends (x, y) to (x / g) * (f \\ y).

    Its identity element is f * g.
    """
    n = L.n
    if not 0 <= f < n or not 0 <= g < n:
        raise IndexError(f"parameters ({f}, {g}) outside 0..{n - 1}")
    t = L.table
    ld = L.ldiv[f]
    rd = L.rdiv
    raw = [[t[rd[x][g]][ld[y]] for y in range(n)] for x in range(n)]
    result = validate_table(raw)
    if result.e != t[f][g]:
        raise InvariantViolation(f"isotope ({f}, {g}) has identity {result.e}, not {t[f][g]}")
    return PrincipalIsotopeRecord(L, f, g, result)


def smarandache_principal_isotope(
    ctx: SLoopContext, f: int, g: int
) -> tuple[PrincipalIsotopeRecord, SLoopContext]:
    """Principal isotope with f, g drawn from the chosen subgroup.

    The subgroup carries over: the same element set is certified as a group
    under the isotope's operation before the new context is returned.
    """
    if f not in ctx.h or g not in ctx.h:
        raise NotSElements(f"({f}, {g}) not inside the subgroup {list(ctx.h.elements)}")
    record = principal_isotope(ctx.loop, f, g)
    try:
        new_h = SubgroupSet(ctx.h.elements, record.result)
    except NotSLoop as exc:
        violation = str(exc).removeprefix("not a subgroup: ")
        raise InvariantViolation(f"subgroup lost under isotopy: {violation}") from None
    return record, SLoopContext(record.result, new_h)


def autotopism_group(L: LoopTable, cap: int = DEFAULT_SEARCH_CAP) -> list[Autotopism]:
    """All autotopisms of L, sorted by component images.

    Any autotopism satisfies W = U . R_b and V = L_a^-1 . W for a = U(e),
    b = V(e).  So U is an isomorphism of L onto the isotope
    p o q = (p * (a \\ (q * b))) / b, whose identity is a, and the search is
    one isomorphism search per pair (a, b).  That isotope's table is built
    without validate_table: each row is a row of L with its columns permuted
    by q -> a \\ (q * b) and its symbols by r -> r / b, so it is a Latin
    square by construction.  It is built column-wise, by zip, which costs
    less than an entry-by-entry comprehension.
    """
    n = L.n
    _check_cap(n, cap)
    t, ld, rd = L.table, L.ldiv, L.rdiv
    orders = _power_orders(t, L.e)
    results = []
    for b in range(n):
        col_b = [row[b] for row in t]
        beta = [row[b] for row in rd]  # r -> r / b
        cols = list(zip(*[[beta[r] for r in row] for row in t]))  # cols[q][p] = (p * q) / b
        for a in range(n):
            ld_a = ld[a]
            alpha = [ld_a[z] for z in col_b]  # q -> a \ (q * b)
            target = list(zip(*[cols[q] for q in alpha]))
            for u in _isomorphism_search(t, L.e, orders, target, a):
                w = tuple([col_b[x] for x in u])
                v = tuple([ld_a[z] for z in w])
                if not law_holds(t, t, u, v, w):
                    raise InvariantViolation(f"search produced a non-autotopism {(u, v, w)}")
                results.append(
                    Autotopism(Perm._unchecked(u), Perm._unchecked(v), Perm._unchecked(w))
                )
    results.sort(key=Autotopism.key)
    violation = autotopism_set_violation(results, n)
    if violation is not None:
        raise InvariantViolation(f"autotopism set is not a group: {violation}")
    return results


def carry_autotopisms(keys: list[tuple], record: PrincipalIsotopeRecord) -> list[tuple]:
    """Image triples of the autotopisms of record.result, carried over from
    keys, the image triples of the autotopisms of record.source, in keys'
    order.

    (R_g, L_f, id) is an isotopy from the source onto its f,g-principal
    isotope, so each (U, V, W) becomes (R_g.U.R_g^-1, L_f.V.L_f^-1, W),
    read right to left.  Every carried triple is checked against the
    isotope's own table, so with W a permutation U and V are permutations
    too (see Perm._unchecked).
    """
    L = record.source
    t, g = L.table, record.g
    row_f, ld_f = t[record.f], L.ldiv[record.f]
    div_g = [row[g] for row in L.rdiv]  # x / g
    times_g = [row[g] for row in t]  # x * g
    t2 = record.result.table
    out = []
    for ui, vi, wi in keys:
        u = tuple([times_g[ui[z]] for z in div_g])
        v = tuple([row_f[vi[z]] for z in ld_f])
        if not law_holds(t2, t2, u, v, wi):
            raise InvariantViolation(f"carried triple {(u, v, wi)} fails on the isotope")
        out.append((u, v, wi))
    return out


def _isomorphism_search(t1: list, e1: int, order1: list, t2: list, e2: int) -> list[tuple]:
    """Image tuples of every bijection A with A(x * y) = A(x) * A(y), the
    left-hand product read in t1 and the right-hand one in t2, in
    lexicographic order.

    A(e1) = e2 is pinned, and each assignment forces the image of every
    product with an already-assigned point.  order1 must be the
    _power_orders of t1 at e1 (the caller computes it once per source), and
    A keeps it, read in t2 at A(e1) = e2 (see _power_orders), whether or
    not e2 is the target's identity.  So the search returns nothing when
    the two order multisets differ, and tries and forces only images of
    the same order.
    """
    n = len(t1)
    order2 = _power_orders(t2, e2)
    if sorted(order1) != sorted(order2):
        return []
    candidates = {}
    for v, k in enumerate(order2):
        candidates.setdefault(k, []).append(v)
    img = [-1] * n
    used = [False] * n
    done = []  # assigned points whose products with each other are forced
    found = []

    def assign(x: int, v: int, trail: list) -> bool:
        img[x] = v
        used[v] = True
        trail.append(x)
        queue = [x]
        while queue:
            x = queue.pop()
            done.append(x)
            v = img[x]
            row_x, row_v = t1[x], t2[v]
            for y in done:
                w = img[y]
                # x * y and y * x have forced images; compare before pushing.
                for z, r in ((row_x[y], row_v[w]), (t1[y][x], t2[w][v])):
                    c = img[z]
                    if c != r:
                        if c != -1 or used[r] or order1[z] != order2[r]:
                            return False
                        img[z] = r
                        used[r] = True
                        trail.append(z)
                        queue.append(z)
        return True

    def dfs() -> None:
        x = -1
        for i in range(n):
            if img[i] == -1:
                x = i
                break
        if x == -1:
            found.append(tuple(img))
            return
        mark = len(done)
        for v in candidates[order1[x]]:
            if used[v]:
                continue
            trail = []
            if assign(x, v, trail):
                dfs()
            for p in trail:
                used[img[p]] = False
                img[p] = -1
            del done[mark:]

    if assign(e1, e2, []):
        dfs()
    return found


def isomorphisms(L1: LoopTable, L2: LoopTable, cap: int = DEFAULT_SEARCH_CAP) -> list[Perm]:
    """All bijections A with A(x) * A(y) = A(x * y) from L1 onto L2, sorted."""
    if L1.n != L2.n:
        return []
    _check_cap(L1.n, cap)
    t1, t2 = L1.table, L2.table
    found = []
    for img in _isomorphism_search(t1, L1.e, _power_orders(t1, L1.e), t2, L2.e):
        if not law_holds(t1, t2, img, img, img):
            raise InvariantViolation(f"search produced a non-isomorphism {list(img)}")
        found.append(Perm._unchecked(img))
    return found


def automorphism_group(L: LoopTable, cap: int = DEFAULT_SEARCH_CAP) -> list[Perm]:
    """All A with (A, A, A) an autotopism of L: the diagonal of AUT."""
    return diagonal(autotopism_group(L, cap=cap))


def diagonal(aut: list[Autotopism]) -> list[Perm]:
    """The automorphisms among a list of autotopisms, in list order."""
    return [a.w for a in aut if a.u == a.v == a.w]


def s_isomorphisms(
    ctx1: SLoopContext, ctx2: SLoopContext, cap: int = DEFAULT_SEARCH_CAP
) -> list[Perm]:
    """Isomorphisms A from ctx1.loop to ctx2.loop with A(ctx1.h) = ctx2.h."""
    h2 = set(ctx2.h.elements)
    return [
        a for a in isomorphisms(ctx1.loop, ctx2.loop, cap=cap)
        if {a.images[x] for x in ctx1.h.elements} == h2
    ]
