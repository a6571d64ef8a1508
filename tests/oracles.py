"""Brute-force reference implementations, kept independent of the package.

Each function here recomputes a result by direct enumeration so the
library's search strategies can be checked against something that has no
shared code path with them.
"""

from itertools import permutations


def mul(L, x, y):
    return L.table[x][y]


def brute_subgroups(L):
    """Powerset scan: every subset that is a group under the operation."""
    n = L.n
    found = []
    for mask in range(1, 1 << n):
        s = [x for x in range(n) if mask >> x & 1]
        if L.e not in s:
            continue
        sset = set(s)
        if any(mul(L, a, b) not in sset for a in s for b in s):
            continue
        if any(
            mul(L, mul(L, a, b), c) != mul(L, a, mul(L, b, c))
            for a in s
            for b in s
            for c in s
        ):
            continue
        if any(
            not any(mul(L, a, b) == L.e and mul(L, b, a) == L.e for b in s) for a in s
        ):
            continue
        found.append(tuple(s))
    found.sort(key=lambda t: (len(t), t))
    return found


def brute_associative(L):
    """Triple scan of (x*y)*z = x*(y*z)."""
    return brute_first_nonassociative(L) is None


def brute_first_nonassociative(L):
    """The first (x, y, z), in lexicographic order, with (x*y)*z != x*(y*z),
    or None."""
    r = range(L.n)
    for x in r:
        for y in r:
            for z in r:
                if mul(L, mul(L, x, y), z) != mul(L, x, mul(L, y, z)):
                    return (x, y, z)
    return None


def group_axiom_violation(perms):
    """Closure/identity/inverse check on image tuples, no Perm involved."""
    members = sorted({tuple(p) for p in perms})
    if not members:
        return "empty"
    n = len(members[0])
    keys = set(members)
    if tuple(range(n)) not in keys:
        return "identity missing"
    for p in members:
        inv = [0] * n
        for i, v in enumerate(p):
            inv[v] = i
        if tuple(inv) not in keys:
            return f"inverse missing for {p}"
    for p in members:
        for q in members:
            if tuple(q[v] for v in p) not in keys:
                return f"product missing for {p}, {q}"
    return None


def is_autotopism(L, u, v, w):
    n = L.n
    return all(L.table[u[x]][v[y]] == w[L.table[x][y]] for x in range(n) for y in range(n))


def brute_autotopisms_triples(L):
    """Full scan over all permutation triples; use only for n <= 4."""
    n = L.n
    out = []
    for u in permutations(range(n)):
        for v in permutations(range(n)):
            for w in permutations(range(n)):
                if is_autotopism(L, u, v, w):
                    out.append((u, v, w))
    return sorted(out)


def brute_autotopisms_pairs(L):
    """Scan (U, V) and read W off the law; covers n = 5 quickly."""
    n = L.n
    out = []
    for u in permutations(range(n)):
        for v in permutations(range(n)):
            w = [-1] * n
            ok = True
            for x in range(n):
                for y in range(n):
                    z = L.table[x][y]
                    val = L.table[u[x]][v[y]]
                    if w[z] == -1:
                        w[z] = val
                    elif w[z] != val:
                        ok = False
                        break
                if not ok:
                    break
            if ok and sorted(w) == list(range(n)):
                out.append((u, v, tuple(w)))
    return sorted(out)


def brute_autotopisms_by_u(L):
    """Scan U and b: the law at x = e and y = e forces W = U.R_b and
    V = L_U(e)^-1.W, applying U first, so each (U, b) gives one candidate.
    About 0.02 s per order-6 loop."""
    n, t = L.n, L.table
    out = []
    for u in permutations(range(n)):
        a = u[L.e]
        for b in range(n):
            w = tuple(t[ux][b] for ux in u)
            v = tuple(L.ldiv[a][wy] for wy in w)
            if is_autotopism(L, u, v, w):
                out.append((u, v, w))
    return sorted(out)


def carry_autotopisms(L, keys, f, g):
    """The image triples keys, autotopisms of L, conjugated by the isotopy
    (R_g, L_f, id) onto L's f,g-principal isotope, in keys' order: (U, V, W)
    becomes (x -> U(x / g) * g, y -> f * V(f \\ y), W)."""
    n, t = L.n, L.table
    return [
        (tuple(t[u[L.rdiv[x][g]]][g] for x in range(n)),
         tuple(t[f][v[L.ldiv[f][y]]] for y in range(n)), w)
        for u, v, w in keys
    ]


def brute_isomorphisms(L1, L2):
    n = L1.n
    if n != L2.n:
        return []
    out = []
    for a in permutations(range(n)):
        if all(
            L2.table[a[x]][a[y]] == a[L1.table[x][y]] for x in range(n) for y in range(n)
        ):
            out.append(a)
    return sorted(out)


def brute_special_witnesses(L, theta, domain=None):
    """Unrestricted double scan over (f, g); the library narrows by f*g."""
    n = L.n
    elems = list(domain) if domain is not None else list(range(n))
    out = []
    for f in elems:
        for g in elems:
            u = tuple(L.rdiv[theta[x]][g] for x in range(n))
            v = tuple(L.ldiv[f][theta[y]] for y in range(n))
            if is_autotopism(L, u, v, theta):
                out.append((f, g))
    return out


def brute_bs(L):
    n = L.n
    out = []
    for theta in permutations(range(n)):
        if brute_special_witnesses(L, theta):
            out.append(theta)
    return out


def brute_ssym(L, h):
    n = L.n
    hset = set(h)
    return [p for p in permutations(range(n)) if all(p[x] in hset for x in hset)]


def count_reduced_squares_colmajor(n):
    """Independent recount filling cells column by column."""
    table = [[-1] * n for _ in range(n)]
    table[0] = list(range(n))
    for i in range(n):
        table[i][0] = i
    full = (1 << n) - 1
    row_used = [full] + [1 << i for i in range(1, n)]
    col_used = [full] + [1 << j for j in range(1, n)]
    cells = [(r, c) for c in range(1, n) for r in range(1, n)]
    m = len(cells)

    def fill(k):
        if k == m:
            return 1
        r, c = cells[k]
        avail = ~(row_used[r] | col_used[c]) & full
        total = 0
        while avail:
            bit = avail & -avail
            avail ^= bit
            row_used[r] |= bit
            col_used[c] |= bit
            total += fill(k + 1)
            row_used[r] ^= bit
            col_used[c] ^= bit
        return total

    return fill(0)


def fnv64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def relabel(L, images):
    """The rows of L's table with every label x replaced by images[x]."""
    raw = [[0] * L.n for _ in range(L.n)]
    for x in range(L.n):
        for y in range(L.n):
            raw[images[x]][images[y]] = images[L.table[x][y]]
    return raw
