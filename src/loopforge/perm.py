"""Permutations of {0, ..., n-1} written on the right: x goes to images[x].

Composition reads left to right, matching the application order: the image
of x under compose(p, q) is the image under q of the image under p.
"""

from __future__ import annotations

from typing import Iterable

from .errors import DegreeMismatch


class Perm:
    """An immutable permutation stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        # ints, not bool, as in validate_table: 1.0 and True sort like 1
        ints = all(isinstance(v, int) and not isinstance(v, bool) for v in imgs)
        if not imgs or not ints or sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a permutation of 0..{len(imgs) - 1}: {imgs!r}")
        self.images = imgs

    @classmethod
    def _unchecked(cls, images: tuple) -> "Perm":
        """A Perm on an image tuple the library already knows to be a
        permutation, skipping the O(n log n) check every other caller gets.

        A composite or inverse of permutations is one, such as a found
        isomorphism psi^-1 o phi of two labellings, and each component of a
        found autotopism: U is such an isomorphism, W is U followed by the
        column x -> x * b and V is W followed by the row inverse z -> a \\ z.
        """
        p = object.__new__(cls)
        p.images = images
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Perm") -> "Perm":
        return compose(self, other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Perm({list(self.images)!r})"


def identity(n: int) -> Perm:
    return Perm(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """The permutation sending x to the q-image of the p-image of x."""
    if p.degree != q.degree:
        raise DegreeMismatch(f"degree {p.degree} composed with degree {q.degree}")
    return Perm._unchecked(compose_images(p.images, q.images))


def compose_images(p: tuple, q: tuple) -> tuple:
    """compose on bare image tuples, without validation."""
    return tuple([q[x] for x in p])


def _inverse_images(p) -> tuple:
    """The inverse of a bare image sequence, as a tuple, without validation."""
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def generators(members, product, one) -> tuple[list, str | None]:
    """(gens, why the finite set members is not a group, or None).

    Walks the members in order; each one not yet generated becomes a
    generator, and every generated element is multiplied by every generator
    once.  Products outside the set are not followed, so each member is one
    of gens or a product of them, closed or not.  The violation is
    "identity missing" when one is not a member, else the first product
    outside the set the walk meets; the walk runs in full either way.  A
    finite set closed under the product is a group, so inverses need no
    separate check.  With no violation, each member is one or a product of
    gens, so a property that one and gens have and products keep holds for
    every member.  Each new generator at least doubles the subgroup
    generated so far, so a group costs O(|G| log |G|) products.
    """
    keys = set(members)
    reached = [one]
    seen = {one}
    gens = []
    missing = None if one in keys else "identity missing"
    for s in members:
        if s in seen:
            continue
        gens.append(s)
        old = len(reached)
        for i, x in enumerate(reached):  # runs on over elements appended below
            # Elements reached before s already met the older generators.
            for g in gens if i >= old else gens[-1:]:
                y = product(x, g)
                if y not in seen:
                    if y not in keys:
                        missing = missing or f"product of {x} and {g} missing"
                        continue
                    seen.add(y)
                    reached.append(y)
    return gens, missing


def inverse(p: Perm) -> Perm:
    return Perm._unchecked(_inverse_images(p.images))

