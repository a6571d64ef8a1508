import random
from itertools import permutations

import pytest

from loopforge import DegreeMismatch, Perm, compose, identity, inverse


def test_images_and_call():
    p = Perm([1, 2, 0])
    assert p.images == (1, 2, 0)
    assert p.degree == 3
    assert p(0) == 1 and p(1) == 2 and p(2) == 0


def test_compose_reads_left_to_right():
    p = Perm([1, 2, 0])
    q = Perm([1, 0, 2])
    assert compose(p, q).images == (0, 2, 1)
    assert (p * q).images == (0, 2, 1)
    # the other order differs, so the convention is observable
    assert compose(q, p).images == (2, 1, 0)


def test_inverse():
    p = Perm([1, 2, 0])
    assert inverse(p).images == (2, 0, 1)
    assert compose(p, inverse(p)) == identity(3)
    assert compose(inverse(p), p) == identity(3)


def test_identity_is_neutral_degree3_exhaustive():
    e = identity(3)
    for imgs in permutations(range(3)):
        p = Perm(imgs)
        assert compose(p, e) == p
        assert compose(e, p) == p


def test_associativity_degree3_exhaustive():
    elems = [Perm(imgs) for imgs in permutations(range(3))]
    for p in elems:
        for q in elems:
            for r in elems:
                assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_group_laws_random_degree6():
    rng = random.Random(20240817)
    for _ in range(200):
        a = list(range(6))
        b = list(range(6))
        rng.shuffle(a)
        rng.shuffle(b)
        p, q = Perm(a), Perm(b)
        assert inverse(compose(p, q)) == compose(inverse(q), inverse(p))
        assert compose(p, inverse(p)) == identity(6)


def test_rejects_non_permutations():
    for bad in ([], [0, 0], [1, 2], [0, 2], [0, 1, 1]):
        with pytest.raises(ValueError):
            Perm(bad)


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        compose(Perm([0, 1]), Perm([0, 1, 2]))


def test_equality_hash_ordering():
    p = Perm([1, 0, 2])
    assert p == Perm((1, 0, 2))
    assert hash(p) == hash(Perm([1, 0, 2]))
    assert p != Perm([0, 1, 2])
    assert Perm([0, 1, 2]) < Perm([0, 2, 1]) < Perm([1, 0, 2])
    assert sorted([p, identity(3)])[0] == identity(3)


def test_repr():
    assert repr(Perm([2, 0, 1])) == "Perm([2, 0, 1])"

