import functools
import random
from itertools import permutations

import pytest

from loopforge import (
    DegreeMismatch,
    Perm,
    autotopism_group,
    compose,
    generate_loops,
    identity,
    inverse,
)
from loopforge.perm import compose_images, generators


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
    # [0, 1.0, 2] and [False, True] sort equal to range(n) but cannot index.
    for bad in ([], [0, 0], [1, 2], [0, 2], [0, 1, 1], [0, 1.0, 2], [False, True], ["a"]):
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



def _triple_product(a, b):
    return tuple(map(compose_images, a, b))


@functools.cache
def _aut_keys() -> list:
    """AUT of every loop of orders 2-5 as sorted image triples, with its identity."""
    out = []
    for n in range(2, 6):
        one = tuple(range(n))
        for entry in generate_loops(n):
            out.append(([a.key() for a in autotopism_group(entry.loop)], (one, one, one)))
    return out


def _closure(gens, one) -> set:
    """Every product of gens, by breadth-first search from one."""
    reached, frontier = {one}, [one]
    while frontier:
        fresh = {_triple_product(x, g) for x in frontier for g in gens} - reached
        reached |= fresh
        frontier = list(fresh)
    return reached


def test_generators_generate_the_group():
    assert len(_aut_keys()) == 62
    for keys, one in _aut_keys():
        gens, violation = generators(keys, _triple_product, one)
        assert violation is None
        assert set(gens) <= set(keys)
        assert _closure(gens, one) == set(keys)
        # Each generator at least doubles the subgroup generated so far.
        assert len(gens) <= len(keys).bit_length() - 1


def test_generators_report_a_missing_identity_and_still_walk():
    for keys, one in _aut_keys():
        gens = generators(keys, _triple_product, one)[0]
        without = [k for k in keys if k != one]
        assert generators(without, _triple_product, one) == (gens, "identity missing")


def test_generators_report_a_missing_product_and_still_walk():
    for keys, one in _aut_keys():
        gens = generators(keys, _triple_product, one)[0]
        lost = max(set(keys) - set(gens) - {one})
        without = [k for k in keys if k != lost]
        walked, violation = generators(without, _triple_product, one)
        assert violation.startswith("product of ") and violation.endswith(" missing")
        # Every remaining member is still a product of the generators walked.
        assert set(without) < _closure(walked, one)
