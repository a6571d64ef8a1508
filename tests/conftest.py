import itertools
import os
from pathlib import Path

import pytest

import loopforge
from loopforge import catalog, cyclic_loop, n5_loop, s_loop_context, validate_table


def klein_four():
    """The Klein four-group Z2 x Z2 on 0..3."""
    return validate_table([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])


@pytest.fixture
def z3():
    return cyclic_loop(3)


@pytest.fixture
def z4():
    return cyclic_loop(4)


@pytest.fixture
def z5():
    return cyclic_loop(5)


@pytest.fixture
def klein():
    return klein_four()


@pytest.fixture
def n5():
    return n5_loop()


@pytest.fixture
def z2_cubed():
    return validate_table([[x ^ y for y in range(8)] for x in range(8)])


@pytest.fixture
def z2_z4():
    """Z2 x Z4 on 0..7, as (a, b) -> 4a + b."""
    return validate_table([[(x ^ y) & 4 | (x + y) & 3 for y in range(8)] for x in range(8)])


@pytest.fixture
def m_s3():
    """Chein's Moufang loop M(S3, 2) of order 12: G u Gu with
    g(hu) = (hg)u, (gu)h = (gh^-1)u and (gu)(hu) = h^-1 g."""
    group = list(itertools.permutations(range(3)))
    index = {g: i for i, g in enumerate(group)}

    def mul(g, h):
        return index[tuple(g[x] for x in h)]

    def inv(g):
        return tuple(sorted(range(3), key=g.__getitem__))

    def product(x, y):
        g, h = group[x % 6], group[y % 6]
        if x < 6:
            return mul(g, h) if y < 6 else 6 + mul(h, g)
        return 6 + mul(g, inv(h)) if y < 6 else mul(inv(h), g)

    return validate_table([[product(x, y) for y in range(12)] for x in range(12)])


@pytest.fixture
def z4_ctx(z4):
    return s_loop_context(z4, [0, 2])


@pytest.fixture
def n5_ctx(n5):
    return s_loop_context(n5, [0, 1])


@pytest.fixture
def loop_3x3_shifted():
    # identity element is 2, not 0
    return validate_table([[1, 2, 0], [2, 0, 1], [0, 1, 2]])


@pytest.fixture
def package_env():
    """Environment for a child interpreter that imports this loopforge."""
    src = Path(loopforge.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": str(src)}


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stands in for fan_out's forking branch, so its tasks run in this
    process; the list returned gets each forking call's worker count."""
    sizes = []

    def recording(fn, tasks, workers):
        sizes.append(workers)
        return map(fn, tasks)

    monkeypatch.setattr(catalog, "_forked", recording)
    return sizes


def has_children() -> bool:
    """Whether this process has a child not yet reaped; reaps none."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True
