"""Planted defects: each one must turn its check key to fail.

A check that reads pass whatever the code computes shows nothing, so each
test monkeypatches one plausible defect into the derivation a key guards and
asserts that the key reads fail on every report of the named loops.
"""

import dataclasses

import pytest

from loopforge import cyclic_loop, klein_four, n5_loop, sbs, verify_theorems

LOOPS = {"n5": n5_loop, "Z4": lambda: cyclic_loop(4), "V4": klein_four}


def _statuses(name: str, key: str) -> list[str]:
    return [rep.checks[key].status for rep in verify_theorems(LOOPS[name]()).reports]


@pytest.mark.parametrize("name", ["n5", "Z4", "V4"])
def test_t16_catches_a_hole_in_sbs(name, monkeypatch):
    real = sbs._omega_of

    def without_largest_w(aut, e, hset):
        out = real(aut, e, hset)
        top = max(el.autotopism.w.images for el in out)
        return [el for el in out if el.autotopism.w.images != top]

    monkeypatch.setattr(sbs, "_omega_of", without_largest_w)
    assert set(_statuses(name, "t16")) == {"fail"}


@pytest.mark.parametrize("name", ["n5", "Z4"])
def test_t8_catches_a_lost_isomorphism(name, monkeypatch):
    real = sbs.isomorphisms
    monkeypatch.setattr(sbs, "isomorphisms", lambda L1, L2, cap: real(L1, L2, cap=cap)[:-1])
    assert set(_statuses(name, "t8")) == {"fail"}


def test_t13_catches_swapped_isotopy_parameters(monkeypatch):
    real = sbs.transport_autotopisms

    def swapped(aut, record):
        return real(aut, dataclasses.replace(record, f=record.g, g=record.f))

    monkeypatch.setattr(sbs, "transport_autotopisms", swapped)
    assert _statuses("n5", "t13") == ["fail"]
