"""Acceptance suite: one criterion per test, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every criterion recomputes what it needs from the exhaustive
catalogs of orders 2 through 5 (and a sampled slice of order 6), so a pass
here means the whole chain from generation to verification held up.
"""

import time

import pytest

from loopforge import (
    autotopism_group,
    bs_group,
    compose,
    cyclic_loop,
    format_table,
    generate_loops,
    ker_phi,
    middle_nucleus,
    omega,
    parse_table,
    principal_isotope,
    s_isomorphisms,
    s_loop_context,
    s_subgroups,
    sa_group,
    sbs_group,
    smarandache_principal_isotope,
    ssym,
    theta_set,
    verify_theorems,
    write_catalog,
)
from loopforge.perm import compose_images

from oracles import count_reduced_squares_colmajor


def _report(k: int, label: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {k} {label}: {status}")
    assert not failures, f"criterion {k}: {failures[:5]}"


@pytest.fixture(scope="module")
def corpus():
    """Every loop of order 2..5 paired with each of its proper subgroups."""
    loops = []
    contexts = []
    for n in (2, 3, 4, 5):
        for entry in generate_loops(n):
            loops.append(entry.loop)
            for h in s_subgroups(entry.loop):
                contexts.append(s_loop_context(entry.loop, h.elements))
    assert len(contexts) == 38
    return loops, contexts


def test_criterion_1_witness_route_equals_isotope_route(corpus):
    _, contexts = corpus
    failures = []
    started = time.perf_counter()
    for ctx in contexts:
        sbs_set = {p.images for p in sbs_group(ctx)}
        via_isotopes = set()
        for f in ctx.h.elements:
            for g in ctx.h.elements:
                ictx = smarandache_principal_isotope(ctx, f, g)
                for a in s_isomorphisms(ctx, ictx):
                    via_isotopes.add(a.images)
        if via_isotopes != sbs_set:
            failures.append((ctx.loop.table, ctx.h.elements))
        via_aut = {a.w.images for a in autotopism_group(ctx.loop)}
        if {p.images for p in bs_group(ctx.loop)} != via_aut:
            failures.append(("BS projection", ctx.loop.table))
    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        failures.append(f"took {elapsed:.1f}s, budget 60s")
    _report(1, "special-map witnesses match isotope isomorphisms", failures)


def test_criterion_2_subgroup_relations(corpus):
    _, contexts = corpus
    failures = []
    for ctx in contexts:
        sbs_set = {p.images for p in sbs_group(ctx)}
        bs_set = {p.images for p in bs_group(ctx.loop)}
        ssym_set = {p.images for p in ssym(ctx)}
        aum_set = frozenset(
            a.w.images for a in autotopism_group(ctx.loop) if a.u == a.v == a.w
        )
        sa_set = {p.images for p in sa_group(ctx)}
        if not sbs_set <= bs_set:
            failures.append(("SBS outside BS", ctx.h.elements, ctx.loop.table))
        if not sbs_set <= ssym_set:
            failures.append(("SBS outside SSYM", ctx.h.elements, ctx.loop.table))
        if sa_set != (sbs_set & aum_set):
            failures.append(("SA is not SBS meet AUM", ctx.h.elements, ctx.loop.table))

        triples = {a.key() for a in omega(ctx)}
        aut_keys = {a.key() for a in autotopism_group(ctx.loop)}
        if not triples <= aut_keys:
            failures.append(("omega outside AUT", ctx.h.elements))
        n = ctx.loop.n
        ide = tuple(range(n))
        if (ide, ide, ide) not in triples:
            failures.append(("identity triple missing", ctx.h.elements))
        for u1, v1, w1 in triples:
            inv = (
                tuple(sorted(range(n), key=u1.__getitem__)),
                tuple(sorted(range(n), key=v1.__getitem__)),
                tuple(sorted(range(n), key=w1.__getitem__)),
            )
            if inv not in triples:
                failures.append(("omega inverse missing", ctx.h.elements))
            for u2, v2, w2 in triples:
                prod = (
                    tuple(u2[x] for x in u1),
                    tuple(v2[x] for x in v1),
                    tuple(w2[x] for x in w1),
                )
                if prod not in triples:
                    failures.append(("omega product missing", ctx.h.elements))
    _report(2, "containments SBS<=BS, SBS<=SSYM, SA=SBS^AUM, omega<=AUT", failures)


def test_criterion_3_sbs_isotopy_invariance(corpus):
    _, contexts = corpus
    failures = []
    for ctx in contexts:
        base = {p.images for p in sbs_group(ctx)}
        for f in ctx.h.elements:
            for g in ctx.h.elements:
                ictx = smarandache_principal_isotope(ctx, f, g)
                if {p.images for p in sbs_group(ictx)} != base:
                    failures.append((ctx.loop.table, ctx.h.elements, f, g))

    sampled = 0
    for entry in generate_loops(6, require_s_subgroup=True, limit=110):
        for h in s_subgroups(entry.loop):
            ctx = s_loop_context(entry.loop, h.elements)
            base = {p.images for p in sbs_group(ctx)}
            for f in ctx.h.elements:
                for g in ctx.h.elements:
                    ictx = smarandache_principal_isotope(ctx, f, g)
                    if {p.images for p in sbs_group(ictx)} != base:
                        failures.append((entry.entry_id, h.elements, f, g))
        sampled += 1
    if sampled < 100:
        failures.append(f"order-6 sample too small: {sampled}")
    _report(3, "SBS invariant under subgroup-parameter isotopy", failures)


def test_criterion_4_counting_identities_and_projection(corpus):
    _, contexts = corpus
    failures = []
    for ctx in contexts:
        om = omega(ctx)
        sizes = (
            len(om),
            len(sbs_group(ctx)) * len(ker_phi(ctx)),
            len(theta_set(ctx)) * len(sa_group(ctx)),
        )
        if len(set(sizes)) != 1:
            failures.append(("sizes differ", sizes, ctx.h.elements, ctx.loop.table))
        sbs_set = {p.images for p in sbs_group(ctx)}
        keys = {a.key() for a in om}
        for a in om:
            if a.w.images not in sbs_set:
                failures.append(("projection escapes SBS", ctx.h.elements))
            for b in om:
                # The product in omega is componentwise on the key triples.
                product = tuple(map(compose_images, a.key(), b.key()))
                if product not in keys or product[2] != compose(a.w, b.w).images:
                    failures.append(("projection not multiplicative", ctx.h.elements))
    _report(4, "|omega| = |SBS|*|ker| = |theta|*|SA| via a homomorphism", failures)


def test_criterion_5_pinned_cyclic_example(corpus):
    _, contexts = corpus
    failures = []
    rep = verify_theorems(cyclic_loop(4)).reports[0]
    pinned = {
        "bs": 8, "sbs": 4, "ssym": 4, "sa": 2, "omega": 8,
        "theta": 4, "n_mu": 4, "n_mu_cap_h": 2, "ker_phi": 2,
    }
    for field, expected in pinned.items():
        actual = getattr(rep, field)
        if actual != expected:
            failures.append((field, actual, expected))
    detail = rep.checks["t18"].detail
    if "literal_reading=fail" not in detail or "intersect_reading=pass" not in detail:
        failures.append(("t18 readings not recorded", detail))
    if rep.checks["t18"].status != "pass":
        failures.append(("t18 status", rep.checks["t18"].status))

    for ctx in contexts:
        nucleus = set(middle_nucleus(ctx.loop).elements)
        expected = len(nucleus & set(ctx.h.elements))
        if len(ker_phi(ctx)) != expected:
            failures.append(("kernel size", ctx.loop.table, ctx.h.elements))
    _report(5, "kernel counts pin to the in-subgroup middle nucleus", failures)


def test_criterion_6_index_identity_across_catalog(corpus):
    loops, _ = corpus
    failures = []
    for L in loops:
        if not s_subgroups(L):
            continue
        ver = verify_theorems(L)
        for rep in ver.reports:
            if rep.checks["t14"].status != "pass":
                failures.append((L.table, rep.subgroup, rep.checks["t14"].detail))
        agg = ver.aggregate.checks["t14"]
        if agg.status != "pass":
            failures.append((L.table, "aggregate", agg.detail))
    _report(6, "|BS| factors through every |SBS| exactly", failures)


def test_criterion_7_exhaustive_generation_counts():
    failures = []
    started = time.perf_counter()
    expected = {2: 1, 3: 1, 4: 4, 5: 56, 6: 9408}
    for n, want in expected.items():
        got = sum(1 for _ in generate_loops(n, allow_order_six=True))
        if got != want:
            failures.append((n, got, want))
        recount = count_reduced_squares_colmajor(n)
        if recount != want:
            failures.append((n, "recount", recount, want))
    elapsed = time.perf_counter() - started
    if elapsed >= 600:
        failures.append(f"took {elapsed:.1f}s, budget 600s")
    _report(7, "catalog counts 1, 1, 4, 56, 9408 with independent recount", failures)


def test_criterion_8_exact_round_trips(corpus, tmp_path):
    loops, contexts = corpus
    failures = []
    for ctx in contexts:
        for f in ctx.h.elements:
            for g in ctx.h.elements:
                forward = smarandache_principal_isotope(ctx, f, g).loop
                if principal_isotope(forward, g, f).table != ctx.loop.table:
                    failures.append(("isotope round trip", ctx.loop.table, f, g))

    for L in loops:
        text = format_table(L)
        if parse_table(text).table != L.table:
            failures.append(("text round trip", L.table))
        if format_table(parse_table(text)) != text:
            failures.append(("format not idempotent", L.table))

    write_catalog(generate_loops(5), tmp_path)
    from loopforge import iter_catalog, read_table

    for (entry_id, path), entry in zip(iter_catalog(tmp_path), generate_loops(5)):
        data = path.read_bytes()
        if data != format_table(entry.loop).encode("ascii"):
            failures.append(("catalog bytes", entry_id))
        if read_table(path).table != entry.loop.table:
            failures.append(("catalog reread", entry_id))
    _report(8, "isotope, text, and file round trips are exact", failures)
