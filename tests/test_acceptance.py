"""Acceptance suite: every criterion at its stated tolerance.

Each criterion test prints one ``ACCEPTANCE <n> PASS/FAIL`` line (run pytest
with -s to see them on a green run).  The exhaustive suites (7-10) cover
every valid instance with at most 7 cells and entries at most 7, all k; a
``schur-identities`` sweep at the same bounds pins its report too.
"""

from __future__ import annotations

import hashlib
import time

from ctrect import (
    eviction,
    evacuate,
    monomial_qsym_expand,
    monomial_sym_expand,
    phi,
    rectify_k,
    rho,
    rho_inv,
    run_property,
    schur_expand,
    shifting_entries,
)

from conftest import load

MAX_CELLS = 7
MAX_ENTRY = 7
FIXTURE_TIME_LIMIT = 0.001  # seconds, per criterion statement
SWEEP_TIME_LIMIT = 300.0
# sha256 of each sweep's VerifyReport.render(), as recorded in BENCH_12.json:
# the report bytes, not only the verdict, stay fixed.
RENDER_SHA256 = {
    "roundtrip": "9e32b8e79f25ec4aed28bb51c492fc6a0264fa853062101168d6033d77fa6834",
    "commutativity": "e0b8bd3fe0634a859c5be45d91eb75088f696c7977b96832521ecc85fc860c1f",
    "lemma41": "9c55bd935484fe8a0ccb8afc9ca840d644b6a4b9773a2464a7612d96436a0d20",
    "lemma42": "c189cfe439ff0f15aa610f5154f217e671ce652ed16270979772f8b5e0508aed",
    "lemma43": "7f09b66f98340c679ada7845936f76a024f2c0b9fc150a55d02348ac75b1e389",
    "dominance": "b1ae4d8c52ac4fd5f8ded04cf134ea31038d814e93fc5028719bb5ea6f4c3e0b",
    "schur-identities": "15c0f79b3a4cc263cf535884bed57db6c65dc858824d17c851ecc5e9fb0a19b9",
}


def _report(n: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {n} {status}: {description}{suffix}")
    assert ok, f"criterion {n} failed: {description}{suffix}"


def _assert_render_pinned(*reports) -> None:
    got = {r.name: hashlib.sha256(r.render().encode()).hexdigest() for r in reports}
    assert got == {name: RENDER_SHA256[name] for name in got}


def _best_time(fn, repeats: int = 5):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_criterion_1_bijection_fixture(ct_u, rssyt_t):
    forward, t_fwd = _best_time(lambda: rho(ct_u))
    backward, t_bwd = _best_time(lambda: rho_inv(rssyt_t))
    ok = forward == rssyt_t and backward == ct_u
    timing_ok = t_fwd < FIXTURE_TIME_LIMIT and t_bwd < FIXTURE_TIME_LIMIT
    _report(
        1,
        "column-sort bijection maps the worked pair both ways, exactly",
        ok and timing_ok,
        f"rho {t_fwd * 1e6:.0f}us, rho_inv {t_bwd * 1e6:.0f}us",
    )


def test_criterion_2_rectification_fixture(rssyt_t):
    (result, (trace,)), elapsed = _best_time(lambda: rectify_k(rssyt_t, 1))
    ok = (
        result == load("rssyt_t_rectified.txt")
        and shifting_entries([trace]) == {2: [7], 3: [3]}
        and elapsed < FIXTURE_TIME_LIMIT
    )
    _report(2, "single rectification round matches the worked figure", ok,
            f"{elapsed * 1e6:.0f}us")


def test_criterion_3_phi_fixtures():
    u1 = load("ct_phi1_input.txt")
    out1, t1 = _best_time(lambda: phi(u1, 1))
    u3 = load("ct_phi3_input.txt")
    out3, t3 = _best_time(lambda: phi(u3, 3))
    ok = (
        out1 == load("ct_phi1_expected.txt")
        and out3 == load("ct_phi3_expected.txt")
        and t1 < FIXTURE_TIME_LIMIT
        and t3 < FIXTURE_TIME_LIMIT
    )
    _report(3, "direct rectification reproduces both worked figures", ok,
            f"k=1 {t1 * 1e6:.0f}us, k=3 {t3 * 1e6:.0f}us")


def test_criterion_4_eviction_fixture():
    report = eviction(load("rssyt_eviction.txt"), 3)
    _report(4, "eviction finds shifting entries {2: [8,4], 3: [6]}",
            report == {2: [8, 4], 3: [6]})


def test_criterion_5_evacuation_fixture():
    result = evacuate(load("rssyt_evac_input.txt"))
    _report(5, "evacuation reproduces the worked example",
            result == load("rssyt_evac_expected.txt"))


def test_criterion_6_polynomial_identities():
    s21 = schur_expand((2, 1), 3)
    m21 = monomial_sym_expand((2, 1), 3)
    m111 = monomial_sym_expand((1, 1, 1), 3)
    q21 = monomial_qsym_expand((2, 1), 3)
    q12 = monomial_qsym_expand((1, 2), 3)
    q111 = monomial_qsym_expand((1, 1, 1), 3)
    ok = (
        sum(s21.terms.values()) == 8
        and s21 == q21 + q12 + 2 * q111
        and s21 == m21 + 2 * m111
        and m21 == q21 + q12
    )
    _report(6, "expansion identities hold with exact integer equality", ok)


def test_criterion_7_commutativity_sweep():
    report = run_property("commutativity", MAX_CELLS, MAX_ENTRY)
    ok = report.ok and report.seconds < SWEEP_TIME_LIMIT
    _report(
        7,
        "direct rectification commutes with the reverse-SSYT pipeline "
        f"for every tableau with <= {MAX_CELLS} cells, entries <= {MAX_ENTRY}, every k",
        ok,
        f"{report.instances} instances, {len(report.counterexamples)} counterexamples, "
        f"{report.seconds:.1f}s",
    )
    _assert_render_pinned(report)


def test_criterion_8_lemma_suites():
    reports = {
        name: run_property(name, MAX_CELLS, MAX_ENTRY)
        for name in ("lemma41", "lemma42", "lemma43")
    }
    detail = ", ".join(
        f"{name}: {r.instances} instances, {len(r.counterexamples)} counterexamples"
        for name, r in reports.items()
    )
    _report(
        8,
        "shift ordering, eviction agreement, and row localization hold "
        "on every instance",
        all(r.ok for r in reports.values()),
        detail,
    )
    _assert_render_pinned(*reports.values())


def test_criterion_9_roundtrip_sweep():
    report = run_property("roundtrip", MAX_CELLS, MAX_ENTRY)
    _report(
        9,
        "the bijection and its inverse undo each other on every instance",
        report.ok,
        f"{report.instances} instances, {len(report.counterexamples)} counterexamples",
    )
    _assert_render_pinned(report)


def test_criterion_10_dominance_sweep():
    report = run_property("dominance", MAX_CELLS, MAX_ENTRY)
    _report(
        10,
        "left shifts are diagonally dominant and the southeast path "
        "matches the slide trace on every instance",
        report.ok,
        f"{report.instances} instances, {len(report.counterexamples)} counterexamples",
    )
    _assert_render_pinned(report)


def test_schur_identities_sweep():
    report = run_property("schur-identities", MAX_CELLS, MAX_ENTRY)
    assert report.ok, report.render()
    _assert_render_pinned(report)
