"""The validation boundary: public operations check their input once,
kernels trust it, and every produced tableau is checked once."""

from __future__ import annotations

import pytest

from ctrect import (
    Filling,
    InvalidTableauError,
    InvariantViolationError,
    bijection,
    ct_rectify,
    jeu_de_taquin,
    phi,
    phi_steps,
    rectify_k,
    rectify_k_steps,
    rho,
    rho_inv,
    run_property,
    violations,
)
from ctrect.polynomials import compositions, enumerate_ct

NOT_CT = Filling([[2, 1], [3, 2]])  # breaks the triple rule
NOT_RSSYT = Filling([[1, 2], [3]])  # increasing row, longer column below

INPUT_KIND = {
    "rho": "ct",
    "rho_inv": "rssyt",
    "rectify_k": "rssyt",
    "rectify_k_steps": "rssyt",
    "phi": "ct",
    "phi_steps": "ct",
}
CALLS = {
    "rho": lambda f, k: rho(f),
    "rho_inv": lambda f, k: rho_inv(f),
    "rectify_k": rectify_k,
    "rectify_k_steps": rectify_k_steps,
    "phi": phi,
    "phi_steps": phi_steps,
}
K_CALLS = ("rectify_k", "rectify_k_steps", "phi", "phi_steps")
VALID = {"ct": Filling([[1], [3, 2], [4]]), "rssyt": Filling([[4, 3], [2], [1]])}
INVALID = {"ct": NOT_CT, "rssyt": NOT_RSSYT}


@pytest.mark.parametrize("name", CALLS)
def test_invalid_input_raises_with_the_full_violation_list(name):
    kind = INPUT_KIND[name]
    bad = INVALID[kind]
    with pytest.raises(InvalidTableauError) as exc:
        CALLS[name](bad, 1)
    assert exc.value.kind == kind
    assert exc.value.violations == violations(kind, bad)


@pytest.mark.parametrize("name", K_CALLS)
@pytest.mark.parametrize("k", [0, -1, 4])
def test_k_out_of_range(name, k):
    with pytest.raises(ValueError, match=f"k must be in 1..3, got {k}"):
        CALLS[name](VALID[INPUT_KIND[name]], k)


@pytest.mark.parametrize("call", [rectify_k, rectify_k_steps, phi, phi_steps, ct_rectify.eviction])
def test_k_on_an_empty_tableau_names_the_empty_tableau(call):
    with pytest.raises(ValueError) as exc:
        call(Filling(()), 1)
    assert str(exc.value) == "k must be in 1..rows, but the tableau has no rows"


@pytest.mark.parametrize("call", [rectify_k, rectify_k_steps, phi, phi_steps, ct_rectify.eviction])
@pytest.mark.parametrize("k", [1.5, 2.0, True, "1"])
def test_a_k_that_is_not_an_int_is_refused(call, k):
    # A float, a bool or a string would otherwise reach the kernels (True as 1).
    tableau = VALID["ct"] if call in (phi, phi_steps) else VALID["rssyt"]
    with pytest.raises(ValueError) as exc:
        call(tableau, k)
    assert str(exc.value) == f"k must be an int, got {k!r}"


@pytest.mark.parametrize(
    "call, kind, message",
    [
        (lambda: rho(VALID["ct"]), "rssyt", "column sort did not produce a reverse SSYT: "),
        (lambda: rho_inv(VALID["rssyt"]), "ct", "insertion did not produce a composition tableau: "),
        (lambda: rectify_k(VALID["rssyt"], 1), "rssyt", "slides broke the tableau rules: "),
        (lambda: phi(VALID["ct"], 1), "ct", "phi did not produce a composition tableau: "),
    ],
)
def test_corrupted_kernel_output_is_caught(monkeypatch, call, kind, message):
    # Every kernel builds its output with the trusted constructor; reversing
    # the rows there breaks each output's column or first-column order.
    corrupted = []

    def reversed_rows(cls, rows):
        f = Filling([tuple(row) for row in rows][::-1])
        corrupted.append(f)
        return f

    monkeypatch.setattr(Filling, "_trusted", classmethod(reversed_rows))
    with pytest.raises(InvariantViolationError) as exc:
        call()
    (bad,) = corrupted
    assert exc.value.violations == violations(kind, bad)
    assert exc.value.violations
    assert str(exc.value) == message + str(exc.value.violations[0])


class _ReversedOutput(Filling):
    """Put in place of ``Filling`` in the kernel modules: each kernel output
    comes out with its rows reversed, and nothing else changes.  The
    enumerators build through ``Filling._trusted`` too, so patching that
    method itself would corrupt the enumerated inputs as well."""

    __slots__ = ()

    @classmethod
    def _trusted(cls, rows):
        return Filling(list(rows)[::-1])


def _corrupt_kernel_outputs(monkeypatch):
    for module in (bijection, ct_rectify, jeu_de_taquin):
        monkeypatch.setattr(module, "Filling", _ReversedOutput)


def test_verify_reports_corrupted_kernel_output(monkeypatch):
    # The harness calls the kernels directly; their output checks still run.
    _corrupt_kernel_outputs(monkeypatch)
    report = run_property("roundtrip", 3, 3)
    assert not report.ok
    assert all(ce.actual.startswith("error: ") for ce in report.counterexamples)
    assert any("did not produce" in ce.actual for ce in report.counterexamples)


# The first kernel output each property checks, by the message of its check.
FIRST_KERNEL_MESSAGE = {
    "commutativity": "column sort did not produce a reverse SSYT",
    "lemma41": "slides broke the tableau rules",
    "lemma42": "slides broke the tableau rules",
    "lemma43": "insertion did not produce a composition tableau",
    "dominance": "slides broke the tableau rules",
}


@pytest.mark.parametrize("name", FIRST_KERNEL_MESSAGE)
def test_every_kernel_property_reports_corrupted_kernel_output(monkeypatch, name):
    # The error becomes a counterexample instead of escaping run_property,
    # and the instances it prevents still count.  schur-identities calls no
    # kernel and is not run here.
    instances = run_property(name, 3, 3).instances
    _corrupt_kernel_outputs(monkeypatch)
    report = run_property(name, 3, 3)
    assert report.instances == instances
    assert not report.ok
    assert all(ce.actual.startswith("error: ") for ce in report.counterexamples)
    assert any(FIRST_KERNEL_MESSAGE[name] in ce.actual for ce in report.counterexamples)


def test_phi_equals_the_last_phi_step():
    for m in range(1, 5):
        for shape in compositions(m):
            for u in enumerate_ct(shape, 4):
                for k in range(1, u.n_rows + 1):
                    label, last = phi_steps(u, k)[-1]
                    assert label == "result"
                    assert phi(u, k) == last, (u, k)
