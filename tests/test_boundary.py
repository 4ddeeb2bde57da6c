"""The validation boundary: public operations check their input once,
kernels trust it, and every produced tableau is checked once."""

from __future__ import annotations

import pickle

import pytest

from ctrect import (
    Filling,
    InvalidTableauError,
    InvariantViolationError,
    bijection,
    ct_rectify,
    is_diagonally_dominant,
    jeu_de_taquin,
    phi,
    phi_steps,
    rectify_k,
    rectify_k_steps,
    replay,
    rho,
    rho_inv,
    run_property,
    violations,
)
from ctrect.polynomials import (
    Polynomial,
    _ct_fillings,
    _rssyt_fillings,
    compositions,
    enumerate_ct,
    monomial_qsym_expand,
    monomial_sym_expand,
    partitions,
    schur_expand,
    weight_monomial,
)

NOT_CT = Filling([[2, 1], [3, 2]])  # breaks the triple rule
NOT_RSSYT = Filling([[1, 2], [3]])  # increasing row, longer column below

INPUT_KIND = {
    "rho": "ct",
    "rho_inv": "rssyt",
    "rectify_k": "rssyt",
    "rectify_k_steps": "rssyt",
    "phi": "ct",
    "phi_steps": "ct",
    "replay": "rssyt",
}
CALLS = {
    "rho": lambda f, k: rho(f),
    "rho_inv": lambda f, k: rho_inv(f),
    "rectify_k": rectify_k,
    "rectify_k_steps": rectify_k_steps,
    "phi": phi,
    "phi_steps": phi_steps,
    "replay": lambda f, k: replay(f),
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


def _rule(call, message, name):
    return pytest.param(call, message, id=name)


# Every call site of the argument rule (``tableaux._check_int`` and
# ``_check_shape``), given a bool, a float and a value below its bound.
ARGUMENT_RULE = [
    _rule(lambda: rectify_k(VALID["rssyt"], True), "k must be an int, got True", "k-bool"),
    _rule(lambda: phi(VALID["ct"], 1.0), "k must be an int, got 1.0", "k-float"),
    _rule(lambda: rectify_k(VALID["rssyt"], 0), "k must be in 1..3, got 0", "k-below"),
    _rule(lambda: Polynomial(True, {}), "nvars must be an int, got True", "Polynomial-nvars-bool"),
    _rule(lambda: Polynomial(1.0, {}), "nvars must be an int, got 1.0", "Polynomial-nvars-float"),
    _rule(lambda: Polynomial(-1, {}), "nvars must be at least 0, got -1", "Polynomial-nvars-below"),
    _rule(lambda: Polynomial(1, {(1,): True}), "a coefficient must be an int, got True", "coefficient-bool"),
    _rule(lambda: Polynomial(1, {(1,): 0.5}), "a coefficient must be an int, got 0.5", "coefficient-float"),
    _rule(lambda: partitions(True), "n must be an int, got True", "partitions-bool"),
    _rule(lambda: partitions(2.0), "n must be an int, got 2.0", "partitions-float"),
    _rule(lambda: partitions(-1), "n must be at least 0, got -1", "partitions-below"),
    _rule(lambda: compositions(True), "n must be an int, got True", "compositions-bool"),
    _rule(lambda: compositions(2.0), "n must be an int, got 2.0", "compositions-float"),
    _rule(lambda: compositions(-1), "n must be at least 0, got -1", "compositions-below"),
    _rule(lambda: _rssyt_fillings((1,), True), "max_entry must be an int, got True", "rssyt-max_entry-bool"),
    _rule(lambda: _rssyt_fillings((1,), 2.0), "max_entry must be an int, got 2.0", "rssyt-max_entry-float"),
    _rule(lambda: _rssyt_fillings((1,), 0), "max_entry must be at least 1, got 0", "rssyt-max_entry-below"),
    _rule(
        lambda: _rssyt_fillings((1, True), 2),
        "a part of (1, True) must be an int, got True",
        "rssyt-part-bool",
    ),
    _rule(
        lambda: _rssyt_fillings((1, 1.0), 2),
        "a part of (1, 1.0) must be an int, got 1.0",
        "rssyt-part-float",
    ),
    _rule(lambda: _rssyt_fillings((1, 0), 2), "(1, 0) is not a partition shape", "rssyt-part-below"),
    _rule(lambda: _rssyt_fillings((1, 2), 2), "(1, 2) is not a partition shape", "rssyt-part-increase"),
    _rule(lambda: _ct_fillings((1,), True), "max_entry must be an int, got True", "ct-max_entry-bool"),
    _rule(lambda: _ct_fillings((1,), 2.0), "max_entry must be an int, got 2.0", "ct-max_entry-float"),
    _rule(lambda: _ct_fillings((1,), 0), "max_entry must be at least 1, got 0", "ct-max_entry-below"),
    _rule(lambda: _ct_fillings((1, True), 2), "a part of (1, True) must be an int, got True", "ct-part-bool"),
    _rule(lambda: _ct_fillings((1.0,), 2), "a part of (1.0,) must be an int, got 1.0", "ct-part-float"),
    _rule(lambda: _ct_fillings((0, 1), 2), "(0, 1) is not a composition shape", "ct-part-below"),
    _rule(lambda: weight_monomial(Filling([[1]]), True), "nvars must be an int, got True", "weight-nvars-bool"),
    _rule(lambda: weight_monomial(Filling([[1]]), 1.0), "nvars must be an int, got 1.0", "weight-nvars-float"),
    _rule(lambda: weight_monomial(Filling([[1]]), -1), "nvars must be at least 0, got -1", "weight-nvars-below"),
    _rule(lambda: schur_expand((1,), True), "nvars must be an int, got True", "schur-nvars-bool"),
    _rule(lambda: schur_expand((1,), 2.0), "nvars must be an int, got 2.0", "schur-nvars-float"),
    _rule(lambda: schur_expand((1,), 0), "nvars must be at least 1, got 0", "schur-nvars-below"),
    _rule(lambda: schur_expand((2, 1.0), 2), "a part of (2, 1.0) must be an int, got 1.0", "schur-part-float"),
    _rule(lambda: schur_expand((1, 2), 2), "(1, 2) is not a partition shape", "schur-part-increase"),
    _rule(lambda: monomial_sym_expand((1,), True), "nvars must be an int, got True", "msym-nvars-bool"),
    _rule(lambda: monomial_sym_expand((1,), 2.0), "nvars must be an int, got 2.0", "msym-nvars-float"),
    _rule(lambda: monomial_sym_expand((1,), 0), "nvars must be at least 1, got 0", "msym-nvars-below"),
    _rule(
        lambda: monomial_sym_expand((2, True), 2),
        "a part of (2, True) must be an int, got True",
        "msym-part-bool",
    ),
    _rule(
        lambda: monomial_sym_expand((2, 1.0), 2),
        "a part of (2, 1.0) must be an int, got 1.0",
        "msym-part-float",
    ),
    _rule(lambda: monomial_sym_expand((2, 0), 2), "(2, 0) is not a partition shape", "msym-part-below"),
    _rule(lambda: monomial_qsym_expand((1,), True), "nvars must be an int, got True", "mqsym-nvars-bool"),
    _rule(lambda: monomial_qsym_expand((1,), 2.0), "nvars must be an int, got 2.0", "mqsym-nvars-float"),
    _rule(lambda: monomial_qsym_expand((1,), 0), "nvars must be at least 1, got 0", "mqsym-nvars-below"),
    _rule(
        lambda: monomial_qsym_expand((1, True), 3),
        "a part of (1, True) must be an int, got True",
        "mqsym-part-bool",
    ),
    _rule(
        lambda: monomial_qsym_expand((1, 1.5), 3),
        "a part of (1, 1.5) must be an int, got 1.5",
        "mqsym-part-float",
    ),
    _rule(lambda: monomial_qsym_expand((1, 0), 3), "(1, 0) is not a composition shape", "mqsym-part-below"),
    _rule(lambda: run_property("roundtrip", True, 2), "max_cells must be an int, got True", "max_cells-bool"),
    _rule(lambda: run_property("roundtrip", 2.0, 2), "max_cells must be an int, got 2.0", "max_cells-float"),
    _rule(lambda: run_property("roundtrip", 0, 2), "max_cells must be at least 1, got 0", "max_cells-below"),
    _rule(lambda: run_property("roundtrip", 2, True), "max_entry must be an int, got True", "max_entry-bool"),
    _rule(lambda: run_property("roundtrip", 2, 2.0), "max_entry must be an int, got 2.0", "max_entry-float"),
    _rule(lambda: run_property("roundtrip", 2, 0), "max_entry must be at least 1, got 0", "max_entry-below"),
    _rule(
        lambda: run_property("lemma41", 2, 2, k_range=(True, 2)),
        "a k_range end must be an int, got True",
        "k_range-bool",
    ),
    _rule(
        lambda: run_property("lemma41", 2, 2, k_range=(1, 2.0)),
        "a k_range end must be an int, got 2.0",
        "k_range-float",
    ),
    _rule(
        lambda: run_property("lemma41", 2, 2, k_range=(0, 2)),
        "bad k_range 0..2: expected A..B with 1 <= A <= B",
        "k_range-below",
    ),
    _rule(lambda: run_property("lemma41", 2, 2, k_range=()), "k_range must be None or two ints, got ()", "k_range-empty"),
    _rule(lambda: run_property("lemma41", 2, 2, k_range=(1,)), "k_range must be None or two ints, got (1,)", "k_range-one"),
    _rule(
        lambda: run_property("lemma41", 2, 2, k_range=(1, 2, 3)),
        "k_range must be None or two ints, got (1, 2, 3)",
        "k_range-three",
    ),
    _rule(lambda: run_property("lemma41", 2, 2, k_range=5), "k_range must be None or two ints, got 5", "k_range-int"),
    _rule(lambda: run_property("roundtrip", 2, 2, jobs=True), "jobs must be an int, got True", "jobs-bool"),
    _rule(lambda: run_property("roundtrip", 2, 2, jobs=2.0), "jobs must be an int, got 2.0", "jobs-float"),
    _rule(lambda: run_property("roundtrip", 2, 2, jobs=0), "jobs must be at least 1, got 0", "jobs-below"),
    _rule(lambda: is_diagonally_dominant(VALID["rssyt"], True, 2), "row must be an int, got True", "row-bool"),
    _rule(lambda: is_diagonally_dominant(VALID["rssyt"], 1.0, 2), "row must be an int, got 1.0", "row-float"),
    _rule(lambda: is_diagonally_dominant(VALID["rssyt"], 0, 2), "(0,2) is not a filled cell", "row-below"),
    _rule(lambda: is_diagonally_dominant(VALID["rssyt"], 1, True), "col must be an int, got True", "col-bool"),
    _rule(lambda: is_diagonally_dominant(VALID["rssyt"], 1, 2.0), "col must be an int, got 2.0", "col-float"),
    _rule(
        lambda: is_diagonally_dominant(VALID["rssyt"], 1, 1),
        "diagonal dominance is defined for columns >= 2",
        "col-below",
    ),
]


@pytest.mark.parametrize("call, message", ARGUMENT_RULE)
def test_the_argument_rule_at_every_call_site(call, message):
    # An int and not a bool, at least the site's bound: a bool is not read
    # as 0 or 1, and a float never reaches a range or an index.
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_the_bounds_themselves_are_allowed():
    assert partitions(0) == compositions(0) == [()]
    assert Polynomial(0, {(): 3}).terms == {(): 3}
    assert schur_expand((1,), 1) == Polynomial(1, {(1,): 1})
    assert is_diagonally_dominant(Filling([[3, 2], [1]]), 1, 2) is True


def test_a_k_range_list_runs_as_its_tuple():
    assert run_property("lemma41", 2, 2, k_range=[1, 2]).render() == run_property("lemma41", 2, 2, k_range=(1, 2)).render()


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
    report = run_property("roundtrip", 3, 3, jobs=1)
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
    report = run_property(name, 3, 3, jobs=1)
    assert report.instances == instances
    assert not report.ok
    assert all(ce.actual.startswith("error: ") for ce in report.counterexamples)
    assert any(FIRST_KERNEL_MESSAGE[name] in ce.actual for ce in report.counterexamples)


@pytest.mark.parametrize(
    "error",
    [
        InvalidTableauError("ct", violations("ct", NOT_CT)),
        InvariantViolationError("slides broke the tableau rules: x", violations("rssyt", NOT_RSSYT)),
        InvariantViolationError("no admissible cell"),
    ],
    ids=["invalid", "invariant", "invariant-bare"],
)
def test_errors_survive_pickling(error):
    # A worker process sends its error to the caller pickled.
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert back.violations == error.violations
    assert getattr(back, "kind", None) == getattr(error, "kind", None)


def test_phi_equals_the_last_phi_step():
    for m in range(1, 5):
        for shape in compositions(m):
            for u in enumerate_ct(shape, 4):
                for k in range(1, u.n_rows + 1):
                    label, last = phi_steps(u, k)[-1]
                    assert label == "result"
                    assert phi(u, k) == last, (u, k)
