"""Standing mutation test: each listed fault, planted in a kernel, is caught
by the ``verify`` properties named for it at 4/4.

A mutant is the kernel's source with one snippet replaced, compiled into a
copy of its module's namespace and patched into every ctrect module that
holds the kernel.  The properties run with ``jobs=1``, so the patch reaches
the checks.  No entry may be removed to make this test pass; a mutant that
no property catches goes in ``EQUIVALENT`` with the reason it is thought to
change no output.
"""

from __future__ import annotations

import inspect
import sys
import textwrap

import pytest

from ctrect import bijection, ct_rectify, jeu_de_taquin, run_property
from ctrect.verify import PROPERTY_NAMES

BOUNDS = (4, 4)
TABLEAU_PROPERTIES = tuple(name for name in PROPERTY_NAMES if name != "schur-identities")

# (module, kernel, snippet, replacement, the properties that catch it)
CAUGHT = [
    (
        jeu_de_taquin, "_slide_out", "if below >= right:", "if below > right:",
        {"commutativity", "lemma41", "lemma42", "dominance"},
    ),
    (ct_rectify, "_eviction", "if e <= s:", "if e < s:", {"lemma42", "lemma43"}),
    (
        bijection, "_rho_inv", "row[-1] >= e", "row[-1] > e",
        {"roundtrip", "commutativity", "lemma43"},
    ),
    (jeu_de_taquin, "_dominant_path", "if v > (", "if v >= (", {"dominance"}),
    (ct_rectify, "_phi", "grid.sort(key=itemgetter(0))", "pass", {"commutativity"}),
]

# (module, kernel, snippet, replacement, why no property catches it)
EQUIVALENT = [
    (
        ct_rectify, "_insert", "if cur < e:", "if cur <= e:",
        "a composition tableau's columns hold distinct entries, so cur == e never occurs",
    ),
]


def _plant(monkeypatch, module, kernel: str, snippet: str, replacement: str) -> None:
    original = getattr(module, kernel)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(snippet) == 1, f"{kernel}: {snippet!r} must occur once"
    namespace = dict(vars(module))
    exec(compile(source.replace(snippet, replacement), f"<mutant of {kernel}>", "exec"), namespace)
    mutant = namespace[kernel]
    for name, mod in list(sys.modules.items()):
        if (name == "ctrect" or name.startswith("ctrect.")) and vars(mod).get(kernel) is original:
            monkeypatch.setattr(mod, kernel, mutant)


def _caught_by() -> set[str]:
    return {name for name in TABLEAU_PROPERTIES if not run_property(name, *BOUNDS, jobs=1).ok}


@pytest.mark.parametrize(
    "module, kernel, snippet, replacement, catchers",
    CAUGHT,
    ids=[f"{kernel}:{snippet}" for _, kernel, snippet, _, _ in CAUGHT],
)
def test_mutant_is_caught(monkeypatch, module, kernel, snippet, replacement, catchers):
    _plant(monkeypatch, module, kernel, snippet, replacement)
    assert catchers <= _caught_by()


@pytest.mark.parametrize(
    "module, kernel, snippet, replacement, reason",
    EQUIVALENT,
    ids=[f"{kernel}:{snippet}" for _, kernel, snippet, _, _ in EQUIVALENT],
)
def test_likely_equivalent_mutant_is_caught_by_none(monkeypatch, module, kernel, snippet, replacement, reason):
    _plant(monkeypatch, module, kernel, snippet, replacement)
    assert _caught_by() == set(), reason


def test_unmutated_kernels_pass():
    assert _caught_by() == set()
