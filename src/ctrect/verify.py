"""Exhaustive small-instance verification of the tableau machinery.

Each property enumerates every valid instance within the given bounds
(total cells, largest entry, and optionally a k range) and re-checks one
contract:

* ``roundtrip``      - the column-sort bijection and its inverse undo each
  other on every composition tableau and every reverse SSYT;
* ``commutativity``  - direct rectification equals map, rectify k cells,
  map back, for every composition tableau and every k;
* ``lemma41``        - per column, the round-ordered shifting entries are
  strictly decreasing;
* ``lemma42``        - eviction finds exactly the trace-derived shifting
  entries, column by column, as multisets;
* ``lemma43``        - eviction's shifting entries sit in the rectified
  rows of the composition tableau, column by column, as multisets;
* ``dominance``      - every left shift is diagonally dominant at its
  source and the declarative southeast path matches the slide trace;
* ``schur-identities`` - the fixed 3-variable expansion identities, plus
  weight-generating-function agreement between composition tableaux and
  reverse SSYT for every shape in bounds.

``lemma42`` and ``lemma43`` sort a column's entries only when the lists as
returned differ: equal lists sort equal, so the verdict and the report are
those of comparing sorted lists throughout.

Instance order is fixed (shapes by total cells then lexicographically,
fillings by row-reading word), so reports are deterministic; ``jobs`` only
splits the work units across processes and never changes the output.
"""

from __future__ import annotations

import os
import time
from collections import Counter, namedtuple
from typing import Iterator

from .bijection import _rho, _rho_inv
from .ct_rectify import _eviction, _phi
from .jeu_de_taquin import (
    _dominant_path,
    _is_dominant,
    _rectify_cells,
    shifting_entries,
)
from .polynomials import (
    _ct_fillings,
    _rearrangements,
    _rssyt_fillings,
    compositions,
    monomial_qsym_expand,
    monomial_sym_expand,
    is_quasisymmetric,
    is_symmetric,
    partitions,
    schur_expand,
    weight_monomial,
)
from .tableaux import Filling, InvariantViolationError, _Record, render_filling, validate

MAX_RENDERED_COUNTEREXAMPLES = 10


class Counterexample(_Record, namedtuple("Counterexample", "instance expected actual")):
    __slots__ = ()


class VerifyReport(
    _Record,
    namedtuple("VerifyReport", "name max_cells max_entry k_range instances counterexamples seconds"),
):
    """Outcome of one property run: bounds, instance count, counterexamples
    and wall time.  ``ok`` exactly when no counterexample was found.

    Unhashable, since ``counterexamples`` is a list.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def _k_range_str(self) -> str:
        if self.k_range is None:
            return "1..rows"
        return f"{self.k_range[0]}..{self.k_range[1]}"

    def render(self) -> str:
        """Deterministic report block (wall time deliberately excluded)."""
        lines = [
            f"property: {self.name}",
            f"bounds: max-cells={self.max_cells} max-entry={self.max_entry} k={self._k_range_str()}",
            f"instances: {self.instances}",
            f"counterexamples: {len(self.counterexamples)}",
        ]
        for i, ce in enumerate(self.counterexamples[:MAX_RENDERED_COUNTEREXAMPLES], start=1):
            lines.append(f"  [{i}] instance: {ce.instance}")
            lines.append(f"      expected: {ce.expected}")
            lines.append(f"      actual:   {ce.actual}")
        hidden = len(self.counterexamples) - MAX_RENDERED_COUNTEREXAMPLES
        if hidden > 0:
            lines.append(f"  ... and {hidden} more")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "property": self.name,
            "max_cells": self.max_cells,
            "max_entry": self.max_entry,
            "k_range": list(self.k_range) if self.k_range else None,
            "instances": self.instances,
            "counterexamples": [ce._asdict() for ce in self.counterexamples],
            "seconds": self.seconds,
        }


def brief(f: Filling) -> str:
    """One-line rendering for counterexample reports."""
    return render_filling(f).replace("\n", " / ") if f.rows else "(empty)"


def _format_report(report: dict[int, list[int]]) -> str:
    if not report:
        return "{}"
    parts = [f"col {c}: {report[c]}" for c in sorted(report)]
    return "{" + ", ".join(parts) + "}"


def _tableau_units(*kinds: str):
    # One work unit per kind, in the order given, and shape of 1 to max_cells cells.
    shapes = {"ct": compositions, "rssyt": partitions}
    return lambda max_cells: [
        (kind, shape) for kind in kinds for m in range(1, max_cells + 1) for shape in shapes[kind](m)
    ]


def _schur_units(max_cells: int) -> list[tuple]:
    units: list[tuple] = [("fixed",)]
    units.extend(("shape", shape) for m in range(1, max_cells + 1) for shape in partitions(m))
    return units


def _k_bounds(rows: int, k_lo: int, k_hi: int | None) -> range:
    hi = rows if k_hi is None else min(k_hi, rows)
    return range(max(k_lo, 1), hi + 1)


# A property's ``subjects`` lists what one work unit checks: each subject
# (an enumerated tableau, say) with its cases (the k to rectify), one
# instance per case.  Its ``check`` takes the unit's kind, a subject and its
# cases, and yields (instance, expected, actual) for each failing case.
# Counting, collecting and errors are left to the driver, ``_check_unit``.
# The tableaux are streamed: none is kept past its check.  The stream
# validates each one, so the checkers call only the trusted kernels, and
# every tableau a kernel produces is checked once, as its output.

_ENUMERATE = {"ct": _ct_fillings, "rssyt": _rssyt_fillings}
_ONCE = (None,)


def _each_tableau(unit: tuple, max_entry: int, _k_lo: int, _k_hi: int | None) -> Iterator:
    kind, shape = unit
    for x in _ENUMERATE[kind](shape, max_entry):
        yield validate(kind, x), _ONCE


def _each_tableau_and_k(unit: tuple, max_entry: int, k_lo: int, k_hi: int | None) -> Iterator:
    kind, shape = unit
    for x in _ENUMERATE[kind](shape, max_entry):
        ks = _k_bounds(x.n_rows, k_lo, k_hi)
        if ks:
            yield validate(kind, x), ks


def _check_roundtrip(kind: str, x: Filling, _cases) -> Iterator[tuple[str, str, str]]:
    back = _rho_inv(_rho(x)) if kind == "ct" else _rho(_rho_inv(x))
    if back != x:
        yield brief(x), brief(x), brief(back)


def _check_commutativity(_kind: str, u: Filling, ks: range) -> Iterator[tuple[str, str, str]]:
    t = _rho(u)
    for k in ks:
        expected = _rho_inv(_rectify_cells(t, k)[0])
        actual = _phi(u, k, None)
        if actual != expected:
            yield f"k={k}: {brief(u)}", brief(expected), brief(actual)


def _check_lemma41(_kind: str, t: Filling, ks: range) -> Iterator[tuple[str, str, str]]:
    for k in ks:
        report = shifting_entries(_rectify_cells(t, k)[1])
        bad = {
            c: seq
            for c, seq in report.items()
            if any(seq[i] <= seq[i + 1] for i in range(len(seq) - 1))
        }
        if bad:
            yield (
                f"k={k}: {brief(t)}",
                "strictly decreasing round-ordered shifts per column",
                _format_report(bad),
            )


def _sorted_columns(report: dict[int, list[int]]) -> dict[int, list[int]]:
    return {c: sorted(v, reverse=True) for c, v in report.items()}


def _check_lemma42(_kind: str, t: Filling, ks: range) -> Iterator[tuple[str, str, str]]:
    for k in ks:
        _, traces = _rectify_cells(t, k)
        ev = _eviction(t, k)
        tr = shifting_entries(traces)
        if ev != tr:
            ev, tr = _sorted_columns(ev), _sorted_columns(tr)
            if ev != tr:
                yield f"k={k}: {brief(t)}", _format_report(tr), _format_report(ev)


def _check_lemma43(_kind: str, t: Filling, ks: range) -> Iterator[tuple[str, str, str]]:
    # The entries right of column 1 in the bottom k rows of u, by column,
    # one more row per k.
    rows = _rho_inv(t).rows
    localized: dict[int, list[int]] = {}
    taken = 0
    for k in ks:
        while taken < k:
            taken += 1
            for c, e in enumerate(rows[-taken][1:], start=2):
                localized.setdefault(c, []).append(e)
        expected = _sorted_columns(localized)
        ev = _eviction(t, k)
        if ev != expected:
            ev = _sorted_columns(ev)
            if ev != expected:
                yield f"k={k}: {brief(t)}", _format_report(expected), _format_report(ev)


def _check_dominance(_kind: str, t: Filling, _cases) -> Iterator[tuple[str, str, str]]:
    _, (trace,) = _rectify_cells(t, 1)
    shifts = trace.left_shifts()
    not_dominant = [(r, c) for r, c, _e in shifts if not _is_dominant(t, r, c)]
    if not_dominant:
        yield (
            brief(t),
            "every left-shifted entry diagonally dominant at its source",
            f"not dominant at {not_dominant}",
        )
    elif (path := _dominant_path(t)) != shifts:
        yield (
            brief(t),
            "dominant path equals trace shifts",
            f"dominant path {path} disagrees with slide shifts {shifts}",
        )


def _schur_subjects(unit: tuple, max_entry: int, _k_lo: int, _k_hi: int | None) -> list[tuple]:
    # The four fixed identities; or, for a shape, its weight sums in 1 to
    # max_entry variables and the symmetry of its Schur polynomial.
    if unit[0] == "fixed":
        return [(None, range(4))]
    return [((unit[1], max_entry), range(max_entry + 1))]


def _check_schur(kind: str, subject, _cases) -> Iterator[tuple[str, str, str]]:
    if kind == "fixed":
        s21 = schur_expand((2, 1), 3)
        m21 = monomial_sym_expand((2, 1), 3)
        m111 = monomial_sym_expand((1, 1, 1), 3)
        q21 = monomial_qsym_expand((2, 1), 3)
        q12 = monomial_qsym_expand((1, 2), 3)
        q111 = monomial_qsym_expand((1, 1, 1), 3)
        checks = [
            ("s21 == M21 + M12 + 2*M111", s21 == q21 + q12 + 2 * q111),
            ("s21 == m21 + 2*m111", s21 == m21 + 2 * m111),
            ("m21 == M21 + M12", m21 == q21 + q12),
            ("s21 has 8 terms counted with multiplicity", sum(s21.terms.values()) == 8),
        ]
        for label, ok in checks:
            if not ok:
                yield label, "identity holds", "identity fails"
        return

    shape, max_entry = subject
    for n in range(1, max_entry + 1):
        ct_weights = Counter(
            weight_monomial(u, n) for comp in _rearrangements(shape) for u in _ct_fillings(comp, n)
        )
        if ct_weights != Counter(weight_monomial(t, n) for t in _rssyt_fillings(shape, n)):
            yield (
                f"shape {shape}, {n} variables",
                "composition-tableau and reverse-SSYT weight sums agree",
                "sums differ",
            )
    s = schur_expand(shape, max_entry)
    if not (is_symmetric(s) and is_quasisymmetric(s)):
        yield (
            f"schur {shape}, {max_entry} variables",
            "symmetric and quasisymmetric",
            f"symmetric={is_symmetric(s)} quasisymmetric={is_quasisymmetric(s)}",
        )


class _Property(_Record, namedtuple("_Property", "units subjects check")):
    __slots__ = ()


PROPERTIES: dict[str, _Property] = {
    "roundtrip": _Property(_tableau_units("ct", "rssyt"), _each_tableau, _check_roundtrip),
    "commutativity": _Property(_tableau_units("ct"), _each_tableau_and_k, _check_commutativity),
    "lemma41": _Property(_tableau_units("rssyt"), _each_tableau_and_k, _check_lemma41),
    "lemma42": _Property(_tableau_units("rssyt"), _each_tableau_and_k, _check_lemma42),
    "lemma43": _Property(_tableau_units("rssyt"), _each_tableau_and_k, _check_lemma43),
    "dominance": _Property(_tableau_units("rssyt"), _each_tableau, _check_dominance),
    "schur-identities": _Property(_schur_units, _schur_subjects, _check_schur),
}

PROPERTY_NAMES = tuple(PROPERTIES)


def _check_unit(args: tuple) -> tuple[int, list[Counterexample]]:
    # The driver: one property over one work unit.  An
    # InvariantViolationError while checking a subject becomes that
    # subject's counterexample, its cases still count as instances, and the
    # sweep goes on.
    name, unit, max_entry, k_lo, k_hi = args
    prop = PROPERTIES[name]
    count = 0
    ces: list[Counterexample] = []
    for subject, cases in prop.subjects(unit, max_entry, k_lo, k_hi):
        count += len(cases)
        try:
            for failure in prop.check(unit[0], subject, cases):
                ces.append(Counterexample(*failure))
        except InvariantViolationError as exc:
            label = brief(subject) if isinstance(subject, Filling) else str(subject)
            ces.append(Counterexample(label, "no invariant violation", f"error: {exc}"))
    return count, ces


def run_property(
    name: str,
    max_cells: int,
    max_entry: int,
    k_range: tuple[int, int] | None = None,
    jobs: int = 1,
) -> VerifyReport:
    """Check one property over every instance within bounds.

    ``jobs`` is an upper bound on worker processes: at most one per usable
    CPU and one per work unit are started, and a single worker runs in-process.
    """
    if name not in PROPERTIES:
        raise ValueError(f"unknown property {name!r}; choose from {', '.join(PROPERTY_NAMES)}")
    if max_cells < 1 or max_entry < 1:
        raise ValueError("bounds must be at least 1")
    if k_range is not None and not 1 <= k_range[0] <= k_range[1]:
        raise ValueError(f"bad k_range {k_range[0]}..{k_range[1]}: expected A..B with 1 <= A <= B")
    if k_range is not None and PROPERTIES[name].subjects is not _each_tableau_and_k:
        takes_k = ", ".join(n for n, p in PROPERTIES.items() if p.subjects is _each_tableau_and_k)
        raise ValueError(f"property {name!r} takes no k range; only {takes_k} do")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    k_lo, k_hi = (1, None) if k_range is None else k_range
    arglist = [(name, unit, max_entry, k_lo, k_hi) for unit in PROPERTIES[name].units(max_cells)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, cpus, len(arglist))
    started = time.perf_counter()
    if workers > 1:
        # Imported here so that serial runs do not pay for loading the pool
        # (multiprocessing, pickle, socket) at start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_check_unit, arglist))
    else:
        results = [_check_unit(args) for args in arglist]
    instances = sum(count for count, _ in results)
    counterexamples = [ce for _, ces in results for ce in ces]
    return VerifyReport(
        name,
        max_cells,
        max_entry,
        k_range,
        instances,
        counterexamples,
        time.perf_counter() - started,
    )

