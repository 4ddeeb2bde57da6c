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
    parts = [f"col {c}: {report[c]}" for c in sorted(report)]
    return "{" + ", ".join(parts) + "}"


# A property reads one work unit per shape of 1 to max_cells cells of each
# of its ``kinds``, in order; ``fixed``, the identities in 3 variables, is
# one unit.  ``_subjects`` lists what a unit checks: each subject with its
# cases, one instance per case.  A tableau's cases are its k to rectify when
# the property ``takes_k``, else ``_ONCE``; a ``schur`` shape's are its weight
# sums in 1 to max_entry variables and the symmetry of its Schur polynomial.
# A ``check`` takes the unit's kind, a subject and its cases, and yields
# (instance, expected, actual) for each failing case; counting, collecting
# and errors are left to the driver, ``_check_unit``.  The tableaux are
# streamed: none is kept past its check.  The stream validates each one, so
# the checkers call only the trusted kernels, and every tableau a kernel
# produces is checked once, as its output.

_SHAPES = {
    "fixed": lambda m: [None] if m == 1 else [], "ct": compositions, "rssyt": partitions, "schur": partitions
}
_ENUMERATE = {"ct": _ct_fillings, "rssyt": _rssyt_fillings}
_ONCE = (None,)


def _subjects(unit: tuple, max_entry: int, k_range: tuple[int, int] | None) -> Iterator:
    kind, shape = unit
    if kind == "fixed":
        yield None, range(4)
    elif kind == "schur":
        yield (shape, max_entry), range(max_entry + 1)
    else:
        for x in _ENUMERATE[kind](shape, max_entry):
            cases = _ONCE if k_range is None else range(k_range[0], min(k_range[1], x.n_rows) + 1)
            if cases:
                yield validate(kind, x), cases


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
    s = schur_expand(shape, max_entry)
    weights = Counter(
        weight_monomial(u, max_entry) for comp in _rearrangements(shape) for u in _ct_fillings(comp, max_entry)
    )
    # Each term of s is a reverse-SSYT weight, reversed.  A tableau has its
    # entries <= n exactly when its weight is 0 past n, so the two sums in n
    # variables agree when the difference is 0 at each such weight.
    weights.subtract({w[::-1]: c for w, c in s.terms.items()})
    for n in range(1, max_entry + 1):
        if any(c and not any(w[n:]) for w, c in weights.items()):
            yield (
                f"shape {shape}, {n} variables",
                "composition-tableau and reverse-SSYT weight sums agree",
                "sums differ",
            )
    if not (is_symmetric(s) and is_quasisymmetric(s)):
        yield (
            f"schur {shape}, {max_entry} variables",
            "symmetric and quasisymmetric",
            f"symmetric={is_symmetric(s)} quasisymmetric={is_quasisymmetric(s)}",
        )


class _Property(_Record, namedtuple("_Property", "kinds takes_k check")):
    __slots__ = ()


PROPERTIES: dict[str, _Property] = {
    "roundtrip": _Property(("ct", "rssyt"), False, _check_roundtrip),
    "commutativity": _Property(("ct",), True, _check_commutativity),
    "lemma41": _Property(("rssyt",), True, _check_lemma41),
    "lemma42": _Property(("rssyt",), True, _check_lemma42),
    "lemma43": _Property(("rssyt",), True, _check_lemma43),
    "dominance": _Property(("rssyt",), False, _check_dominance),
    "schur-identities": _Property(("fixed", "schur"), False, _check_schur),
}

PROPERTY_NAMES = tuple(PROPERTIES)


def _check_unit(args: tuple) -> tuple[int, list[Counterexample]]:
    # The driver: one property's check over one work unit.  An
    # InvariantViolationError while checking a subject becomes that
    # subject's counterexample, its cases still count as instances, and the
    # sweep goes on.
    check, unit, max_entry, k_range = args
    count = 0
    ces: list[Counterexample] = []
    for subject, cases in _subjects(unit, max_entry, k_range):
        count += len(cases)
        try:
            for failure in check(unit[0], subject, cases):
                ces.append(Counterexample(*failure))
        except InvariantViolationError as exc:
            ces.append(Counterexample(brief(subject), "no invariant violation", f"error: {exc}"))
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
    prop = PROPERTIES[name]
    if k_range is not None and not prop.takes_k:
        takes_k = ", ".join(n for n, p in PROPERTIES.items() if p.takes_k)
        raise ValueError(f"property {name!r} takes no k range; only {takes_k} do")
    # A tableau's first column is strictly monotone in 1..max_entry, so it
    # has at most min(max_cells, max_entry) rows, and one column has that many.
    if k_range is not None and k_range[0] > (rows := min(max_cells, max_entry)):
        raise ValueError(
            f"k range {k_range[0]}..{k_range[1]} takes no tableau within max-cells={max_cells}"
            f" max-entry={max_entry}: none has more than {rows} rows"
        )
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    ks = (k_range or (1, max_cells)) if prop.takes_k else None
    units = [(kind, s) for kind in prop.kinds for m in range(1, max_cells + 1) for s in _SHAPES[kind](m)]
    arglist = [(prop.check, unit, max_entry, ks) for unit in units]
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

