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
  entries, column by column;
* ``lemma43``        - eviction's shifting entries sit in the rectified
  rows of the composition tableau;
* ``dominance``      - every left shift is diagonally dominant at its
  source and the declarative southeast path matches the slide trace;
* ``schur-identities`` - the fixed 3-variable expansion identities, plus
  weight-generating-function agreement between composition tableaux and
  reverse SSYT for every shape in bounds.

Instance order is fixed (shapes by total cells then lexicographically,
fillings by row-reading word), so reports are deterministic; ``jobs`` only
splits the work units across processes and never changes the output.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

from .bijection import _rho, _rho_inv, rho, rho_inv
from .ct_rectify import _phi, eviction
from .jeu_de_taquin import (
    _rectify_cells,
    is_diagonally_dominant,
    dominant_path,
    rectify_k,
    rectify_once,
    shifting_entries,
)
from .polynomials import (
    Polynomial,
    _rearrangements,
    compositions,
    enumerate_ct,
    enumerate_rssyt,
    monomial_qsym_expand,
    monomial_sym_expand,
    is_quasisymmetric,
    is_symmetric,
    partitions,
    schur_expand,
    weight_monomial,
)
from .tableaux import Filling, InvariantViolationError

MAX_RENDERED_COUNTEREXAMPLES = 10


@dataclass(frozen=True)
class Counterexample:
    instance: str
    expected: str
    actual: str


@dataclass
class VerifyReport:
    """Outcome of one property run: bounds, instance count, counterexamples
    and wall time.  ``ok`` exactly when no counterexample was found."""

    name: str
    max_cells: int
    max_entry: int
    k_range: tuple[int, int] | None
    instances: int
    counterexamples: list[Counterexample]
    seconds: float

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
            "counterexamples": [
                {"instance": ce.instance, "expected": ce.expected, "actual": ce.actual}
                for ce in self.counterexamples
            ],
            "seconds": self.seconds,
        }


def brief(f: Filling) -> str:
    """One-line rendering for counterexample reports."""
    if not f.rows:
        return "(empty)"
    return " / ".join(
        " ".join("." if v is None else str(v) for v in row) for row in f.rows
    )


def _format_report(report: dict[int, list[int]]) -> str:
    if not report:
        return "{}"
    parts = [f"col {c}: {report[c]}" for c in sorted(report)]
    return "{" + ", ".join(parts) + "}"


def _ct_shape_units(max_cells: int) -> list[tuple]:
    return [("ct", shape) for m in range(1, max_cells + 1) for shape in compositions(m)]


def _rssyt_shape_units(max_cells: int) -> list[tuple]:
    return [("rssyt", shape) for m in range(1, max_cells + 1) for shape in partitions(m)]


def _k_bounds(rows: int, k_lo: int, k_hi: int | None) -> range:
    hi = rows if k_hi is None else min(k_hi, rows)
    return range(max(k_lo, 1), hi + 1)


# The roundtrip and commutativity checkers validate each enumerated tableau
# once, through their first public call, and then call the trusted kernels;
# every tableau a kernel produces is still checked once, as its output.


def _check_roundtrip(args: tuple) -> tuple[int, list[Counterexample]]:
    (kind, shape), max_entry, _k_lo, _k_hi = args
    count = 0
    ces: list[Counterexample] = []
    if kind == "ct":
        for u in enumerate_ct(shape, max_entry):
            count += 1
            try:
                back = _rho_inv(rho(u))
            except InvariantViolationError as exc:
                ces.append(Counterexample(brief(u), brief(u), f"error: {exc}"))
                continue
            if back != u:
                ces.append(Counterexample(brief(u), brief(u), brief(back)))
    else:
        for t in enumerate_rssyt(shape, max_entry):
            count += 1
            try:
                back = _rho(rho_inv(t))
            except InvariantViolationError as exc:
                ces.append(Counterexample(brief(t), brief(t), f"error: {exc}"))
                continue
            if back != t:
                ces.append(Counterexample(brief(t), brief(t), brief(back)))
    return count, ces


def _check_commutativity(args: tuple) -> tuple[int, list[Counterexample]]:
    (_, shape), max_entry, k_lo, k_hi = args
    count = 0
    ces: list[Counterexample] = []
    for u in enumerate_ct(shape, max_entry):
        ks = _k_bounds(u.n_rows, k_lo, k_hi)
        if not ks:
            continue
        t = rho(u)
        for k in ks:
            count += 1
            try:
                expected = _rho_inv(_rectify_cells(t, k, None)[0])
            except InvariantViolationError as exc:
                ces.append(Counterexample(f"k={k}: {brief(u)}", f"error: {exc}", "-"))
                continue
            try:
                actual = _phi(u, k, None)
            except InvariantViolationError as exc:
                ces.append(
                    Counterexample(f"k={k}: {brief(u)}", brief(expected), f"error: {exc}")
                )
                continue
            if actual != expected:
                ces.append(Counterexample(f"k={k}: {brief(u)}", brief(expected), brief(actual)))
    return count, ces


def _check_lemma41(args: tuple) -> tuple[int, list[Counterexample]]:
    (_, shape), max_entry, k_lo, k_hi = args
    count = 0
    ces: list[Counterexample] = []
    for t in enumerate_rssyt(shape, max_entry):
        ks = _k_bounds(t.n_rows, k_lo, k_hi)
        if not ks:
            continue
        for k in ks:
            count += 1
            _, traces = rectify_k(t, k)
            report = shifting_entries(traces)
            bad = {
                c: seq
                for c, seq in report.items()
                if any(seq[i] <= seq[i + 1] for i in range(len(seq) - 1))
            }
            if bad:
                ces.append(
                    Counterexample(
                        f"k={k}: {brief(t)}",
                        "strictly decreasing round-ordered shifts per column",
                        _format_report(bad),
                    )
                )
    return count, ces


def _check_lemma42(args: tuple) -> tuple[int, list[Counterexample]]:
    (_, shape), max_entry, k_lo, k_hi = args
    count = 0
    ces: list[Counterexample] = []
    for t in enumerate_rssyt(shape, max_entry):
        ks = _k_bounds(t.n_rows, k_lo, k_hi)
        if not ks:
            continue
        for k in ks:
            count += 1
            _, traces = rectify_k(t, k)
            ev = {c: sorted(v, reverse=True) for c, v in eviction(t, k).items()}
            tr = {c: sorted(v, reverse=True) for c, v in shifting_entries(traces).items()}
            if ev != tr:
                ces.append(
                    Counterexample(f"k={k}: {brief(t)}", _format_report(tr), _format_report(ev))
                )
    return count, ces


def _check_lemma43(args: tuple) -> tuple[int, list[Counterexample]]:
    (_, shape), max_entry, k_lo, k_hi = args
    count = 0
    ces: list[Counterexample] = []
    for t in enumerate_rssyt(shape, max_entry):
        ks = _k_bounds(t.n_rows, k_lo, k_hi)
        if not ks:
            continue
        try:
            u = rho_inv(t)
        except InvariantViolationError as exc:
            count += len(ks)
            ces.append(Counterexample(brief(t), "insertion produces a valid tableau", f"error: {exc}"))
            continue
        for k in ks:
            count += 1
            ev = {c: sorted(v, reverse=True) for c, v in eviction(t, k).items()}
            localized: dict[int, list[int]] = {}
            for row in u.rows[u.n_rows - k:]:
                for c in range(2, len(row) + 1):
                    localized.setdefault(c, []).append(row[c - 1])
            localized = {c: sorted(v, reverse=True) for c, v in localized.items()}
            if ev != localized:
                ces.append(
                    Counterexample(
                        f"k={k}: {brief(t)}", _format_report(localized), _format_report(ev)
                    )
                )
    return count, ces


def _check_dominance(args: tuple) -> tuple[int, list[Counterexample]]:
    (_, shape), max_entry, _k_lo, _k_hi = args
    count = 0
    ces: list[Counterexample] = []
    for t in enumerate_rssyt(shape, max_entry):
        count += 1
        _, trace = rectify_once(t)
        shifts = trace.left_shifts()
        not_dominant = [(r, c) for r, c, _e in shifts if not is_diagonally_dominant(t, r, c)]
        if not_dominant:
            ces.append(
                Counterexample(
                    brief(t),
                    "every left-shifted entry diagonally dominant at its source",
                    f"not dominant at {not_dominant}",
                )
            )
            continue
        try:
            dominant_path(t)  # raises if it disagrees with the slide trace
        except InvariantViolationError as exc:
            ces.append(Counterexample(brief(t), "dominant path equals trace shifts", f"error: {exc}"))
    return count, ces


def _weight_sum_ct(shape_total: tuple[int, ...], max_entry: int) -> Polynomial:
    acc = Polynomial.zero(max_entry)
    for comp in _rearrangements(shape_total):
        acc = acc + Polynomial.from_monomials(
            max_entry,
            ((weight_monomial(u, max_entry), 1) for u in enumerate_ct(comp, max_entry)),
        )
    return acc


def _check_schur(args: tuple) -> tuple[int, list[Counterexample]]:
    unit, max_entry, _k_lo, _k_hi = args
    count = 0
    ces: list[Counterexample] = []
    if unit[0] == "fixed":
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
            count += 1
            if not ok:
                ces.append(Counterexample(label, "identity holds", "identity fails"))
        return count, ces

    shape = unit[1]
    for n in range(1, max_entry + 1):
        count += 1
        lhs = _weight_sum_ct(shape, n)
        rhs = Polynomial.from_monomials(
            n, ((weight_monomial(t, n), 1) for t in enumerate_rssyt(shape, n))
        )
        if lhs != rhs:
            ces.append(
                Counterexample(
                    f"shape {shape}, {n} variables",
                    "composition-tableau and reverse-SSYT weight sums agree",
                    "sums differ",
                )
            )
    count += 1
    s = schur_expand(shape, max_entry)
    if not (is_symmetric(s) and is_quasisymmetric(s)):
        ces.append(
            Counterexample(
                f"schur {shape}, {max_entry} variables",
                "symmetric and quasisymmetric",
                f"symmetric={is_symmetric(s)} quasisymmetric={is_quasisymmetric(s)}",
            )
        )
    return count, ces


def _schur_units(max_cells: int) -> list[tuple]:
    units: list[tuple] = [("fixed",)]
    units.extend(("shape", shape) for m in range(1, max_cells + 1) for shape in partitions(m))
    return units


def _both_shape_units(max_cells: int) -> list[tuple]:
    return _ct_shape_units(max_cells) + _rssyt_shape_units(max_cells)


@dataclass(frozen=True)
class _Property:
    units: Callable[[int], list[tuple]]
    checker: Callable[[tuple], tuple[int, list[Counterexample]]]


PROPERTIES: dict[str, _Property] = {
    "roundtrip": _Property(_both_shape_units, _check_roundtrip),
    "commutativity": _Property(_ct_shape_units, _check_commutativity),
    "lemma41": _Property(_rssyt_shape_units, _check_lemma41),
    "lemma42": _Property(_rssyt_shape_units, _check_lemma42),
    "lemma43": _Property(_rssyt_shape_units, _check_lemma43),
    "dominance": _Property(_rssyt_shape_units, _check_dominance),
    "schur-identities": _Property(_schur_units, _check_schur),
}

PROPERTY_NAMES = tuple(PROPERTIES)


def run_property(
    name: str,
    max_cells: int,
    max_entry: int,
    k_range: tuple[int, int] | None = None,
    jobs: int = 1,
) -> VerifyReport:
    """Check one property over every instance within bounds.

    ``jobs`` is an upper bound on worker processes: at most one per CPU and
    one per work unit are started, and a single worker runs in-process.
    """
    if name not in PROPERTIES:
        raise ValueError(f"unknown property {name!r}; choose from {', '.join(PROPERTY_NAMES)}")
    if max_cells < 1 or max_entry < 1:
        raise ValueError("bounds must be at least 1")
    if k_range is not None and not 1 <= k_range[0] <= k_range[1]:
        raise ValueError(f"bad k range {k_range}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    k_lo, k_hi = (1, None) if k_range is None else k_range
    prop = PROPERTIES[name]
    arglist = [(unit, max_entry, k_lo, k_hi) for unit in prop.units(max_cells)]
    workers = min(jobs, os.cpu_count() or 1, len(arglist))
    started = time.perf_counter()
    if workers > 1:
        # Imported here so that serial runs do not pay for loading the pool
        # (multiprocessing, pickle, socket) at start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(prop.checker, arglist))
    else:
        results = [prop.checker(args) for args in arglist]
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
