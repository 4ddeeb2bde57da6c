"""``violations`` against a reference that reads every slot through
``Filling.entry``.

The reference is the original cell-by-cell statement of the rules.  The
library version checks them all in one bottom-up pass over the row tuples;
both must return the same violations (rule, cell and message) in the same
order for every kind.
"""

from __future__ import annotations

import random

import pytest

from ctrect import KINDS, Filling, Violation, violations
from ctrect.polynomials import compositions, enumerate_ct, enumerate_rssyt, enumerate_ssyt, partitions


def reference_violations(kind: str, f: Filling) -> list[Violation]:
    vs: list[Violation] = []
    for r, row in enumerate(f.rows, start=1):
        for c, v in enumerate(row, start=1):
            if v is None:
                vs.append(Violation("hole", (r, c), "holes are not allowed in a validated tableau"))
            elif v == 0:
                vs.append(Violation("entry", (r, c), "entries must be positive"))
    if vs:
        return vs
    for r, row in enumerate(f.rows, start=1):
        if not row:
            vs.append(Violation("shape", (r, 1), "empty row"))
    if vs:
        return vs

    if kind in ("ssyt", "rssyt", "syt"):
        for r in range(1, f.n_rows):
            if len(f.rows[r]) > len(f.rows[r - 1]):
                vs.append(Violation("shape", (r + 1, 1), "row is longer than the row above"))

    increasing_rows = kind in ("ssyt", "syt")
    for r, row in enumerate(f.rows, start=1):
        for c in range(1, len(row)):
            a, b = row[c - 1], row[c]
            if increasing_rows and a > b:
                vs.append(Violation("row-order", (r, c + 1), f"{b} < {a}: rows must weakly increase"))
            elif not increasing_rows and a < b:
                vs.append(Violation("row-order", (r, c + 1), f"{b} > {a}: rows must weakly decrease"))

    if kind in ("ssyt", "rssyt", "syt"):
        for c in range(1, f.width + 1):
            for r in range(1, f.n_rows):
                upper, lower = f.entry(r, c), f.entry(r + 1, c)
                if upper == 0 or lower == 0:
                    continue
                if kind == "rssyt":
                    if lower >= upper:
                        vs.append(
                            Violation("column-order", (r + 1, c), f"{lower} >= {upper}: columns must strictly decrease")
                        )
                elif lower <= upper:
                    vs.append(
                        Violation("column-order", (r + 1, c), f"{lower} <= {upper}: columns must strictly increase")
                    )

    if kind == "syt":
        entries = sorted(v for row in f.rows for v in row)
        if entries != list(range(1, len(entries) + 1)):
            vs.append(
                Violation("content", (1, 1), f"entries must be exactly 1..{len(entries)}, each used once")
            )

    if kind == "ct":
        for r in range(1, f.n_rows):
            if f.entry(r + 1, 1) <= f.entry(r, 1):
                vs.append(
                    Violation(
                        "first-column",
                        (r + 1, 1),
                        f"{f.entry(r + 1, 1)} <= {f.entry(r, 1)}: first column must strictly increase",
                    )
                )
        vs.extend(reference_triple_rule_violations(f))

    return vs


def reference_triple_rule_violations(f: Filling) -> list[Violation]:
    vs = []
    n = f.n_rows
    for c in range(1, f.width):
        for r1 in range(1, n + 1):
            left = f.entry(r1, c)
            if left == 0:
                continue
            a = f.entry(r1, c + 1)
            for r2 in range(r1 + 1, n + 1):
                b = f.entry(r2, c + 1)
                if b == 0:
                    continue
                if a <= b <= left:
                    vs.append(
                        Violation(
                            "triple",
                            (r2, c + 1),
                            f"a={a} at ({r1},{c + 1}), c={left} at ({r1},{c}): a <= b={b} but b is not > c",
                        )
                    )
    return vs


def _as_triples(vs: list[Violation]) -> list[tuple]:
    return [(v.rule, v.cell, v.message) for v in vs]


def _random_filling(rng: random.Random) -> Filling:
    # Ragged rows, empty rows, and (in about a third of the fillings) holes
    # and zeros; the rest reach the structural rules.
    defects = rng.random() < 0.35
    rows = []
    for _ in range(rng.randint(0, 6)):
        length = rng.choice((0, 1, 2, 3, 4, 5)) if rng.random() < 0.1 else rng.randint(1, 5)
        row = []
        for _ in range(length):
            if defects and rng.random() < 0.15:
                row.append(rng.choice((None, 0)))
            else:
                row.append(rng.randint(1, 7))
        rows.append(row)
    return Filling(rows)


@pytest.mark.parametrize("seed", range(2))
def test_matches_reference_on_random_fillings(seed):
    rng = random.Random(seed)
    for _ in range(4000):
        f = _random_filling(rng)
        for kind in KINDS:
            assert _as_triples(violations(kind, f)) == _as_triples(reference_violations(kind, f)), (kind, f.rows)


def _one_slot_neighbours(rows: tuple) -> list[tuple]:
    # Each filling one edit away: a slot replaced by a hole, 0 or 1..5, a
    # row's last slot dropped, or one slot of 1..5 appended to a row.
    out = []
    for r, row in enumerate(rows):
        edits = [
            row[:c] + (v,) + row[c + 1 :] for c in range(len(row)) for v in (None, 0, 1, 2, 3, 4, 5) if v != row[c]
        ]
        edits.append(row[:-1])
        edits += [row + (v,) for v in range(1, 6)]
        out += [rows[:r] + (edit,) + rows[r + 1 :] for edit in edits]
    return out


def test_matches_reference_one_slot_from_valid():
    # Where the one pass of violations turns from building nothing to
    # listing rows: valid tableaux of every kind and the fillings one edit
    # away from them.
    valid = [u for m in range(1, 5) for shape in compositions(m) for u in enumerate_ct(shape, 4)]
    valid += [t for m in range(1, 5) for shape in partitions(m) for t in enumerate_rssyt(shape, 4)]
    valid += [t for m in range(1, 5) for shape in partitions(m) for t in enumerate_ssyt(shape, 4)]
    for f in valid:
        for rows in _one_slot_neighbours(f.rows):
            g = Filling(rows)
            for kind in KINDS:
                assert _as_triples(violations(kind, g)) == _as_triples(reference_violations(kind, g)), (kind, g.rows)


def test_matches_reference_on_valid_tableaux():
    # The empty lists of valid input, and every rule of the other kinds.
    fillings = [u for m in range(1, 6) for shape in compositions(m) for u in enumerate_ct(shape, 4)]
    fillings += [t for m in range(1, 6) for shape in partitions(m) for t in enumerate_rssyt(shape, 4)]
    for f in fillings:
        for kind in KINDS:
            assert _as_triples(violations(kind, f)) == _as_triples(reference_violations(kind, f)), (kind, f.rows)
