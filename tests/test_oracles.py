"""Rectification and eviction against oracles that share no slide or
eviction code.

Rectification oracle: jeu de taquin rectification of a skew semistandard
tableau equals the insertion tableau P of its reading word (Schützenberger;
Fulton, *Young Tableaux*, ch. 1-3).  A reverse SSYT becomes a semistandard
one under the complement v -> N + 1 - v, so rectifying k cells of t is:
complement, drop the top k first-column cells, row-insert the reading word
(bottom row first, each row left to right) with ``bisect``, complement
back.

Eviction oracle, by conservation of entries per column: the entries that
leave column c are those it held before, plus those that arrive from column
c + 1, minus those it holds after, as multisets.  Taken from the widest
column down to column 2, with the "after" columns read off the rectification
oracle, this gives the shifting entries of every column.

The oracles use only ``bisect``, ``Counter`` and row lists; the kernels
they check are imported for the comparison alone.

Column oracle for ``phi`` (Lemmas 4.2 and 4.3 applied to its output):
rectifying the bottom k first-column cells of a composition tableau u moves
exactly the entries of those k rows one column left, and ``rho_inv`` is
fixed by the entries of each column.  So ``phi(u, k)`` is ``rho_inv`` of the
reverse SSYT whose columns hold u's columns after that shift, each sorted
into decreasing order.  This oracle uses a sort and ``rho_inv`` alone.

Two more checks pit one kernel against another that shares no code with it.
The entries ``phi`` moves out of each column, read off its trace, are the
shifting entries that ``eviction`` finds by alignment: insertion against
alignment.  And evacuation of a standard reverse tableau, shifted by +1, is
an involution (Stanley, *EC2*, A1.2).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from itertools import chain, zip_longest

import pytest

from ctrect import Filling, evacuate, eviction, phi, phi_steps, rho, rho_inv
from ctrect.ct_rectify import _eviction
from ctrect.jeu_de_taquin import _rectify_cells, _slide_out
from ctrect.polynomials import compositions, enumerate_ct, enumerate_rssyt, partitions

from test_kernels_reference import ELEVEN_CELLS

MAX_CELLS = 6
MAX_ENTRY = 6


def oracle_rectify(rows: tuple[tuple[int, ...], ...], k: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the k-cell rectification of the reverse SSYT ``rows``."""
    top = MAX_ENTRY + 1
    word = [top - v for i in range(len(rows) - 1, -1, -1) for v in rows[i][1 if i < k else 0:]]
    p: list[list[int]] = []
    for x in word:
        for row in p:
            j = bisect_right(row, x)  # leftmost entry greater than x
            if j == len(row):
                row.append(x)
                break
            row[j], x = x, row[j]
        else:
            p.append([x])
    return tuple(tuple(top - v for v in row) for row in p)


def _columns(rows) -> list[Counter]:
    width = max((len(row) for row in rows), default=0)
    return [Counter(row[c] for row in rows if c < len(row)) for c in range(width)]


def oracle_eviction(rows: tuple[tuple[int, ...], ...], k: int) -> dict[int, list[int]]:
    """Column (1-based) -> entries that leave it, decreasing; empty ones omitted."""
    before = _columns(rows)
    before[0] -= Counter(row[0] for row in rows[:k])
    after = _columns(oracle_rectify(rows, k))
    report: dict[int, list[int]] = {}
    arriving: Counter = Counter()  # entries that leave the column to the right
    for c in range(len(before) - 1, 0, -1):
        leaving = before[c] + arriving
        leaving.subtract(after[c] if c < len(after) else Counter())
        assert min(leaving.values(), default=0) >= 0, "an entry appeared from nowhere"
        leaving = +leaving
        if leaving:
            report[c + 1] = sorted(leaving.elements(), reverse=True)
        arriving = leaving
    return report


def test_oracles_on_a_worked_example():
    # Two rows: removing 3 leaves 2 and 1 below, and 2 slides left.
    assert oracle_rectify(((3, 2), (1,)), 1) == ((2,), (1,))
    assert oracle_eviction(((3, 2), (1,)), 1) == {2: [2]}
    assert oracle_rectify(((3, 1), (2,)), 1) == ((2, 1),)
    assert oracle_eviction(((3, 1), (2,)), 1) == {}


@pytest.mark.parametrize("m", range(1, MAX_CELLS + 1))
def test_kernels_match_the_oracles(m):
    for shape in partitions(m):
        for t in enumerate_rssyt(shape, MAX_ENTRY):
            for k in range(1, t.n_rows + 1):
                where = (t.rows, k)
                assert _rectify_cells(t, k)[0].rows == oracle_rectify(t.rows, k), where
                assert _eviction(t, k) == oracle_eviction(t.rows, k), where


def column_rule(u: Filling, rows) -> Filling:
    """The composition tableau whose columns hold u's, after each row listed
    in ``rows`` (0-based) is shifted one column left, dropping its first
    entry.  ``rho_inv`` validates the reverse SSYT that the columns, each
    sorted into decreasing order and top-justified, make up."""
    shifted = [row[1:] if r in rows else row for r, row in enumerate(u.rows)]
    width = max(map(len, shifted), default=0)
    columns = [sorted((row[c] for row in shifted if c < len(row)), reverse=True) for c in range(width)]
    t = [list(row) for row in zip_longest(*columns)]
    for row in t:  # a gap in a column stays a hole, which rho_inv rejects
        while row[-1] is None:
            row.pop()
    return rho_inv(Filling(t))


def test_oracles_load_no_kernel_module():
    # The oracles' code names no kernel module or kernel function.
    kernel_names = {
        "jeu_de_taquin", "ct_rectify", "_rectify_cells", "_eviction", "_slide_out", "_phi", "_insert", "phi",
    }
    for oracle in (oracle_rectify, oracle_eviction, _columns, column_rule):
        assert not kernel_names & set(oracle.__code__.co_names), oracle.__name__


def test_phi_matches_the_column_rule():
    every_ct = (u for m in range(1, MAX_CELLS + 1) for shape in compositions(m) for u in enumerate_ct(shape, MAX_ENTRY))
    cases = 0
    for u in chain(every_ct, [ELEVEN_CELLS]):
        for k in range(1, u.n_rows + 1):
            assert phi(u, k) == column_rule(u, range(u.n_rows - k, u.n_rows)), (u.rows, k)
            cases += 1
    assert cases == 19148 + 3  # every (u, k) at 6/6, and ELEVEN_CELLS at k = 1..3


def detour(u: Filling, r: int) -> Filling:
    """Rectify the first-column cell of u's row r (0-based) through reverse
    SSYT: delete the first-column cell of ``rho(u)`` that holds its entry,
    slide the hole out, and map back."""
    entry = u.rows[r][0]
    grid = [list(row) for row in rho(u).rows]
    er = next(i for i, row in enumerate(grid) if row[0] == entry)
    grid[er][0] = None
    _slide_out(grid, er, entry)
    return rho_inv(Filling(grid))


def test_the_column_rule_needs_bottom_justified_cells():
    """Why ``phi`` takes only the bottom k first-column cells.  For the top
    cell of 1 1 / 2, the detour moves no entry across a column: the 1 right
    of the removed cell stays in column 2.  Shifting the cell's row, as the
    column rule and phi's steps do, pulls that 1 into column 1 instead.
    For the bottom cell the two agree with ``phi``."""
    u = Filling([[1, 1], [2]])
    assert detour(u, 0) == Filling([[2, 1]])
    assert column_rule(u, {0}) == Filling([[1], [2]])
    assert detour(u, 1) == column_rule(u, {1}) == phi(u, 1) == Filling([[1, 1]])


def moved_out_by_phi(u: Filling, k: int) -> dict[int, list[int]]:
    """Column (1-based) -> entries phi moves out of it, decreasing; read off
    ``phi_steps``.  Column 2 loses the entries swapped into column 1, the
    second entries of the bottom k rows; column c >= 3 loses each entry that
    the ``column {c-1} round`` turns into a hole."""
    report = {}
    swapped = [row[1] for row in u.rows[u.n_rows - k:] if len(row) > 1]
    if swapped:
        report[2] = swapped
    steps = phi_steps(u, k)
    for (_, before), (label, after) in zip(steps, steps[1:]):
        if label.startswith("column "):
            c = int(label.split()[1])  # the round pulls from 0-based column c
            moved = [
                row[c]
                for row, new in zip(before.rows, after.rows)
                if len(row) > c and row[c] is not None and new[c] is None
            ]
            if moved:
                report[c + 1] = moved
    return {c: sorted(entries, reverse=True) for c, entries in report.items()}


def test_phi_moves_out_the_shifting_entries_of_eviction():
    cases = 0
    for m in range(1, 6):
        for shape in compositions(m):
            for u in enumerate_ct(shape, 5):
                for k in range(1, u.n_rows + 1):
                    assert moved_out_by_phi(u, k) == eviction(rho(u), k), (u.rows, k)
                    cases += 1
    assert cases == 2348


def standard_reverse_tableaux(n: int):
    """Every reverse tableau with entries exactly 1..n: the labels n, n-1,
    ..., 1 placed in turn at each cell that can be added to the shape."""

    def grow(rows: tuple[tuple[int, ...], ...], label: int):
        if label == 0:
            yield Filling(rows)
            return
        for r in range(len(rows) + 1):
            if r == len(rows):
                yield from grow(rows + ((label,),), label - 1)
            elif r == 0 or len(rows[r]) < len(rows[r - 1]):
                yield from grow(rows[:r] + (rows[r] + (label,),) + rows[r + 1:], label - 1)

    return grow((), n)


def shifted(f: Filling) -> Filling:
    return Filling(tuple(tuple(v + 1 for v in row) for row in f.rows))


def test_shifted_evacuation_is_an_involution():
    tableaux = [t for n in range(1, 8) for t in standard_reverse_tableaux(n)]
    # As many as the involutions of 1..7 elements (RSK; Stanley, EC2, 7.13).
    assert len(tableaux) == 1 + 2 + 4 + 10 + 26 + 76 + 232 == 351
    for t in tableaux:
        assert shifted(evacuate(shifted(evacuate(t)))) == t, t.rows
