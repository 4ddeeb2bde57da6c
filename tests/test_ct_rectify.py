"""Direct rectification of composition tableaux and the eviction ordering."""

from __future__ import annotations

import pytest

from ctrect import (
    Filling,
    eviction,
    phi,
    phi_steps,
    rectify_k,
    rho,
    rho_inv,
    shifting_entries,
    validate,
    weight_of,
)
from ctrect.ct_rectify import _insert
from ctrect.polynomials import compositions, enumerate_ct, enumerate_rssyt, partitions
from ctrect.tableaux import InvariantViolationError

from conftest import load


class TestPhiFixtures:
    def test_single_cell_example(self):
        u = validate("ct", load("ct_phi1_input.txt"))
        assert phi(u, 1) == load("ct_phi1_expected.txt")

    def test_three_cell_example(self):
        u = validate("ct", load("ct_phi3_input.txt"))
        assert phi(u, 3) == load("ct_phi3_expected.txt")

    def test_two_by_two(self):
        assert phi(Filling([[2, 2], [3, 1]]), 1) == Filling([[1], [2, 2]])

    def test_weight_bookkeeping(self):
        u = load("ct_phi3_input.txt")
        out = phi(u, 3)
        removed = sorted(u.column(1), reverse=True)[:3]
        entries = sorted(v for _, _, v in u.cells())
        for e in removed:
            entries.remove(e)
        assert sorted(v for _, _, v in out.cells()) == entries
        assert weight_of(out) != weight_of(u)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            phi(Filling([[1]]), 2)

    def test_an_internal_hole_is_a_hole_violation(self, monkeypatch):
        # A broken insert that leaves a hole inside a row: phi's postcondition
        # reports it as a ``hole`` violation.
        monkeypatch.setattr("ctrect.ct_rectify._insert", lambda grid, e, col: grid[0].append(e))
        message = "^phi did not produce a composition tableau: "
        with pytest.raises(InvariantViolationError, match=message) as info:
            phi(load("ct_phi3_input.txt"), 3)
        assert "hole" in [v.rule for v in info.value.violations]

    def test_eleven_cell_case_matches_the_detour(self):
        # In the column-3 round the bumped 1 lands in a hole whose right
        # neighbour, 2, is pulled later in the same round; a test on that
        # neighbour once turned the 1 away and left it no admissible cell.
        u = validate("ct", Filling([[3, 1, 1], [5, 5, 5, 3], [6, 4, 3, 2]]))
        expected = Filling([[3, 3, 3], [4, 1, 1], [5, 5, 2]])
        assert rho_inv(rectify_k(rho(u), 2)[0]) == expected
        assert phi(u, 2) == expected

    def test_steps_follow_the_printed_stages(self):
        labels = [label for label, _ in phi_steps(load("ct_phi3_input.txt"), 3)]
        assert labels == [
            "remove 3 cell(s) from column 1",
            "swap into column 1",
            "reorder rows",
            "column 2 round",
            "column 3 round",
            "result",
        ]

    def test_intermediate_diagrams_match_figures(self):
        steps = dict(phi_steps(load("ct_phi3_input.txt"), 3))
        assert steps["swap into column 1"] == Filling(
            [[3, 3, 2, 1], [5, 5, 4, 4], [6, None, 6, 3], [4, None, 1], [2, None]]
        )
        assert steps["reorder rows"] == Filling(
            [[2, None], [3, 3, 2, 1], [4, None, 1], [5, 5, 4, 4], [6, None, 6, 3]]
        )
        assert steps["column 2 round"] == Filling(
            [[2, 1], [3, 3, 2, 1], [4, None, None], [5, 5, 4, 4], [6, 6, None, 3]]
        )
        assert steps["column 3 round"] == Filling(
            [[2, 1], [3, 3, 3, 1], [4, None, None], [5, 5, 4, 4], [6, 6, 2, None]]
        )


class TestInsert:
    """One pull of step 4, on a bare grid; col is 1-based."""

    def test_bumps_cascade_down_to_an_append(self):
        grid = [[5, 2], [4, 1], [3]]
        _insert(grid, 3, 2)
        assert grid == [[5, 3], [4, 2], [3, 1]]

    def test_a_bumped_entry_lands_below_its_old_row(self):
        # The bumped 4 would fit at the end of the first row, above it.
        grid = [[1, 4], [2, 6, 4], [3, 5]]
        _insert(grid, 5, 3)
        assert grid == [[1, 4], [2, 6, 5], [3, 5, 4]]

    def test_fills_a_hole(self):
        grid = [[5, None, 1], [4, 2]]
        _insert(grid, 3, 2)
        assert grid == [[5, 3, 1], [4, 2]]

    def test_no_admissible_cell_raises(self):
        with pytest.raises(InvariantViolationError, match="^no admissible cell in column 2 for entry 5$"):
            _insert([[2], [1]], 5, 2)


class TestEviction:
    def test_worked_example(self):
        assert eviction(load("rssyt_eviction.txt"), 3) == {2: [8, 4], 3: [6]}

    def test_one_row(self):
        assert eviction(Filling([[2, 1]]), 1) == {2: [1]}

    def test_two_by_two(self):
        assert eviction(Filling([[3, 2], [2, 1]]), 1) == {2: [1]}

    def test_no_shifts(self):
        assert eviction(Filling([[2], [1]]), 1) == {}

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            eviction(Filling([[1]]), 2)


MAX_CELLS, MAX_ENTRY = 5, 5


def _all_cts(max_cells, max_entry):
    for m in range(1, max_cells + 1):
        for shape in compositions(m):
            yield from enumerate_ct(shape, max_entry)


def _all_rssyts(max_cells, max_entry):
    for m in range(1, max_cells + 1):
        for shape in partitions(m):
            yield from enumerate_rssyt(shape, max_entry)


def test_commutativity_exhaustive_small():
    for u in _all_cts(MAX_CELLS, MAX_ENTRY):
        t = rho(u)
        for k in range(1, u.n_rows + 1):
            assert phi(u, k) == rho_inv(rectify_k(t, k)[0]), (u, k)


def test_eviction_matches_traces_exhaustive_small():
    for t in _all_rssyts(MAX_CELLS, MAX_ENTRY):
        for k in range(1, t.n_rows + 1):
            _, traces = rectify_k(t, k)
            trace_report = {
                c: sorted(v, reverse=True) for c, v in shifting_entries(traces).items()
            }
            assert eviction(t, k) == trace_report, (t, k)


def test_eviction_localizes_to_rectified_rows_exhaustive_small():
    for t in _all_rssyts(MAX_CELLS, MAX_ENTRY):
        u = rho_inv(t)
        for k in range(1, t.n_rows + 1):
            localized: dict[int, list[int]] = {}
            for row in u.rows[u.n_rows - k :]:
                for c in range(2, len(row) + 1):
                    localized.setdefault(c, []).append(row[c - 1])
            localized = {c: sorted(v, reverse=True) for c, v in localized.items()}
            assert eviction(t, k) == localized, (t, k)


def test_column_multisets_preserved_by_phi():
    # each column of phi's output carries the same entries as the
    # corresponding column of the rectified reverse SSYT
    for u in _all_cts(4, 4):
        t = rho(u)
        for k in range(1, u.n_rows + 1):
            out = phi(u, k)
            rectified, _ = rectify_k(t, k)
            width = max(out.width, rectified.width)
            for c in range(1, width + 1):
                assert sorted(out.column(c)) == sorted(rectified.column(c)), (u, k, c)
