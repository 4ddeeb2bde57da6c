"""Rectification rounds, traces, dominance, k-cell slides, evacuation."""

from __future__ import annotations

import pytest

from ctrect import (
    Filling,
    InvalidTableauError,
    InvariantViolationError,
    SlideStep,
    SlideTrace,
    dominant_path,
    evacuate,
    is_diagonally_dominant,
    rectify_k,
    rectify_k_steps,
    replay,
    shifting_entries,
)
from ctrect import jeu_de_taquin
from ctrect.jeu_de_taquin import _vacate
from ctrect.polynomials import enumerate_rssyt, partitions

from conftest import load, weight_of


class TestRectifyOnce:
    def test_worked_figure(self, rssyt_t):
        result, (trace,) = rectify_k(rssyt_t, 1)
        assert result == load("rssyt_t_rectified.txt")
        assert trace.removed_entry == 7
        assert trace.vacated_cell == (4, 3)
        assert trace.left_shifts() == [(1, 2, 7), (3, 3, 3)]
        assert shifting_entries([trace]) == {2: [7], 3: [3]}

    def test_single_cell(self):
        result, (trace,) = rectify_k(Filling([[1]]), 1)
        assert result == Filling(())
        assert trace.removed_entry == 1
        assert trace.steps == ()
        assert trace.vacated_cell == (1, 1)
        assert shifting_entries([trace]) == {}

    def test_two_by_two(self):
        result, (trace,) = rectify_k(Filling([[3, 2], [2, 1]]), 1)
        assert result == Filling([[2, 2], [1]])
        assert trace.removed_entry == 3
        assert [(s.entry, s.direction, s.from_cell) for s in trace.steps] == [
            (2, "up", (2, 1)),
            (1, "left", (2, 2)),
        ]
        assert shifting_entries([trace]) == {2: [1]}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rectify_k(Filling(()), 1)

    def test_multiset_conservation(self, rssyt_t):
        result, (trace,) = rectify_k(rssyt_t, 1)
        before = sorted(v for row in rssyt_t.rows for v in row)
        after = sorted(v for row in result.rows for v in row)
        before.remove(trace.removed_entry)
        assert after == before

    def test_replay_reaches_result(self, rssyt_t):
        result, (trace,) = rectify_k(rssyt_t, 1)
        states = replay(rssyt_t, trace)
        assert states[-1][1] == result


class TestRectifyK:
    def test_column_drains(self):
        out, traces = rectify_k(Filling([[3], [2], [1]]), 3)
        assert out == Filling(())
        assert [t.removed_entry for t in traces] == [3, 2, 1]

    def test_two_by_two_k2(self):
        out, traces = rectify_k(Filling([[3, 2], [2, 1]]), 2)
        assert out == Filling([[2], [1]])
        # traces are indexed by cell: largest removed entry first
        assert [t.removed_entry for t in traces] == [3, 2]
        assert shifting_entries(traces) == {2: [2, 1]}

    def test_removes_first_column_entries(self):
        # the deleted entries are the k largest of the original first
        # column, even when a shifted entry tops the column mid-run
        t = Filling([[2, 2], [1]])
        out, traces = rectify_k(t, 2)
        assert out == Filling([[2]])
        assert [tr.removed_entry for tr in traces] == [2, 1]
        assert weight_of(out) == (0, 1)

    def test_k_out_of_range(self, rssyt_t):
        with pytest.raises(ValueError):
            rectify_k(rssyt_t, 0)
        with pytest.raises(ValueError):
            rectify_k(rssyt_t, 6)

    def test_steps_end_with_result(self, rssyt_t):
        steps = rectify_k_steps(rssyt_t, 2)
        assert steps[0][0] == "remove 2 cell(s) from column 1"
        assert steps[-1] == ("result", rectify_k(rssyt_t, 2)[0])


class TestShiftReportOrdering:
    def test_eviction_example_round_order(self):
        t = load("rssyt_eviction.txt")
        _, traces = rectify_k(t, 3)
        report = shifting_entries(traces)
        assert report == {2: [8, 4], 3: [6]}
        for seq in report.values():
            assert seq == sorted(seq, reverse=True)


class TestDominance:
    def test_examples(self, rssyt_t):
        assert is_diagonally_dominant(rssyt_t, 1, 2) is True  # 7 > 6
        assert is_diagonally_dominant(rssyt_t, 1, 3) is False  # 5 > 5 fails
        assert is_diagonally_dominant(rssyt_t, 5, 2) is True  # 1 > absent 0

    def test_first_column_rejected(self, rssyt_t):
        with pytest.raises(ValueError):
            is_diagonally_dominant(rssyt_t, 1, 1)

    def test_unfilled_cell_rejected(self, rssyt_t):
        with pytest.raises(ValueError):
            is_diagonally_dominant(rssyt_t, 1, 6)

    def test_invalid_tableau_rejected(self):
        # Rows 1 5 and a hole: neither rows nor entries fit a reverse SSYT.
        with pytest.raises(InvalidTableauError):
            is_diagonally_dominant(Filling([[1, 5], [None]]), 1, 2)

    def test_path_fixture(self, rssyt_t):
        assert dominant_path(rssyt_t) == [(1, 2, 7), (3, 3, 3)]

    def test_path_one_row(self):
        assert dominant_path(Filling([[2, 1]])) == [(1, 2, 1)]

    def test_path_single_column(self):
        assert dominant_path(Filling([[2], [1]])) == []

    def test_exhaustive_small(self):
        # every left shift is dominant at its source and the declarative
        # path reproduces the trace, for every rssyt with <= 5 cells
        for m in range(1, 6):
            for shape in partitions(m):
                for t in enumerate_rssyt(shape, 5):
                    _, (trace,) = rectify_k(t, 1)
                    shifts = trace.left_shifts()
                    assert all(is_diagonally_dominant(t, r, c) for r, c, _ in shifts), t
                    assert dominant_path(t) == shifts, t


class TestInvariants:
    def test_shape_and_path_structure(self):
        # vacated corner shrinks the shape by one cell; left-shift source
        # columns are consecutive from column 2 with weakly increasing rows
        for m in range(1, 6):
            for shape in partitions(m):
                for t in enumerate_rssyt(shape, 5):
                    result, (trace,) = rectify_k(t, 1)
                    assert result.cell_count == t.cell_count - 1
                    shifts = trace.left_shifts()
                    assert [c for _, c, _ in shifts] == list(range(2, 2 + len(shifts)))
                    rows = [r for r, _, _ in shifts]
                    assert rows == sorted(rows)
                    assert replay(t, trace)[-1][1] == result
                    for k in range(1, t.n_rows + 1):
                        out, traces = rectify_k(t, k)
                        assert replay(t, *traces)[-1][1] == out, (t, k)

    def test_replay_rejects_a_trace_that_empties_a_row_above_another(self):
        forged = SlideTrace(2, (), (1, 1))
        with pytest.raises(InvariantViolationError, match="row 1 emptied above a nonempty row"):
            replay(Filling([[2], [1]]), forged)

    def test_replay_rejects_a_step_from_outside_the_grid(self):
        forged = SlideTrace(1, (SlideStep((2, 1), (1, 1), 5, "up"),), (2, 1))
        with pytest.raises(InvariantViolationError, match="does not fit the grid"):
            replay(Filling([[1]]), forged)

    def test_replay_rejects_a_hole_as_a_step_source(self):
        forged = SlideTrace(1, (SlideStep((2, 1), (1, 1), None, "up"),), (2, 1))
        with pytest.raises(InvariantViolationError, match="does not fit the grid"):
            replay(Filling([[1]]), forged)

    def test_replay_rejects_a_step_whose_direction_disagrees_with_its_cells(self):
        t = Filling([[3, 1], [2]])
        (trace,) = rectify_k(t, 1)[1]
        (step,) = trace.steps
        assert step == SlideStep((2, 1), (1, 1), 2, "up")
        forged = trace._replace(steps=(step._replace(direction="left"),))
        with pytest.raises(InvariantViolationError, match="does not fit the grid"):
            replay(t, forged)

    def test_replay_rejects_a_vacated_cell_that_is_not_the_empty_cell(self):
        t = Filling([[3, 2], [1]])
        (trace,) = rectify_k(t, 1)[1]
        with pytest.raises(InvariantViolationError, match=r"^vacated cell \(1, 1\) is not the empty cell$"):
            replay(t, trace._replace(vacated_cell=(1, 1)))

    def test_vacate_rejects_a_cell_that_is_not_a_corner(self):
        with pytest.raises(InvariantViolationError, match=r"^slide ended at \(1,1\), not a corner$"):
            _vacate([[1, 2]], 0, 0)

    def test_replay_rejects_more_traces_than_rows(self):
        empty = SlideTrace(1, (), (1, 1))
        with pytest.raises(InvariantViolationError, match=r"trace 2 does not remove the entry at \(2,1\)"):
            replay(Filling([[1]]), empty, empty)


class TestEvacuate:
    def test_worked_example(self):
        assert evacuate(load("rssyt_evac_input.txt")) == load("rssyt_evac_expected.txt")

    def test_single_cell_writes_zero(self):
        assert evacuate(Filling([[1]])) == Filling([[0]])

    def test_column_pair(self):
        assert evacuate(Filling([[2], [1]])) == Filling([[1], [0]])

    def test_shape_preserved(self):
        for m in range(1, 6):
            for shape in partitions(m):
                # entries above the cell count make n - entry negative
                for t in enumerate_rssyt(shape, min(4, m)):
                    out = evacuate(t)
                    assert [len(row) for row in out.rows] == list(shape)

    def test_entry_above_cell_count_rejected(self):
        with pytest.raises(ValueError, match="exceeds the cell count"):
            evacuate(Filling([[4]]))

    def test_a_cell_no_round_vacates_is_reported(self, monkeypatch):
        # Every round must vacate a different cell: slides that all reported
        # (1, 1) would leave the rest of the shape unfilled.
        real = jeu_de_taquin._rectify_cells

        def same_cell(t, k):
            out, traces = real(t, k)
            return out, tuple(trace._replace(vacated_cell=(1, 1)) for trace in traces)

        monkeypatch.setattr(jeu_de_taquin, "_rectify_cells", same_cell)
        with pytest.raises(InvariantViolationError) as exc:
            evacuate(Filling([[2], [1]]))
        assert str(exc.value) == "evacuation left an unfilled cell"

    def test_fixture_output_is_valid_rssyt(self):
        from ctrect import violations

        assert violations("rssyt", evacuate(load("rssyt_evac_input.txt"))) == []
