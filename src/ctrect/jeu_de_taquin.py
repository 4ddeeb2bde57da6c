"""Jeu-de-taquin rectification of reverse semistandard Young tableaux.

A single rectification round removes the entry at (1,1) (the largest in
column 1, since columns strictly decrease downward) and slides the larger of
the two neighbors below and to the right into the empty cell, the lower one
on a tie, until both neighbors read 0; the final empty corner is deleted.

Rectifying k cells deletes the k largest first-column entries (the top k
cells of column 1) up front and slides the holes out of the remaining skew
tableau.  Only the lowest hole is ever an inner corner of the hole region,
so the slides run bottom to top; for k = 1 this is exactly the single
round.  Each hole's slide is recorded as a :class:`SlideTrace`, and the
traces are reported largest removed entry first, so ``traces[n-1]``
rectifies the n-th largest cell and, column by column, shifting entries
appear in strictly decreasing order across traces.

An entry that moves one column left during a slide is a *shifting entry*.
For a single round the shifting entries are exactly the diagonally dominant
entries on the southeast path traced by :func:`dominant_path`, which
finds them declaratively, without sliding.  :func:`replay` rebuilds every
intermediate diagram from the traces.

:func:`evacuate` iterates single rounds, writing ``n - removed`` into each
vacated corner of a same-shape output grid.
"""

from __future__ import annotations

from collections import namedtuple

from .tableaux import (
    Filling,
    InvariantViolationError,
    _Record,
    _check_int,
    _validate_k,
    check_invariant,
    validate,
)

ShiftReport = dict[int, list[int]]


class SlideStep(_Record, namedtuple("SlideStep", "from_cell to_cell entry direction")):
    """One slide: ``entry`` moved from ``from_cell`` into ``to_cell``,
    ``direction`` ``"up"`` or ``"left"``."""

    __slots__ = ()


class SlideTrace(_Record, namedtuple("SlideTrace", "removed_entry steps vacated_cell")):
    """Record of sliding one removed cell out of the tableau.

    ``steps`` are in path order; ``vacated_cell`` is the corner deleted from
    the shape once no neighbor is left to slide.
    """

    __slots__ = ()

    def left_shifts(self) -> list[tuple[int, int, int]]:
        """(row, column, entry) of each column-crossing slide, in order."""
        return [(r, c, entry) for (r, c), _, entry, direction in self.steps if direction == "left"]


def _slide_out(grid: list[list[int | None]], er: int, removed: int) -> SlideTrace:
    # Slide the hole at 0-based (er, 0) out of the grid, mutating it.  Any
    # other holes sit above the slide path and are never read.  ``row`` is
    # the hole's row and ``nxt`` the one below (empty past the last row);
    # entries are positive, so a hole or an absent slot reads 0.
    steps: list[SlideStep] = []
    new = tuple.__new__
    last = len(grid) - 1
    ec = 0
    row = grid[er]
    nxt = grid[er + 1] if er < last else []
    while True:
        below = (nxt[ec] or 0) if ec < len(nxt) else 0
        right = (row[ec + 1] or 0) if ec + 1 < len(row) else 0
        if not (below or right):
            break
        if below >= right:  # the lower neighbor wins ties
            row[ec] = below
            nxt[ec] = None
            steps.append(new(SlideStep, ((er + 2, ec + 1), (er + 1, ec + 1), below, "up")))
            er += 1
            row = nxt
            nxt = grid[er + 1] if er < last else []
        else:
            row[ec] = right
            row[ec + 1] = None
            steps.append(new(SlideStep, ((er + 1, ec + 2), (er + 1, ec + 1), right, "left")))
            ec += 1
    _vacate(grid, er, ec)
    return new(SlideTrace, (removed, tuple(steps), (er + 1, ec + 1)))


def _vacate(grid: list[list[int | None]], er: int, ec: int) -> None:
    # Delete the empty slot at 0-based (er, ec), where a slide ended.  Only
    # the bottom row may empty: the holes are slid out bottom to top.
    if len(grid[er]) != ec + 1:
        raise InvariantViolationError(f"slide ended at ({er + 1},{ec + 1}), not a corner")
    grid[er].pop()
    if not grid[er]:
        if er != len(grid) - 1:
            raise InvariantViolationError(f"row {er + 1} emptied above a nonempty row")
        grid.pop()


def _rectify_cells(t: Filling, k: int) -> tuple[Filling, list[SlideTrace]]:
    # The kernel behind every rectification: t must be a valid reverse SSYT
    # and 1 <= k <= t.n_rows.  Only the output is checked.
    grid: list[list[int | None]] = [list(row) for row in t.rows]
    for i in range(k):
        grid[i][0] = None
    traces = [_slide_out(grid, i, t.rows[i][0]) for i in range(k - 1, -1, -1)]
    traces.reverse()  # report by cell: largest removed entry first
    out = check_invariant("rssyt", Filling._trusted(grid), "slides broke the tableau rules")
    return out, traces


def rectify_k(t: Filling, k: int) -> tuple[Filling, list[SlideTrace]]:
    """Rectify the k largest first-column cells of a valid reverse SSYT.

    The k cells are deleted first and their holes slid out bottom to top;
    ``traces[n-1]`` is the slide of the cell holding the n-th largest
    removed entry.  ``rectify_k(t, 1)`` is one rectification round, its
    single trace the slide of the (1,1) entry.
    """
    return _rectify_cells(_validate_k("rssyt", t, k), k)


def rectify_k_steps(t: Filling, k: int) -> list[tuple[str, Filling]]:
    """Labelled snapshots of a k-cell rectification, in slide order."""
    out, traces = rectify_k(t, k)
    return _replay(t, *traces) + [("result", out)]


def shifting_entries(traces: list[SlideTrace]) -> ShiftReport:
    """Per-column shifting entries across traces, in trace order.

    Column index maps to the list of entries that left that column, one per
    trace that shifted there.
    """
    report: ShiftReport = {}
    for trace in traces:
        for (_, c), _, e, direction in trace.steps:
            if direction == "left":
                report.setdefault(c, []).append(e)
    return report


def is_diagonally_dominant(t: Filling, row: int, col: int) -> bool:
    """True when the entry of a valid reverse SSYT exceeds the one a row
    down and a column left.

    Absent slots read 0; only filled cells in columns >= 2 qualify.
    """
    t = validate("rssyt", t)
    _check_int(row, "row")
    _check_int(col, "col")
    if col < 2:
        raise ValueError("diagonal dominance is defined for columns >= 2")
    if t.entry(row, col) == 0:
        raise ValueError(f"({row},{col}) is not a filled cell")
    return _is_dominant(t, row, col)


def _is_dominant(t: Filling, row: int, col: int) -> bool:
    # The kernel: t must be a valid reverse SSYT with a filled cell at
    # (row, col), col >= 2.
    return t.entry(row, col) > t.entry(row + 1, col - 1)


def dominant_path(t: Filling) -> list[tuple[int, int, int]]:
    """Southeast path of diagonally dominant entries, one per column.

    For each column from 2 on, pick the largest dominant entry at or below
    the previously chosen row; stop at the first column without one.  For a
    single round this is exactly the column shifts of ``rectify_k(t, 1)``;
    the ``dominance`` property of the verification harness checks that.
    """
    return _dominant_path(validate("rssyt", t))


def _dominant_path(t: Filling) -> list[tuple[int, int, int]]:
    # The kernel: t must be a valid reverse SSYT (an empty one has no path).
    # Indices are 0-based; a valid tableau has no holes, and a slot past the
    # end of a row reads 0.
    rows = t.rows
    last = len(rows) - 1
    path: list[tuple[int, int, int]] = []
    r = 0
    for c in range(1, t.width):
        while r <= last and c < len(rows[r]):  # columns are top-justified
            v = rows[r][c]
            below = rows[r + 1] if r < last else ()
            if v > (below[c - 1] if c - 1 < len(below) else 0):
                break  # the topmost dominant entry is the largest
            r += 1
        else:
            return path
        path.append((r + 1, c + 1, v))
    return path


def replay(t: Filling, *traces: SlideTrace) -> list[tuple[str, Filling]]:
    """Labelled snapshots of a k-cell rectification, reconstructed from its
    ``k = len(traces)`` traces, given in the order :func:`rectify_k`
    reports them.

    Snapshots show the migrating empty cells as holes; the last snapshot is
    the rectified tableau.  Raises when a trace does not fit the tableau,
    including a step whose direction disagrees with its cells, so tests can
    use it to check trace coherence.
    """
    return _replay(validate("rssyt", t), *traces)


def _replay(t: Filling, *traces: SlideTrace) -> list[tuple[str, Filling]]:
    # The kernel: t must be a valid reverse SSYT; the traces are checked here.
    grid: list[list[int | None]] = [list(row) for row in t.rows]
    for i, trace in enumerate(traces):
        if i >= len(grid) or not grid[i] or grid[i][0] != trace.removed_entry:
            raise InvariantViolationError(f"trace {i + 1} does not remove the entry at ({i + 1},1)")
        grid[i][0] = None
    states = [(f"remove {len(traces)} cell(s) from column 1", Filling(grid))]
    for i in range(len(traces) - 1, -1, -1):
        hr, hc = i + 1, 1  # the migrating empty cell
        for step in traces[i].steps:
            direction = "up" if step.direction == "up" else "left"
            fr, fc = (hr + 1, hc) if direction == "up" else (hr, hc + 1)
            held = grid[fr - 1][fc - 1] if fr <= len(grid) and fc <= len(grid[fr - 1]) else None
            if held is None or step != SlideStep((fr, fc), (hr, hc), held, direction):
                raise InvariantViolationError(f"trace step {step} does not fit the grid")
            grid[hr - 1][hc - 1] = step.entry
            grid[fr - 1][fc - 1] = None
            hr, hc = fr, fc
            states.append((f"slide {step.entry} {step.direction} from ({fr},{fc})", Filling(grid)))
        if traces[i].vacated_cell != (hr, hc):
            raise InvariantViolationError(f"vacated cell {traces[i].vacated_cell} is not the empty cell")
        _vacate(grid, hr - 1, hc - 1)
        states.append((f"vacate ({hr},{hc})", Filling(grid)))
    return states


def evacuate(t: Filling) -> Filling:
    """Iterated rectification writing ``n - removed`` into each vacated cell.

    The output has the shape of the input with every cell filled; when the
    removed entry equals the cell count the written value is 0, which only
    the carrier tolerates.  Entries above the cell count would force
    negative values, so they are rejected up front.
    """
    t = validate("rssyt", t)
    n = t.cell_count
    top = t.entry(1, 1)  # the largest entry; 0 when t is empty
    if top > n:
        raise ValueError(f"entry {top} exceeds the cell count {n}; n - entry would be negative")
    out: list[list[int | None]] = [[None] * len(row) for row in t.rows]
    while t.n_rows:
        t, (trace,) = _rectify_cells(t, 1)
        r, c = trace.vacated_cell
        out[r - 1][c - 1] = n - trace.removed_entry
    if any(v is None for row in out for v in row):
        raise InvariantViolationError("evacuation left an unfilled cell")
    return Filling(out)
