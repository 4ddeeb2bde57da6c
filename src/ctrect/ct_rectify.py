"""Direct rectification of composition tableaux, and the eviction ordering.

``phi`` rectifies the k largest first-column entries of a composition
tableau without a detour through reverse SSYT:

1. delete the bottom k first-column entries (the first column strictly
   increases, so the k largest are bottom-justified);
2. swap the entry directly right of each removed cell into column 1,
   leaving a hole; rows emptied entirely disappear;
3. reorder the rows so column 1 strictly increases;
4. column by column: the entries directly right of the removed boxes are
   pulled one column left, largest first, each into the highest cell whose
   left neighbor is filled with a value >= it and which is a hole, lies
   just past its row's end or holds a strictly smaller entry, bumping that
   entry; a bumped entry re-inserts strictly below its old row, cascading
   as needed.  Each pulled entry's source cell becomes a hole at once, and
   those holes are the removed boxes of the next column.  A hole's right
   neighbor is pulled in the same round, so it never turns an entry away.
   Inserts fill only the current column, so each round reads only the rows
   the previous round pulled from;
5. stop when no entry sits right of a removed box; trailing holes drop.

The result is again a composition tableau and agrees with mapping to the
reverse SSYT, rectifying k cells there and mapping back; the verification
harness checks that equality over every small instance.

``eviction`` finds the entries that jeu de taquin would shift left, without
sliding: remove the top k first-column entries, then align each column's
survivors against the next column (every survivor takes the highest
remaining entry not exceeding it); unmatched entries are the shifting
entries and the matched ones survive to align the following column.
Survivors and column entries both strictly decrease, so one walk down the
column with one pointer into the survivors does the alignment: an entry
above the current survivor exceeds every later survivor too, so it is
shifting, and each match lies below the previous one.
"""

from __future__ import annotations

from operator import itemgetter

from .tableaux import Filling, InvariantViolationError, _validate_k, check_invariant


def phi(u: Filling, k: int) -> Filling:
    """Rectify the k largest first-column cells of a composition tableau."""
    return _phi(_validate_k("ct", u, k), k, None)


def phi_steps(u: Filling, k: int) -> list[tuple[str, Filling]]:
    """Labelled snapshots of a phi run, ending with the final tableau."""
    steps: list[tuple[str, Filling]] = []
    _phi(_validate_k("ct", u, k), k, steps)
    return steps


def _phi(u: Filling, k: int, steps: list[tuple[str, Filling]] | None) -> Filling:
    # The kernel: u must be a valid composition tableau and 1 <= k <= u.n_rows.
    # Snapshots are taken only when a ``steps`` list is given.
    n = u.n_rows
    grid: list[list[int | None]] = [list(row) for row in u.rows]

    if steps is not None:  # the swap overwrites every removed cell that stays
        for row in grid[n - k:]:
            row[0] = None
        steps.append((f"remove {k} cell(s) from column 1", Filling(grid)))

    kept = grid[: n - k]
    for row in grid[n - k:]:
        if len(row) > 1:  # a row left empty disappears
            row[0], row[1] = row[1], None
            kept.append(row)
    grid = kept
    if steps is not None:
        steps.append(("swap into column 1", Filling(grid)))

    grid.sort(key=itemgetter(0))
    if steps is not None:
        steps.append(("reorder rows", Filling(grid)))

    # The rows of the removed boxes (step 4 of the module docstring).
    sources = [r for r, row in enumerate(grid) if len(row) > 1 and row[1] is None]
    col = 2  # the 1-based column whose removed boxes are being processed
    while True:
        candidates = sorted([(-grid[r][col], r) for r in sources if len(grid[r]) > col])
        if not candidates:
            break
        for neg_e, r_src in candidates:
            grid[r_src][col] = None  # vacate the source before any bump lands
            _insert(grid, -neg_e, col)
        if steps is not None:
            steps.append((f"column {col} round", Filling(grid)))
        sources = [r for _, r in candidates]
        col += 1

    for row in grid:
        while row and row[-1] is None:
            row.pop()
    out = check_invariant("ct", Filling._trusted(grid), "phi did not produce a composition tableau")
    if steps is not None:
        steps.append(("result", out))
    return out


def _insert(grid: list[list[int | None]], e: int, col: int) -> None:
    # col is the 1-based target column.  A bump cannot break the row: its
    # right neighbor is <= the bumped entry < e.  A hole's right neighbor is
    # a source of the current round, vacated before the round ends, so it
    # does not constrain e.
    i = col - 1
    for row in grid:
        if len(row) < i:
            continue
        left = row[i - 1]
        if left is None or left < e:
            continue
        if len(row) == i:
            row.append(e)
            return
        cur = row[i]
        if cur is None:
            row[i] = e
            return
        if cur < e:
            row[i], e = e, cur
    raise InvariantViolationError(f"no admissible cell in column {col} for entry {e}")


def eviction(t: Filling, k: int) -> dict[int, list[int]]:
    """Shifting entries of a k-cell rectification, found by alignment.

    Returns column index -> shifting entries in decreasing order; columns
    without shifting entries are omitted.
    """
    return _eviction(_validate_k("rssyt", t, k), k)


def _eviction(t: Filling, k: int) -> dict[int, list[int]]:
    # The kernel: t must be a valid reverse SSYT and 1 <= k <= t.n_rows, so
    # its first row is its longest.  One walk down each column with one
    # pointer into its survivors (see the module docstring); past the last
    # survivor, s reads 0 and every remaining entry is shifting.
    rows = t.rows
    survivors = [row[0] for row in rows[k:]]
    report: dict[int, list[int]] = {}
    for c in range(1, len(rows[0])):  # 0-based column index
        pointer = iter(survivors)
        s = next(pointer, 0)
        matched: list[int] = []
        shifting: list[int] = []
        for row in rows:
            if len(row) <= c:
                break  # columns are top-justified
            e = row[c]
            if e <= s:
                matched.append(e)
                s = next(pointer, 0)
            else:
                shifting.append(e)
        if shifting:
            report[c + 1] = shifting
        survivors = matched
    return report
