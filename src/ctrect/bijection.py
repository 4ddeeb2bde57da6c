"""Column-sort bijection between composition tableaux and reverse
semistandard Young tableaux.

``rho`` sorts every column of a composition tableau into decreasing order
and top-justifies it, producing a reverse SSYT.  ``rho_inv`` rebuilds the
composition tableau greedily: the first column is reversed into increasing
order, then each later column's entries are inserted in decreasing value
order, each into the highest row whose slot in that column is still open and
whose left neighbor is at least as large.

Both maps preserve the multiset of entries in every column, hence the
weight.  Each asserts the validity of its output, so a falsifying input
raises :class:`~ctrect.tableaux.InvariantViolationError` instead of passing
silently.  The public maps validate their input; the kernels ``_rho`` and
``_rho_inv`` trust it and check only their output.  ``_rho`` has no
duplicate check of its own: sorting puts a column's equal entries next to
each other, so the output check reports them as out of column order.
"""

from __future__ import annotations

from itertools import zip_longest

from .tableaux import Filling, InvariantViolationError, check_invariant, validate


def rho(u: Filling) -> Filling:
    """Map a valid composition tableau to its reverse SSYT."""
    return _rho(validate("ct", u))


def rho_inv(t: Filling) -> Filling:
    """Map a valid reverse SSYT back to its composition tableau."""
    return _rho_inv(validate("rssyt", t))


def _rho(u: Filling) -> Filling:
    # u must be a valid composition tableau.  Its entries are >= 1, so the 0
    # that zip_longest pads with marks an absent slot and sorts to the
    # bottom of its column; each row of the result ends at its first 0.
    cols = [sorted(col, reverse=True) for col in zip_longest(*u.rows, fillvalue=0)]
    out = [row[: row.index(0)] if 0 in row else row for row in zip(*cols)]
    return check_invariant("rssyt", Filling._trusted(out), "column sort did not produce a reverse SSYT")


def _rho_inv(t: Filling) -> Filling:
    # t must be a valid reverse SSYT, so its columns are top-justified and
    # strictly decreasing.
    if not t.rows:
        return t
    rows: list[list[int]] = [[row[0]] for row in reversed(t.rows)]
    for c in range(1, len(t.rows[0])):
        for trow in t.rows:
            if len(trow) <= c:
                break
            e = trow[c]
            for row in rows:
                if len(row) == c and row[-1] >= e:
                    row.append(e)
                    break
            else:
                raise InvariantViolationError(
                    f"no admissible row for entry {e} from column {c + 1}"
                )
    return check_invariant("ct", Filling._trusted(rows), "insertion did not produce a composition tableau")
