"""Grid data model for tableaux.

A :class:`Filling` is a rows-of-slots grid.  Each slot holds a positive
integer or an explicit hole; slots past the end of a row are absent.  Holes
and absent slots both read as entry 0.  On top of the carrier this module
provides the text and JSON formats, the package's one rule for an integer
argument, read as text (``parse_int``) or passed as an object (``_check_int``,
``_check_shape``), and validators for the four tableau families used
throughout the package:

* ``ssyt``  - semistandard Young tableaux (weakly increasing rows, strictly
  increasing columns, partition shape),
* ``rssyt`` - reverse semistandard Young tableaux (weakly decreasing rows,
  strictly decreasing columns, partition shape),
* ``syt``   - standard Young tableaux (an ssyt filled with 1..n, each once),
* ``ct``    - composition tableaux (strictly increasing first column, weakly
  decreasing rows, and the triple rule: for a cell ``a`` directly right of a
  cell ``c`` and any filled cell ``b`` below ``a`` in the same column, if
  ``a <= b`` then ``b > c``, empty slots reading 0).

Coordinates are (row, column), 1-based, row 1 at the top and column 1 at
the left.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Literal

Row = tuple[int | None, ...]
PartitionShape = tuple[int, ...]
CompositionShape = tuple[int, ...]
TableauKind = Literal["ssyt", "rssyt", "syt", "ct"]

KINDS: tuple[TableauKind, ...] = ("ssyt", "rssyt", "syt", "ct")

HOLE_TOKEN = "."


class ParseError(ValueError):
    """Malformed text or JSON input."""


class InvalidTableauError(ValueError):
    """A filling failed validation for the requested tableau kind."""

    def __init__(self, kind: str, violations: list["Violation"]):
        self.kind = kind
        self.violations = violations
        summary = "; ".join(str(v) for v in violations)
        super().__init__(f"not a valid {kind}: {summary}")

    def __reduce__(self):
        # So that an error raised in a worker process reaches the caller.
        return type(self), (self.kind, self.violations)


class InvariantViolationError(RuntimeError):
    """A theorem-backed internal invariant failed.

    Raised when an operation whose correctness is guaranteed for valid input
    reaches a state that should be impossible: either the input was corrupted
    or the instance falsifies the guarantee, and the verification harness
    records it either way.  ``violations`` lists the broken tableau rules
    when the failed invariant is a produced tableau's validity, and is empty
    otherwise.
    """

    def __init__(self, message: str, violations: list["Violation"] | None = None):
        super().__init__(message)
        self.violations = violations or []


class _Record:
    """Mixin of the immutable records, each a ``namedtuple`` subclass that
    lists this class first among its bases, so that its ``__eq__`` wins.  A
    record equals only a record of its own class with equal fields, never a
    plain tuple, and hashes like the tuple of its fields.  Each record
    declares ``__slots__ = ()``, so no attribute can be added."""

    __slots__ = ()

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # NotImplemented would let tuple.__eq__ compare a plain tuple as equal.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object):
        return not self == other

    __hash__ = tuple.__hash__


class Violation(_Record, namedtuple("Violation", "rule cell message")):
    """One broken validation rule: rule id, offending cell, description."""

    __slots__ = ()

    def __str__(self) -> str:
        r, c = self.cell
        return f"[{self.rule}] at ({r},{c}): {self.message}"


class Filling:
    """Immutable grid of optional positive entries.

    ``rows[r][c]`` is ``None`` for a hole.  Entries are normally >= 1; entry
    0 is tolerated by the carrier only because evacuation writes ``n - e``
    verbatim, which can be 0.  The parser and every validator reject 0.
    """

    # A slot, not a namedtuple field: ``rows`` is read in every hot loop, and
    # a slot reads in half the time of a field getter.
    __slots__ = ("rows",)
    rows: tuple[Row, ...]

    def __init__(self, rows: Iterable[Iterable[int | None]] = ()) -> None:
        _set_rows(self, rows)
        # Looked up on the class at every call, so a wrapper put there (to
        # count constructions, say) sees each validated construction.
        self.__post_init__()

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.rows)
        for r, row in enumerate(rows, start=1):
            for c, v in enumerate(row, start=1):
                if v is None:
                    continue
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    raise ValueError(
                        f"slot ({r},{c}): expected None or a nonnegative integer, got {v!r}"
                    )
        _set_rows(self, rows)

    @classmethod
    def _trusted(cls, rows: Iterable[Iterable[int | None]]) -> "Filling":
        """Build a filling whose slots all come from validated fillings, or
        from the enumerators' ranges of positive integers that the shape and
        the largest entry bound, skipping the per-slot type check of the
        public constructor."""
        f = object.__new__(cls)
        _set_rows(f, tuple(map(tuple, rows)))
        return f

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __reduce__(self):
        # Unpickling a slot would otherwise go through __setattr__.
        return (self.__class__, (self.rows,))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(rows={self.rows!r})"

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return max((len(row) for row in self.rows), default=0)

    @property
    def cell_count(self) -> int:
        """Number of non-hole slots."""
        return sum(1 for row in self.rows for v in row if v is not None)

    def entry(self, r: int, c: int) -> int:
        """Entry at (r, c); holes, absent slots and out-of-range read 0."""
        if r < 1 or c < 1 or r > len(self.rows):
            return 0
        row = self.rows[r - 1]
        if c > len(row):
            return 0
        v = row[c - 1]
        return 0 if v is None else v

    def __str__(self) -> str:
        return render_filling(self)


# The slot's own setter: it skips Filling.__setattr__, and is quicker than
# object.__setattr__.
_set_rows = Filling.rows.__set__


def parse_filling(text: str) -> Filling:
    """Parse the canonical text format.

    One line per row, whitespace-separated tokens, each token a positive
    decimal integer or ``.`` for a hole.  Trailing blank lines are dropped,
    so whitespace-only input gives the empty filling.

    Raises:
        ParseError: for a zero, negative or otherwise malformed token,
            reporting the row and the token position within it.
    """
    rows: list[tuple[int | None, ...]] = []
    for lineno, line in enumerate(text.rstrip().splitlines(), start=1):
        row: list[int | None] = []
        for colno, tok in enumerate(line.split(), start=1):
            if tok == HOLE_TOKEN:
                row.append(None)
                continue
            if not (tok.isascii() and tok.isdigit()):
                raise ParseError(f"row {lineno} column {colno}: bad token {tok!r}")
            value = int(tok)
            if value == 0:
                raise ParseError(f"row {lineno} column {colno}: entries must be positive")
            row.append(value)
        rows.append(tuple(row))
    return Filling(tuple(rows))


def parse_int(token: str) -> int:
    """Read an optional sign and ASCII digits, surrounding whitespace
    stripped: the one rule for every integer ctrect reads as text, tableau
    entries aside.  ``int()`` also reads ``1_0`` and non-ASCII digits such as
    ``٣``; for those this raises ``ValueError`` in ``int()``'s own words."""
    token = token.strip()
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    return int(token)


def _check_int(v: object, what: str, least: int | None = None) -> None:
    # Filling's rule for its slots: an int, and not a bool; then the bound.
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{what} must be an int, got {v!r}")
    if least is not None and v < least:
        raise ValueError(f"{what} must be at least {least}, got {v}")


def _check_shape(shape: Iterable[int], partition: bool) -> tuple[int, ...]:
    # The shape as a tuple: int parts, each at least 1, and weakly
    # decreasing for a partition.
    shape = tuple(shape)
    for part in shape:
        _check_int(part, f"a part of {shape}")
    if any(p < 1 for p in shape) or partition and any(a < b for a, b in zip(shape, shape[1:])):
        raise ValueError(f"{shape} is not a {'partition' if partition else 'composition'} shape")
    return shape


def render_filling(f: Filling) -> str:
    """Render a filling in the text format, tokens joined by single spaces.

    ``parse_filling`` inverts it for every filling whose last row is not
    empty, every valid tableau among them; trailing empty rows render as
    blank lines, which the parser drops."""
    return "\n".join(
        " ".join(HOLE_TOKEN if v is None else str(v) for v in row)
        for row in f.rows
    )


def filling_to_json(f: Filling) -> str:
    """Serialize as ``{"rows": [[int|null, ...], ...]}``."""
    import json  # here, so that text input and output never load it

    return json.dumps({"rows": [list(row) for row in f.rows]})


def filling_from_json(text: str) -> Filling:
    """Parse the JSON tableau format (``null`` is a hole)."""
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("bad JSON: nested too deeply") from None
    if not isinstance(data, dict) or "rows" not in data or not isinstance(data["rows"], list):
        raise ParseError('JSON tableau must be an object with a "rows" list')
    rows = []
    for r, row in enumerate(data["rows"], start=1):
        if not isinstance(row, list):
            raise ParseError(f"row {r}: expected a list")
        for c, v in enumerate(row, start=1):
            if v is None:
                continue
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ParseError(f"row {r} column {c}: entries must be positive integers or null")
        rows.append(tuple(row))
    return Filling(tuple(rows))


def violations(kind: TableauKind, f: Filling) -> list[Violation]:
    """Every rule the filling breaks as a tableau of the given kind.

    The list is empty exactly when the filling is valid.  Holes and zero
    entries fail immediately with dedicated violations; the structural rules
    assume a hole-free grid and are skipped in that case.

    One bottom-up pass over the rows checks every rule and builds nothing for
    a valid filling: a row is listed only when it breaks a rule.
    """
    rows = f.rows
    ct = kind == "ct"
    sign, rel, word = 1, ">", "decrease"
    # (key, violation); the keys sort the report: shape, row-order,
    # column-order by column, content, first-column, triple by column.
    hits: list[tuple[tuple[int, ...], Violation]] = []
    if not ct and kind != "rssyt":
        if kind not in KINDS:
            raise ValueError(f"unknown tableau kind {kind!r}")
        if kind == "syt":
            # Holes and zeros are dropped here; they end the pass anyway.
            entries = sorted(v for row in rows for v in row if v)
            if entries != list(range(1, len(entries) + 1)):
                message = f"entries must be exactly 1..{len(entries)}, each used once"
                hits.append(((3,), Violation("content", (1, 1), message)))
        # An ssyt is an rssyt of the negated entries; holes and zeros stay.
        sign, rel, word = -1, "<", "increase"
        rows = tuple(tuple(v and -v for v in row) for row in rows)
    # Slots are ints or None (Filling rejects anything else), so once a row
    # holds no hole its slots compare without raising.
    r = len(rows)  # the 1-based index of row
    below: Row = ()
    tails: list[Row] = []  # ct: row[1:] of each row below with 2+ slots
    for row in reversed(rows):
        if not row or None in row or 0 in row:
            return _defects(f.rows)
        prev = row[0]
        for v in row:
            if v > prev:
                for c, (a, b) in enumerate(zip(row, row[1:]), start=2):
                    if a < b:
                        message = f"{sign * b} {rel} {sign * a}: rows must weakly {word}"
                        hits.append(((1, r, c), Violation("row-order", (r, c), message)))
                break
            prev = v
        if ct:
            if below and below[0] <= row[0]:
                message = f"{below[0]} <= {row[0]}: first column must strictly increase"
                hits.append(((4, r + 1), Violation("first-column", (r + 1, 1), message)))
            # The triple rule: for the cell `left` at (r, c), a = (r, c+1)
            # (0 when absent) and any b = (r2, c+1) below, a <= b implies
            # b > left.
            tail = row[1:]
            if tails:
                padded = tail + (0,)
                for lower in tails:
                    for left, a, b in zip(row, padded, lower):
                        if a <= b <= left:
                            break
                    else:
                        continue
                    for r2, row2 in enumerate(rows[r:], start=r + 1):
                        for c, (left, a, b) in enumerate(zip(row, padded, row2[1:]), start=1):
                            if a <= b <= left:
                                message = (
                                    f"a={a} at ({r},{c + 1}), c={left} at ({r},{c}): "
                                    f"a <= b={b} but b is not > c"
                                )
                                hits.append(((5, c, r, r2), Violation("triple", (r2, c + 1), message)))
                    break
            if tail:
                tails.append(tail)
        else:
            if len(below) > len(row):
                message = "row is longer than the row above"
                hits.append(((0, r + 1), Violation("shape", (r + 1, 1), message)))
            for upper, lower in zip(row, below):
                if lower >= upper:
                    for c, (upper, lower) in enumerate(zip(row, below), start=1):
                        if lower >= upper:
                            message = f"{sign * lower} {rel}= {sign * upper}: columns must strictly {word}"
                            hits.append(((2, c, r + 1), Violation("column-order", (r + 1, c), message)))
                    break
        below = row
        r -= 1
    return [v for _, v in sorted(hits)] if hits else hits


def _defects(rows: tuple[Row, ...]) -> list[Violation]:
    # Every hole and zero in row-major order or, when there is none, every
    # empty row.
    vs = [
        Violation("hole", (r, c), "holes are not allowed in a validated tableau")
        if v is None
        else Violation("entry", (r, c), "entries must be positive")
        for r, row in enumerate(rows, start=1)
        for c, v in enumerate(row, start=1)
        if not v
    ]
    return vs or [Violation("shape", (r, 1), "empty row") for r, row in enumerate(rows, start=1) if not row]


def validate(kind: TableauKind, f: Filling) -> Filling:
    """Return ``f`` unchanged if it is a valid tableau of the given kind.

    Raises:
        InvalidTableauError: with the full violation list otherwise.
    """
    vs = violations(kind, f)
    if vs:
        raise InvalidTableauError(kind, vs)
    return f


def check_invariant(kind: TableauKind, f: Filling, what: str) -> Filling:
    """Return ``f`` unchanged if it is a valid tableau of the given kind.

    This is the postcondition of every operation that produces a tableau
    from a valid one, so a failure is a broken guarantee, not bad input.

    Raises:
        InvariantViolationError: ``"{what}: {first violation}"``, carrying
            the full violation list as ``.violations``.
    """
    vs = violations(kind, f)
    if vs:
        raise InvariantViolationError(f"{what}: {vs[0]}", vs)
    return f


def _validate_k(kind: TableauKind, f: Filling, k: int) -> Filling:
    # Input check shared by the k-cell operations: validate, then check k.
    f = validate(kind, f)
    _check_int(k, "k")
    if not f.n_rows:
        raise ValueError("k must be in 1..rows, but the tableau has no rows")
    if not 1 <= k <= f.n_rows:
        raise ValueError(f"k must be in 1..{f.n_rows}, got {k}")
    return f
