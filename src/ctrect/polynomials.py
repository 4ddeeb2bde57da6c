"""Sparse integer polynomials, tableau enumeration, and the classical
expansions built from them.

A :class:`Polynomial` is a map from exponent vectors (fixed variable count)
to nonzero integer coefficients.  The expansions are Schur polynomials (sum
of weight monomials over semistandard Young tableaux), monomial symmetric
polynomials (sum over distinct rearrangements of the exponent multiset) and
monomial quasisymmetric polynomials (sum over order-preserving placements of
the exponent sequence).  ``is_symmetric`` and ``is_quasisymmetric`` test the
corresponding coefficient conditions directly.

Reverse SSYT and composition tableaux come from one iterative backtracker,
which fills the cells in row-reading order from per-cell candidates, so
both are listed lexicographically by row-reading word; semistandard Young
tableaux are the complements of reverse ones.  The private streams
``_rssyt_fillings`` and ``_ct_fillings`` yield one tableau at a time and keep
none, so ``verify`` and ``schur_expand`` run in memory that does not grow
with the bounds.  The public ``enumerate_*`` return the same tableaux, in
the same order, as cached tuples.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, prod
from typing import Callable, Iterable, Iterator

from .tableaux import (
    CompositionShape,
    Filling,
    ParseError,
    PartitionShape,
    _Record,
    _check_int,
    _check_shape,
    parse_int,
)


class Polynomial(_Record, namedtuple("Polynomial", "nvars terms")):
    """Integer polynomial in ``nvars`` variables as a sparse term map.

    Unhashable, since ``terms`` is a dict.
    """

    __slots__ = ()

    def __new__(cls, nvars: int, terms: dict[tuple[int, ...], int]):
        _check_int(nvars, "nvars", 0)
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} does not have {nvars} entries")
            if any(isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in exps):
                raise ValueError(f"non-integer or negative exponent in {exps}")
            _check_int(coeff, "a coefficient")
            if coeff:
                clean[exps] = coeff
        return tuple.__new__(cls, (nvars, clean))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Polynomial":
        # namedtuple's own _make, which _replace calls, would skip __new__.
        return cls(*iterable)

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError(f"variable counts differ: {self.nvars} != {other.nvars}")
        acc = Counter(self.terms)
        acc.update(other.terms)
        return Polynomial(self.nvars, acc)

    def __radd__(self, other):
        # Raised, not NotImplemented: for a tuple on the left Python would
        # then fall back to tuple concatenation.
        raise TypeError(f"unsupported operand type(s) for +: {type(other).__name__!r} and 'Polynomial'")

    def __rmul__(self, scalar: int) -> "Polynomial":
        _check_int(scalar, "a scalar")
        return Polynomial(self.nvars, {e: scalar * c for e, c in self.terms.items()})

    __mul__ = __rmul__

    def __str__(self) -> str:
        return render_polynomial(self)


def render_polynomial(p: Polynomial) -> str:
    """One term per line, ``coeff: e1,e2,...,en``, in graded lex order:
    by total degree, then leading exponents first."""
    terms = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])))
    return "\n".join(f"{coeff}: {','.join(str(e) for e in exps)}" for exps, coeff in terms)


def parse_polynomial(text: str) -> Polynomial:
    """Parse the ``coeff: e1,...,en`` term-per-line format."""
    terms: Counter[tuple[int, ...]] = Counter()
    nvars = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ParseError(f"line {lineno}: expected 'coeff: e1,...,en'")
        try:
            coeff = parse_int(head)
            exps = tuple(parse_int(tok) for tok in tail.split(","))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if any(e < 0 for e in exps):
            raise ParseError(f"line {lineno}: exponents must be nonnegative")
        if nvars is None:
            nvars = len(exps)
        elif len(exps) != nvars:
            raise ParseError(f"line {lineno}: expected {nvars} exponents, got {len(exps)}")
        terms[exps] += coeff
    if nvars is None:
        raise ParseError("no terms found")
    return Polynomial(nvars, terms)


def partitions(n: int) -> list[PartitionShape]:
    """All partitions of n, lexicographically ascending."""
    _check_int(n, "n", 0)
    # Parts first to last, each from 1 up to the one before it.
    def gen(remaining: int, cap: int) -> list[PartitionShape]:
        if remaining == 0:
            return [()]
        return [
            (first,) + rest
            for first in range(1, min(remaining, cap) + 1)
            for rest in gen(remaining - first, first)
        ]

    return gen(n, n)


def compositions(n: int) -> list[CompositionShape]:
    """All compositions of n, lexicographically ascending: every distinct
    ordering of the parts of every partition of n."""
    return sorted(c for p in partitions(n) for c in _rearrangements(p))


def _fillings(
    shape: tuple[int, ...],
    choices: Callable[[list[list[int]], int, int], Iterable[int]],
) -> Iterator[Filling]:
    """Every filling of ``shape`` that puts at each cell, in row-reading
    order, a value ``choices(grid, r, c)`` offers.  ``grid`` holds the values
    placed before (r, c); later cells hold stale ones.  Ascending choices
    give the fillings in lexicographic order of their row-reading words.

    One frame walks the cells with a stack of per-cell choice iterators;
    each filling is built with the trusted constructor, since every value
    comes from a range that the shape and the largest entry bound."""
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    grid = [[0] * length for length in shape]
    trusted = Filling._trusted
    if not cells:
        yield trusted(grid)
        return
    stack = [iter(choices(grid, *cells[0]))]
    while stack:
        depth = len(stack)
        r, c = cells[depth - 1]
        row = grid[r]
        for v in stack[-1]:
            row[c] = v
            if depth < len(cells):
                stack.append(iter(choices(grid, *cells[depth])))
                break
            yield trusted(grid)
        else:
            stack.pop()


def _rssyt_fillings(shape: PartitionShape, max_entry: int) -> Iterator[Filling]:
    """The reverse SSYT of ``enumerate_rssyt``, one at a time; the arguments
    are checked at the call."""
    shape = _check_shape(shape, partition=True)
    _check_int(max_entry, "max_entry", 1)
    heights = [sum(part > c for part in shape) for c in range(max(shape, default=0))]

    def choices(grid: list[list[int]], r: int, c: int) -> range:
        # Rows weakly decrease, columns strictly; the heights[c] - r - 1
        # cells below need values under this one.
        hi = max_entry
        if c > 0:
            hi = min(hi, grid[r][c - 1])
        if r > 0:
            hi = min(hi, grid[r - 1][c] - 1)
        return range(heights[c] - r, hi + 1)

    return _fillings(shape, choices)


def _ct_fillings(shape: CompositionShape, max_entry: int) -> Iterator[Filling]:
    """The composition tableaux of ``enumerate_ct``, one at a time; the
    arguments are checked at the call."""
    shape = _check_shape(shape, partition=False)
    _check_int(max_entry, "max_entry", 1)

    def choices(grid: list[list[int]], r: int, c: int) -> Iterable[int]:
        # The first column strictly increases and a row weakly decreases.
        if c == 0:
            return range(grid[r - 1][0] + 1 if r > 0 else 1, max_entry + 1)
        # No triple with a complete row above: b at (r, c) may not lie in
        # [a, left] for its a (0 when absent) and left; a row without a
        # c-cell (shape[r1] < c) forms none, since b > 0.
        barred = {
            b
            for r1 in range(r)
            if shape[r1] >= c
            for b in range(grid[r1][c] if shape[r1] > c else 0, grid[r1][c - 1] + 1)
        }
        return [v for v in range(1, grid[r][c - 1] + 1) if v not in barred]

    return _fillings(shape, choices)


@lru_cache(maxsize=None, typed=True)
def enumerate_ssyt(shape: PartitionShape, max_entry: int) -> tuple[Filling, ...]:
    """All semistandard Young tableaux of the shape (a tuple) with entries <=
    max_entry, ordered lexicographically by row-reading word.

    v -> max_entry + 1 - v maps them one to one onto the reverse SSYT of the
    shape and reverses the order of the words.
    """
    top = max_entry + 1
    return tuple(
        Filling._trusted([top - v for v in row] for row in t.rows)
        for t in reversed(enumerate_rssyt(shape, max_entry))
    )


@lru_cache(maxsize=None, typed=True)
def enumerate_rssyt(shape: PartitionShape, max_entry: int) -> tuple[Filling, ...]:
    """All reverse semistandard Young tableaux of the shape (a tuple) with
    entries <= max_entry, ordered lexicographically by row-reading word."""
    return tuple(_rssyt_fillings(shape, max_entry))


@lru_cache(maxsize=None, typed=True)
def enumerate_ct(shape: CompositionShape, max_entry: int) -> tuple[Filling, ...]:
    """All composition tableaux of the shape (a tuple) with entries <=
    max_entry, ordered lexicographically by row-reading word."""
    return tuple(_ct_fillings(shape, max_entry))


def weight_monomial(f: Filling, nvars: int) -> tuple[int, ...]:
    """Exponent vector of the tableau's weight, padded to nvars variables:
    index v-1 counts entry v.  Holes and zero entries are not counted."""
    _check_int(nvars, "nvars", 0)
    return _weight_monomial(f, nvars)


def _weight_monomial(f: Filling, nvars: int) -> tuple[int, ...]:
    # The kernel, called once per enumerated tableau: nvars must be an int >= 0.
    counts = [0] * nvars
    try:
        for row in f.rows:
            for v in row:
                if v:
                    counts[v - 1] += 1
    except IndexError:
        raise ValueError(f"tableau uses entries above {nvars}") from None
    return tuple(counts)


def schur_expand(shape: PartitionShape, nvars: int) -> Polynomial:
    """Schur polynomial: sum of weight monomials over all SSYT of the shape.

    Each SSYT is the complement of a reverse SSYT, whose weight is the
    SSYT's reversed, so the sum runs over the reverse-SSYT stream."""
    _check_int(nvars, "nvars", 1)
    rssyt = _rssyt_fillings(shape, nvars)
    return Polynomial(nvars, Counter(_weight_monomial(t, nvars)[::-1] for t in rssyt))


def monomial_sym_expand(shape: PartitionShape, nvars: int) -> Polynomial:
    """Monomial symmetric polynomial: one term per distinct rearrangement."""
    _check_int(nvars, "nvars", 1)
    shape = _check_shape(shape, partition=True)
    if len(shape) > nvars:
        return Polynomial.zero(nvars)
    padded = shape + (0,) * (nvars - len(shape))
    return Polynomial(nvars, {exps: 1 for exps in _rearrangements(padded)})


def _rearrangements(values: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Each distinct ordering of the multiset ``values`` once, in ascending
    lexicographic order (next-permutation steps, Knuth's Algorithm L)."""
    a = sorted(values)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


def monomial_qsym_expand(shape: CompositionShape, nvars: int) -> Polynomial:
    """Monomial quasisymmetric polynomial: the exponent sequence placed on
    every increasing choice of variables."""
    _check_int(nvars, "nvars", 1)
    shape = _check_shape(shape, partition=False)
    terms: dict[tuple[int, ...], int] = {}
    for positions in combinations(range(nvars), len(shape)):
        exps = [0] * nvars
        for pos, part in zip(positions, shape):
            exps[pos] = part
        terms[tuple(exps)] = 1
    return Polynomial(nvars, terms)


def _uniform_groups(p: Polynomial, key: Callable, count: Callable) -> bool:
    # The terms grouped by key(exps) fill each group's count(key) placements
    # with one coefficient; the terms list each placement at most once.
    groups: dict[tuple[int, ...], list[int]] = {}
    for exps, coeff in p.terms.items():
        groups.setdefault(key(exps), []).append(coeff)
    return all(len(cs) == count(k) and len(set(cs)) == 1 for k, cs in groups.items())


def is_quasisymmetric(p: Polynomial) -> bool:
    """True when every placement of each exponent sequence onto increasing
    variable choices carries the same coefficient; l nonzero exponents have
    comb(nvars, l) placements, counted, not walked."""
    return _uniform_groups(p, lambda e: tuple(filter(None, e)), lambda k: comb(p.nvars, len(k)))


def is_symmetric(p: Polynomial) -> bool:
    """True when the polynomial is invariant under variable permutations; an
    exponent multiset with multiplicities m has nvars! / prod(m!) placements."""
    n = factorial(p.nvars)
    return _uniform_groups(
        p, lambda e: tuple(sorted(e)), lambda k: n // prod(map(factorial, Counter(k).values()))
    )
