from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from ctrect import Filling, parse_filling

FIXTURES = Path(__file__).parent / "fixtures"


def load(name: str) -> Filling:
    return parse_filling((FIXTURES / name).read_text(encoding="utf-8"))


def weight_of(f: Filling) -> tuple[int, ...]:
    """Frequency vector of the entry values; index v-1 counts value v.

    Holes are ignored.  The result has no trailing zero unless empty.
    The reference for ``weight_monomial``, so it shares no code with it.
    """
    counts = Counter(v for row in f.rows for v in row if v)
    if not counts:
        return ()
    top = max(counts)
    return tuple(counts.get(v, 0) for v in range(1, top + 1))


@pytest.fixture
def ct_u() -> Filling:
    return load("ct_u.txt")


@pytest.fixture
def rssyt_t() -> Filling:
    return load("rssyt_t.txt")
