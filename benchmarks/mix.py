"""Seeded inputs for the ``cli-calls`` workload and oracles for their outputs.

``generate(seed)`` returns the call mix: one record per ``ctrect`` command
line, with the stdin text, the expected stdout and the expected exit code.
Reverse SSYT come from a column-bounded sampler; composition tableaux are
obtained from them with ``ctrect.rho_inv``.  Every input is checked with
``ctrect.violations`` before use.

The expected outputs come from oracles in this file that share no code with
``ctrect``: column sort for ``rho``, greedy column insertion for ``rho_inv``,
rectification as the row-insertion tableau of the reading word (Fulton,
*Young Tableaux*, ch. 1-3) for ``rectify`` and ``evacuate``, column-multiset
flow for ``eviction``, and direct term lists for ``expand``.  The stdout of a
``--trace`` call is taken from an in-process run of ``ctrect.cli.main``, and
its final ``== result`` block must equal the oracle's result.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import time
from bisect import bisect_right
from collections import Counter
from itertools import combinations, permutations

# One tableau call per size stratum and command, so the mix, and hence the
# latency percentiles, has the same composition for every seed.
SIZE_STRATA = ((15, 21), (22, 28), (29, 34), (35, 40))
EXPAND_VARS = range(3, 9)
EXPAND_DEGREES = (2, 3, 4)

TABLEAU_COMMANDS = (
    "validate-rssyt",
    "validate-ct",
    "rho",
    "rho-inv",
    "rectify-rssyt",
    "rectify-rssyt-trace",
    "rectify-ct",
    "rectify-ct-trace",
    "eviction",
    "evacuate",
)
EXPAND_BASES = ("schur", "msym", "mqsym")


# ---------------------------------------------------------------- sampling


def _random_composition(rng: random.Random, n: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def random_partition(rng: random.Random, n: int, min_rows: int, max_rows: int) -> tuple[int, ...]:
    rows = rng.randint(min_rows, min(max_rows, n))
    return tuple(sorted(_random_composition(rng, n, rows), reverse=True))


def _heights(shape: tuple[int, ...]) -> list[int]:
    return [sum(1 for part in shape if part > c) for c in range(shape[0])]


def sample_rssyt(rng: random.Random, shape: tuple[int, ...], max_entry: int) -> list[list[int]]:
    """Reverse SSYT of the shape, filled row by row, each value uniform in
    the range its left and upper neighbours and the cells below allow.
    ``max_entry`` must be at least the number of rows."""
    heights = _heights(shape)
    rows: list[list[int]] = []
    for r, length in enumerate(shape):
        row: list[int] = []
        for c in range(length):
            hi = max_entry
            if c:
                hi = min(hi, row[c - 1])
            if r:
                hi = min(hi, rows[r - 1][c] - 1)
            lo = heights[c] - r  # room for the strictly smaller cells below
            row.append(rng.randint(lo, hi))
        rows.append(row)
    return rows


def sample_standard_rssyt(rng: random.Random, shape: tuple[int, ...]) -> list[list[int]]:
    """Reverse standard tableau: n, n-1, ..., 1 placed at random addable cells."""
    n = sum(shape)
    rows: list[list[int]] = [[] for _ in shape]
    for v in range(n, 0, -1):
        addable = [
            r
            for r, row in enumerate(rows)
            if len(row) < shape[r] and (r == 0 or len(rows[r - 1]) > len(row))
        ]
        rows[rng.choice(addable)].append(v)
    return rows


# ---------------------------------------------------------------- oracles


def columns(rows: list[list[int]]) -> list[list[int]]:
    width = max((len(row) for row in rows), default=0)
    return [[row[c] for row in rows if len(row) > c] for c in range(width)]


def column_sort(rows: list[list[int]]) -> list[list[int]]:
    """rho: sort each column decreasing and top-justify it."""
    cols = [sorted(col, reverse=True) for col in columns(rows)]
    height = len(cols[0]) if cols else 0
    return [[col[r] for col in cols if len(col) > r] for r in range(height)]


def column_insert(t: list[list[int]]) -> list[list[int]]:
    """rho_inv: reversed first column, then each column's entries in
    decreasing order into the highest open row with a left neighbour at
    least as large."""
    cols = columns(t)
    if not cols:
        return []
    rows = [[e] for e in reversed(cols[0])]
    for c, col in enumerate(cols[1:], start=1):
        for e in col:
            row = next(row for row in rows if len(row) == c and row[-1] >= e)
            row.append(e)
    return rows


def rectify(t: list[list[int]], k: int) -> list[list[int]]:
    """Rectify the top k first-column cells of a reverse SSYT: complement the
    entries, delete the cells, row-insert the reading word (rows bottom to
    top), complement back."""
    top = max(max(row) for row in t) + 1
    word = [
        top - v
        for r in range(len(t) - 1, -1, -1)
        for c, v in enumerate(t[r])
        if not (c == 0 and r < k)
    ]
    p: list[list[int]] = []
    for x in word:
        for row in p:
            i = bisect_right(row, x)
            if i == len(row):
                row.append(x)
                break
            row[i], x = x, row[i]
        else:
            p.append([x])
    return [[top - v for v in row] for row in p]


def shifting_entries(t: list[list[int]], k: int) -> dict[int, list[int]]:
    """Entries that leave each column c >= 2 during rectification, from the
    column multisets before and after: out_c = before_c + out_{c+1} - after_c."""
    before = columns(t)
    after = columns(rectify(t, k))
    report: dict[int, list[int]] = {}
    inflow: Counter = Counter()
    for c in range(len(before) - 1, 0, -1):
        net = Counter(before[c]) + inflow
        net.subtract(after[c] if c < len(after) else [])
        if any(v < 0 for v in net.values()):
            raise AssertionError(f"column {c + 1} gains entries it never received")
        inflow = +net
        if inflow:
            report[c + 1] = sorted(inflow.elements(), reverse=True)
    return report


def evacuate(t: list[list[int]]) -> list[list[int]]:
    """Repeated single-cell rectification, writing n - removed entry into the
    cell each round vacates."""
    n = sum(len(row) for row in t)
    out = [[0] * len(row) for row in t]
    cur = t
    while cur:
        removed = cur[0][0]
        nxt = rectify(cur, 1)
        r = next(r for r, row in enumerate(cur) if r >= len(nxt) or len(nxt[r]) != len(row))
        out[r][len(cur[r]) - 1] = n - removed
        cur = nxt
    return out


def _ssyt_weights(shape: tuple[int, ...], nvars: int) -> Counter:
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    grid = [[0] * length for length in shape]
    weights: Counter = Counter()

    def place(i: int) -> None:
        if i == len(cells):
            w = [0] * nvars
            for row in grid:
                for v in row:
                    w[v - 1] += 1
            weights[tuple(w)] += 1
            return
        r, c = cells[i]
        lo = max(grid[r][c - 1] if c else 1, grid[r - 1][c] + 1 if r else 1)
        for v in range(lo, nvars + 1):
            grid[r][c] = v
            place(i + 1)

    place(0)
    return weights


def expansion(basis: str, parts: tuple[int, ...], nvars: int) -> dict[tuple[int, ...], int]:
    if basis == "schur":
        return dict(_ssyt_weights(parts, nvars))
    placements = permutations if basis == "msym" else combinations
    terms = {}
    for positions in placements(range(nvars), len(parts)):
        exps = [0] * nvars
        for pos, part in zip(positions, parts):
            exps[pos] = part
        terms[tuple(exps)] = 1
    return terms


def render_rows(rows: list[list[int]]) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in rows)


def render_terms(terms: dict[tuple[int, ...], int]) -> str:
    ordered = sorted(terms.items(), key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])))
    return "\n".join(f"{coeff}: {','.join(map(str, exps))}" for exps, coeff in ordered)


def _lines(text: str) -> str:
    return text + "\n" if text else ""


# ---------------------------------------------------------------- the mix


def run_in_process(main, argv: list[str], stdin: str | None) -> tuple[int, str, float]:
    """Run ``main(argv)`` with the given stdin; return the exit code, the
    stdout text and the seconds spent in ``main``."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            seconds = time.perf_counter() - t0
    finally:
        sys.stdin = saved
    return code, out.getvalue(), seconds


def _tableau_call(name: str, rng: random.Random, size: int, problems: list[str]) -> dict:
    from ctrect import Filling, rho_inv, violations

    shape = random_partition(rng, size, 3, 8)
    if name == "evacuate":
        t = sample_standard_rssyt(rng, shape)
    else:
        t = sample_rssyt(rng, shape, rng.randint(len(shape), len(shape) + 6))
    tf = Filling(t)
    found = violations("rssyt", tf)
    if found:
        problems.append(f"{name}: sampled filling is not a reverse SSYT: {found[0]}")
    u = [list(row) for row in rho_inv(tf).rows]
    found = violations("ct", Filling(u))
    if found:
        problems.append(f"{name}: rho_inv gave no composition tableau: {found[0]}")
    if column_sort(u) != t or column_insert(t) != u:
        problems.append(f"{name}: rho_inv disagrees with the column-insertion oracle")
    k = rng.randint(1, len(shape))
    rect = rectify(t, k)

    if name == "validate-rssyt":
        argv, stdin, expected = ["validate", "--kind", "rssyt"], t, "valid rssyt\n"
    elif name == "validate-ct":
        argv, stdin, expected = ["validate", "--kind", "ct"], u, "valid ct\n"
    elif name == "rho":
        argv, stdin, expected = ["rho"], u, render_rows(column_sort(u)) + "\n"
    elif name == "rho-inv":
        argv, stdin, expected = ["rho-inv"], t, render_rows(column_insert(t)) + "\n"
    elif name.startswith("rectify"):
        kind = "ct" if name.startswith("rectify-ct") else "rssyt"
        argv = ["rectify", "--kind", kind, "--cells", str(k)]
        stdin = u if kind == "ct" else t
        result = render_rows(column_insert(rect) if kind == "ct" else rect)
        expected = result + "\n"
        if name.endswith("-trace"):
            argv.append("--trace")
            from ctrect.cli import main

            code, expected, _ = run_in_process(main, argv, render_rows(stdin) + "\n")
            if code != 0 or not expected.endswith(f"== result\n{_lines(result)}"):
                problems.append(f"{name}: traced result differs from the oracle")
    elif name == "eviction":
        argv, stdin = ["eviction", "--cells", str(k)], t
        report = shifting_entries(t, k)
        expected = "".join(
            f"column {c}: {' '.join(map(str, report[c]))}\n" for c in sorted(report)
        )
    else:  # evacuate
        argv, stdin, expected = ["evacuate"], t, render_rows(evacuate(t)) + "\n"
    return {"command": name, "argv": argv, "stdin": render_rows(stdin) + "\n", "stdout": expected, "exit": 0}


def _expand_call(basis: str, rng: random.Random, nvars: int) -> dict:
    degree = rng.choice(EXPAND_DEGREES)
    if basis == "mqsym":
        parts = tuple(_random_composition(rng, degree, rng.randint(1, degree)))
    else:
        parts = random_partition(rng, degree, 1, degree)
    argv = ["expand", basis, ",".join(map(str, parts)), "--vars", str(nvars)]
    expected = _lines(render_terms(expansion(basis, parts, nvars)))
    return {"command": f"expand-{basis}", "argv": argv, "stdin": None, "stdout": expected, "exit": 0}


def matches(call: dict, code: int, stdout: str) -> bool:
    """Whether a run of the call gave its golden exit code and stdout."""
    return code == call["exit"] and stdout == call["stdout"]


def generate(seed: int) -> tuple[list[dict], list[str]]:
    """The call mix for one seed, in call order, and any problem the oracles
    found while building it.  The same seed gives the same mix."""
    rng = random.Random(seed)
    problems: list[str] = []
    calls = [
        _tableau_call(name, rng, rng.randint(lo, hi), problems)
        for name in TABLEAU_COMMANDS
        for lo, hi in SIZE_STRATA
    ]
    calls += [_expand_call(basis, rng, nvars) for basis in EXPAND_BASES for nvars in EXPAND_VARS]
    rng.shuffle(calls)
    return calls, problems
