"""Data model: parsing, rendering, weights, validators."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, strategies as st

from ctrect import (
    Filling,
    InvalidTableauError,
    ParseError,
    filling_from_json,
    filling_to_json,
    parse_filling,
    parse_int,
    render_filling,
    validate,
    violations,
    weight_of,
)
from ctrect.polynomials import compositions, enumerate_ct

from conftest import load


class TestParse:
    def test_two_rows(self):
        assert parse_filling("2 1\n3 2 2 2 1") == Filling([[2, 1], [3, 2, 2, 2, 1]])

    def test_hole_token(self):
        assert parse_filling(". 5 3 1") == Filling([[None, 5, 3, 1]])

    def test_zero_rejected(self):
        with pytest.raises(ParseError, match="row 1 column 2"):
            parse_filling("3 0 1")

    @pytest.mark.parametrize("bad", ["x", "-3", "3.5", "+2", "2x"])
    def test_bad_tokens(self, bad):
        with pytest.raises(ParseError):
            parse_filling(f"1 {bad}")

    def test_blank_input_is_empty(self):
        assert parse_filling("") == Filling(())
        assert parse_filling("  \n \n") == Filling(())

    def test_trailing_blank_lines_dropped(self):
        assert parse_filling("1 1\n2\n\n") == Filling([[1, 1], [2]])


class TestParseInt:
    @pytest.mark.parametrize("token, value", [("7", 7), (" 7 ", 7), ("+7", 7), ("-7", -7)])
    def test_sign_and_ascii_digits(self, token, value):
        assert parse_int(token) == value

    # int() reads 1_0, ٣ and １; the rule takes ASCII digits only.
    @pytest.mark.parametrize("token", ["", "+", "1_0", "٣", "１", "1.0"])
    def test_refused(self, token):
        with pytest.raises(ValueError, match=r"^invalid literal for int\(\) with base 10: "):
            parse_int(token)


class TestRender:
    def test_empty(self):
        assert render_filling(Filling(())) == ""

    def test_row(self):
        assert render_filling(Filling([[2, 1]])) == "2 1"

    def test_hole(self):
        assert render_filling(Filling([[None, 7, 3]])) == ". 7 3"


rows_strategy = st.lists(
    st.lists(st.one_of(st.none(), st.integers(1, 99)), min_size=1, max_size=5),
    min_size=0,
    max_size=5,
)


@given(rows_strategy)
def test_parse_render_roundtrip(rows):
    f = Filling(rows)
    assert parse_filling(render_filling(f)) == f


def test_render_after_parse_canonicalizes():
    messy = "  2   1 \n 3  2 2   2 1"
    assert render_filling(parse_filling(messy)) == "2 1\n3 2 2 2 1"


@given(rows_strategy)
def test_json_roundtrip(rows):
    f = Filling(rows)
    assert filling_from_json(filling_to_json(f)) == f


def test_json_rejects_zero():
    with pytest.raises(ParseError):
        filling_from_json('{"rows": [[1, 0]]}')


@pytest.mark.parametrize("bad", [True, False, 1.0, "1", -1])
def test_carrier_rejects_non_integer_slots(bad):
    # bool is an int subclass; the carrier rejects it as filling_from_json does
    with pytest.raises(ValueError, match=rf"slot \(2,1\): expected None or a nonnegative integer, got {bad!r}"):
        Filling([[2], [bad]])


class TestWeight:
    def test_worked_figure(self):
        assert weight_of(load("rssyt_weight_fig.txt")) == (4, 3, 1, 2, 2, 1, 2, 1, 1)

    def test_single(self):
        assert weight_of(Filling([[1]])) == (1,)

    def test_empty(self):
        assert weight_of(Filling(())) == ()

    def test_holes_ignored(self):
        assert weight_of(Filling([[2, None, 2]])) == (0, 2)


class TestValidators:
    def test_ssyt_figure(self):
        assert violations("ssyt", load("ssyt_young_fig.txt")) == []

    def test_syt_figure(self):
        assert violations("syt", load("syt_standard_fig.txt")) == []

    def test_syt_content_rule(self):
        # valid ssyt but entries are not 1..n
        bad = Filling([[1, 2], [3]])
        assert violations("ssyt", bad) == []
        f = Filling([[1, 1], [2]])
        assert any(v.rule == "content" for v in violations("syt", f))

    def test_rssyt_bijection_example(self, rssyt_t):
        assert violations("rssyt", rssyt_t) == []

    def test_ct_commutation_example(self, ct_u):
        assert violations("ct", ct_u) == []

    def test_ct_triple_rule_violation(self):
        found = violations("ct", Filling([[2, 1], [3, 2]]))
        assert len(found) == 1
        assert found[0].rule == "triple"
        assert found[0].cell == (2, 2)

    def test_alternate_row_order_fails_rule3(self):
        # same rows as the valid commutation example but reordered: the
        # weakly-decreasing-rows regime only admits the adopted order
        f = Filling([[2, 1], [3, 2, 2, 2, 1], [4, 4, 4, 3], [6, 5, 5, 1], [7, 7, 3]])
        assert any(v.rule == "triple" for v in violations("ct", f))

    def test_holes_always_fail(self):
        f = Filling([[2, None], [3, 1]])
        for kind in ("ssyt", "rssyt", "syt", "ct"):
            assert any(v.rule == "hole" for v in violations(kind, f))

    def test_zero_entries_always_fail(self):
        f = Filling([[1, 0]])
        for kind in ("ssyt", "rssyt", "syt", "ct"):
            assert any(v.rule == "entry" for v in violations(kind, f))

    def test_non_partition_shape(self):
        f = Filling([[1], [1, 2]])
        assert any(v.rule == "shape" for v in violations("ssyt", f))

    def test_validate_raises_with_all_violations(self):
        f = Filling([[1, 2], [1]])  # row increases and first column repeats
        with pytest.raises(InvalidTableauError) as exc:
            validate("ct", f)
        rules = {v.rule for v in exc.value.violations}
        assert {"row-order", "first-column"} <= rules

    def test_validate_returns_input(self, ct_u):
        assert validate("ct", ct_u) is ct_u

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            violations("smt", Filling(()))


def _naive_rssyt_check(f: Filling) -> bool:
    # independent re-statement of the two reverse-SSYT rules plus the
    # partition-shape requirement, straight from the definitions
    lengths = [len(row) for row in f.rows]
    if any(n == 0 for n in lengths):
        return False
    if any(a < b for a, b in zip(lengths, lengths[1:])):
        return False
    for row in f.rows:
        if any(row[i] < row[i + 1] for i in range(len(row) - 1)):
            return False
    for c in range(max(lengths, default=0)):
        col = [row[c] for row in f.rows if len(row) > c]
        if any(col[i] <= col[i + 1] for i in range(len(col) - 1)):
            return False
    return True


def test_rssyt_validator_matches_brute_force():
    # every filling of every composition shape with <= 4 cells, entries <= 3
    for m in range(1, 5):
        for shape in compositions(m):
            for values in product(range(1, 4), repeat=m):
                rows, i = [], 0
                for part in shape:
                    rows.append(values[i : i + part])
                    i += part
                f = Filling(rows)
                assert (violations("rssyt", f) == []) == _naive_rssyt_check(f), f


def test_valid_ct_columns_never_repeat():
    # consequence of the rules, relied on by the column-sort bijection
    for m in range(1, 6):
        for shape in compositions(m):
            for u in enumerate_ct(shape, 5):
                for c in range(1, u.width + 1):
                    col = u.column(c)
                    assert len(set(col)) == len(col), u
