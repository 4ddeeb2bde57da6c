"""Column-sort bijection and its greedy inverse."""

from __future__ import annotations

import pytest

from ctrect import (
    Filling,
    InvariantViolationError,
    rho,
    rho_inv,
    weight_of,
)
from ctrect.bijection import _rho
from ctrect.polynomials import compositions, enumerate_ct, enumerate_rssyt, partitions


def test_worked_pair(ct_u, rssyt_t):
    assert rho(ct_u) == rssyt_t
    assert rho_inv(rssyt_t) == ct_u


def test_single_column_sort():
    assert rho(Filling([[1], [2]])) == Filling([[2], [1]])


def test_empty_filling_fixed_point():
    assert rho(Filling(())) == Filling(())
    assert rho_inv(Filling(())) == Filling(())


def test_two_by_two():
    assert rho(Filling([[2, 2], [3, 1]])) == Filling([[3, 2], [2, 1]])


def test_rho_inv_single_cell():
    assert rho_inv(Filling([[5]])) == Filling([[5]])


def test_rho_inv_two_by_two():
    assert rho_inv(Filling([[3, 2], [2, 1]])) == Filling([[2, 2], [3, 1]])


def test_rho_rejects_invalid_input():
    from ctrect import InvalidTableauError

    with pytest.raises(InvalidTableauError):
        rho(Filling([[1, 2]]))  # row increases
    with pytest.raises(InvalidTableauError):
        rho(Filling([[3, 3], [3, 1]]))  # repeated first-column entry


@pytest.mark.parametrize("rows", [[[3], [3]], [[3, 2], [2, 2]]])
def test_rho_kernel_reports_a_column_with_equal_entries(rows):
    # _rho has no duplicate check of its own: the sorted column holds the
    # equal entries next to each other, and the output check reports them.
    with pytest.raises(InvariantViolationError) as exc:
        _rho(Filling(rows))
    assert str(exc.value).startswith("column sort did not produce a reverse SSYT: ")
    assert any(v.rule == "column-order" for v in exc.value.violations)


def test_rho_inv_rejects_invalid_input():
    from ctrect import InvalidTableauError

    with pytest.raises(InvalidTableauError):
        rho_inv(Filling([[1, 2]]))  # row increases in an rssyt


def test_weight_and_column_multisets_preserved(ct_u):
    t = rho(ct_u)
    assert weight_of(t) == weight_of(ct_u)
    for c in range(1, ct_u.width + 1):
        assert sorted(t.column(c)) == sorted(ct_u.column(c))
    back = rho_inv(t)
    assert weight_of(back) == weight_of(ct_u)


MAX_CELLS, MAX_ENTRY = 5, 5


def test_roundtrip_exhaustive_small():
    for m in range(1, MAX_CELLS + 1):
        for shape in compositions(m):
            for u in enumerate_ct(shape, MAX_ENTRY):
                assert rho_inv(rho(u)) == u
        for shape in partitions(m):
            for t in enumerate_rssyt(shape, MAX_ENTRY):
                assert rho(rho_inv(t)) == t


def test_image_is_exactly_the_rearrangement_classes():
    # over all reverse SSYT of shape lam, rho_inv lands bijectively on the
    # valid composition tableaux whose shape rearranges lam
    for m in range(1, MAX_CELLS + 1):
        for lam in partitions(m):
            image = {rho_inv(t) for t in enumerate_rssyt(lam, 4)}
            target = set()
            for comp in compositions(m):
                if tuple(sorted(comp, reverse=True)) == lam:
                    target.update(enumerate_ct(comp, 4))
            assert image == target
            assert all(tuple(sorted(map(len, u.rows), reverse=True)) == lam for u in image)


def test_cardinality_pin():
    # frozen first-run count: valid CTs with <= 4 cells and entries <= 4,
    # which must equal the RSSYT count at the same bounds
    n_ct = sum(len(enumerate_ct(s, 4)) for m in range(1, 5) for s in compositions(m))
    n_rssyt = sum(len(enumerate_rssyt(s, 4)) for m in range(1, 5) for s in partitions(m))
    assert n_ct == n_rssyt == 180
