"""Enumeration counts, polynomial expansions, symmetry predicates."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, strategies as st

from ctrect import (
    Filling,
    ParseError,
    Polynomial,
    enumerate_ct,
    enumerate_rssyt,
    enumerate_ssyt,
    is_quasisymmetric,
    is_symmetric,
    monomial_qsym_expand,
    monomial_sym_expand,
    parse_polynomial,
    partitions,
    render_polynomial,
    schur_expand,
    violations,
    weight_monomial,
)
from ctrect.polynomials import _ct_fillings, _rearrangements, _rssyt_fillings, compositions

from conftest import weight_of


def _brute_force_shapes(m: int, partition: bool = False) -> list[tuple[int, ...]]:
    """Compositions of m from every set of cut points, sorted ascending;
    with ``partition``, only the weakly decreasing ones."""
    shapes = []
    for k in range(m):
        for cuts in combinations(range(1, m), k):
            bounds = (0,) + cuts + (m,)
            shapes.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    if partition:
        shapes = [s for s in shapes if list(s) == sorted(s, reverse=True)]
    return sorted(shapes) if m else [()]


def _brute_force_fillings(kind: str, shape: tuple[int, ...], max_entry: int) -> tuple:
    fillings = []
    for values in product(range(1, max_entry + 1), repeat=sum(shape)):
        rows, i = [], 0
        for part in shape:
            rows.append(values[i : i + part])
            i += part
        f = Filling(rows)
        if violations(kind, f) == []:
            fillings.append(f)
    return tuple(fillings)


def _hook_content_count(shape: tuple[int, ...], n: int) -> int:
    """s_shape(1^n), the number of SSYT of the shape with entries <= n:
    the product over cells u of (n + c(u)) / h(u), content c(u) = column -
    row, h(u) the hook length (Stanley, EC2, 7.21.2)."""
    heights = [sum(part > j for part in shape) for j in range(max(shape, default=0))]
    count = Fraction(1)
    for i, part in enumerate(shape):
        for j in range(part):
            count *= Fraction(n + j - i, (part - j) + (heights[j] - i) - 1)
    assert count.denominator == 1
    return int(count)


class TestEnumeration:
    def test_ssyt_21_3_has_eight(self):
        tableaux = enumerate_ssyt((2, 1), 3)
        assert len(tableaux) == 8
        expected = {
            Filling([[1, 1], [2]]),
            Filling([[1, 1], [3]]),
            Filling([[2, 2], [3]]),
            Filling([[1, 2], [2]]),
            Filling([[1, 3], [3]]),
            Filling([[2, 3], [3]]),
            Filling([[1, 2], [3]]),
            Filling([[1, 3], [2]]),
        }
        assert set(tableaux) == expected

    def test_ssyt_trivial(self):
        assert enumerate_ssyt((1,), 1) == (Filling([[1]]),)
        assert enumerate_ssyt((2, 2), 2) == (Filling([[1, 1], [2, 2]]),)

    def test_rssyt_count_matches_ssyt_by_reversal(self):
        for shape in [(2, 1), (3,), (2, 2), (3, 1), (1, 1, 1)]:
            for n in (2, 3, 4):
                assert len(enumerate_rssyt(shape, n)) == len(enumerate_ssyt(shape, n))

    def test_rssyt_reversal_bijection(self):
        # v -> n+1-v carries ssyt onto rssyt of the same shape
        n = 3
        reversed_set = {
            Filling([[n + 1 - v for v in row] for row in t.rows])
            for t in enumerate_ssyt((2, 1), n)
        }
        assert reversed_set == set(enumerate_rssyt((2, 1), n))

    def test_ct_rearrangement_counts(self):
        assert len(enumerate_ct((2, 1), 3)) + len(enumerate_ct((1, 2), 3)) == 8

    def test_ct_trivial(self):
        assert enumerate_ct((1,), 1) == (Filling([[1]]),)

    # Brute force: every filling from ``product``, which yields them in
    # reading-word order, kept when the validator accepts it.  Ordered
    # tuples are compared, so the enumerators' order is pinned too.
    def test_ct_matches_validator_brute_force(self):
        for m in range(1, 6):
            for shape in _brute_force_shapes(m):
                for max_entry in range(1, 5):
                    expected = _brute_force_fillings("ct", shape, max_entry)
                    assert enumerate_ct(shape, max_entry) == expected, (shape, max_entry)

    def test_rssyt_and_ssyt_match_validator_brute_force(self):
        for m in range(1, 6):
            for shape in _brute_force_shapes(m, partition=True):
                for max_entry in range(1, 5):
                    expected = _brute_force_fillings("rssyt", shape, max_entry)
                    assert enumerate_rssyt(shape, max_entry) == expected, (shape, max_entry)
                    expected = _brute_force_fillings("ssyt", shape, max_entry)
                    assert enumerate_ssyt(shape, max_entry) == expected, (shape, max_entry)

    def test_shapes_match_brute_force(self):
        for m in range(9):
            assert compositions(m) == _brute_force_shapes(m)
            assert partitions(m) == _brute_force_shapes(m, partition=True)

    def test_counts_match_the_hook_content_formula(self):
        # Reverse SSYT of shape lam are the complements of SSYT, and rho
        # matches the composition tableaux whose shape sorts to lam with
        # them one to one; neither count shares code with the enumerators.
        tableaux = cases = 0
        for m in range(1, 7):
            comps = _brute_force_shapes(m)
            for lam in _brute_force_shapes(m, partition=True):
                expected = _hook_content_count(lam, 6)
                assert len(enumerate_rssyt(lam, 6)) == expected, lam
                sorts_to_lam = [a for a in comps if tuple(sorted(a, reverse=True)) == lam]
                assert sum(len(enumerate_ct(a, 6)) for a in sorts_to_lam) == expected, lam
                tableaux += expected
                cases += expected * len(lam)
        assert (tableaux, cases) == (8113, 19148)

    def test_reading_word_order(self):
        words = [tuple(v for row in t.rows for v in row) for t in enumerate_ssyt((2, 1), 3)]
        assert words == sorted(words)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            enumerate_ssyt((1, 2), 3)
        with pytest.raises(ValueError):
            enumerate_ct((0, 1), 3)

    @pytest.mark.parametrize(
        "enumerate_kind", [enumerate_ssyt, enumerate_rssyt, _rssyt_fillings, enumerate_ct, _ct_fillings]
    )
    def test_max_entry_below_one_raises_at_the_call(self, enumerate_kind):
        # The streams are generators; their checks still run when they are
        # called, before the first tableau is asked for.
        with pytest.raises(ValueError, match="^max_entry must be at least 1, got 0$"):
            enumerate_kind((2, 1), 0)

    @pytest.mark.parametrize(
        "enumerate_kind", [enumerate_ssyt, enumerate_rssyt, _rssyt_fillings, enumerate_ct, _ct_fillings]
    )
    @pytest.mark.parametrize("max_entry", [2.0, True])
    def test_non_integer_max_entry_raises_at_the_call(self, enumerate_kind, max_entry):
        # Filling's rule for its slots: an int, and not a bool; the caches
        # keep 2.0 and True apart from the 2 and 1 they equal.
        enumerate_kind((1,), int(max_entry))
        with pytest.raises(ValueError, match=f"^max_entry must be an int, got {max_entry!r}$"):
            enumerate_kind((1,), max_entry)

    @pytest.mark.parametrize("enumerate_kind", [enumerate_ssyt, enumerate_rssyt, _rssyt_fillings])
    @pytest.mark.parametrize("shape", [(1, 2), (2, 0)])
    def test_non_partition_shape_raises_at_the_call(self, enumerate_kind, shape):
        with pytest.raises(ValueError, match=f"^{re.escape(str(shape))} is not a partition shape$"):
            enumerate_kind(shape, 3)

    @pytest.mark.parametrize("enumerate_kind", [enumerate_ct, _ct_fillings])
    @pytest.mark.parametrize("shape", [(0, 1), (2, 0)])
    def test_composition_with_a_zero_part_raises_at_the_call(self, enumerate_kind, shape):
        with pytest.raises(ValueError, match=f"^{re.escape(str(shape))} is not a composition shape$"):
            enumerate_kind(shape, 3)


class TestExpansions:
    def test_monomial_expansions_reject_a_shape_of_the_wrong_kind(self):
        with pytest.raises(ValueError, match=r"^\(1, 2\) is not a partition shape$"):
            monomial_sym_expand((1, 2), 3)
        with pytest.raises(ValueError, match=r"^\(1, 0\) is not a composition shape$"):
            monomial_qsym_expand((1, 0), 2)

    @pytest.mark.parametrize("nvars", [0, -1])
    @pytest.mark.parametrize("expand", [schur_expand, monomial_sym_expand, monomial_qsym_expand])
    def test_nvars_below_one_rejected(self, expand, nvars):
        with pytest.raises(ValueError, match=f"^nvars must be at least 1, got {nvars}$"):
            expand((1,), nvars)

    def test_schur_21_in_three_vars(self):
        p = schur_expand((2, 1), 3)
        assert p.terms == {
            (2, 1, 0): 1,
            (2, 0, 1): 1,
            (0, 2, 1): 1,
            (1, 2, 0): 1,
            (1, 0, 2): 1,
            (0, 1, 2): 1,
            (1, 1, 1): 2,
        }

    def test_schur_trivial(self):
        assert schur_expand((1,), 2).terms == {(1, 0): 1, (0, 1): 1}
        assert schur_expand((2, 1), 2).terms == {(2, 1): 1, (1, 2): 1}

    def test_msym_21(self):
        p = monomial_sym_expand((2, 1), 3)
        assert len(p.terms) == 6
        assert all(coeff == 1 for coeff in p.terms.values())

    def test_msym_trivial(self):
        assert monomial_sym_expand((1,), 1).terms == {(1,): 1}
        assert monomial_sym_expand((1, 1), 3).terms == {
            (1, 1, 0): 1,
            (1, 0, 1): 1,
            (0, 1, 1): 1,
        }

    def test_msym_matches_all_permutations_reference(self):
        # reference: every permutation of the padded shape, duplicates dropped
        def reference(shape, nvars):
            if len(shape) > nvars:
                return Polynomial.zero(nvars)
            padded = shape + (0,) * (nvars - len(shape))
            return Polynomial(nvars, {exps: 1 for exps in set(permutations(padded))})

        for n in range(8):
            for shape in partitions(n):
                if len(shape) > 5:
                    continue
                for nvars in range(1, 8):
                    assert monomial_sym_expand(shape, nvars) == reference(shape, nvars)
                padded = shape + (0,) * (7 - len(shape))
                assert list(_rearrangements(padded)) == sorted(set(permutations(padded)))

    def test_msym_many_variables(self):
        p = monomial_sym_expand((2, 1), 12)
        assert len(p.terms) == 12 * 11
        assert (2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1) in p.terms

    def test_mqsym_21(self):
        assert monomial_qsym_expand((2, 1), 3).terms == {
            (2, 1, 0): 1,
            (2, 0, 1): 1,
            (0, 2, 1): 1,
        }

    def test_mqsym_edges(self):
        assert monomial_qsym_expand((3,), 2).terms == {(3, 0): 1, (0, 3): 1}
        assert monomial_qsym_expand((1, 2), 2).terms == {(1, 2): 1}
        assert monomial_qsym_expand((1, 1, 1), 2) == Polynomial.zero(2)

    def test_identities(self):
        s21 = schur_expand((2, 1), 3)
        m21 = monomial_sym_expand((2, 1), 3)
        m111 = monomial_sym_expand((1, 1, 1), 3)
        q21 = monomial_qsym_expand((2, 1), 3)
        q12 = monomial_qsym_expand((1, 2), 3)
        q111 = monomial_qsym_expand((1, 1, 1), 3)
        assert s21 == m21 + 2 * m111
        assert s21 == q21 + q12 + 2 * q111
        assert m21 == q21 + q12


def _quasisymmetric_reference(p: Polynomial) -> bool:
    # Reference: walk every placement of each exponent sequence.
    by_comp: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for exps, coeff in p.terms.items():
        comp = tuple(e for e in exps if e)
        positions = tuple(i for i, e in enumerate(exps) if e)
        by_comp.setdefault(comp, {})[positions] = coeff
    for comp, placements in by_comp.items():
        ref = None
        for positions in combinations(range(p.nvars), len(comp)):
            coeff = placements.get(positions, 0)
            if ref is None:
                ref = coeff
            elif coeff != ref:
                return False
    return True


def _symmetric_reference(p: Polynomial) -> bool:
    # Reference: the term map is unchanged under every permutation of the variables.
    return all(
        {tuple(exps[i] for i in perm): c for exps, c in p.terms.items()} == p.terms
        for perm in permutations(range(p.nvars))
    )


class TestPredicates:
    def test_quasisymmetric_matches_the_placement_walk(self):
        rng = random.Random(11)
        polys = []
        for nvars in range(1, 5):
            for m in range(1, 5):
                for shape in _brute_force_shapes(m):
                    polys.append(monomial_qsym_expand(shape, nvars))
                    if list(shape) == sorted(shape, reverse=True):
                        polys.append(schur_expand(shape, nvars))
                        polys.append(monomial_sym_expand(shape, nvars))
        for _ in range(2000):  # random sparse polynomials
            nvars = rng.randint(1, 4)
            polys.append(Polynomial(nvars, {
                tuple(rng.randint(0, 2) for _ in range(nvars)): rng.choice((-1, 1, 2))
                for _ in range(rng.randint(1, 6))
            }))
        for _ in range(2000):  # sums of M_alpha with one term perturbed
            nvars = rng.randint(1, 4)
            p = Polynomial.zero(nvars)
            for _ in range(rng.randint(1, 3)):
                shape = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, nvars)))
                p = p + rng.randint(1, 3) * monomial_qsym_expand(shape, nvars)
            terms = dict(p.terms)
            terms[rng.choice(sorted(terms))] += rng.choice((-1, 0, 1))
            polys.append(Polynomial(nvars, terms))
        verdicts = [is_quasisymmetric(p) for p in polys]
        assert verdicts == [_quasisymmetric_reference(p) for p in polys]
        assert 0 < sum(verdicts) < len(polys)
        verdicts = [is_symmetric(p) for p in polys]
        assert verdicts == [_symmetric_reference(p) for p in polys]
        assert 0 < sum(verdicts) < len(polys)

    def test_quasisymmetric_examples(self):
        p = Polynomial(3, {(2, 1, 0): 1, (2, 0, 1): 1, (0, 2, 1): 1})
        assert is_quasisymmetric(p) is True
        assert is_symmetric(p) is False

    def test_same_support_unequal_coefficients_not_symmetric(self):
        assert is_symmetric(Polynomial(2, {(1, 0): 1, (0, 1): 2})) is False

    def test_not_quasisymmetric(self):
        p = Polynomial(3, {(1, 2, 0): 1, (1, 0, 2): 1})
        assert is_quasisymmetric(p) is False

    def test_single_square_not_quasisymmetric(self):
        assert is_quasisymmetric(Polynomial(2, {(2, 0): 1})) is False

    def test_full_support_monomial_is_quasisymmetric(self):
        assert is_quasisymmetric(Polynomial(3, {(2, 1, 3): 1})) is True

    def test_schur_is_symmetric_and_quasisymmetric(self):
        for shape in [(1,), (2,), (2, 1), (2, 2), (3, 1)]:
            p = schur_expand(shape, 4)
            assert is_symmetric(p)
            assert is_quasisymmetric(p)

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
        st.integers(1, 4),
    )
    def test_mqsym_always_quasisymmetric(self, comp, nvars):
        assert is_quasisymmetric(monomial_qsym_expand(comp, nvars))

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=3)
        .map(lambda parts: tuple(sorted(parts, reverse=True))),
        st.integers(1, 4),
    )
    def test_msym_always_symmetric(self, shape, nvars):
        p = monomial_sym_expand(shape, nvars)
        assert is_symmetric(p)
        assert is_quasisymmetric(p)  # Sym is contained in Qsym


def _padded_weight(f, nvars):
    # Reference: the frequency vector of weight_of, padded to nvars.
    w = weight_of(f)
    if len(w) > nvars:
        raise ValueError(f"tableau uses entries above {nvars}")
    return w + (0,) * (nvars - len(w))


class TestWeightMonomial:
    def test_matches_padded_weight_of_on_every_small_tableau(self):
        checked = 0
        for m in range(1, 6):
            shapes = [(enumerate_ssyt, p) for p in partitions(m)]
            shapes += [(enumerate_rssyt, p) for p in partitions(m)]
            shapes += [(enumerate_ct, c) for c in compositions(m)]
            for enumerate_kind, shape in shapes:
                for f in enumerate_kind(shape, 5):
                    top = max(v for row in f.rows for v in row)
                    for nvars in range(top, 7):
                        assert weight_monomial(f, nvars) == _padded_weight(f, nvars), (f, nvars)
                        checked += 1
        assert checked == 8697

    @pytest.mark.parametrize(
        "f, nvars",
        [
            (Filling([[3, None], [None]]), 4),
            (Filling([[2, 0, 1], [0]]), 2),
            (Filling([[None]]), 0),
            (Filling(), 0),
            (Filling(), 3),
            (Filling([[]]), 2),
        ],
    )
    def test_holes_zeros_and_empty_fillings(self, f, nvars):
        assert weight_monomial(f, nvars) == _padded_weight(f, nvars)

    @pytest.mark.parametrize("f, nvars", [(Filling([[4, 1]]), 3), (Filling([[1]]), 0), (Filling([[2, None]]), 1)])
    def test_entry_above_nvars(self, f, nvars):
        with pytest.raises(ValueError) as new:
            weight_monomial(f, nvars)
        with pytest.raises(ValueError) as ref:
            _padded_weight(f, nvars)
        assert str(new.value) == str(ref.value) == f"tableau uses entries above {nvars}"


class TestPolynomialType:
    def test_zero_coefficients_dropped(self):
        assert Polynomial(2, {(1, 0): 0}) == Polynomial.zero(2)

    def test_add(self):
        a = Polynomial(2, {(1, 0): 1})
        b = Polynomial(2, {(1, 0): 2, (0, 1): 1})
        assert (a + b).terms == {(1, 0): 3, (0, 1): 1}

    def test_scalar_on_either_side(self):
        # Without __mul__, p * 2 would be the 4-tuple of tuple repetition.
        p = Polynomial(1, {(1,): 1})
        for scaled in (p * 2, 2 * p):
            assert type(scaled) is Polynomial
            assert scaled == Polynomial(1, {(1,): 2})

    # The scalar follows the coefficients' rule: True * p would be p, and a
    # float or a Polynomial would fail only as a product coefficient.
    @pytest.mark.parametrize(
        "scale, message",
        [
            (lambda p: True * p, "a scalar must be an int, got True"),
            (lambda p: p * True, "a scalar must be an int, got True"),
            (lambda p: 2.0 * p, "a scalar must be an int, got 2.0"),
            (lambda p: p * 2.0, "a scalar must be an int, got 2.0"),
            (lambda p: p * p, r"a scalar must be an int, got Polynomial\(nvars=1, terms=\{\(1,\): 3\}\)"),
        ],
        ids=["bool-left", "bool-right", "float-left", "float-right", "polynomial"],
    )
    def test_non_integer_scalar_rejected(self, scale, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            scale(Polynomial(1, {(1,): 3}))

    @pytest.mark.parametrize(
        "add, message",
        [
            (lambda p: p + 1, "unsupported operand type(s) for +: 'Polynomial' and 'int'"),
            (lambda p: 1 + p, "unsupported operand type(s) for +: 'int' and 'Polynomial'"),
        ],
        ids=["right", "left"],
    )
    def test_adding_a_non_polynomial_is_a_type_error(self, add, message):
        with pytest.raises(TypeError) as exc:
            add(Polynomial(1, {(1,): 3}))
        assert str(exc.value) == message

    # Filling's rule for its slots: an int, and not a bool, which would
    # otherwise render as "True: 1,0".
    @pytest.mark.parametrize(
        "nvars, terms, message",
        [
            (2, {(1, 0): True}, "a coefficient must be an int, got True"),
            (2, {(1, 0): 0.5}, "a coefficient must be an int, got 0.5"),
            (2, {(True, 0): 1}, r"non-integer or negative exponent in \(True, 0\)"),
            (2, {(0.5, 0): 1}, r"non-integer or negative exponent in \(0.5, 0\)"),
            (True, {}, "nvars must be an int, got True"),
            (2.0, {}, "nvars must be an int, got 2.0"),
            ("2", {}, "nvars must be an int, got '2'"),
        ],
        ids=["bool-coeff", "float-coeff", "bool-exp", "float-exp", "bool-nvars", "float-nvars", "str-nvars"],
    )
    def test_non_integers_rejected(self, nvars, terms, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Polynomial(nvars, terms)

    @pytest.mark.parametrize("expand", [schur_expand, monomial_sym_expand, monomial_qsym_expand])
    @pytest.mark.parametrize("nvars", [True, 2.0])
    def test_expansions_reject_non_integer_nvars(self, expand, nvars):
        with pytest.raises(ValueError, match=f"^nvars must be an int, got {nvars!r}$"):
            expand((1,), nvars)

    def test_negative_nvars_rejected(self):
        with pytest.raises(ValueError, match="^nvars must be at least 0, got -3$"):
            Polynomial(-3, {})

    def test_var_mismatch(self):
        with pytest.raises(ValueError, match=r"^variable counts differ: 1 != 2$"):
            Polynomial(1, {}) + Polynomial(2, {})
        with pytest.raises(ValueError, match=r"^variable counts differ: 2 != 3$"):
            Polynomial(2, {(1, 0): 1}) + Polynomial(3, {(1, 0, 0): 1})

    def test_render_parse_roundtrip(self):
        p = schur_expand((2, 1), 3)
        assert parse_polynomial(render_polynomial(p)) == p

    def test_render_order_is_graded_lex(self):
        p = Polynomial(2, {(0, 1): 1, (2, 0): 1, (1, 0): 1})
        assert render_polynomial(p) == "1: 1,0\n1: 0,1\n1: 2,0"

    def test_parse_skips_blank_lines(self):
        assert parse_polynomial("1: 1,0\n\n1: 0,1\n") == Polynomial(2, {(1, 0): 1, (0, 1): 1})

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_polynomial("nonsense")
        with pytest.raises(ParseError):
            parse_polynomial("1: 1,2\n1: 1")
        with pytest.raises(ParseError):
            parse_polynomial("")
