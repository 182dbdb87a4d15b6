"""Tests for affine analysis and dependence tests."""

from repro.cfront.parser import Parser
from repro.cfront.lexer import Lexer
from repro.tools.affine import (
    Affine,
    affine_pair_dependent,
    gcd_test,
    strong_siv_has_cross_iteration,
    to_affine,
    ziv_test,
)


def expr(src):
    toks = Lexer(src).lex().tokens
    return Parser(toks)._parse_expr()


def aff(src, loop_vars={"i", "j"}):
    return to_affine(expr(src), set(loop_vars))


class TestToAffine:
    def test_constant(self):
        a = aff("5")
        assert a.is_constant and a.const == 5

    def test_loop_var(self):
        a = aff("i")
        assert a.coeff("i") == 1 and a.const == 0

    def test_linear_combination(self):
        a = aff("2*i + 3*j - 4")
        assert a.coeff("i") == 2 and a.coeff("j") == 3 and a.const == -4

    def test_constant_on_left(self):
        a = aff("3 * i")
        assert a.coeff("i") == 3

    def test_unary_minus(self):
        a = aff("-i + 1")
        assert a.coeff("i") == -1 and a.const == 1

    def test_subtraction(self):
        a = aff("i - 1")
        assert a.coeff("i") == 1 and a.const == -1

    def test_symbolic_invariant(self):
        a = aff("i + n")
        assert a.coeff("i") == 1
        assert a.symbols == (("n", 1),)

    def test_symbol_cancellation(self):
        a = aff("n - n + i")
        assert a.symbols == () and a.coeff("i") == 1

    def test_nonaffine_product(self):
        assert aff("i * j") is None

    def test_nonaffine_division(self):
        assert aff("i / 2") is None

    def test_nonaffine_call(self):
        assert aff("f(i)") is None

    def test_nonaffine_indexed(self):
        assert aff("b[i]") is None

    def test_coefficient_accumulation(self):
        a = aff("i + i + i")
        assert a.coeff("i") == 3

    def test_zero_coefficient_dropped(self):
        a = aff("i - i")
        assert a.is_constant


class TestDependenceTests:
    def test_ziv_equal_constants(self):
        assert ziv_test(Affine(const=3), Affine(const=3))

    def test_ziv_different_constants(self):
        assert not ziv_test(Affine(const=3), Affine(const=4))

    def test_ziv_symbols_matter(self):
        a = Affine(const=0, symbols=(("n", 1),))
        b = Affine(const=0)
        assert not ziv_test(a, b)

    def test_gcd_no_solution(self):
        # 2i = 2i' + 1 has no integer solution
        a = Affine(coeffs={"i": 2})
        b = Affine(coeffs={"i": 2}, const=1)
        assert not gcd_test(a, b)

    def test_gcd_solution_exists(self):
        a = Affine(coeffs={"i": 2})
        b = Affine(coeffs={"i": 4}, const=2)
        assert gcd_test(a, b)

    def test_gcd_multivariable_compensation(self):
        # j vs j-1: another index can compensate, dependence possible.
        a = Affine(coeffs={"j": 1})
        b = Affine(coeffs={"j": 1}, const=-1)
        assert gcd_test(a, b)

    def test_strong_siv_refuses_multivariable(self):
        a = Affine(coeffs={"i": 2, "j": 1})
        b = Affine(coeffs={"i": 2, "j": 1})
        assert strong_siv_has_cross_iteration(a, b, "i") is None

    def test_strong_siv_same_subscript_not_carried(self):
        a = Affine(coeffs={"i": 1})
        assert strong_siv_has_cross_iteration(a, a, "i") is False

    def test_strong_siv_distance_one_carried(self):
        a = Affine(coeffs={"i": 1})
        b = Affine(coeffs={"i": 1}, const=1)
        assert strong_siv_has_cross_iteration(a, b, "i") is True

    def test_strong_siv_fractional_distance_independent(self):
        a = Affine(coeffs={"i": 2})
        b = Affine(coeffs={"i": 2}, const=1)
        assert strong_siv_has_cross_iteration(a, b, "i") is False

    def test_strong_siv_not_applicable_different_coeffs(self):
        a = Affine(coeffs={"i": 1})
        b = Affine(coeffs={"i": 2})
        assert strong_siv_has_cross_iteration(a, b, "i") is None


class TestPairDependence:
    def test_identical_subscripts_independent(self):
        a = aff("i")
        assert not affine_pair_dependent(a, a, "i")

    def test_shifted_subscript_dependent(self):
        assert affine_pair_dependent(aff("i"), aff("i + 1"), "i")

    def test_same_symbolic_offset_independent(self):
        assert not affine_pair_dependent(aff("i + n"), aff("i + n"), "i")

    def test_different_symbols_conservative(self):
        assert affine_pair_dependent(aff("i + n"), aff("i + m"), "i")

    def test_constant_pair_same_cell(self):
        assert affine_pair_dependent(aff("0"), aff("0"), "i")

    def test_constant_pair_distinct_cells(self):
        assert not affine_pair_dependent(aff("0"), aff("1"), "i")
