"""Tests for exact scalar arithmetic and the quantum-integer identity suite."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import from_json_terms
from spinlink.qalg import (
    GradedScalar,
    LaurentPoly,
    RatFunc,
    appendixA_suite,
    d_value,
    devil,
    poly_divexact,
    qbinom,
    qbinom_base,
    qint,
    qint_base,
    qtwo,
    rho,
    selfconj_sum,
)


def q(e, c=1):
    return LaurentPoly.q_pow(e, c)


class TestQuantumIntegers:
    def test_qint_basics(self):
        assert qint(0).is_zero()
        assert qint(2) == q(1) + q(-1)
        assert qint(3) == q(2) + q(0) + q(-2)
        assert qint(-3) == -qint(3)

    def test_qtwo(self):
        assert qtwo(0) == LaurentPoly.const(2)
        assert qtwo(1) == q(1) + q(-1)
        assert qtwo(3) == q(3) + q(-3)

    def test_qbinom(self):
        assert qbinom(2, 1) == q(1) + q(-1)
        assert qbinom(4, 2) == q(4) + q(2) + q(0, 2) + q(-2) + q(-4)
        assert qbinom(3, 5).is_zero()
        assert qbinom(5, -1).is_zero()

    def test_qbinom_base_two(self):
        assert qbinom_base(2, 1, 2) == q(2) + q(-2)

    def test_qint_times_qint_is_sum(self):
        # [m][n] = sum over the unsigned expansion
        for m in range(1, 6):
            for n in range(m, 8):
                total = LaurentPoly.zero()
                for i in range(m):
                    total = total + qint(n + m - 2 * i - 1)
                assert qint(m) * qint(n) == total


class TestDevil:
    def test_examples(self):
        assert devil(3, 4) == q(5) + q(1) + q(-1) + q(-5)
        assert devil(0, 7).is_zero()
        assert devil(2, 2) == qint_base(2, 2)

    def test_symmetric(self):
        for m in range(0, 5):
            for n in range(0, 5):
                assert devil(m, n) == devil(n, m)

    def test_q_one_specialization(self):
        for m in range(1, 6):
            for n in range(m, 8):
                val = devil(m, n).subs_v(Fraction(1))
                assert val == (n if m % 2 else m)


class TestDValueAndRho:
    def test_d_value(self):
        assert d_value(0).is_one()
        assert d_value(1) == q(1) + q(-1)
        assert d_value(2) == (q(1) + q(-1)) * (q(3) + q(-3))

    def test_d_value_quotient_form(self):
        # d_i = prod [4l-2]/[2l-1]
        for i in range(0, 6):
            num, den = LaurentPoly.one(), LaurentPoly.one()
            for l in range(1, i + 1):
                num = num * qint(4 * l - 2)
                den = den * qint(2 * l - 1)
            assert d_value(i) * den == num

    def test_rho_values(self):
        assert rho(1) == RatFunc.from_poly(q(-2))
        assert rho(2) == RatFunc.from_poly(q(-6))
        assert rho(5) == RatFunc.from_poly(q(-30))

    def test_rho_hand_unrolled_level_one(self):
        # rho_1^{(1)} = -1 + q^{-1} * ("[1][2]"/"[1]^2") * 1 = -1 + q^{-1}[2]
        by_hand = LaurentPoly.const(-1) + q(-1) * qint(2)
        assert rho(1) == RatFunc.from_poly(by_hand)


class TestSelfConjugate:
    def test_small(self):
        assert selfconj_sum(0).is_one()
        assert selfconj_sum(1) == q(0) + q(2)
        assert selfconj_sum(2) == q(0) + q(2) + q(6) + q(8)

    def test_identity(self):
        for n in range(0, 7):
            assert selfconj_sum(n) == LaurentPoly.q_pow(n * n) * d_value(n)


coeffs = st.integers(min_value=-9, max_value=9)
exps = st.integers(min_value=-6, max_value=6)
polys = st.dictionaries(exps, coeffs, max_size=5).map(LaurentPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


class TestRatFunc:
    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=60, deadline=None)
    def test_mul_inverse(self, a, b):
        x = RatFunc(a, b)
        y = RatFunc(b, a)
        assert x * y == RatFunc.one()

    @given(polys, nonzero_polys, polys, nonzero_polys)
    @settings(max_examples=60, deadline=None)
    def test_specialization_consistency(self, a, b, c, d):
        x, y = RatFunc(a, b), RatFunc(c, d)
        s = x + y
        p = x * y
        for v in (Fraction(2), Fraction(3, 2), Fraction(-5, 3)):
            try:
                xv, yv = x.subs_v(v), y.subs_v(v)
                assert s.subs_v(v) == xv + yv
                assert p.subs_v(v) == xv * yv
            except ZeroDivisionError:
                pass

    @given(polys, nonzero_polys)
    @settings(max_examples=60, deadline=None)
    def test_canonical_equality(self, a, b):
        # scaling numerator and denominator together does not change the value
        x = RatFunc(a, b)
        y = RatFunc(a * qint(2), b * qint(2))
        z = RatFunc(a.shift(4).scale(Fraction(3, 7)), b.shift(4).scale(Fraction(3, 7)))
        assert x == y == z

    def test_denominator_normal_form(self):
        x = RatFunc(qint(2), LaurentPoly.v_pow(-3, Fraction(2, 5)) * qint(3))
        assert x.den.v_valuation() == 0
        assert all(isinstance(c, int) for c in x.den.c.values())
        assert x.den.leading_coeff() > 0


class TestPolyDivexact:
    def test_fraction_coefficients(self):
        a = LaurentPoly({0: Fraction(1, 2), 2: Fraction(-3, 4)})
        b = LaurentPoly({0: Fraction(2, 3), 1: 5})
        assert poly_divexact(a * b, b) == a
        assert poly_divexact(a * b, a) == b

    def test_divisor_not_monic(self):
        b = LaurentPoly({0: 1, 1: 2})  # 2v + 1
        a = LaurentPoly({0: 3, 2: -1, 3: 7})
        assert poly_divexact(a * b, b) == a
        assert poly_divexact(b.scale(6), b) == LaurentPoly.const(6)

    def test_laurent_shifts(self):
        a = qint(3).shift(-5)
        b = LaurentPoly({-3: 2, -1: 1})
        assert poly_divexact((a * b).shift(7), b.shift(-2)) == a.shift(9)
        assert poly_divexact(b.shift(4), b) == LaurentPoly.v_pow(4)

    def test_inexact_raises(self):
        with pytest.raises(ValueError):
            poly_divexact(qint(3), qint(2))
        with pytest.raises(ValueError):
            poly_divexact(LaurentPoly({0: 1, 2: 1}), LaurentPoly({0: 1, 1: 2}))

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            poly_divexact(qint(2), LaurentPoly.zero())

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, a, b):
        assert poly_divexact(a * b, b) == a


class TestGradedScalar:
    def test_offset_canonicalization(self):
        a = GradedScalar(Fraction(5, 2), qint(2))
        b = GradedScalar(Fraction(1, 2), LaurentPoly.q_pow(2) * qint(2))
        assert a == b
        assert 0 <= a.offset < Fraction(1, 2)

    def test_third_roots(self):
        a = GradedScalar(Fraction(1, 3), qint(2))
        assert (a * a).offset == Fraction(1, 6)

    def test_add_requires_matching_offset(self):
        a = GradedScalar(Fraction(1, 3), qint(2))
        b = GradedScalar(0, qint(2))
        with pytest.raises(ValueError):
            a + b

    def test_bar(self):
        a = GradedScalar(Fraction(1, 4), q(3) + q(-1, 2))
        v = a * a.bar()
        assert v == v.bar()

    def test_json_round_trip(self):
        a = GradedScalar(Fraction(1, 3), q(2) + q(-1, Fraction(3, 4)))
        assert from_json_terms(a.json_terms()) == a

    def test_body_is_a_laurent_polynomial(self):
        with pytest.raises(TypeError):
            GradedScalar(0, RatFunc(LaurentPoly.one(), qint(2)))
        with pytest.raises(TypeError):
            GradedScalar(0, RatFunc(qint(2)))  # a quotient with denominator 1 is still refused

    def test_only_monomials_invert(self):
        a = GradedScalar(Fraction(1, 3), q(-3, -2))
        assert a * a.inv() == GradedScalar.one()
        with pytest.raises(ValueError):
            GradedScalar(0, qbinom(4, 2)).inv()


class TestAppendixSuite:
    def test_all_pass(self):
        report = appendixA_suite(8)
        assert all(entry["status"] == "pass" for entry in report)

    def test_bound_guard(self):
        with pytest.raises(ValueError):
            appendixA_suite(13)
