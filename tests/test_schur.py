"""Tests for colored sl_N: EF calculus, annular evaluation, the weight-space route, and properties of the values."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from spinlink import schur
from spinlink.qalg import GradedScalar, LaurentPoly, RatFunc, poly_divexact, qbinom, qint
from spinlink.schur import (
    SchurElement,
    bilinear_form,
    c_pm,
    closure_components,
    colored_exponent,
    ef_commute,
    eval_slN,
    eval_slN_annular,
    kauffman_bracket,
    kauffman_jones,
    sl2_from_spin1,
    spin1_from_jones,
    word_alive,
    word_target,
)
from spinlink.spinpoly import BraidWord, eval_spin, parse_braid


class TestEFCommute:
    def test_rank_one_case(self):
        # e f 1_a = f e 1_a + [a1 - a2] 1_a
        a = (3, 1)
        word = (("E", 1, 1), ("F", 1, 1))
        out = ef_commute(word, 0, a, 4)
        assert out == {
            (("F", 1, 1), ("E", 1, 1)): LaurentPoly.one(),
            (): qint(2),
        }

    def test_negative_binomial_top(self):
        # e f 1_a = f e 1_a + [a1 - a2] 1_a with a1 - a2 = -1: [-1 choose 1] = -1
        out = ef_commute((("E", 1, 1), ("F", 1, 1)), 0, (1, 2), 3)
        assert out == {(("F", 1, 1), ("E", 1, 1)): LaurentPoly.one(), (): LaurentPoly.const(-1)}
        # e^(2) f^(2) at a1 - a2 = -2: [-2 choose 1] = -[2], [-2 choose 2] = [3]
        out = ef_commute((("E", 1, 2), ("F", 1, 2)), 0, (1, 3), 4)
        assert out[(("F", 1, 1), ("E", 1, 1))] == -qint(2)
        assert out[()] == qbinom(3, 2)

    def test_needs_matching_pair(self):
        with pytest.raises(ValueError):
            ef_commute((("E", 1, 1), ("F", 2, 1)), 0, (1, 1, 1), 3)

    def test_dead_weights_dropped(self):
        # e^{(r)} 1_a = 0 once the weight leaves the box
        N = 2
        assert not word_alive((("E", 1, 1),), (2, 0), N)
        el = SchurElement((2, 0), N, {(("E", 1, 1),): LaurentPoly.one()})
        assert not el.terms


class TestBilinearForm:
    def test_base_case_full_range(self):
        for N in range(0, 6):
            for m in (1, 2, 3):
                for a in itertools.product(range(N + 1), repeat=m):
                    want = LaurentPoly.one()
                    for x in a:
                        want = want * qbinom(N, x)
                    got = bilinear_form(SchurElement.idempotent(a, N))
                    assert got == GradedScalar(0, RatFunc.from_poly(want)), (N, a)

    def test_fe_value(self):
        # (1_a, f e 1_a) computed two ways: annular evaluation, and by hand
        # from the EF relation at a = (1, 1), N = 2:
        # Tr(f e) where e f 1_a = f e 1_a + [0] 1_a; rotation gives
        # (1_a, fe 1_a) = (1_{a+alpha}, ef 1_{a+alpha})
        N, a = 2, (1, 1)
        word = (("F", 1, 1), ("E", 1, 1))
        el = SchurElement(a, N, {word: LaurentPoly.one()})
        got = bilinear_form(el)
        # by hand: ef 1_(2,0) = fe 1_(2,0) + [2] 1_(2,0); fe 1_(2,0) dies (e leaves the box)
        want = qint(2) * qbinom(2, 2) * qbinom(2, 0)
        assert got == GradedScalar(0, RatFunc.from_poly(want))

    def test_two_argument_symmetry_properties(self):
        # properties (1)-(4): moving a letter across the form
        rng = random.Random(42)
        N, m = 3, 2
        for _ in range(12):
            a = (rng.randint(0, N), rng.randint(0, N))
            kinds = ["E", "F"]
            w1 = tuple((rng.choice(kinds), 1, 1) for _ in range(rng.randint(0, 2)))
            w2 = tuple((rng.choice(kinds), 1, 1) for _ in range(rng.randint(0, 2)))
            x = SchurElement(a, N, {w1: LaurentPoly.one()})
            y = SchurElement(a, N, {w2: LaurentPoly.one()})
            if x.terms and word_target(w1, a) != word_target(w2, a):
                continue
            # (e x, y) = (x, f y) with the letter moved across
            ex = SchurElement(a, N, {(("E", 1, 1),) + w1: LaurentPoly.one()})
            fy = SchurElement(a, N, {(("F", 1, 1),) + w2: LaurentPoly.one()})
            assert bilinear_form(ex, y) == bilinear_form(x, fy)
            fx = SchurElement(a, N, {(("F", 1, 1),) + w1: LaurentPoly.one()})
            ey = SchurElement(a, N, {(("E", 1, 1),) + w2: LaurentPoly.one()})
            assert bilinear_form(fx, y) == bilinear_form(x, ey)

    def test_orthogonal_weights_vanish(self):
        N = 2
        x = SchurElement.idempotent((1, 1), N)
        y = SchurElement.idempotent((2, 0), N)
        assert bilinear_form(x, y) == GradedScalar.zero()


class TestWeylElements:
    def test_small_expansion(self):
        # a = (1, 0): alpha = 1, s ranges over {0}: single term f_1
        c = c_pm(1, (1, 0), 2, +1)
        assert set(c.terms) == {(("F", 1, 1),)}

    def test_weight_transposition(self):
        for a in ((1, 0), (2, 1), (1, 1), (0, 2)):
            c = c_pm(1, a, 3, +1)
            if c.terms:
                assert c.target() == (a[1], a[0])

    def test_dead_weight_is_zero(self):
        c = c_pm(1, (4, 0), 2, +1)
        assert not c.terms

    def test_inverse_composition(self):
        # closing c+ then c- against the idempotent pairing gives the same
        # value as the idempotent itself
        from spinlink.schur import _left_multiply_c

        for a in ((1, 0), (1, 1), (2, 1)):
            N = 3
            elem = SchurElement.idempotent(a, N)
            elem = _left_multiply_c(elem, 1, +1)
            elem = _left_multiply_c(elem, 1, -1)
            assert bilinear_form(elem) == bilinear_form(SchurElement.idempotent(a, N))


class TestEvalSlN:
    def test_colored_unknots(self):
        for N in (2, 3, 4):
            for a in range(0, N + 1):
                got = eval_slN(BraidWord(1, ()), (a,), N)
                assert got == GradedScalar(0, RatFunc.from_poly(qbinom(N, a)))

    def test_two_colored_unknot(self):
        got = eval_slN(BraidWord(1, ()), (2,), 4)
        q = LaurentPoly.q_pow
        assert got == GradedScalar(0, q(4) + q(2) + q(0, 2) + q(-2) + q(-4))

    def test_unbalanced_coloring_rejected(self):
        with pytest.raises(ValueError):
            eval_slN(BraidWord(2, ((1, 1),)), (1, 2), 3)

    def test_colored_exponent(self):
        b = parse_braid("s1 s1 s1")
        assert colored_exponent(b, (1, 1)) == 3
        assert colored_exponent(b, (2, 2)) == 12

    def test_conjugation_invariance(self):
        rng = random.Random(8)
        for _ in range(5):
            word = tuple((rng.randint(1, 2), rng.choice([1, -1])) for _ in range(4))
            b = BraidWord(3, word)
            colors = (1, 1, 1)
            base = eval_slN(b, colors, 2)
            for g in (1, 2):
                conj = BraidWord(3, ((g, 1),) + word + ((g, -1),))
                assert eval_slN(conj, colors, 2) == base

    def test_stabilization_twist(self):
        # one positive stabilization multiplies by q^{-3/2} at N=2, color 1
        base = eval_slN(BraidWord(1, ()), (1,), 2)
        stab = eval_slN(BraidWord(2, ((1, 1),)), (1, 1), 2)
        tw = GradedScalar(0, LaurentPoly.v_pow(-3))
        assert stab == base * tw


class TestKauffmanOracle:
    def test_unknot_values(self):
        got = kauffman_bracket(BraidWord(1, ()))
        assert got == GradedScalar(0, LaurentPoly({2: -1, -2: -1}))
        assert kauffman_jones(BraidWord(1, ())) == GradedScalar.one()

    def test_jones_framing_independence(self):
        for text in ("s1", "s1^-1"):
            assert kauffman_jones(parse_braid(text, 2)) == GradedScalar.one()

    def test_trefoil_jones(self):
        q = LaurentPoly.q_pow
        got = kauffman_jones(parse_braid("s1 s1 s1"))
        assert got == GradedScalar(0, q(-2) + q(-6) + q(-8, -1))

    def test_mirror_is_bar(self):
        b = parse_braid("s1 s1 s1")
        assert kauffman_bracket(b.mirror()) == kauffman_bracket(b).bar()

    @pytest.mark.parametrize("text,m", (("s1 s1 s1", 2), ("2 -1 2 -1", 3), ("s1 s2 s1", 3)))
    def test_bracket_equals_rank_one_spin(self, text, m):
        b = parse_braid(text, m)
        assert kauffman_bracket(b) == eval_spin(b, 1)


class TestDictionary:
    def test_components(self):
        assert closure_components(BraidWord(3, ())) == 3
        assert closure_components(parse_braid("s1 s1 s1")) == 1
        assert closure_components(parse_braid("s1 s1")) == 2

    def test_frozen_dictionary_random_words(self):
        rng = random.Random(24)
        for _ in range(12):
            length = rng.randint(0, 5)
            word = tuple((rng.randint(1, 2), rng.choice([1, -1])) for _ in range(length))
            b = BraidWord(3, word)
            su = eval_spin(b, 1, normalization="unframed")
            assert su == spin1_from_jones(b)
            assert eval_slN(b, (1, 1, 1), 2) == sl2_from_spin1(b, su)


class TestFraming:
    @pytest.mark.parametrize("N,a", ((2, 1), (3, 1), (4, 2)))
    def test_uniform_stabilization_twist(self, N, a):
        # one positive stabilization multiplies eval_slN by a braid-independent
        # monomial (the framed-invariant content of the colored twist)
        base_words = ((), ((1, 1),), ((1, -1), (1, -1)))
        ratios = set()
        for word in base_words:
            b = BraidWord(2, word)
            base = eval_slN(b, (a, a), N)
            stab = eval_slN(BraidWord(3, word + ((2, 1),)), (a, a, a), N)
            # ratio = stab / base as an exact scalar
            ratios.add(str(stab * base.inv()))
        assert len(ratios) == 1


def _at_one(value: GradedScalar) -> Fraction:
    return value.body.subs_v(Fraction(1))


def _all_words(m: int, max_len: int):
    letters = [(i, s) for i in range(1, m) for s in (1, -1)]
    for n in range(max_len + 1):
        for w in itertools.product(letters, repeat=n):
            yield BraidWord(m, w)


class TestDividedPowers:
    @staticmethod
    def _single(kind, u, w, N):
        # one E (or F) on the N-fold tensor product: E acts on row r with K on the
        # rows after it, F with K^{-1} on the rows before it
        out = {}
        for r in range(N):
            x, y = u >> r & 1, w >> r & 1
            if (kind == "E" and (x, y) != (0, 1)) or (kind == "F" and (x, y) != (1, 0)):
                continue
            others = range(r + 1, N) if kind == "E" else range(r)
            e = sum((u >> t & 1) - (w >> t & 1) for t in others)
            pair = (u ^ 1 << r, w ^ 1 << r)
            out[pair] = LaurentPoly.q_pow(e if kind == "E" else -e)
        return out

    @pytest.mark.parametrize("kind", ("E", "F"))
    def test_closed_form_is_power_over_factorial(self, kind):
        for N in range(1, 6):
            for u, w in itertools.product(range(1 << N), repeat=2):
                vec = {(u, w): LaurentPoly.one()}
                for s in range(0, N + 1):
                    fact = math.prod((qint(t) for t in range(1, s + 1)), start=LaurentPoly.one())
                    want = {p: poly_divexact(c, fact) for p, c in vec.items()}
                    got = schur._divided_power(kind, s, u, w, N)
                    assert {p: LaurentPoly.q_pow(e) for p, e in got.items()} == want, (kind, N, u, w, s)
                    nxt = {}
                    for p, c in vec.items():
                        for p2, c2 in self._single(kind, *p, N).items():
                            nxt[p2] = nxt.get(p2, LaurentPoly.zero()) + c * c2
                    vec = {p: c for p, c in nxt.items() if c}


class TestWeightSpaceRoute:
    def test_dominant_states(self):
        for N in range(0, 6):
            for m in (1, 2, 3):
                for a in itertools.product(range(N + 1), repeat=m):
                    states = schur._dominant_states(a, N)
                    # the filtered product of all states of weight a
                    want = []
                    columns = [[u for u in range(1 << N) if bin(u).count("1") == x] for x in a]
                    for cols in itertools.product(*columns):
                        nu = [sum(col >> r & 1 for col in cols) for r in range(N)]
                        if all(x >= y for x, y in zip(nu, nu[1:])):
                            want.append(cols)
                    assert sorted(s for s, _ in states) == sorted(want), (N, a)
                    # weighted with their orbit sums they give the base case
                    base = math.prod((qbinom(N, x) for x in a), start=LaurentPoly.one())
                    assert sum((w for _, w in states), LaurentPoly.zero()) == base, (N, a)
        assert len(schur._dominant_states((4, 4, 4), 8)) == 1495

    @pytest.mark.parametrize("N", (2, 3, 4))
    def test_equals_annular_on_short_words(self, N):
        for b in _all_words(3, 4):
            for c in (1, 2):
                assert eval_slN(b, (c, c, c), N) == eval_slN_annular(b, (c, c, c), N), (b.letters, N, c)

    @pytest.mark.parametrize("N", (2, 3))
    def test_equals_annular_on_four_strands(self, N):
        # sigma_1 leaves the kernel's head slice empty, sigma_3 its tail slice,
        # and sigma_2 leaves neither empty
        for b in _all_words(4, 3):
            assert eval_slN(b, (1, 1, 1, 1), N) == eval_slN_annular(b, (1, 1, 1, 1), N), (b.letters, N)

    @pytest.mark.parametrize("route", (eval_slN, eval_slN_annular))
    def test_negative_color_is_an_error(self, route):
        with pytest.raises(ValueError, match="colors must be >= 0"):
            route(parse_braid("1 1", 2), (-1, -1), 3)
        # Lambda^c(C^N) = 0 above N: a valid color with value 0
        assert route(parse_braid("1 1", 2), (4, 4), 3) == GradedScalar.zero()

    def test_witness_table(self):
        # braids whose closures the annular route got wrong before the EF
        # binomial was extended to negative tops
        for text, m, N, c in schur.WITNESSES:
            b = parse_braid(text, m)
            value = eval_slN(b, (c,) * m, N)
            assert value == eval_slN_annular(b, (c,) * m, N)
            assert abs(_at_one(value)) == math.comb(N, c), (text, N, c)

    def test_long_word_is_linear_in_crossings(self):
        # (s1 s2)^15: 30 crossings, more than 2^30 expanded words for the annular route
        value = eval_slN(parse_braid(" ".join(["1 2"] * 15), 3), (1, 1, 1), 3)
        assert _at_one(value) == 27

    def test_operator_caches_are_bounded(self):
        for fn in (schur._crossing, schur._dominant_states, schur._orbit_weight, schur._binom_merge):
            assert fn.cache_info().maxsize is not None


class TestTypeAProperties:
    """Properties of the colored invariant itself, checked without a second route."""

    # (strands, braid, largest N): every color 0 <= c <= N is covered.  At N = 7, 8
    # (s1 s2)^4 takes 4 s to a minute per middle color, so it stops at N = 6.
    CASES = (
        (3, "1 2", 8),
        (3, "1 -2 1 -2", 8),
        (3, "1 1 1 2", 8),
        (3, "1 1 2", 8),
        (3, "1 2 1 2 1 2 1 2", 6),
        (4, "1 2 3", 6),
        (4, "1 -2 3 -2", 6),
        (4, "1 1 2 -3", 6),
        (5, "1 2 3 4", 4),
        (5, "1 -2 3 -4 3", 4),
    )

    @staticmethod
    def _theta(N, c):
        """The colored twist: eval_slN of the closure of s1 over the unknot."""
        return eval_slN(parse_braid("1", 2), (c, c), N) * GradedScalar(0, qbinom(N, c)).inv()

    def test_twist_is_a_signed_monomial(self):
        for N in range(1, 9):
            for c in range(N + 1):
                body = self._theta(N, c).body.as_poly()
                assert len(body.c) == 1 and abs(next(iter(body.c.values()))) == 1, (N, c)
        assert self._theta(4, 2) == GradedScalar(0, LaurentPoly.q_pow(-5))
        assert self._theta(6, 3) == GradedScalar(0, LaurentPoly.v_pow(-21))

    @pytest.mark.parametrize("m,top", ((3, 8), (4, 6), (5, 4)))
    def test_unknot_braids(self, m, top):
        # s1 ... s_{m-1} closes to the unknot with m - 1 twists
        text = " ".join(str(i) for i in range(1, m))
        for N in range(1, top + 1):
            for c in range(N + 1):
                want = GradedScalar(0, qbinom(N, c))
                for _ in range(m - 1):
                    want = want * self._theta(N, c)
                assert eval_slN(parse_braid(text, m), (c,) * m, N) == want, (N, c)

    @pytest.mark.parametrize("m,text,top", CASES)
    def test_q1_value_is_a_dimension_power(self, m, text, top):
        # at q = 1 a closure with k components gives +- C(N, c)^k
        b = parse_braid(text, m)
        k = closure_components(b)
        for N in range(1, top + 1):
            for c in range(N + 1):
                got = _at_one(eval_slN(b, (c,) * m, N))
                assert abs(got) == math.comb(N, c) ** k, (text, N, c)


class TestLambdaSpin:
    """The paper's decategorified identity: Lambda^n-colored sl_{2n} minus the raw
    spin-colored so(2n+1) polynomial of the mirror is 2 P^-, so it lies in
    2 Z[q^{+-1/2}]."""

    @staticmethod
    def _difference(b, n):
        return eval_slN(b, (n,) * b.strands, 2 * n) - eval_spin(b, n, "raw", mirror=True)

    @staticmethod
    def _is_even(value):
        p = value.body.as_poly()
        return all(Fraction(c).denominator == 1 and c % 2 == 0 for c in p.c.values())

    @pytest.mark.parametrize("n,max_len", ((1, 4), (2, 4), (3, 3)), ids=("1", "2", "3"))
    def test_short_three_strand_words(self, n, max_len):
        for b in _all_words(3, max_len):
            assert self._is_even(self._difference(b, n)), (n, b.letters)

    @pytest.mark.parametrize("text,m", [(" ".join(["1"] * k), 2) for k in range(6)]
                             + [("-1 -1 -1", 2), ("1 2", 3), ("1 -2 1 -2", 3), ("1 1 2 -1 2", 3)])
    def test_rank_three(self, text, m):
        assert self._is_even(self._difference(parse_braid(text, m), 3))

    def test_rank_three_witness(self):
        # P^- = (P_sl - P_spin) / 2 for the unknot closure of s1 s2
        half = self._difference(parse_braid("1 2", 3), 3) * Fraction(1, 2)
        want = sum((LaurentPoly.q_pow(-e) for e in range(16, 27, 2)), LaurentPoly.zero())
        assert half == GradedScalar(0, want)
