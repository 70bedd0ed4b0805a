"""Tests for the symbolic X-letter engine and the coideal presentation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import normalize
from spinlink import iqsym
from spinlink.iqsym import (
    AlgElement,
    crossing_element,
    devil_power_in_b,
    eval_spin_symbolic,
    gk_relation_free,
    gk_substitution_scalar,
    idp_basis,
    iota_T,
    one_strand_product,
    relation_table,
    trace_eval,
)
from spinlink.qalg import GradedScalar, LaurentPoly, RatFunc, devil, qint
from spinlink.rep import circle_value
from spinlink.spinpoly import BraidWord, eval_spin, sweep_raw_traces

RANKS = (1, 2, 3)


def random_words(seed, strands, shortest, longest, count):
    """`count` random braid words on `strands` strands, each of a length from
    `shortest` to `longest`."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        length = rng.randint(shortest, longest)
        word = tuple((rng.randint(1, strands - 1), rng.choice([1, -1])) for _ in range(length))
        words.append(BraidWord(strands, word))
    return words


def route_words(n):
    """The 3-strand words of TestRouteEquivalence."""
    return random_words(900 + n, 3, 0, 5, 10)


def four_strand_words(n):
    """The random 4-strand words of TestFourStrands."""
    return random_words(4242 + n, 4, 1, 5, 5)


def x_mult_table(n):
    """The full (n+1) x (n+1) multiplication table of the X^(k) letters."""
    return {(a, b): dict(one_strand_product(a, b, n)) for a in range(n + 1) for b in range(n + 1)}


def letters(n, *pairs):
    e = AlgElement.unit(n)
    for i, k in pairs:
        e = e * AlgElement.letter(i, k, n)
    return e


class TestMultTable:
    @pytest.mark.parametrize("n", RANKS)
    def test_structure_coefficients(self, n):
        tab = x_mult_table(n)
        for k in range(n + 1):
            want = {}
            c_keep = RatFunc.from_poly(devil(k, k + 1).scale((-1) ** k))
            c_up = RatFunc.from_poly(devil(k + 1, k + 1).scale((-1) ** k))
            if not c_keep.is_zero():
                want[k] = c_keep
            if k + 1 <= n:
                want[k + 1] = c_up
            assert tab[(k, 1)] == want

    @pytest.mark.parametrize("n", RANKS)
    def test_identity_row(self, n):
        tab = x_mult_table(n)
        for j in range(n + 1):
            assert tab[(0, j)] == {j: RatFunc.one()}
            assert tab[(j, 0)] == {j: RatFunc.one()}

    def test_top_row_absorbs(self):
        # X^(n) X^(1) = (-1)^n "[n][n+1]" X^(n)
        for n in RANKS:
            assert one_strand_product(n, 1, n) == ((n, devil(n, n + 1).scale((-1) ** n)),)

    @pytest.mark.parametrize("n", RANKS)
    def test_agrees_with_matrices(self, n):
        from spinlink.xcalc import build_X

        fam = build_X(n, check_product_route=False)
        tab = x_mult_table(n)
        for a in range(n + 1):
            for b in range(n + 1):
                prod = fam[a] @ fam[b]
                total = fam[0].scale(RatFunc.zero())
                for k, c in tab[(a, b)].items():
                    total = total + fam[k].scale(c)
                assert prod == total, (a, b)


class TestRelationTable:
    def test_complete_for_each_rank(self):
        assert set(relation_table(1)) == {(1, 1, 1)}
        assert len(relation_table(2)) == 8
        assert len(relation_table(3)) == 27

    def test_rank_limit(self):
        with pytest.raises(ValueError):
            relation_table(4)


class TestNormalize:
    # rewriting reduces the top index, so the (1,1,1) row is probed as X2 X1 X2
    def test_tl_relation(self):
        n = 1
        e = letters(n, (2, 1), (1, 1), (2, 1))
        assert normalize(e, 3, n) == letters(n, (2, 1))

    def test_devils_serre_shape(self):
        n = 2
        e = letters(n, (2, 1), (1, 1), (2, 1))
        want = (
            letters(n, (2, 2), (1, 1))
            + letters(n, (1, 1), (2, 2))
            + letters(n, (2, 2)).scale(qint(2))
            + letters(n, (2, 1))
        )
        assert normalize(e, 3, n) == want

    def test_far_commutation_sorting(self):
        n = 2
        e = letters(n, (1, 1), (3, 2))
        assert list(e.terms) == [((3, 2), (1, 1))]

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_idempotent_linear_and_trace_preserving(self, n):
        rng = random.Random(100 + n)
        for _ in range(8):
            m = 3
            word = [(rng.randint(1, m - 1), rng.randint(1, n)) for _ in range(rng.randint(0, 4))]
            e = letters(n, *word)
            nr = normalize(e, m, n)
            assert normalize(nr, m, n) == nr
            scaled = normalize(e.scale(qint(3)), m, n)
            assert scaled == nr.scale(qint(3))
            assert trace_eval(nr, m, n) == trace_eval(e, m, n)

    @pytest.mark.parametrize("n, m", [(2, 3), (3, 3), (2, 4)])
    def test_top_index_occurs_once(self, n, m):
        rng = random.Random(5)
        for _ in range(10):
            word = [(rng.randint(1, m - 1), rng.randint(1, n)) for _ in range(5)]
            e = letters(n, *word)
            nr = normalize(e, m, n)
            for w in nr.terms:
                assert sum(1 for i, _ in w if i == m - 1) <= 1
            assert trace_eval(nr, m, n) == trace_eval(e, m, n)


class TestTraceEval:
    @pytest.mark.parametrize("n", RANKS)
    def test_unlinks(self, n):
        c = circle_value(n)
        for m in (1, 2, 3):
            want = GradedScalar.one()
            for _ in range(m):
                want = want * GradedScalar(0, c)
            assert trace_eval(AlgElement.unit(n), m, n) == want

    @pytest.mark.parametrize("n", RANKS)
    def test_top_power_strips_to_circle(self, n):
        # closing the top letter at full power costs exactly nothing extra
        got = trace_eval(letters(n, (1, n)), 2, n)
        assert got == trace_eval(AlgElement.unit(n), 1, n)

    @pytest.mark.parametrize("n", (1, 2))
    def test_trace_like(self, n):
        rng = random.Random(300 + n)
        for _ in range(12):
            m = 3
            w1 = [(rng.randint(1, m - 1), rng.randint(1, n)) for _ in range(rng.randint(0, 3))]
            w2 = [(rng.randint(1, m - 1), rng.randint(1, n)) for _ in range(rng.randint(0, 3))]
            a, b = letters(n, *w1), letters(n, *w2)
            assert trace_eval(a * b, m, n) == trace_eval(b * a, m, n)


class TestLaurentCoefficients:
    def test_scale_by_non_laurent_ratfunc_raises(self):
        with pytest.raises(ValueError):
            letters(2, (1, 1)).scale(RatFunc(LaurentPoly.one(), qint(2)))

    def test_scale_by_laurent_ratfunc(self):
        e = letters(2, (2, 1), (1, 2))
        assert e.scale(RatFunc.from_poly(qint(3))) == e.scale(qint(3))

    def test_non_laurent_table_entry_raises(self, monkeypatch):
        # X^(k) as a polynomial with a denominator in every coefficient: the
        # one-strand table refuses the product instead of storing it
        bad = RatFunc(LaurentPoly.one(), qint(2))
        monkeypatch.setattr(iqsym, "_x_as_polynomial", lambda k, n: (bad,) * (k + 1))
        # drop the products of the real table, and their packed copies
        iqsym.one_strand_product.cache_clear()
        iqsym._packed_products.cache_clear()
        with pytest.raises(ValueError, match="not a Laurent polynomial"):
            letters(2, (1, 1), (1, 1))

    def test_tables_are_laurent_at_the_source(self):
        for n in RANKS:
            assert isinstance(iqsym.trace_rule_coeff(n, 0), LaurentPoly)
            assert all(isinstance(c, LaurentPoly) for c in iqsym._factor_product(n + 1))
            for a in range(n + 1):
                for b in range(n + 1):
                    assert all(isinstance(c, LaurentPoly) for _, c in one_strand_product(a, b, n))
            for terms in relation_table(n).values():
                assert all(isinstance(c, LaurentPoly) for c, _ in terms)


class TestTraceSums:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 2),
        m=st.integers(2, 3),
        raw=st.lists(
            st.tuples(
                st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), max_size=4),
                st.dictionaries(st.integers(-6, 6), st.integers(-3, 3), min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_grouped_sum_equals_per_word_sum(self, n, m, raw):
        elem = AlgElement(n, {})
        for word, coeffs in raw:
            word_letters = [(min(i, m - 1), min(k, n)) for i, k in word]
            elem = elem + letters(n, *word_letters).scale(LaurentPoly(coeffs))
        want = GradedScalar.zero()
        for word, coeff in elem.terms.items():
            one_word = trace_eval(AlgElement(n, {word: LaurentPoly.one()}, canonical=True), m, n)
            want = want + GradedScalar(0, coeff) * one_word
        assert trace_eval(elem, m, n) == want


class TestCaches:
    def test_caches_are_bounded(self):
        for fn in (iqsym._factor_product, iqsym._x_as_polynomial, iqsym.one_strand_product,
                   iqsym.relation_table, iqsym.trace_rule_coeff, iqsym._packed_products, iqsym._packed_trace_tables):
            assert fn.cache_info().maxsize is not None
        assert iqsym._trace_cache.bound == iqsym.TRACE_CACHE_MAX

    def test_eviction_keeps_values(self, monkeypatch):
        cache = iqsym._TraceCache(7)
        monkeypatch.setattr(iqsym, "_trace_cache", cache)
        rng = random.Random(77)
        for n in (1, 2):
            for _ in range(6):
                word = tuple((rng.randint(1, 3), rng.choice([1, -1])) for _ in range(rng.randint(2, 5)))
                b = BraidWord(4, word)
                assert eval_spin_symbolic(b, n) == eval_spin(b, n), word
                assert len(cache.interned) <= len(cache.values) <= cache.bound


class TestPackedValues:
    """Coefficients on the trace path are (x, s, L): x the polynomial over v^s at
    v = 2^bits, L a majorant of its l1 norm; x is read only when L < 2^(bits-1)."""

    def test_words_from_a_narrow_start_width(self, monkeypatch):
        pattern = ((1, 3), (1, 2), (1, 2), (1, 3))
        want = letters(3, *pattern)  # one coefficient of l1 norm 128
        monkeypatch.setattr(iqsym, "START_BITS", 8)
        monkeypatch.setattr(iqsym, "_trace_cache", iqsym._TraceCache(iqsym.TRACE_CACHE_MAX))
        assert letters(3, *pattern) == want and iqsym._trace_cache.bits == 16
        widened = 0
        for n, words in [(n, route_words(n)) for n in RANKS] + [(n, four_strand_words(n)) for n in (1, 2)]:
            for b in words:
                # a fresh cache per word, so that every word starts at 8 bits
                monkeypatch.setattr(iqsym, "_trace_cache", iqsym._TraceCache(iqsym.TRACE_CACHE_MAX))
                assert eval_spin_symbolic(b, n) == eval_spin(b, n), (n, b.letters)
                widened += iqsym._trace_cache.bits > 8
        assert widened
        for n in (1, 2):
            # the words of test_all_words_up_to_length_four, on one cache that starts at 8 bits
            monkeypatch.setattr(iqsym, "_trace_cache", iqsym._TraceCache(iqsym.TRACE_CACHE_MAX))
            matrix = sweep_raw_traces(4, n, 4)
            assert not [w for w, want in matrix.items() if eval_spin_symbolic(BraidWord(4, w), n) != want]
            assert iqsym._trace_cache.bits > 8

    def test_an_unfit_zero_is_neither_dropped_nor_interned(self):
        bits = iqsym.START_BITS
        word = ((2, 1), (1, 1))
        for majorant, kept in ((1 << bits - 1, True), ((1 << bits - 1) - 1, False)):
            zero = (0, 3, majorant)
            terms = {}
            iqsym._add_to(terms, word, zero, bits)
            assert (terms == {word: zero}) is kept
            assert (iqsym._canonicalize({word: zero}, 2, bits) == {word: zero}) is kept
            cache = iqsym._TraceCache(10)
            cache.store((2, 3, word), zero)
            assert (not cache.interned) is kept

    def test_packing_a_non_integer_coefficient_raises(self):
        half = LaurentPoly.const(Fraction(1, 2))
        with pytest.raises(ValueError, match="not an integer"):
            iqsym._pack_value(half, iqsym.START_BITS)
        with pytest.raises(ValueError, match="not an integer"):
            trace_eval(AlgElement(2, {((1, 1),): half}, canonical=True), 2, 2)

    def test_no_table_or_trace_value_outlives_a_width_change(self, monkeypatch):
        cache = iqsym._TraceCache(iqsym.TRACE_CACHE_MAX)
        monkeypatch.setattr(iqsym, "_trace_cache", cache)
        braid = BraidWord(3, ((2, 1), (1, -1), (2, 1)))  # the top strand twice: a relation row is read
        want = eval_spin_symbolic(braid, 2)
        tables = (iqsym._packed_products, iqsym._packed_trace_tables)
        assert cache.values and all(fn.cache_info().currsize for fn in tables)
        cache.widen()
        assert cache.bits == 2 * iqsym.START_BITS and not cache.values and not cache.interned
        assert not any(fn.cache_info().currsize for fn in tables)
        # a value packed at the old width would decode to something else here
        assert eval_spin_symbolic(braid, 2) == want


class TestCrossings:
    @pytest.mark.parametrize("n", RANKS)
    def test_weyl_element_invertible(self, n):
        assert iota_T(1, n, +1) * iota_T(1, n, -1) == AlgElement.unit(n)
        assert crossing_element(1, n, +1) * crossing_element(1, n, -1) == AlgElement.unit(n)

    @pytest.mark.parametrize("n", RANKS)
    def test_crossing_is_scaled_weyl_image(self, n):
        # the braid generator is q^{n/2} times the devil Weyl element
        scaled = iota_T(1, n, +1).scale(LaurentPoly.v_pow(n))
        assert crossing_element(1, n, +1) == scaled


class TestRouteEquivalence:
    @pytest.mark.parametrize("n", RANKS)
    def test_samples(self, n):
        for b in route_words(n):
            assert eval_spin_symbolic(b, n) == eval_spin(b, n), b.letters

    def test_stabilized_unknot(self):
        from spinlink.spinpoly import stabilization_factor

        for n in RANKS:
            got = eval_spin_symbolic(BraidWord(2, ((1, 1),)), n)
            want = stabilization_factor(n) * GradedScalar(0, circle_value(n))
            assert got == want


class TestGKSide:
    def test_substitution_scalar(self):
        assert gk_substitution_scalar() == RatFunc.from_poly(devil(2, 2))

    def test_gk_relation_not_identically_zero(self):
        assert not gk_relation_free(1, 2).is_zero()

    def test_divided_power_bases_differ(self):
        x2 = devil_power_in_b(2, 3)
        assert idp_basis(0, 2) != x2
        assert idp_basis(1, 2) != x2

    def test_idp_small_values(self):
        two_inv = RatFunc(LaurentPoly.one(), qint(2))
        assert idp_basis(0, 0) == [RatFunc.one()]
        assert idp_basis(0, 1) == [RatFunc.zero(), RatFunc.one()]
        # b b = [2] b^(2) + delta_{1,eps} 1, so b^(2) = b^2/[2] (even) or
        # (b^2 - 1)/[2] (odd parity)
        assert idp_basis(0, 2) == [RatFunc.zero(), RatFunc.zero(), two_inv]
        assert idp_basis(1, 2) == [-two_inv, RatFunc.zero(), two_inv]


class TestFourStrands:
    @pytest.mark.parametrize("n", (1, 2))
    def test_route_equivalence(self, n):
        # exercises the deeper rewriting recursion: two nested strip-offs
        for b in four_strand_words(n):
            assert eval_spin_symbolic(b, n) == eval_spin(b, n), b.letters

    @pytest.mark.parametrize("n", (1, 2))
    def test_all_words_up_to_length_four(self, n):
        matrix = sweep_raw_traces(4, n, 4)
        assert len(matrix) == 1555
        mismatches = [w for w, want in matrix.items() if eval_spin_symbolic(BraidWord(4, w), n) != want]
        assert not mismatches
