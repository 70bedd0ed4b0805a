"""Tests for braid parsing, spin polynomial evaluation, and Markov moves."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import crossing_step, markov_suite
from spinlink import cli, spinpoly
from spinlink.qalg import GradedScalar, LaurentPoly, RatFunc, _pack, _slot_bits, _unpack, qint
from spinlink.schur import eval_slN, eval_slN_annular, kauffman_bracket, kauffman_jones
from spinlink.rep import circle_value, complement, qJ, subset_iter
from spinlink.spinpoly import (
    BraidParseError,
    BraidWord,
    _crossing_data,
    _orbit_closure,
    _raw_trace,
    eval_spin,
    parse_braid,
    stabilization_factor,
    sweep_raw_traces,
)


class TestParsing:
    def test_trefoil(self):
        b = parse_braid("s1 s1 s1")
        assert b.strands == 2
        assert b.letters == ((1, 1), (1, 1), (1, 1))

    def test_bare_integers(self):
        b = parse_braid("2 -1 2 -1")
        assert b.strands == 3
        assert b.letters == ((2, 1), (1, -1), (2, 1), (1, -1))

    def test_caret_inverse(self):
        b = parse_braid("s2^-1 s1")
        assert b.letters == ((2, -1), (1, 1))

    def test_rejects_zero_index(self):
        with pytest.raises(BraidParseError):
            parse_braid("s0")

    def test_rejects_garbage(self):
        with pytest.raises(BraidParseError):
            parse_braid("s1 q3")

    def test_explicit_strands(self):
        b = parse_braid("s1", strands=4)
        assert b.strands == 4
        with pytest.raises(ValueError):
            parse_braid("s3", strands=2)

    def test_exponent_sum(self):
        assert parse_braid("1 1 -2 -2 -2").exponent_sum == -1


class TestBraidWord:
    def test_equal_words_are_equal_and_hash_alike(self):
        a, b = BraidWord(3, ((1, 1), (2, -1))), BraidWord(strands=3, letters=((1, 1), (2, -1)))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != BraidWord(3, ((1, 1),)) and a != BraidWord(4, a.letters)

    def test_a_word_is_not_a_tuple(self):
        assert BraidWord(3, ()) != (3, ())
        assert (3, ()) != BraidWord(3, ())

    @pytest.mark.parametrize("field", ("strands", "letters"))
    def test_fields_are_read_only(self, field):
        word = BraidWord(2, ((1, 1),))
        with pytest.raises(AttributeError):
            setattr(word, field, getattr(word, field))
        assert word == BraidWord(2, ((1, 1),))

    @pytest.mark.parametrize(
        "strands, letters, message",
        (
            (0, (), "strand count must be >= 1"),
            (2, ((2, 1),), "generator index 2 out of range for 2 strands"),
            (3, ((1, 2),), "bad crossing sign 2"),
        ),
    )
    def test_validation_messages(self, strands, letters, message):
        with pytest.raises(ValueError) as exc:
            BraidWord(strands, letters)
        assert str(exc.value) == message

    def test_repr(self):
        assert repr(BraidWord(2, ((1, 1),))) == "BraidWord(strands=2, letters=((1, 1),))"


class TestEvaluation:
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_unknot(self, n):
        got = eval_spin(BraidWord(1, ()), n)
        assert got == GradedScalar(0, circle_value(n))

    def test_unlink_powers(self):
        for n in (1, 2):
            for m in (1, 2, 3):
                got = eval_spin(BraidWord(m, ()), n)
                cv = circle_value(n)
                want = cv
                for _ in range(m - 1):
                    want = want * cv
                assert got == GradedScalar(0, want)

    def test_intro_normalization_positive_unknot(self):
        q = LaurentPoly.q_pow
        got = eval_spin(BraidWord(1, ()), 2, normalization="intro")
        assert got == GradedScalar(0, q(4) + q(2) + q(-2) + q(-4))

    @pytest.mark.parametrize("n", (1, 2))
    def test_braid_relation_invariance(self, n):
        rng = random.Random(77 + n)
        for _ in range(6):
            length = rng.randint(0, 4)
            word = [(rng.randint(1, 2), rng.choice([1, -1])) for _ in range(length)]
            pos = rng.randint(0, len(word))
            w1 = word[:pos] + [(1, 1), (2, 1), (1, 1)] + word[pos:]
            w2 = word[:pos] + [(2, 1), (1, 1), (2, 1)] + word[pos:]
            assert eval_spin(BraidWord(3, tuple(w1)), n) == eval_spin(BraidWord(3, tuple(w2)), n)

    @pytest.mark.parametrize("n", (1, 2))
    def test_split_union_multiplicativity(self, n):
        rng = random.Random(13 + n)
        for _ in range(4):
            w1 = tuple((1, rng.choice([1, -1])) for _ in range(rng.randint(0, 3)))
            w2 = tuple((3, rng.choice([1, -1])) for _ in range(rng.randint(0, 3)))
            joint = eval_spin(BraidWord(4, w1 + w2), n)
            a = eval_spin(BraidWord(2, w1), n)
            b = eval_spin(BraidWord(2, tuple((1, s) for _, s in w2)), n)
            assert joint == a * b

    def test_mirror_is_bar(self):
        b = parse_braid("s1 s1 s1")
        for n in (1, 2):
            assert eval_spin(b, n, mirror=True) == eval_spin(b, n).bar()

    def test_trefoil_rank_one_matches_jones_dictionary(self):
        from spinlink.schur import spin1_from_jones

        b = parse_braid("s1 s1 s1")
        assert eval_spin(b, 1, normalization="unframed") == spin1_from_jones(b)

    def test_sweep_matches_direct(self):
        for m, n, max_len in ((2, 1, 3), (3, 2, 4)):
            sw = sweep_raw_traces(m, n, max_len)
            assert len(sw) == sum((2 * (m - 1)) ** k for k in range(max_len + 1))
            for word, val in sw.items():
                assert val == eval_spin(BraidWord(m, word), n)


def _random_word(rng, m, max_len):
    return BraidWord(m, tuple((rng.randint(1, m - 1), rng.choice([1, -1])) for _ in range(rng.randint(1, max_len))))


def _all_column_diagonals(braid, n):
    """The diagonal entry of the denominator-cleared braid operator on every
    start column of S^(x)m: the oracle the dominant-column trace is checked on."""
    pos_cols, _ = _crossing_data(n, +1)
    neg_cols, _ = _crossing_data(n, -1)
    diags = {}
    for column in itertools.product(range(1 << n), repeat=braid.strands):
        vec = {column: {0: 1}}
        for i, sign in reversed(braid.letters):
            vec = crossing_step(vec, i, (pos_cols if sign > 0 else neg_cols).get)
        diags[column] = LaurentPoly(vec.get(column))
    return diags


def _is_dominant(wt):
    return wt[-1] >= 0 and all(a >= b for a, b in zip(wt, wt[1:]))


def _doubled_weight(column, n):
    return tuple(sum(-1 if B >> j & 1 else 1 for B in column) for j in range(n))


def _mu_monomials(n):
    """The closure weight q^{B^c} / q^B of each basis vector x_B, from the cup and cap monomials."""
    out = {}
    for B in subset_iter(n):
        out[B] = RatFunc(qJ(complement(B, n), n), qJ(B, n)).as_poly()
    return out


def _brute_force_orbit_closure(n, m):
    """Every column of S^(x)m, its closure weight as the product of its
    factors' weights, and for each dominant one the sum of those products
    over the Weyl orbit of its weight."""
    mu = _mu_monomials(n)
    closure, dominant = {}, {}
    for column in itertools.product(range(1 << n), repeat=m):
        wt = _doubled_weight(column, n)
        closure.setdefault(wt, math.prod((mu[B] for B in column), start=LaurentPoly.one()))
        if _is_dominant(wt):
            dominant[column] = wt
    orbit_sums = {}
    for wt in set(dominant.values()):
        orbit = {
            tuple(s * x for s, x in zip(signs, perm))
            for perm in set(itertools.permutations(wt))
            for signs in itertools.product((1, -1), repeat=n)
        }
        orbit_sums[wt] = sum((closure[nu] for nu in orbit), LaurentPoly.zero())
    return {column: orbit_sums[wt] for column, wt in dominant.items()}


class TestWeylOrbitReduction:
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_weight_space_traces_are_weyl_invariant(self, n):
        rng = random.Random(2407 + n)
        for _ in range(2):
            traces = {}
            for column, diag in _all_column_diagonals(_random_word(rng, 3, 5), n).items():
                wt = _doubled_weight(column, n)
                traces[wt] = traces.get(wt, LaurentPoly.zero()) + diag
            for wt, tr in traces.items():
                for perm in itertools.permutations(wt):
                    for signs in itertools.product((1, -1), repeat=n):
                        assert traces[tuple(s * x for s, x in zip(signs, perm))] == tr

    @pytest.mark.parametrize(
        "n, m", list(itertools.product((1, 2, 3), (1, 2, 3))) + [(4, 2), (4, 3), (5, 2), (6, 2)]
    )
    def test_orbit_closure_equals_brute_force_sum(self, n, m):
        got, want = _orbit_closure(n, m), _brute_force_orbit_closure(n, m)
        assert got == want and list(got) == list(want)  # same columns, same order

    @pytest.mark.parametrize("n, m", ((1, 3), (2, 3), (3, 3), (2, 4)))
    def test_raw_trace_equals_all_column_sum(self, n, m):
        rng = random.Random(31 * n + m)
        mu = _mu_monomials(n)
        for _ in range(3):
            braid = _random_word(rng, m, 5)
            total = LaurentPoly.zero()
            for column, diag in _all_column_diagonals(braid, n).items():
                for B in column:
                    diag = diag * mu[B]
                total = total + diag
            assert _raw_trace(braid, n) == GradedScalar(0, total)


def _all_column_trace(braid, n):
    """Tr_q by the oracle: every column's diagonal times its closure weight."""
    mu = _mu_monomials(n)
    total = LaurentPoly.zero()
    for column, diag in _all_column_diagonals(braid, n).items():
        total = total + math.prod((mu[B] for B in column), start=diag)
    return GradedScalar(0, total)


class TestPackedRoute:
    """The packed matrix route against the exponent-dict oracle, where the slot
    width is widest and at the edges of the input."""

    @pytest.mark.parametrize("n, m, lengths", ((1, 3, (12, 14, 16)), (2, 3, (12, 14, 16)), (3, 3, (12,)),
                                                (2, 4, (6, 8))))
    def test_long_words_equal_all_column_sum(self, n, m, lengths):
        rng = random.Random(977 * n + m)
        for length in lengths:
            letters = tuple((rng.randint(1, m - 1), rng.choice([1, -1])) for _ in range(length))
            braid = BraidWord(m, letters)
            assert _raw_trace(braid, n) == _all_column_trace(braid, n), letters

    # the smallest margin, slot width minus the bits the class sums need, among 636
    # random words at n <= 3, m <= 4 with a width of at least 16 bits: 9 bits
    TIGHTEST = ((2, 3, ((1, 1), (2, -1), (1, 1), (1, 1), (2, -1), (2, -1), (2, 1), (2, -1))),
                (2, 4, ((3, -1), (2, 1), (1, -1), (3, 1), (2, 1), (3, -1))))

    @pytest.mark.parametrize("n, m, letters", TIGHTEST)
    def test_tightest_words_equal_all_column_sum(self, n, m, letters):
        assert _raw_trace(BraidWord(m, letters), n) == _all_column_trace(BraidWord(m, letters), n)

    @pytest.mark.parametrize("n", (1, 2, 3))
    @pytest.mark.parametrize("m", (1, 3))
    def test_empty_words(self, n, m):
        assert _raw_trace(BraidWord(m, ()), n) == _all_column_trace(BraidWord(m, ()), n)

    # Tr_q of sigma_1 on S (x) S, as the exponent-dict route computed it: v-exponent -> coefficient
    ONE_LETTER = {
        4: dict.fromkeys((4, 8, 16, 20, 24, 28, 32, 40, 44, 48, 52, 56, 64, 68), 1) | {36: 2},
        5: dict.fromkeys((5, 9, 17, 21, 25, 29, 33, 49, 61, 77, 81, 85, 89, 93, 101, 105), 1)
        | dict.fromkeys((37, 41, 45, 53, 57, 65, 69, 73), 2),
    }

    @pytest.mark.parametrize("n", (4, 5))
    def test_one_letter_at_high_rank(self, n):
        want = LaurentPoly(self.ONE_LETTER[n])
        assert _raw_trace(BraidWord(2, ((1, 1),)), n) == GradedScalar(0, want)
        assert _raw_trace(BraidWord(2, ((1, -1),)), n) == GradedScalar(0, want.bar())


def _slotted(low, step, bits, max_terms):
    """Polynomials whose exponents are low plus multiples of step, with
    coefficients that fit a slot of the given width, the extremes included."""
    top = (1 << bits - 1) - 1
    coeff = st.one_of(st.sampled_from((top, -top, 1, -1)), st.integers(-top, top))
    slots = st.dictionaries(st.integers(0, 40), coeff, max_size=max_terms)
    return slots.map(lambda d: LaurentPoly({low + step * k: c for k, c in d.items()}))


@st.composite
def _packable(draw):
    bits, step, low = draw(st.sampled_from((8, 16, 48))), draw(st.integers(1, 3)), draw(st.integers(-30, 30))
    return draw(_slotted(low, step, bits, 12)), low, step, bits


@st.composite
def _letters(draw):
    """A few letters of mixed sign, each sign with its own lowest exponent."""
    step = draw(st.integers(1, 3))
    low = {1: draw(st.integers(-30, 0)), -1: draw(st.integers(-5, 5))}
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=1, max_size=5))
    return step, [(low[s], draw(_slotted(low[s], step, 3, 4))) for s in signs]


class TestPackedCoefficients:
    """The codec of the matrix route: Laurent polynomials packed at the v-slot
    2^bits and decoded by balanced base-2^bits digits."""

    @given(_packable())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, case):
        poly, low, step, bits = case
        assert _unpack(_pack(poly, low, step, bits), bits, low, step) == poly

    @pytest.mark.parametrize("bits", (8, 16, 64))
    def test_extreme_digits_of_alternating_sign(self, bits):
        top = (1 << bits - 1) - 1
        poly = LaurentPoly({-6 + 2 * k: (-1) ** k * top for k in range(9)})
        assert _unpack(_pack(poly, -6, 2, bits), bits, -6, 2) == poly

    def test_zero_and_sparse(self):
        assert _pack(LaurentPoly.zero(), 0, 2, 16) == 0 and _unpack(0, 16, -4, 2) == LaurentPoly.zero()
        sparse = LaurentPoly({-3: 1, 997: -1})
        assert _unpack(_pack(sparse, -3, 2, 8), 8, -3, 2) == sparse

    @given(_letters())
    @settings(max_examples=200, deadline=None)
    def test_products_keep_the_exponent_offset(self, case):
        step, letters = case
        want, norm = LaurentPoly.one(), 1
        for _, poly in letters:
            want, norm = want * poly, norm * sum(map(abs, poly.c.values()))
        bits = _slot_bits(norm)
        got = math.prod(_pack(poly, low, step, bits) for low, poly in letters)
        assert _unpack(got, bits, sum(low for low, _ in letters), step) == want

    @given(st.integers(0, 1 << 80))
    def test_slot_width_holds_the_bound(self, bound):
        bits = _slot_bits(bound)
        assert bits % 8 == 0 and bound < 1 << bits - 1


class TestStabilization:
    @pytest.mark.parametrize("n", (1, 2))
    def test_factor_on_unknot(self, n):
        nu = stabilization_factor(n)
        base = eval_spin(BraidWord(1, ()), n)
        up = eval_spin(BraidWord(2, ((1, 1),)), n)
        dn = eval_spin(BraidWord(2, ((1, -1),)), n)
        assert up == base * nu
        assert dn == base * nu.inv()


class TestMarkovSuite:
    @pytest.mark.parametrize("n", (1, 2))
    def test_passes_on_samples(self, n):
        rng = random.Random(500 + n)
        for _ in range(3):
            m = rng.randint(2, 3)
            word = tuple((rng.randint(1, m - 1), rng.choice([1, -1])) for _ in range(rng.randint(1, 5)))
            report = markov_suite(BraidWord(m, word), n)
            assert all(e["status"] == "pass" for e in report), report

    def test_trefoil_rank_four(self):
        report = markov_suite(BraidWord(2, ((1, 1),) * 3), 4)
        assert report and all(e["status"] == "pass" for e in report), report


class TestLaurentValues:
    """Every evaluation route returns q^r times a LaurentPoly: none builds a quotient."""

    @pytest.mark.parametrize("engine", ("matrix", "symbolic"))
    @pytest.mark.parametrize("normalization", ("raw", "unframed", "intro"))
    def test_eval_spin(self, engine, normalization):
        for n, text in ((1, "1 1 1"), (2, "1 -2 -2")):
            value = eval_spin(parse_braid(text, 3), n, normalization, engine=engine)
            assert type(value.body) is LaurentPoly and not value.is_zero()

    def test_type_a_and_kauffman_routes(self):
        b = parse_braid("1 -2 1", 3)
        values = [eval_slN(b, (1, 1, 1), 3), eval_slN_annular(b, (1, 1, 1), 3), kauffman_bracket(b),
                  kauffman_jones(b)]
        assert values[0].offset == Fraction(1, 3)
        assert all(type(value.body) is LaurentPoly and not value.is_zero() for value in values)

    def test_sweep(self):
        values = sweep_raw_traces(2, 1, 3).values()
        assert len(values) == 15 and all(type(value.body) is LaurentPoly for value in values)


class TestProductionRoute:
    @pytest.fixture
    def fresh_crossing_data(self):
        _crossing_data.cache_clear()
        yield
        _crossing_data.cache_clear()

    def test_crossing_data_is_integral(self, fresh_crossing_data, monkeypatch, capsys):
        for n in (1, 2):
            for sign in (1, -1):
                assert _crossing_data(n, sign)[1] == LaurentPoly.one()
        _crossing_data.cache_clear()
        braiding = spinpoly.braiding  # xcalc.braiding, imported on first use
        monkeypatch.setattr(spinpoly, "braiding",
                            lambda n, fam, sign: braiding(n, fam, sign).scale(RatFunc(LaurentPoly.one(), qint(2))))
        with pytest.raises(ValueError, match="denominator"):
            _crossing_data(1, 1)
        assert cli.main(["poly", "spin", "--n", "1", "--braid", "1 2 3"]) == 2  # four strands read crossing data
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: the braiding at n=1 has denominator")
        assert "Traceback" not in out.err

    def test_no_packed_table_outlives_its_crossing_data(self, fresh_crossing_data, monkeypatch):
        # four strands run the kernel on crossing data; three strands need none, but the sweep reads it
        braid, braid4 = BraidWord(3, ((1, 1), (2, -1), (1, 1))), BraidWord(4, ((1, 1), (2, -1), (3, 1)))
        want, want4 = _raw_trace(braid, 2), _raw_trace(braid4, 2)
        _crossing_data.cache_clear()
        braiding = spinpoly.braiding
        monkeypatch.setattr(spinpoly, "braiding",
                            lambda n, fam, sign: braiding(n, fam, sign).scale(RatFunc(LaurentPoly.const(-1))))
        assert _raw_trace(braid4, 2) == -want4
        assert spinpoly.sweep_raw_traces(3, 2, 3)[braid.letters] == -want

    def test_a_fractional_coefficient_is_an_error(self, fresh_crossing_data, monkeypatch):
        braiding, half = spinpoly.braiding, RatFunc(LaurentPoly.const(Fraction(1, 2)))
        monkeypatch.setattr(spinpoly, "braiding", lambda n, fam, sign: braiding(n, fam, sign).scale(half))
        with pytest.raises(ValueError, match="not an integer"):
            _raw_trace(BraidWord(4, ((1, 1),)), 1)

    def test_caches_are_bounded(self):
        caches = {name for name, fn in vars(spinpoly).items() if hasattr(fn, "cache_info")}
        assert {"_x_family", "_crossing_data", "_orbit_closure"} <= caches
        for name in caches:
            assert getattr(spinpoly, name).cache_info().maxsize is not None, name

    def test_crossing_data_does_not_call_the_trivalent_route(self, monkeypatch):
        from spinlink import rep, spinpoly, xcalc

        def oracle_only(n):
            raise AssertionError("production called the trivalent route rep.H")

        h = rep.H
        for mod in (rep, xcalc, spinpoly):
            if getattr(mod, "H", None) is h:
                monkeypatch.setattr(mod, "H", oracle_only)
        xcalc.build_X(3)
        _crossing_data.cache_clear()
        spinpoly._x_family.cache_clear()
        for sign in (1, -1):
            cols, den = _crossing_data(3, sign)
            assert cols and not den.is_zero()
