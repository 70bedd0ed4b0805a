"""Tests for the spin representation, V_1, cups/caps, Y_1, and H."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from spinlink.qalg import LaurentPoly, RatFunc, _content_and_primitive, poly_divexact, poly_gcd, poly_quotient, qint
from spinlink.rep import (
    H,
    LinOp,
    Y1,
    _factor_gen,
    cap_1,
    cap_n,
    circle_value,
    coproduct_action,
    coroot_pairing,
    cup_1,
    cup_n,
    dominant_keys,
    doubled_weight,
    is_intertwiner,
    lusztig_T,
    lusztig_T_w0,
    qJ,
    spin_action,
    subset_iter,
    weight,
)

RANKS = (1, 2, 3)


def is_dominant(wt):
    """Whether a weight (in the eps basis, any scale) is dominant for
    so(2n+1): wt_1 >= ... >= wt_n >= 0."""
    return wt[-1] >= 0 and all(a >= b for a, b in zip(wt, wt[1:]))


def v1_action(kind, i, n):
    """The action of e_i, f_i or k_i^{+-1} on V_1."""
    return _factor_gen(kind, i, "V", n)


def scaled(op, coeff):
    return op.scale(coeff)


class TestSpinAction:
    def test_f_n_on_vacuum(self):
        for n in RANKS:
            col = spin_action("f", n, n).cols[(0,)]
            assert col == {(1 << (n - 1),): RatFunc.one()}

    def test_k_n_on_vacuum(self):
        for n in RANKS:
            assert spin_action("k", n, n).entry((0,), (0,)) == RatFunc.from_poly(LaurentPoly.q_pow(1))

    def test_e_kills_without_index(self):
        n = 3
        e2 = spin_action("e", 2, n)
        for J in subset_iter(n):
            if not J >> 1 & 1:  # 2 not in J
                assert (J,) not in e2.cols

    @pytest.mark.parametrize("n", RANKS)
    def test_group_relations(self, n):
        qp = LaurentPoly.q_pow
        ops = {
            (kind, i): spin_action(kind, i, n)
            for kind in ("e", "f", "k", "k_inv")
            for i in range(1, n + 1)
        }
        idS = LinOp.identity(("S",), n)
        alpha = lambda i, j: (  # noqa: E731  (alpha_i, alpha_j) in the type B form
            4 if i == j and i < n else 2 if i == j else -2 if abs(i - j) == 1 and max(i, j) < n else
            -2 if abs(i - j) == 1 else 0
        )
        for i in range(1, n + 1):
            assert ops[("k", i)] @ ops[("k_inv", i)] == idS
            for j in range(1, n + 1):
                a = alpha(i, j)
                assert ops[("k", i)] @ ops[("k", j)] == ops[("k", j)] @ ops[("k", i)]
                assert ops[("k", i)] @ ops[("e", j)] == scaled(ops[("e", j)] @ ops[("k", i)], qp(a))
                assert ops[("k", i)] @ ops[("f", j)] == scaled(ops[("f", j)] @ ops[("k", i)], qp(-a))
                comm = (ops[("e", i)] @ ops[("f", j)]) - (ops[("f", j)] @ ops[("e", i)])
                if i != j:
                    assert comm.is_zero()
                else:
                    s = 2 if i < n else 1
                    rhs = (ops[("k", i)] - ops[("k_inv", i)]).scale(
                        RatFunc(LaurentPoly.one(), qp(s) - qp(-s))
                    )
                    assert comm == rhs

    def test_weights(self):
        assert weight(0, 3) == (Fraction(1, 2),) * 3
        assert weight(0b111, 3) == (Fraction(-1, 2),) * 3
        assert weight(0b01, 2) == (Fraction(-1, 2), Fraction(1, 2))

    def test_dominance(self):
        assert is_dominant((Fraction(3, 2), Fraction(1, 2), Fraction(1, 2))) and is_dominant((2, 0, 0))
        assert not is_dominant((0, 1)) and not is_dominant((1, -1)) and not is_dominant((-1,))

    def test_dominant_column_counts(self):
        # 40 of the 512 columns of S^(x)3 at n = 3: all that relation_suite compares
        assert [len(dominant_keys(3, n)) for n in RANKS] == [4, 13, 40]
        assert dominant_keys(3, 1) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
        # four strands at n = 4 and 5, built without scanning the 16^4 and 32^4 keys
        assert len(dominant_keys(4, 4)) == 3983 and len(dominant_keys(4, 5)) == 25263

    @pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12])
    def test_dominant_keys_equal_the_filtered_product(self, m, n):
        keys = itertools.product(range(1 << n), repeat=m)
        assert dominant_keys(m, n) == [k for k in keys if is_dominant(doubled_weight(k, n))]


class TestQJ:
    def test_values(self):
        assert qJ(0, 3).is_one()
        for n in RANKS:
            assert qJ(1 << (n - 1), n) == LaurentPoly.q_pow(1, -1)  # {n} -> -q
        assert qJ(0b11, 2) == LaurentPoly.q_pow(4, -1)  # (-q)(q^3)


class TestLusztigT:
    @pytest.mark.parametrize("n", RANKS)
    def test_trichotomy(self, n):
        for i in range(1, n + 1):
            t = lusztig_T(i, n)
            e, f = spin_action("e", i, n), spin_action("f", i, n)
            assert t.den.is_one() and e.den.is_one() and f.den.is_one()  # the columns hold the values
            qi = 2 if i < n else 1
            for J in subset_iter(n):
                pair = coroot_pairing(i, weight(J, n), n)
                col = t.cols.get((J,), {})
                if pair == 0:
                    assert col == {(J,): RatFunc.one()}
                elif pair == 1:
                    want = {
                        k: v * LaurentPoly.q_pow(qi, -1)
                        for k, v in f.cols.get((J,), {}).items()
                    }
                    assert col == want
                else:
                    assert col == e.cols.get((J,), {})

    @pytest.mark.parametrize("n", RANKS)
    def test_weight_reflection_and_invertibility(self, n):
        for i in range(1, n + 1):
            t = lusztig_T(i, n)
            image_keys = set()
            for J in subset_iter(n):
                wt = list(weight(J, n))
                if i < n:
                    wt[i - 1], wt[i] = wt[i], wt[i - 1]
                else:
                    wt[n - 1] = -wt[n - 1]
                for (K,), _ in t.cols[(J,)].items():
                    assert list(weight(K, n)) == wt
                    image_keys.add(K)
            assert len(image_keys) == 1 << n  # bijective on lines: invertible

    @pytest.mark.parametrize("n", RANKS)
    def test_longest_element_on_nested_flags(self, n):
        tw0 = lusztig_T_w0(n)
        for i in range(0, n + 1):
            J = (1 << i) - 1
            K = ((1 << n) - 1) ^ J
            assert tw0.cols[(J,)] == {(K,): RatFunc.from_poly(qJ(K, n))}


class TestCupsCaps:
    @pytest.mark.parametrize("n", RANKS)
    def test_snake(self, n):
        idS = LinOp.identity(("S",), n)
        cup, cap = cup_n(n), cap_n(n)
        assert cap.tensor(idS) @ idS.tensor(cup) == idS
        assert idS.tensor(cap) @ cup.tensor(idS) == idS

    @pytest.mark.parametrize("n", RANKS)
    def test_circle(self, n):
        assert (cap_n(n) @ cup_n(n)).entry((), ()) == RatFunc.from_poly(circle_value(n))

    def test_circle_small_value(self):
        assert circle_value(1) == LaurentPoly({2: -1, -2: -1})  # -(q + q^{-1})

    @pytest.mark.parametrize("n", (1, 2))
    def test_intertwiners(self, n):
        for op in (cup_n(n), cap_n(n)):
            assert is_intertwiner(op, n)


class TestV1:
    @pytest.mark.parametrize("n", RANKS)
    def test_action_relations(self, n):
        qp = LaurentPoly.q_pow
        for i in range(1, n + 1):
            e, f = v1_action("e", i, n), v1_action("f", i, n)
            k, ki = v1_action("k", i, n), v1_action("k_inv", i, n)
            s = 2 if i < n else 1
            comm = (e @ f) - (f @ e)
            rhs = (k - ki).scale(RatFunc(LaurentPoly.one(), qp(s) - qp(-s)))
            assert comm == rhs

    def test_f_n_ladder(self):
        n = 2
        f = v1_action("f", n, n)
        a_n, u, b_n = n - 1, n, n + 1
        assert f.cols[(a_n,)] == {(u,): RatFunc.one()}
        assert f.cols[(u,)] == {(b_n,): RatFunc.from_poly(qint(2))}

    @pytest.mark.parametrize("n", (1, 2))
    def test_v1_snake_and_intertwiners(self, n):
        idV = LinOp.identity(("V",), n)
        cup, cap = cup_1(n), cap_1(n)
        assert cap.tensor(idV) @ idV.tensor(cup) == idV
        assert idV.tensor(cap) @ cup.tensor(idV) == idV
        assert is_intertwiner(cup, n) and is_intertwiner(cap, n)

    @pytest.mark.parametrize("n", RANKS)
    def test_v1_circle_frozen_value(self, n):
        # independently derived by contracting cup_1 against the cap dual to
        # phi_1: the value is the type-B quantum dimension of V_1,
        # 1 + sum_{k=1..n} (q^{4k-2} + q^{2-4k})
        want = LaurentPoly.one()
        for k in range(1, n + 1):
            want = want + LaurentPoly.q_pow(4 * k - 2) + LaurentPoly.q_pow(2 - 4 * k)
        assert (cap_1(n) @ cup_1(n)).entry((), ()) == RatFunc.from_poly(want)


class TestY1:
    @pytest.mark.parametrize("n", RANKS)
    def test_intertwiner(self, n):
        assert is_intertwiner(Y1(n), n)

    def test_highest_weight_column(self):
        n = 2
        col = Y1(n).cols[(0,)]  # a_1
        # sum over subsets I of {2..n} of q^I x_{{2..n} minus I} (x) x_I
        want = {}
        for I in (0, 0b10):
            want[(0b10 ^ I, I)] = RatFunc.from_poly(qJ(I, n))
        assert col == want

    def test_rank_one_u_column(self):
        n = 1
        col = Y1(n).cols[(1,)]  # u
        assert col == {
            (1, 0): RatFunc.one(),
            (0, 1): RatFunc.from_poly(LaurentPoly.q_pow(-1)),
        }


class TestH:
    @pytest.mark.parametrize("n", RANKS)
    def test_intertwiner(self, n):
        h = H(n)
        for i in range(1, n + 1):
            for kind in ("e", "f", "k"):
                act = coproduct_action(kind, i, ("S", "S"), n)
                assert act @ h == h @ act

    @pytest.mark.parametrize("n", RANKS)
    def test_eigenvalue_on_cup(self, n):
        h, cup = H(n), cup_n(n)
        coeff = RatFunc(qint(2 * n + 1).scale((-1) ** n), qint(2))
        assert h @ cup == cup.scale(coeff)

    @pytest.mark.parametrize("n", RANKS)
    def test_eigenvalue_on_y1(self, n):
        h, y = H(n), Y1(n)
        coeff = RatFunc(qint(2 * n - 1).scale((-1) ** (n - 1)), qint(2))
        assert h @ y == y.scale(coeff)

    @pytest.mark.parametrize("n", RANKS)
    def test_minimal_polynomial(self, n):
        h = H(n)
        idSS = LinOp.identity(("S", "S"), n)
        evals = [RatFunc(LaurentPoly.one(), qint(2))] + [
            RatFunc(qint(2 * (n - i) + 1).scale((-1) ** (n - i)), qint(2)) for i in range(n)
        ]
        prod = idSS
        for ev in evals:
            prod = prod @ (h - idSS.scale(ev))
        assert prod.is_zero()
        for skip in range(len(evals)):
            prod = idSS
            for t, ev in enumerate(evals):
                if t != skip:
                    prod = prod @ (h - idSS.scale(ev))
            assert not prod.is_zero()

    def test_rank_one_spectrum(self):
        # eigenvalues 1/[2] and -[3]/[2]
        h = H(1)
        idSS = LinOp.identity(("S", "S"), 1)
        lam1 = RatFunc(LaurentPoly.one(), qint(2))
        lam2 = RatFunc(qint(3).scale(-1), qint(2))
        assert ((h - idSS.scale(lam1)) @ (h - idSS.scale(lam2))).is_zero()


class TestDump:
    def test_rows_are_canonical(self):
        rows = cup_n(1).dump_rows()
        assert rows == [([], [0, 1], "-q"), ([], [1, 0], "1")]


# -- canonical reduction against the gcd-per-entry oracle -----------------------


def _reduced_by_gcd_per_entry(n, dom, cod, cols, den):
    """cols / den in canonical form the direct way: a gcd of den with every
    entry in turn, then one exact division of each entry and of den."""
    if den.is_one() or not cols:
        return LinOp(n, dom, cod, cols)
    g = den
    for col in cols.values():
        for v in col.values():
            g = poly_gcd(g, v)
            if g.is_one():
                return LinOp(n, dom, cod, cols, den)
    g = LaurentPoly(_content_and_primitive(g)[1])
    cols = {k: {j: poly_divexact(v, g) for j, v in col.items()} for k, col in cols.items()}
    return LinOp(n, dom, cod, cols, poly_divexact(den, g))


def _canonical(p):
    """p as a canonical denominator: content 1, positive leading coefficient, valuation 0."""
    return LaurentPoly(_content_and_primitive(p)[1])


# canonical irreducible-or-not factors: [2], [3], [4] = [2](q^2 + q^-2), v^2 - 2, 2v + 3
_FACTORS = tuple(_canonical(p) for p in (qint(2), qint(3), qint(4), LaurentPoly({0: -2, 2: 1}),
                                         LaurentPoly({0: 3, 1: 2})))
_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 4))
_SIG = ("S", "S")
_KEYS = [(a, b) for a in range(2) for b in range(2)]


def _random_cofactor(rng):
    """One to three terms c v^e with rational c: a monomial factor, or more."""
    return LaurentPoly({rng.randint(-6, 6): rng.choice(_COEFFS) for _ in range(rng.randint(1, 3))})


def _random_fraction(rng, share):
    """(cols, den) for a canonical den of up to three factors, each entry a
    random cofactor times the den factors it keeps with probability share."""
    factors = [rng.choice(_FACTORS) for _ in range(rng.randint(0, 3))]
    den = math.prod(factors, start=LaurentPoly.one())
    cols = {}
    for k in rng.sample(_KEYS, rng.randint(1, 4)):
        cols[k] = {}
        for j in rng.sample(_KEYS, rng.randint(1, 4)):
            kept = [f for f in factors if rng.random() < share]
            cols[k][j] = math.prod(kept, start=_random_cofactor(rng))
    return cols, den


class TestCanonicalReduction:
    """LinOp.reduced divides by a running divisor and LinOp.scale by one
    scalar gcd; both must give the canonical form of the gcd-per-entry
    oracle, for rational coefficients, monomial factors and full
    cancellation."""

    @pytest.mark.parametrize("share", (0.5, 0.8, 1.0))
    def test_reduced_equals_gcd_per_entry(self, share):
        rng = random.Random(2024 + int(10 * share))
        for _ in range(60):
            cols, den = _random_fraction(rng, share)
            got = LinOp.reduced(2, _SIG, _SIG, cols, den)
            want = _reduced_by_gcd_per_entry(2, _SIG, _SIG, cols, den)
            assert got == want and got.den == want.den, (cols, den)
            if share == 1.0:
                assert got.den.is_one()

    def test_later_entries_lower_the_divisor(self):
        # den = [2][3]: the first entry keeps both factors and the next only
        # [3], so the divisor drops to [3] and the kept quotient is rescaled;
        # an entry with neither drops it to 1, which returns the input
        two, three = _FACTORS[:2]
        cols = {(0, 0): {(0, 0): two * three, (0, 1): three.shift(-3), (1, 0): LaurentPoly.const(Fraction(1, 2))}}
        got = LinOp.reduced(2, _SIG, _SIG, cols, two * three)
        assert got.den == two * three and got.cols == cols
        cols = {(0, 0): {(0, 0): two * three, (0, 1): three.shift(-3)}, (1, 1): {(1, 1): three.scale(5)}}
        got = LinOp.reduced(2, _SIG, _SIG, cols, two * three)
        assert got.den == two and got.cols == {(0, 0): {(0, 0): two, (0, 1): LaurentPoly.v_pow(-3)},
                                               (1, 1): {(1, 1): LaurentPoly.const(5)}}
        assert got == _reduced_by_gcd_per_entry(2, _SIG, _SIG, cols, two * three)

    def test_scale_equals_gcd_per_entry(self):
        rng = random.Random(7)
        for _ in range(80):
            cols, den = _random_fraction(rng, 0.5)
            op = _reduced_by_gcd_per_entry(2, _SIG, _SIG, cols, den)
            kept = [f for f in _FACTORS if rng.random() < 0.4]
            c = math.prod(kept, start=_random_cofactor(rng))
            for scalar in (c, c.c[min(c.c)], RatFunc(c, rng.choice(_FACTORS))):
                num, d = (scalar.num, scalar.den) if isinstance(scalar, RatFunc) else (scalar, LaurentPoly.one())
                num = num if isinstance(num, LaurentPoly) else LaurentPoly.const(num)
                scaled = {k: {j: v * num for j, v in col.items()} for k, col in op.cols.items()}
                want = _reduced_by_gcd_per_entry(2, _SIG, _SIG, scaled, op.den * d)
                got = op.scale(scalar)
                assert got == want and got.den == want.den, (op.cols, op.den, scalar)

    def test_quotient_is_none_exactly_when_divexact_raises(self):
        rng = random.Random(11)
        for _ in range(300):
            b = math.prod([rng.choice(_FACTORS) for _ in range(rng.randint(0, 3))], start=LaurentPoly.one())
            a = _random_cofactor(rng)
            if rng.random() < 0.5:
                a = a * math.prod([f for f in _FACTORS if rng.random() < 0.5], start=b)
            try:
                want = poly_divexact(a, b)
            except ValueError:
                want = None
            assert poly_quotient(a, b) == want, (a, b)
