"""Tests for the spin representation, V_1, cups/caps, Y_1, and H."""

from fractions import Fraction

import pytest

from spinlink.qalg import LaurentPoly, RatFunc, qint
from spinlink.rep import (
    H,
    LinOp,
    Y1,
    cap_1,
    cap_n,
    circle_value,
    coproduct_action,
    coroot_pairing,
    cup_1,
    cup_n,
    dominant_keys,
    is_dominant,
    is_intertwiner,
    lusztig_T,
    lusztig_T_w0,
    qJ,
    spin_action,
    subset_iter,
    v1_action,
    weight,
)

RANKS = (1, 2, 3)


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
