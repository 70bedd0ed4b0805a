"""Tests for the Fock model: Clifford relations, induced action, Wenzl's C."""

import pytest

from spinlink.clifford import omega, psi, psi_star, qgrp_via_clifford, volume_f, wenzl_C
from spinlink.qalg import LaurentPoly, RatFunc, qint
from spinlink.rep import H, LinOp, coproduct_action, is_intertwiner, spin_action

RANKS = (1, 2, 3)


@pytest.mark.parametrize("n", RANKS)
def test_defining_relations(n):
    qp = LaurentPoly.q_pow
    idS = LinOp.identity(("S",), n)
    P = {j: psi(j, n) for j in range(1, n + 1)}
    S = {j: psi_star(j, n) for j in range(1, n + 1)}
    W = {j: omega(j, n) for j in range(1, n + 1)}
    Winv = {j: omega(j, n, -1) for j in range(1, n + 1)}
    for i in range(1, n + 1):
        assert (P[i] @ P[i]).is_zero() and (S[i] @ S[i]).is_zero()
        assert W[i] @ P[i] @ Winv[i] == P[i].scale(qp(2))
        assert W[i] @ S[i] @ Winv[i] == S[i].scale(qp(-2))
        assert P[i] @ S[i] + (S[i] @ P[i]).scale(qp(2)) == Winv[i]
        assert P[i] @ S[i] + (S[i] @ P[i]).scale(qp(-2)) == W[i]
        # the extra quotient relations, and their consequence psi psi* + psi* psi = 1
        assert W[i] @ P[i] == P[i]
        assert S[i] @ W[i] == S[i]
        assert P[i] @ S[i] + S[i] @ P[i] == idS
        for j in range(1, n + 1):
            if i == j:
                continue
            assert P[i] @ P[j] == (P[j] @ P[i]).scale(-1)
            assert P[i] @ S[j] == (S[j] @ P[i]).scale(-1)
            assert S[i] @ S[j] == (S[j] @ S[i]).scale(-1)
            assert W[i] @ P[j] == P[j] @ W[i]


@pytest.mark.parametrize("n", RANKS)
def test_volume_element(n):
    f = volume_f(n)
    assert f @ f == LinOp.identity(("S",), n)
    for i in range(1, n + 1):
        assert f @ psi(i, n) == (psi(i, n) @ f).scale(-1)
        assert f @ psi_star(i, n) == (psi_star(i, n) @ f).scale(-1)
        assert f @ omega(i, n) == omega(i, n) @ f


@pytest.mark.parametrize("n", RANKS)
def test_induced_action_equals_spin_action(n):
    for kind in ("e", "f", "k", "k_inv"):
        for i in range(1, n + 1):
            assert qgrp_via_clifford(kind, i, n) == spin_action(kind, i, n)


def test_k_n_vacuum_eigenvalue():
    for n in RANKS:
        op = qgrp_via_clifford("k", n, n)
        assert op.entry((0,), (0,)) == RatFunc.from_poly(LaurentPoly.q_pow(1))


@pytest.mark.parametrize("n", RANKS)
def test_images_satisfy_ef_commutator(n):
    qp = LaurentPoly.q_pow
    for i in range(1, n + 1):
        e, f = qgrp_via_clifford("e", i, n), qgrp_via_clifford("f", i, n)
        k, ki = qgrp_via_clifford("k", i, n), qgrp_via_clifford("k_inv", i, n)
        s = 2 if i < n else 1
        lhs = (e @ f) - (f @ e)
        rhs = (k - ki).scale(RatFunc(LaurentPoly.one(), qp(s) - qp(-s)))
        assert lhs == rhs


@pytest.mark.parametrize("make", (psi, psi_star, omega), ids=("psi", "psi_star", "omega"))
@pytest.mark.parametrize("j", (0, 3))
def test_mode_index_out_of_range_is_named(make, j):
    with pytest.raises(ValueError, match=f"^Clifford index {j} out of range for rank 2$"):
        make(j, 2)


@pytest.mark.parametrize("i", (0, 3))
def test_generator_index_out_of_range_is_named(i):
    with pytest.raises(ValueError, match=f"^generator index {i} out of range for rank 2$"):
        qgrp_via_clifford("e", i, 2)


class TestWenzlC:
    @pytest.mark.parametrize("n", RANKS)
    def test_equals_h(self, n):
        assert wenzl_C(n) == H(n)

    def test_vacuum_value(self):
        n = 3
        c = wenzl_C(n)
        assert list(c.cols[(0, 0)]) == [(0, 0)]
        assert c.entry((0, 0), (0, 0)) == RatFunc(LaurentPoly.one(), qint(2))

    @pytest.mark.parametrize("n", (1, 2))
    def test_commutes_with_coproduct(self, n):
        c = wenzl_C(n)
        for i in range(1, n + 1):
            for kind in ("e", "f", "k"):
                act = coproduct_action(kind, i, ("S", "S"), n)
                assert act @ c == c @ act

    def test_intertwiner_rank_four(self):
        # the exact comparison with H(4) is left to `verify clifford --n 4`
        assert is_intertwiner(wenzl_C(4), 4)
