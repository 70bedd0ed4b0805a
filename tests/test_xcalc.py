"""Tests for the X-operator calculus: family, braiding, traces, spectra."""

import random

import pytest

from spinlink.iqsym import relation_table, trace_rule_coeff
from spinlink.qalg import GradedScalar, LaurentPoly, RatFunc, binom2, devil, qint
from spinlink.clifford import wenzl_C
from spinlink.rep import H, LinOp, S_SIG, cap_n, circle_value, coproduct_action, cup_n, sig_keys
from spinlink.xcalc import (
    ScaledOp,
    XFamily,
    braiding,
    build_X,
    change_of_basis_check,
    h_eigenvalues,
    inverse_braiding,
    lambda_coeff,
    ptrace,
    qtrace,
    r_on_strands,
    relation_suite,
    rotate,
    spectral_basis,
)

RANKS = (1, 2, 3)


@pytest.fixture(scope="module")
def families():
    return {n: build_X(n) for n in RANKS}  # construction itself asserts the dual route


class TestFamily:
    def test_x0_is_identity(self, families):
        for n in RANKS:
            assert families[n][0] == LinOp.identity(("S", "S"), n)

    def test_x_above_rank_is_zero(self, families):
        for n in RANKS:
            assert families[n][n + 1].is_zero()

    def test_min_poly_roots_exact(self, families):
        for n in RANKS:
            x = families[n][1]
            idSS = LinOp.identity(("S", "S"), n)
            evals = [RatFunc.zero()] + [
                RatFunc.from_poly(devil(k, k + 1).scale((-1) ** k)) for k in range(1, n + 1)
            ]
            prod = idSS
            for ev in evals:
                prod = prod @ (x - idSS.scale(ev))
            assert prod.is_zero()
            for skip in range(len(evals)):
                prod = idSS
                for t, ev in enumerate(evals):
                    if t != skip:
                        prod = prod @ (x - idSS.scale(ev))
                assert not prod.is_zero()

    @pytest.mark.parametrize("n", (1, 2))
    def test_commutes_with_coproduct(self, families, n):
        for k in range(n + 1):
            op = families[n][k]
            for i in range(1, n + 1):
                for kind in ("e", "f", "k"):
                    act = coproduct_action(kind, i, ("S", "S"), n)
                    assert act @ op == op @ act


class TestProductionRoute:
    def test_h_is_the_clifford_closed_form(self, families):
        for n in RANKS:
            assert families[n].h == wenzl_C(n)

    def test_rank_four_product_route(self):
        fam = build_X(4, check_product_route=True)
        assert fam[4] != fam[3] and fam[5].is_zero()


class TestOrderIndependence:
    def test_product_cost_does_not_depend_on_entry_order(self, monkeypatch):
        from spinlink import qalg, xcalc

        n = 2
        h, c = H(n), wenzl_C(n)
        # equal entry for entry, listed in different orders
        assert h == c and [list(col) for col in h.cols.values()] != [list(c.cols[k]) for k in h.cols]

        counts = {"gcd": 0, "divexact": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        gcd, divexact = counted("gcd", qalg.poly_gcd), counted("divexact", qalg.poly_divexact)
        for mod in (qalg, xcalc):
            monkeypatch.setattr(mod, "poly_gcd", gcd)
            monkeypatch.setattr(mod, "poly_divexact", divexact)

        def check_with(h_op):
            idSS = LinOp.identity(("S", "S"), n)
            x = h_op - idSS.scale(RatFunc(LaurentPoly.one(), qint(2)))
            fam = XFamily(n, xcalc._x_by_recursion(n, x), h_op)
            monkeypatch.setattr(xcalc, "build_X", lambda n, check_product_route=True: fam)
            counts.update(gcd=0, divexact=0)
            report = change_of_basis_check(n)
            return dict(counts), report

        h_counts, h_report = check_with(h)
        c_counts, c_report = check_with(c)
        assert h_counts == c_counts
        assert h_report == c_report and all(e["status"] == "pass" for e in h_report)


class TestBraiding:
    @pytest.mark.parametrize("n", RANKS)
    def test_inverse(self, families, n):
        r = braiding(n, families[n])
        rinv = inverse_braiding(n, families[n])
        idSS = LinOp.identity(("S", "S"), n)
        assert r @ rinv == idSS
        assert rinv @ r == idSS

    @pytest.mark.parametrize("n", RANKS)
    def test_twist_on_cup(self, families, n):
        r, cup = braiding(n, families[n]), cup_n(n)
        tw = LaurentPoly.v_pow(-n * (2 * n + 1), (-1) ** binom2(n + 1))
        assert r @ cup == cup.scale(tw)

    def test_rank_one_is_kauffman_shape(self, families):
        # R = q^{1/2} X^(0) + q^{-1/2} X^(1), and X^(1) has TL eigenvalue -[2]
        fam = families[1]
        r = braiding(1, fam)
        assert r == fam[0].scale(LaurentPoly.v_pow(1)) + fam[1].scale(LaurentPoly.v_pow(-1))
        e = fam[1]
        assert e @ e == e.scale(qint(2).scale(-1))

    @pytest.mark.parametrize("n", (1, 2))
    def test_yang_baxter_and_far_commutation(self, families, n):
        r1 = r_on_strands(1, 3, n, fam=families[n])
        r2 = r_on_strands(2, 3, n, fam=families[n])
        assert r1 @ r2 @ r1 == r2 @ r1 @ r2
        a1 = r_on_strands(1, 4, n, fam=families[n])
        a3 = r_on_strands(3, 4, n, fam=families[n])
        assert a1 @ a3 == a3 @ a1

    def test_yang_baxter_rank_three(self, families):
        r1 = ScaledOp.lift(r_on_strands(1, 3, 3, fam=families[3]))
        r2 = ScaledOp.lift(r_on_strands(2, 3, 3, fam=families[3]))
        assert r1 @ r2 @ r1 == r2 @ r1 @ r2

    def test_strand_index_range(self):
        with pytest.raises(ValueError):
            r_on_strands(3, 3, 1)


class TestTraces:
    @pytest.mark.parametrize("n", RANKS)
    def test_circle_values(self, n):
        cv = RatFunc.from_poly(circle_value(n))
        assert qtrace(LinOp.identity(("S",), n)) == GradedScalar(0, cv)
        assert qtrace(LinOp.identity(("S", "S"), n)) == GradedScalar(0, cv * cv)

    @pytest.mark.parametrize("n", (1, 2))
    def test_trace_like_on_random_sparse(self, n):
        # the closure weight is a constant sign times the q^{(2 rho, wt)}
        # grading, so the quantum trace is a trace on anything that
        # preserves weights (intertwiners in particular)
        from spinlink.rep import weight

        rng = random.Random(20240917 + n)
        blocks: dict[tuple, list] = {}
        for a in range(1 << n):
            for b in range(1 << n):
                wt = tuple(x + y for x, y in zip(weight(a, n), weight(b, n)))
                blocks.setdefault(wt, []).append((a, b))

        def random_op():
            op = LinOp(n, ("S", "S"), ("S", "S"))
            for _ in range(10):
                block = rng.choice(list(blocks.values()))
                k, j = rng.choice(block), rng.choice(block)
                c = LaurentPoly.q_pow(rng.randint(-3, 3), rng.randint(-4, 4))
                op.set_entry(k, j, op.entry(k, j) + RatFunc.from_poly(c))
            return op

        for _ in range(6):
            a, b = random_op(), random_op()
            assert qtrace(a @ b) == qtrace(b @ a)

    @pytest.mark.parametrize("n", (1, 2))
    @pytest.mark.parametrize("m", (2, 3))
    def test_partial_trace_is_the_cup_cap_closure(self, n, m):
        # the dominant-column lemma needs ptrace built from cup_n and cap_n alone
        rng = random.Random(20240917 + 10 * n + m)
        keys = list(sig_keys(("S",) * m, n))
        op = LinOp(n, ("S",) * m, ("S",) * m)
        for _ in range(4 * len(keys)):
            c = LaurentPoly.q_pow(rng.randint(-3, 3), rng.choice((-2, -1, 1, 3)))
            op.set_entry(rng.choice(keys), rng.choice(keys), c)
        idS, rest = LinOp.identity(S_SIG, n), LinOp.identity(("S",) * (m - 1), n)
        closure = rest.tensor(cap_n(n)) @ op.tensor(idS) @ rest.tensor(cup_n(n))
        assert ptrace(op) == closure

    @pytest.mark.parametrize("n", RANKS)
    def test_trace_rule_via_partial_closure(self, families, n):
        idS = LinOp.identity(("S",), n)
        for k in range(n + 1):
            assert ptrace(families[n][k]) == idS.scale(trace_rule_coeff(n, k))

    def test_trace_rule_coefficient_edge_values(self):
        for n in RANKS:
            assert trace_rule_coeff(n, n) == RatFunc.one()
            assert trace_rule_coeff(n, 0) == RatFunc.from_poly(circle_value(n))
        assert trace_rule_coeff(1, 0) == RatFunc.from_poly(qint(2).scale(-1))


class TestSpectral:
    @pytest.mark.parametrize("n", RANKS)
    def test_full_report(self, n):
        report = change_of_basis_check(n)
        assert all(e["status"] == "pass" for e in report), report

    def test_lambda_top_is_one(self):
        for n in RANKS:
            for i in range(1, n + 1):
                assert lambda_coeff(n, i, i) == RatFunc.one()

    def test_x_eigenvalues_on_blocks(self, families):
        for n in RANKS:
            spec = spectral_basis(n, families[n])
            x = families[n][1]
            for i in range(n):
                k = n - i
                lam = RatFunc.from_poly(devil(k, k + 1).scale((-1) ** k))
                assert x @ spec.projectors[i] == spec.projectors[i].scale(lam)
            assert (x @ spec.residual).is_zero()

    def test_h_eigenvalue_list(self):
        vals = h_eigenvalues(1)
        assert vals == [RatFunc(qint(3).scale(-1), qint(2)), RatFunc(LaurentPoly.one(), qint(2))]


def _rotated_in_full(op: LinOp) -> LinOp:
    """The rotation with every operator materialized: the oracle for rotate."""
    n = op.n
    idS, idSS = LinOp.identity(S_SIG, n), LinOp.identity(("S", "S"), n)
    return (cap_n(n).tensor(idSS)) @ (idS.tensor(op).tensor(idS)) @ (idSS.tensor(cup_n(n)))


class TestRotation:
    @pytest.mark.parametrize("n", RANKS)
    def test_rotation_swaps_indices(self, families, n):
        keys = list(sig_keys(("S", "S"), n))
        for k in range(n + 1):
            assert rotate(families[n][k], keys) == families[n][n - k]

    @pytest.mark.parametrize("n", (1, 2))
    def test_rotation_on_some_columns_is_the_full_rotation_there(self, n):
        rng = random.Random(20240917 + n)
        keys = list(sig_keys(("S", "S"), n))
        op = LinOp(n, ("S", "S"), ("S", "S"))
        for _ in range(3 * len(keys)):
            op.set_entry(rng.choice(keys), rng.choice(keys), LaurentPoly.q_pow(rng.randint(-3, 3)))
        full = _rotated_in_full(op)
        assert rotate(op, keys) == full
        some = rng.sample(keys, len(keys) // 2)
        assert rotate(op, some).cols == {k: full.cols[k] for k in some if k in full.cols}

    @pytest.mark.parametrize("n", (1, 2))
    def test_embedding_on_some_columns_is_the_tensor_embedding_there(self, families, n):
        x = families[n][1]
        keys = list(sig_keys(("S",) * 4, n))
        for left in (0, 1, 2):
            full = LinOp.identity(("S",) * left, n).tensor(x).tensor(LinOp.identity(("S",) * (2 - left), n))
            assert x.embed(left, 2 - left, keys) == full
            some = keys[::3]
            assert x.embed(left, 2 - left, some).cols == {k: full.cols[k] for k in some if k in full.cols}


class TestRelationSuite:
    @pytest.mark.parametrize("n", RANKS)
    def test_all_pass(self, n):
        report = relation_suite(n)
        assert all(e["status"] == "pass" for e in report), [e for e in report if e["status"] != "pass"]

    def test_mutated_table_is_caught(self, monkeypatch):
        from spinlink import xcalc

        table = dict(relation_table(2))  # the table is cached: change a copy
        (coeff, word), *rest = table[(1, 1, 1)]
        table[(1, 1, 1)] = [(coeff + RatFunc.one(), word), *rest]
        monkeypatch.setattr(xcalc, "relation_table", lambda n: table)
        restricted = relation_suite(2)
        report = {e["identity_id"]: e for e in restricted}
        entry = report.pop("three-strand-relation-table")
        assert entry["status"] == "fail" and entry["witness"] == "pattern (1, 1, 1) outer=2"
        assert all(e["status"] == "pass" for e in report.values())
        self._in_full(monkeypatch)
        assert relation_suite(2) == restricted

    @staticmethod
    def _in_full(monkeypatch):
        """Materialize every factor in full, whatever columns the suite asks
        for: the full-operator comparison that the dominant-column lemma
        replaces."""
        embed = LinOp.embed

        def in_full(op, left, right, keys):
            return embed(op, left, right, sig_keys(("S",) * (left + len(op.dom) + right), op.n))

        monkeypatch.setattr(LinOp, "embed", in_full)

    @pytest.mark.parametrize("n", (1, 2))
    @pytest.mark.parametrize("probe", (False, True))
    def test_dominant_columns_give_the_full_verdicts(self, monkeypatch, n, probe):
        restricted = relation_suite(n, probe=probe)
        self._in_full(monkeypatch)
        assert relation_suite(n, probe=probe) == restricted

    @pytest.mark.parametrize("probe", (False, True))
    def test_a_non_intertwining_h_fails_every_dominant_column_check(self, monkeypatch, probe):
        # Move the (3, 3) diagonal entry of H at n = 2 to another eigenvalue of
        # H.  The weight (-1, -1) of (3, 3) is not dominant, and its weight
        # space is one-dimensional, so H keeps its minimal polynomial (build_X
        # accepts it) and its weights, but is no longer an intertwiner.
        # The table and Serre products on the dominant columns of S^(x)3 never
        # meet that column, so without the intertwining check they would pass.
        from spinlink import clifford

        n, wenzl_C = 2, clifford.wenzl_C

        def perturbed(rank):
            c = wenzl_C(rank)
            if rank == n:
                c.cols[(3, 3)] = {(3, 3): h_eigenvalues(n)[0]}
            return c

        monkeypatch.setattr(clifford, "wenzl_C", perturbed)
        checked = {"trace-rule", "rotation-rule", "gk-serre-for-h", "three-strand-relation-table", "devils-serre"}
        report = relation_suite(n, probe=probe)
        failed = {e["identity_id"] for e in report if e["status"] == "fail"}
        assert failed == {e["identity_id"] for e in report} & checked
        assert all(e["witness"] == "H is not an intertwiner" for e in report if e["status"] == "fail")

    def test_shared_prefixes_bound_the_products(self, monkeypatch):
        calls = []
        matmul = ScaledOp.__matmul__
        monkeypatch.setattr(ScaledOp, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
        relation_suite(3)
        assert 0 < len(calls) <= 182  # 218 with one left-hand product per table row


def _laurent_op(seed: int) -> LinOp:
    rng = random.Random(seed)
    keys = [(a, b) for a in range(2) for b in range(2)]
    op = LinOp(1, ("S", "S"), ("S", "S"))
    for _ in range(6):
        c = LaurentPoly.q_pow(rng.randint(-2, 2), rng.choice((-3, -1, 1, 2)))
        op.set_entry(rng.choice(keys), rng.choice(keys), c)
    return op


class TestScaledOp:
    """ScaledOp arithmetic against the same arithmetic on RatFunc-entry LinOps."""

    DEN_PAIRS = {
        "equal": (qint(2), qint(2)),
        "coprime": (qint(2), qint(3)),
        "dividing": (qint(2), qint(4)),
    }

    @pytest.mark.parametrize("case", sorted(DEN_PAIRS))
    def test_agrees_with_linop(self, case):
        da, db = self.DEN_PAIRS[case]
        a, b = ScaledOp(_laurent_op(1), da), ScaledOp(_laurent_op(2), db)
        la, lb = a.to_linop(), b.to_linop()
        assert (a + b).to_linop() == la + lb
        assert (a - b).to_linop() == la - lb
        assert (a @ b).to_linop() == la @ lb
        assert (a == b) == (la == lb) and a != b
        assert (a - a).is_zero() and (b - b).is_zero()
        for c in (qint(3), RatFunc.from_poly(qint(3)), RatFunc(LaurentPoly.q_pow(1), qint(5))):
            assert a.scale(c).to_linop() == la.scale(c)

    def test_same_value_over_a_multiple(self):
        c = qint(3).scale(2)
        a = ScaledOp(_laurent_op(1), qint(2))
        b = ScaledOp(_laurent_op(1).scale(c), qint(2) * c)
        assert a == b and b == a and a.to_linop() == b.to_linop()
        assert (a + b).to_linop() == a.to_linop().scale(2)
        assert a != ScaledOp(_laurent_op(2).scale(c), qint(2) * c)

    def test_scaling_by_one(self):
        a = ScaledOp(_laurent_op(1), qint(2))
        for one in (LaurentPoly.one(), RatFunc.one()):
            assert a.scale(one) == a and a.scale(one).to_linop() == a.to_linop()


class TestRanks:
    def test_exact_elimination_route(self):
        # the fraction-free route must agree with specialization
        from math import comb

        from spinlink.xcalc import rank_of, spectral_basis

        for n in (1, 2):
            spec = spectral_basis(n)
            for i in range(n):
                want = comb(2 * n + 1, i)
                assert rank_of(spec.projectors[i], exact=True) == want
                assert rank_of(spec.projectors[i], exact=False) == want

    def test_specialization_at_a_zero_does_not_lower_the_rank(self):
        from fractions import Fraction

        from spinlink.xcalc import rank_of

        # the first value rank_of samples, from its fixed seed
        rng = random.Random(20240917)
        v0 = Fraction(rng.randint(2, 40), rng.randint(1, 7))
        op = LinOp(1, ("S",), ("S",))
        op.set_entry((0,), (0,), LaurentPoly.const(1))
        op.set_entry((1,), (1,), LaurentPoly({1: v0.denominator, 0: -v0.numerator}))
        assert op.cols[(1,)][(1,)].subs_v(v0) == 0
        assert rank_of(op) == 2 == rank_of(op, exact=True)

    def test_agreeing_specializations_stop_after_three(self, monkeypatch):
        from spinlink import xcalc

        calls = []
        rank_fraction = xcalc._rank_fraction
        monkeypatch.setattr(xcalc, "_rank_fraction", lambda mat: calls.append(1) or rank_fraction(mat))
        assert xcalc.rank_of(LinOp.identity(("S",), 2)) == 4
        assert len(calls) == 3
