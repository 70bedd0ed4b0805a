"""Tests for the X-operator calculus: family, braiding, traces, spectra."""

import random
from fractions import Fraction
from math import comb

import pytest

from spinlink.iqsym import relation_table, trace_rule_coeff
from spinlink.qalg import GradedScalar, LaurentPoly, RatFunc, binom2, devil, poly_divexact, poly_gcd, qint
from spinlink.clifford import wenzl_C
from spinlink.rep import H, LinOp, S_SIG, cap_n, circle_value, coproduct_action, cup_n, dominant_keys, sig_keys
from spinlink.xcalc import (
    XFamily,
    braiding,
    build_X,
    change_of_basis_check,
    h_eigenvalues,
    lambda_coeff,
    ptrace,
    r_on_strands,
    rank_of,
    relation_suite,
    rotate,
    spectral_basis,
)

RANKS = (1, 2, 3)


def qtrace(op):
    """The full quantum trace: iterated partial closure down to a scalar."""
    cur = op
    while cur.dom:
        cur = ptrace(cur)
    value = cur.cols.get((), {}).get((), LaurentPoly.zero())
    return GradedScalar(0, poly_divexact(value, cur.den))  # raises unless the trace is Laurent


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

    @pytest.mark.parametrize("k", (1, 2))
    def test_perturbed_symbolic_polynomial_is_refused(self, monkeypatch, k):
        # the product route evaluates iqsym's polynomial of X^(k), so the
        # matrix recursion guards the symbolic table's coefficients
        from spinlink import iqsym

        original = iqsym._factor_product

        def perturbed(j):
            coeffs = original(j)
            return coeffs if j != k else (coeffs[0] + LaurentPoly.one(),) + coeffs[1:]

        monkeypatch.setattr(iqsym, "_factor_product", perturbed)
        with pytest.raises(AssertionError, match=f"X\\^\\({k}\\) routes disagree at n=2"):
            build_X(2)


class TestOrderIndependence:
    def test_product_cost_does_not_depend_on_entry_order(self, monkeypatch):
        from spinlink import qalg, xcalc

        n = 2
        h, c = H(n), wenzl_C(n)
        # equal entry for entry, listed in different orders
        assert h == c and [list(col) for col in h.cols.values()] != [list(c.cols[k]) for k in h.cols]

        counts = {"gcd": 0, "divexact": 0, "quotient": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        for name, attr in (("gcd", "poly_gcd"), ("divexact", "poly_divexact"), ("quotient", "poly_quotient")):
            monkeypatch.setattr(qalg, attr, counted(name, getattr(qalg, attr)))  # rep.LinOp calls them through qalg

        def check_with(h_op):
            idSS = LinOp.identity(("S", "S"), n)
            x = h_op - idSS.scale(RatFunc(LaurentPoly.one(), qint(2)))
            fam = XFamily(n, xcalc._x_by_recursion(n, x), h_op)
            monkeypatch.setattr(xcalc, "build_X", lambda n, check_product_route=True: fam)
            counts.update(gcd=0, divexact=0, quotient=0)
            report = change_of_basis_check(n)
            return dict(counts), report

        h_counts, h_report = check_with(h)
        c_counts, c_report = check_with(c)
        assert h_counts == c_counts and h_counts["quotient"] > 0
        assert h_report == c_report and all(e["status"] == "pass" for e in h_report)


class TestReductionCost:
    def test_verify_xcalc_takes_few_gcds(self, monkeypatch, capsys):
        # LinOp.reduced divides each entry by a running divisor and takes a gcd
        # only when that divisor drops: verify xcalc --n 2 made 152 gcds, where
        # one gcd per entry made 614
        from spinlink import cli, qalg

        calls = []
        gcd = qalg.poly_gcd
        monkeypatch.setattr(qalg, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
        assert cli.main(["verify", "xcalc", "--n", "2"]) == 0
        assert 0 < len(calls) <= 170


class TestBraiding:
    @pytest.mark.parametrize("n", RANKS)
    def test_inverse(self, families, n):
        r = braiding(n, families[n])
        rinv = braiding(n, families[n], -1)
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
        r1 = r_on_strands(1, 3, 3, fam=families[3])
        r2 = r_on_strands(2, 3, 3, fam=families[3])
        assert r1 @ r2 @ r1 == r2 @ r1 @ r2

    def test_strand_index_range(self):
        with pytest.raises(ValueError):
            r_on_strands(3, 3, 1)


class TestTraces:
    @pytest.mark.parametrize("n", RANKS)
    def test_circle_values(self, n):
        cv = circle_value(n)
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
        from spinlink import iqsym

        table = dict(relation_table(2))  # the table is cached: change a copy
        (coeff, word), *rest = table[(1, 1, 1)]
        table[(1, 1, 1)] = [(coeff + LaurentPoly.one(), word), *rest]
        monkeypatch.setattr(iqsym, "relation_table", lambda n: table)
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
                c.set_entry((3, 3), (3, 3), h_eigenvalues(n)[0])
            return c

        monkeypatch.setattr(clifford, "wenzl_C", perturbed)
        checked = {"trace-rule", "rotation-rule", "gk-serre-for-h", "three-strand-relation-table", "devils-serre"}
        report = relation_suite(n, probe=probe)
        failed = {e["identity_id"] for e in report if e["status"] == "fail"}
        assert failed == {e["identity_id"] for e in report} & checked
        assert all(e["witness"] == "H is not an intertwiner" for e in report if e["status"] == "fail")

    def test_shared_prefixes_bound_the_products(self, monkeypatch):
        # the gk-Serre, relation-table and devil's Serre products: the ones
        # whose right factor lives on the dominant columns of S^(x)3
        dominant = set(dominant_keys(3, 3))
        calls = []
        matmul = LinOp.__matmul__

        def counted(a, b):
            if len(b.dom) == 3 and set(b.cols) <= dominant:
                calls.append(1)
            return matmul(a, b)

        monkeypatch.setattr(LinOp, "__matmul__", counted)
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


def _canonical(p: LaurentPoly) -> LaurentPoly:
    """p as a canonical denominator: content 1, positive leading coefficient, valuation 0."""
    return RatFunc(LaurentPoly.one(), p).den


def _lcm_of_entry_dens(op: LinOp) -> LaurentPoly:
    lcm = LaurentPoly.one()
    for k, col in op.cols.items():
        for j in col:
            d = op.entry(k, j).den
            lcm = _canonical(lcm * poly_divexact(d, poly_gcd(lcm, d)))
    return lcm


def _entries(op: LinOp) -> dict:
    """The values of op's nonzero entries, keyed by (column, row)."""
    return {(k, j): op.entry(k, j) for k, col in op.cols.items() for j in col}


def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, v in b.items():
        out[key] = out.get(key, RatFunc.zero()) + v
    return {key: v for key, v in out.items() if v}


def _ref_scale(a: dict, c) -> dict:
    return {key: v * c for key, v in a.items() if v * c}


def _ref_matmul(a: dict, b: dict) -> dict:
    """a after b, entry by entry."""
    out: dict = {}
    for (k, j), x in b.items():
        for (j2, i), y in a.items():
            if j2 == j:
                out[(k, i)] = out.get((k, i), RatFunc.zero()) + y * x
    return {key: v for key, v in out.items() if v}


class TestScaledOp:
    """LinOp arithmetic over one canonical denominator, the form that the
    deleted ScaledOp kept (xcalc.ScaledOp now names LinOp), against the same
    arithmetic on a map of RatFunc entries."""

    DEN_PAIRS = {
        "equal": (qint(2), qint(2)),
        "coprime": (qint(2), qint(3)),
        "dividing": (qint(2), qint(4)),
    }

    @staticmethod
    def _over(seed: int, den: LaurentPoly) -> tuple[LinOp, dict]:
        """A random operator divided by den, written entry by entry, and its entries."""
        inv = RatFunc(LaurentPoly.one(), den)
        ref = {key: v * inv for key, v in _entries(_laurent_op(seed)).items()}
        op = LinOp(1, ("S", "S"), ("S", "S"))
        for (k, j), v in ref.items():
            op.set_entry(k, j, v)
        assert op == _laurent_op(seed).scale(inv)
        return op, ref

    @pytest.mark.parametrize("case", sorted(DEN_PAIRS))
    def test_agrees_with_linop(self, case):
        da, db = self.DEN_PAIRS[case]
        (a, ra), (b, rb) = self._over(1, da), self._over(2, db)
        results = [
            (a + b, _ref_add(ra, rb)),
            (a - b, _ref_add(ra, _ref_scale(rb, -1))),
            (a @ b, _ref_matmul(ra, rb)),
        ]
        for c in (qint(3), RatFunc.from_poly(qint(3)), RatFunc(LaurentPoly.q_pow(1), qint(5))):
            results.append((a.scale(c), _ref_scale(ra, c)))
        for op, ref in results:
            assert _entries(op) == ref and op.den == _lcm_of_entry_dens(op)
        assert (a == b) == (ra == rb) and a != b
        assert (a - a).is_zero() and (b - b).is_zero() and (a - a).den.is_one()

    def test_same_value_over_a_multiple(self):
        a, ra = self._over(1, qint(2))
        half, m = RatFunc(LaurentPoly.one(), qint(2)), _canonical(qint(3))
        cols = {k: {j: v * half.num * m for j, v in col.items()} for k, col in _laurent_op(1).cols.items()}
        b = LinOp.reduced(1, a.dom, a.cod, cols, half.den * m)
        assert a == b and b == a and a.den == b.den == half.den
        assert a + b == a.scale(2) and _entries(a + b) == _ref_scale(ra, 2)
        c, _ = self._over(2, qint(2))
        assert a != c
        # the same numerators over another denominator are another value
        assert a != LinOp(1, a.dom, a.cod, a.cols) and a != LinOp.reduced(1, a.dom, a.cod, a.cols, m)

    def test_scaling_by_one(self):
        a, ra = self._over(1, qint(2))
        for one in (1, LaurentPoly.one(), RatFunc.one()):
            assert a.scale(one) == a and _entries(a.scale(one)) == ra


class TestCanonicalForm:
    @pytest.mark.parametrize("n", RANKS)
    def test_x_family_and_braidings_have_denominator_one(self, families, n):
        assert all(families[n][k].den.is_one() for k in range(n + 1))
        assert braiding(n, families[n]).den.is_one() and braiding(n, families[n], -1).den.is_one()
        assert not families[n].h.den.is_one()  # H = X + 1/[2]

    @pytest.mark.parametrize("n", RANKS)
    def test_projector_denominator_is_the_lcm_of_its_entries(self, families, n):
        spec = spectral_basis(n, families[n])
        projectors = spec.projectors + [spec.residual]
        assert all(p.den == _lcm_of_entry_dens(p) for p in projectors)
        assert any(not p.den.is_one() for p in projectors)


class TestRanks:
    def test_trace_is_the_isotypic_rank(self, families):
        for n in RANKS:
            spec = spectral_basis(n, families[n])
            sizes = [comb(2 * n + 1, i) for i in range(n)]
            assert [rank_of(p) for p in spec.projectors] == sizes
            assert rank_of(spec.residual) == 4**n - sum(sizes)

    @pytest.mark.parametrize(
        "trace",
        (RatFunc(LaurentPoly.one(), qint(2)), RatFunc.from_poly(qint(2)), RatFunc.from_poly(LaurentPoly.const(Fraction(1, 2)))),
        ids=("rational", "laurent", "fraction"),
    )
    def test_a_trace_that_is_not_an_integer_raises(self, trace):
        op = LinOp(1, S_SIG, S_SIG)
        op.set_entry((0,), (0,), trace)
        with pytest.raises(ValueError, match="not an integer constant"):
            rank_of(op)

    def test_a_projector_that_is_not_idempotent_fails_the_ranks(self, monkeypatch):
        from spinlink import xcalc

        n, spectral = 2, xcalc.spectral_basis

        def perturbed(rank, fam=None):
            # Add the unit E at (row j, column k), off the diagonal, where P
            # has an empty column j and an empty row k: P E = E P = 0, so
            # (P + E)^2 = P, and P + E has P's trace but is not idempotent.
            spec = spectral(rank, fam)
            p = spec.projectors[0]
            rows = {r for col in p.cols.values() for r in col}
            j, k = [key for key in sig_keys(("S", "S"), rank) if key not in p.cols and key not in rows][:2]
            p.set_entry(k, j, RatFunc.one())
            return spec

        monkeypatch.setattr(xcalc, "spectral_basis", perturbed)
        report = {e["identity_id"]: e for e in change_of_basis_check(n)}
        assert report["isotypic-ranks"] == {
            "identity_id": "isotypic-ranks",
            "parameters": {"n": n},
            "status": "fail",
            "witness": "projector 0 is not idempotent",
        }
        assert report["projector-orthogonality"]["status"] == "fail"
