"""The X-operator calculus on tensor squares of the spin representation.

X = H - 1/[2] generates End(S (x) S) as an algebra, and the family
X^(0), ..., X^(n) obtained from the quadratic recursion

    X^(i) X = (-1)^i "[i+1]^2" X^(i+1) + (-1)^i "[i][i+1]" X^(i)

is a basis in which the braiding takes the form q^{n/2} sum q^{-k} X^(k).
H is taken in the Clifford closed form C = clifford.wenzl_C(n); the
trivalent composite rep.H is the independent route that C is checked
against, and is not called here.  This module builds the family by two
independent routes (iterated recursion, and evaluation of the closed
product formula for X^(k) as a polynomial in X), provides the braiding
and its strand embeddings, the quantum (partial) trace, the spectral
idempotents of H, and a battery of exact matrix identities including the
three-strand relation tables and the trace/rotation rules, compared on
dominant weight columns only.
"""

from __future__ import annotations

from fractions import Fraction

from . import clifford
from .qalg import GradedScalar, LaurentPoly, RatFunc, binom2, d_value, devil, poly_divexact, poly_gcd, qint
from .rep import LinOp, S_SIG, cap_n, complement, cup_n, dominant_keys, is_intertwiner, qJ, sig_keys, subset_iter
from .iqsym import relation_table, trace_rule_coeff

_ONE = LaurentPoly.one()


# -- scaled operators: Laurent-entry matrix over a global scalar denominator --


def clear_denominators(op: LinOp) -> tuple[LinOp, LaurentPoly]:
    """Rewrite op = num / den with num having denominator-free entries."""
    den = _ONE
    for col in op.cols.values():
        for v in col.values():
            if not v.den.is_one():
                den = den * poly_divexact(v.den, poly_gcd(den, v.den))
    if den.is_one():
        return op, _ONE
    num = LinOp(op.n, op.dom, op.cod)
    for k, col in op.cols.items():
        num.cols[k] = {j: RatFunc.from_poly(v.num * poly_divexact(den, v.den)) for j, v in col.items()}
    return num, den


def _times(op: LinOp, c: LaurentPoly) -> LinOp:
    return op if c.is_one() else op.scale(c)


class ScaledOp:
    """A LinOp with Laurent entries divided by one global Laurent scalar.

    Every entry of num has denominator 1, so products, sums and comparisons
    never reduce a rational function: `@` multiplies and adds the Laurent
    numerators directly, and `+`/`==` bring both sides over a common
    denominator, scaling only a side whose gcd quotient is not 1 (nothing
    at all when the denominators are equal, the common case).  Values are
    never mutated in place, so `scale(1)` returns the operator itself.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LinOp, den: LaurentPoly = _ONE):
        self.num = num
        self.den = den

    @staticmethod
    def lift(op: LinOp) -> "ScaledOp":
        num, den = clear_denominators(op)
        return ScaledOp(num, den)

    def __matmul__(self, other: "ScaledOp") -> "ScaledOp":
        """self after other, column by column over Laurent numerators."""
        a, b = self.num, other.num
        if b.cod != a.dom:
            raise ValueError(f"signature mismatch: {b.cod} -> {a.dom}")
        rows = a.cols
        cols = {}
        for k, col in b.cols.items():
            sums: dict = {}
            for j, c in col.items():
                target = rows.get(j)
                if not target:
                    continue
                cn = c.num
                for i, e in target.items():
                    p = e.num * cn
                    s = sums.get(i)
                    sums[i] = p if s is None else s + p
            new = {i: RatFunc.from_poly(s) for i, s in sums.items() if s}
            if new:
                cols[k] = new
        return ScaledOp(LinOp(a.n, b.dom, a.cod, cols), self.den * other.den)

    def scale(self, c: RatFunc | LaurentPoly) -> "ScaledOp":
        if isinstance(c, RatFunc):
            if c.den.is_one():
                return self.scale(c.num)
            return ScaledOp(_times(self.num, c.num), self.den * c.den)
        return self if c.is_one() else ScaledOp(self.num.scale(c), self.den)

    def _over_common_den(self, other: "ScaledOp") -> tuple[LinOp, LinOp, LaurentPoly]:
        """Numerators of self and other over one common denominator."""
        if self.den == other.den:
            return self.num, other.num, self.den
        g = poly_gcd(self.den, other.den)
        da, db = poly_divexact(self.den, g), poly_divexact(other.den, g)
        return _times(self.num, db), _times(other.num, da), self.den * db

    def __add__(self, other: "ScaledOp") -> "ScaledOp":
        a, b, den = self._over_common_den(other)
        return ScaledOp(a + b, den)

    def __sub__(self, other: "ScaledOp") -> "ScaledOp":
        return self + other.scale(LaurentPoly.const(-1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScaledOp):
            return NotImplemented
        a, b, _ = self._over_common_den(other)
        return a == b

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def to_linop(self) -> LinOp:
        inv = RatFunc(_ONE, self.den)
        return self.num.scale(inv)


# -- the X family -------------------------------------------------------------


class XFamily:
    """The operators X^(0..n) on S (x) S, plus H and the scalar bookkeeping."""

    def __init__(self, n: int, ops: list[LinOp], h: LinOp):
        self.n = n
        self.ops = ops
        self.h = h

    def __getitem__(self, k: int) -> LinOp:
        if k < 0:
            raise IndexError(k)
        if k > self.n:
            return LinOp.zero(("S", "S"), ("S", "S"), self.n)
        return self.ops[k]


def _x_by_recursion(n: int, x: LinOp) -> list[LinOp]:
    idSS = LinOp.identity(("S", "S"), n)
    ops = [idSS, x]
    for i in range(1, n):
        lead = RatFunc(LaurentPoly.const((-1) ** i), devil(i + 1, i + 1))
        drop = RatFunc.from_poly(devil(i, i + 1).scale((-1) ** i))
        nxt = ((ops[i] @ x) - ops[i].scale(drop)).scale(lead)
        ops.append(nxt)
    return ops


def _x_by_product_formula(n: int, x: LinOp, k: int) -> LinOp:
    """X^(k) as the closed product of linear factors in X, divided by the
    devil-square factorials."""
    idSS = LinOp.identity(("S", "S"), x.n)
    acc = idSS
    for t in range(k - 1, -1, -1):
        shift = devil(t, t + 1).scale((-1) ** (t + 1))
        acc = acc @ (x + idSS.scale(RatFunc.from_poly(shift)))
    den = _ONE
    for t in range(1, k + 1):
        den = den * devil(t, t)
    return acc.scale(RatFunc(LaurentPoly.const((-1) ** binom2(k)), den))


def build_X(n: int, check_product_route: bool = True) -> XFamily:
    """Construct X^(0..n); the recursion route and the closed product
    formula are compared entry-for-entry, and one extra recursion step must
    give the zero operator."""
    h = clifford.wenzl_C(n)
    idSS = LinOp.identity(("S", "S"), n)
    x = h - idSS.scale(RatFunc(_ONE, qint(2)))
    ops = _x_by_recursion(n, x)
    if check_product_route:
        for k in range(n + 1):
            if _x_by_product_formula(n, x, k) != ops[k]:
                raise AssertionError(f"X^({k}) routes disagree at n={n}")
    # one step past the top the recursion must collapse
    lead = RatFunc(LaurentPoly.const((-1) ** n), devil(n + 1, n + 1))
    drop = RatFunc.from_poly(devil(n, n + 1).scale((-1) ** n))
    beyond = ((ops[n] @ x) - ops[n].scale(drop)).scale(lead)
    if not beyond.is_zero():
        raise AssertionError(f"X^({n + 1}) is nonzero at n={n}")
    return XFamily(n, ops, h)


def braiding(n: int, fam: XFamily | None = None) -> LinOp:
    """R on S (x) S: q^{n/2} sum_k q^{-k} X^(k)."""
    fam = fam or build_X(n, check_product_route=False)
    total = LinOp.zero(("S", "S"), ("S", "S"), n)
    for k in range(n + 1):
        total = total + fam[k].scale(LaurentPoly.v_pow(2 * (-k) + n))
    return total


def inverse_braiding(n: int, fam: XFamily | None = None) -> LinOp:
    """R^{-1} = q^{-n/2} sum_k q^{k} X^(k)."""
    fam = fam or build_X(n, check_product_route=False)
    total = LinOp.zero(("S", "S"), ("S", "S"), n)
    for k in range(n + 1):
        total = total + fam[k].scale(LaurentPoly.v_pow(2 * k - n))
    return total


def r_on_strands(i: int, m: int, n: int, inverse: bool = False, fam: XFamily | None = None) -> LinOp:
    """The braiding acting on strands (i, i+1) of S^{(x) m}."""
    if not 1 <= i <= m - 1:
        raise ValueError(f"strand index {i} out of range for {m} strands")
    r = inverse_braiding(n, fam) if inverse else braiding(n, fam)
    return r.embed(i - 1, m - i - 1, sig_keys(("S",) * m, n))


# -- quantum traces ------------------------------------------------------------


def _mu_weight(B: int, n: int) -> RatFunc:
    """The closure weight q^{B^c} / q^{B} (a Laurent monomial)."""
    return RatFunc.from_poly(qJ(complement(B, n), n)) * RatFunc(_ONE, qJ(B, n))


def ptrace(op: LinOp) -> LinOp:
    """Close off the last strand with the explicit cup and cap."""
    if not op.dom or op.dom != op.cod or any(t != "S" for t in op.dom):
        raise ValueError("partial trace needs an endomorphism of a power of S")
    n = op.n
    mu = {B: _mu_weight(B, n) for B in subset_iter(n)}
    out = LinOp(n, op.dom[:-1], op.cod[:-1])
    for k, col in op.cols.items():
        kk, B = k[:-1], k[-1]
        for j, v in col.items():
            if j[-1] != B:
                continue
            tgt = out.cols.setdefault(kk, {})
            jj = j[:-1]
            s = tgt.get(jj)
            term = v * mu[B]
            s = term if s is None else s + term
            if s.is_zero():
                tgt.pop(jj, None)
            else:
                tgt[jj] = s
    out.cols = {k: c for k, c in out.cols.items() if c}
    return out


def qtrace(op: LinOp) -> GradedScalar:
    """The full quantum trace: iterated partial closure down to a scalar."""
    cur = op
    while cur.dom:
        cur = ptrace(cur)
    return GradedScalar(0, cur.entry((), ()))


# -- spectral idempotents -------------------------------------------------------


class SpectralFamily:
    """Projectors onto the H-eigenspaces of S (x) S.

    projectors[i] projects onto the V_i isotypic block for 0 <= i <= n-1;
    residual projects onto the top summand.  i_ops[i] is the normalized
    idempotent-scaled operator (-1)^{C(n-i+1,2)} d_{n-i} * projectors[i].
    """

    def __init__(self, n: int, projectors: list[LinOp], residual: LinOp):
        self.n = n
        self.projectors = projectors
        self.residual = residual
        self.i_ops = [
            projectors[i].scale(d_value(n - i).scale((-1) ** binom2(n - i + 1))) for i in range(n)
        ] + [LinOp.identity(("S", "S"), n)]

    def i_op(self, i: int) -> LinOp:
        """I^(i) for 0 <= i <= n-1, with I^(n) the identity."""
        return self.i_ops[i]


def h_eigenvalues(n: int) -> list[RatFunc]:
    """Eigenvalues of H: on the V_i block for i = 0..n-1, then the residual."""
    two = qint(2)
    vals = [RatFunc(qint(2 * (n - i) + 1).scale((-1) ** (n - i)), two) for i in range(n)]
    vals.append(RatFunc(_ONE, two))
    return vals


def spectral_basis(n: int, fam: XFamily | None = None) -> SpectralFamily:
    fam = fam or build_X(n, check_product_route=False)
    h, idSS = fam.h, LinOp.identity(("S", "S"), n)
    vals = h_eigenvalues(n)
    # work with [2] H - numerator, which clears all denominators entrywise
    two = qint(2)
    h2 = ScaledOp.lift(h.scale(RatFunc.from_poly(two)))
    assert h2.den.is_one()
    projs = []
    for j, lam in enumerate(vals):
        acc = ScaledOp(idSS.scale(RatFunc.one()))
        scalar = RatFunc.one()
        for t, other in enumerate(vals):
            if t == j:
                continue
            factor = ScaledOp(h2.num - idSS.scale((other * two).as_poly()))
            acc = factor @ acc
            scalar = scalar * ((lam - other) * two).inv()
        projs.append(acc.to_linop().scale(scalar))
    return SpectralFamily(n, projs[:-1], projs[-1])


def lambda_coeff(n: int, i: int, l: int) -> RatFunc:
    """The change-of-basis coefficient of I^(n-l) inside X^(i)."""
    num = LaurentPoly.const((-1) ** binom2(l - i + 1))
    prod = RatFunc(num, d_value(l))
    for t in range(1, i + 1):
        prod = prod * RatFunc(devil(l + 1 - t, l + t), devil(t, t))
    return prod


def braid_i_coeff(n: int, i: int) -> RatFunc:
    """The coefficient of I^(n-i) in the braiding, for 1 <= i <= n; the
    q^{n/2} prefactor is an integer v-power and is folded in directly."""
    num = LaurentPoly.q_pow(-2 * binom2(i + 1)) - LaurentPoly.const((-1) ** binom2(i + 1))
    return RatFunc(num.shift(n), d_value(i))


def rank_of(op: LinOp, exact: bool = False) -> int:
    """Rank over Q(q): by default the largest rank among three random rational
    specializations; exact=True runs fraction-free elimination instead."""
    cols = sorted(op.cols)
    rows = sorted({j for col in op.cols.values() for j in col})
    ridx = {r: t for t, r in enumerate(rows)}
    if exact:
        mat = [[op.entry(c, r) for c in cols] for r in rows]
        return _rank_exact(mat)
    import random

    rng = random.Random(20240917)
    ranks: list[int] = []
    for _ in range(24):
        v = Fraction(rng.randint(2, 40), rng.randint(1, 7))
        try:
            mat = [[Fraction(0)] * len(cols) for _ in rows]
            for ci, c in enumerate(cols):
                for r, val in op.cols[c].items():
                    mat[ridx[r]][ci] = val.subs_v(v)
        except ZeroDivisionError:
            continue
        ranks.append(_rank_fraction(mat))
        if len(ranks) == 3:
            break
    if not ranks:
        raise ArithmeticError("every sampled specialization hits a pole")
    # a specialization at a zero of a minor can only lower the rank
    return max(ranks)


def _rank_fraction(mat: list[list[Fraction]]) -> int:
    rank, rows, ncols = 0, len(mat), len(mat[0]) if mat else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, rows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        rank += 1
    return rank


def _rank_exact(mat: list[list[RatFunc]]) -> int:
    rank, rows = 0, len(mat)
    ncols = len(mat[0]) if mat else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, rows) if not mat[i][c].is_zero()), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c].inv()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(rows):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        rank += 1
    return rank


def change_of_basis_check(n: int, exact_rank: bool = False) -> list[dict]:
    """Verify the spectral decomposition against the closed coefficient
    formulas: orthogonality, the I-to-X change of basis, the braiding
    coefficients in the I-basis, and the isotypic ranks."""
    from math import comb

    fam = build_X(n)
    spec = spectral_basis(n, fam)
    report = []

    def entry(name, ok, witness=None, **params):
        e = {"identity_id": name, "parameters": {"n": n, **params}, "status": "pass" if ok else "fail"}
        if witness is not None and not ok:
            e["witness"] = str(witness)
        report.append(e)

    idSS = LinOp.identity(("S", "S"), n)
    all_projs = spec.projectors + [spec.residual]
    total = LinOp.zero(("S", "S"), ("S", "S"), n)
    ok = True
    # the products are taken in ScaledOp form: lifted once, no per-entry gcd
    lifted = [ScaledOp.lift(p) for p in all_projs]
    zero = ScaledOp(LinOp.zero(("S", "S"), ("S", "S"), n))
    for a, pa in enumerate(lifted):
        total = total + all_projs[a]
        for b, pb in enumerate(lifted):
            want = pa if a == b else zero
            if (pa @ pb) != want:
                ok = False
    entry("projector-orthogonality", ok and total == idSS)

    ok = True
    i_ops = [ScaledOp.lift(spec.i_op(i)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            prod = i_ops[i] @ i_ops[j]
            if i != j:
                ok = ok and prod.is_zero()
            else:
                c = d_value(n - i).scale((-1) ** binom2(n - i + 1))
                ok = ok and prod == i_ops[i].scale(c)
    entry("bigon-composition", ok)

    witness = None
    ok = True
    for i in range(1, n + 1):
        total = LinOp.zero(("S", "S"), ("S", "S"), n)
        for l in range(i, n + 1):
            total = total + spec.i_op(n - l).scale(lambda_coeff(n, i, l))
        if total != fam[i]:
            ok, witness = False, f"X^({i})"
        if lambda_coeff(n, i, i) != RatFunc.one():
            ok, witness = False, f"lambda(n-{i}) != 1"
    entry("i-to-x-change-of-basis", ok, witness)

    entry("x-top-is-bigon", fam[n] == spec.i_op(0))

    r = braiding(n, fam)
    total = idSS.scale(LaurentPoly.v_pow(n))
    for i in range(1, n + 1):
        total = total + spec.i_op(n - i).scale(braid_i_coeff(n, i))
    entry("braiding-in-i-basis", total == r)

    ok = True
    witness = None
    for i in range(n):
        want = comb(2 * n + 1, i)
        got = rank_of(spec.projectors[i], exact=exact_rank)
        if got != want:
            ok, witness = False, (i, got, want)
    res_want = 4**n - sum(comb(2 * n + 1, i) for i in range(n))
    res_got = rank_of(spec.residual, exact=exact_rank)
    if res_got != res_want:
        ok, witness = False, ("residual", res_got, res_want)
    entry("isotypic-ranks", ok, witness)
    return report


# -- rotation and the relation battery -----------------------------------------


def _product_on(keys, *factors) -> LinOp:
    """The columns at keys of the product of the embedded factors (op, left,
    right), leftmost first.  The product is taken right to left, and each
    factor is built only on the keys that the factors to its right reach."""
    out = None
    for op, left, right in reversed(factors):
        step = op.embed(left, right, keys)
        out = step if out is None else step @ out
        keys = {j for col in out.cols.values() for j in col}
    return out


def rotate(op: LinOp, keys) -> LinOp:
    """The columns at keys of the rotation of an endomorphism of S (x) S by
    one strand: bend the first input up and the last output down with the
    explicit cup and cap, (cap (x) id (x) id)(id (x) op (x) id)(id (x) id (x) cup).
    The 4-strand middle factor is built only on the keys the cup reaches."""
    n = op.n
    return _product_on(keys, (cap_n(n), 0, 2), (op, 1, 1), (cup_n(n), 2, 0))


def relation_suite(n: int, probe: bool = False) -> list[dict]:
    """Exact verification on S^(x)3 of the three-strand relation tables, the
    Serre-type relations, the trace rule, and the rotation rule.

    Every comparison but R R^{-1} = id and the m = 2 trace rule is made on
    dominant weight columns only.  Two U_q(so(2n+1)) intertwiners are equal
    if they agree on every dominant weight space: at generic q the modules
    are completely reducible and generated by their highest-weight vectors,
    whose weights are dominant (Jantzen, Lectures on Quantum Groups, ch. 5).
    An intertwiner preserves weights, so the dominant-weight columns of
    S^(x)3 (40 of 512 at n = 3) are closed under every factor of the table
    and Serre products, which are taken on those columns alone.  The m = 3
    trace rule takes its product on the columns (a, b, B) with (a, b) of
    dominant weight in S (x) S and every closing B, and rotate builds its
    4-strand middle factor only on the keys the cup reaches.

    The lemma holds only if both sides of a comparison are intertwiners.
    Every side is built from H, cup_n and cap_n (ptrace is (id (x) cap_n)
    (op (x) id)(id (x) cup_n)), so the suite first checks those three with
    rep.is_intertwiner; if one fails, every dominant-column entry fails with
    a witness such as "H is not an intertwiner".

    The relation table is walked in sorted (a, b, c) order, so rows that
    share the left-hand prefix X^(a) X^(b) follow each other and the prefix
    product is computed once per (a, b); only the current prefix is kept.

    With probe=True (intended for n = 4) only the conjecture probes run:
    the trace rule for every k and the rotation rule, reported with
    witnesses and no exceptions raised on failure.
    """
    report = []

    def entry(name, ok, witness=None, **params):
        e = {"identity_id": name, "parameters": {"n": n, **params}, "status": "pass" if ok else "fail"}
        if witness is not None and not ok:
            e["witness"] = str(witness)
        report.append(e)

    fam = build_X(n, check_product_route=False)
    generators = (("H", fam.h), ("cup_n", cup_n(n)), ("cap_n", cap_n(n)))
    unsound = next((f"{name} is not an intertwiner" for name, op in generators if not is_intertwiner(op, n)), None)

    def restricted(name, ok, witness=None):
        """Report a dominant-column check, failed outright if the lemma does not apply."""
        if unsound:
            ok, witness = False, unsound
        entry(name, ok, witness)

    # trace rule: closing the top strand of X^(k) against any intertwiner
    pairs = dominant_keys(2, n)
    closed = [p + (B,) for p in pairs for B in subset_iter(n)]
    idS = LinOp.identity(S_SIG, n)
    ok_all = True
    witness = None
    for k in range(n + 1):
        coeff = trace_rule_coeff(n, k)
        if ptrace(fam[k]) != idS.scale(coeff):
            ok_all, witness = False, f"m=2, k={k}"
        if probe or n <= 3:
            for j in range(n + 1):
                lhs = ptrace(_product_on(closed, (fam[k], 1, 0), (fam[j], 0, 1)))
                if lhs != fam[j].embed(0, 0, pairs).scale(coeff):
                    ok_all, witness = False, f"m=3, k={k}, j={j}"
                    break
    restricted("trace-rule", ok_all, witness)

    # rotation rule
    ok_all = True
    witness = None
    for k in range(n + 1):
        if rotate(fam[k], pairs) != fam[n - k].embed(0, 0, pairs):
            ok_all, witness = False, f"k={k}"
    restricted("rotation-rule", ok_all, witness)

    if probe:
        return report

    # braiding sanity inside the battery
    r = braiding(n, fam)
    rinv = inverse_braiding(n, fam)
    entry("braiding-times-inverse", (r @ rinv) == LinOp.identity(("S", "S"), n) == (rinv @ r))

    # Serre-type relations on three strands, in H-form and X-form, on the
    # dominant columns of S^(x)3
    dominant = dominant_keys(3, n)

    def on_strands(op, left):
        return ScaledOp.lift(op.embed(left, 1 - left, dominant))

    h1, h2 = on_strands(fam.h, 0), on_strands(fam.h, 1)
    two_q2 = devil(2, 2)
    lhs = (h2 @ h1 @ h1) + (h1 @ h1 @ h2)
    rhs = (h1 @ h2 @ h1).scale(-two_q2) + h2
    restricted("gk-serre-for-h", lhs == rhs)

    x1 = [on_strands(fam[k], 0) for k in range(n + 1)]
    x2 = [on_strands(fam[k], 1) for k in range(n + 1)]
    zero3 = ScaledOp(LinOp.zero(("S",) * 3, ("S",) * 3, n))

    def emb(outer):
        def op_of(sym, p):
            if p > n:
                return None
            return (x1 if sym == "O" else x2)[p] if outer == 1 else (x2 if sym == "O" else x1)[p]

        return op_of

    ok_all, witness = True, None
    for outer in (1, 2):
        op_of = emb(outer)
        prefix_key, prefix = None, None
        for (a, b, c), rhs_terms in sorted(relation_table(n).items()):
            lo, lm = op_of("O", a), op_of("M", b)
            lc = op_of("O", c)
            if lo is None or lm is None or lc is None:
                continue
            if prefix_key != (a, b):
                prefix_key, prefix = (a, b), lo @ lm
            lhs = prefix @ lc
            rhs = zero3
            for coeff, word in rhs_terms:
                ops = [op_of(sym, p) for sym, p in word]
                if any(o is None for o in ops):
                    continue
                term = ops[0]
                for o in ops[1:]:
                    term = term @ o
                rhs = rhs + term.scale(coeff)
            if lhs != rhs:
                ok_all, witness = False, f"pattern {(a, b, c)} outer={outer}"
    restricted("three-strand-relation-table", ok_all, witness)

    # devil's Serre relation spelled out (the (1,1,1) row, both embeddings)
    ok = True
    for outer, middle in ((x1, x2), (x2, x1)):
        lhs = outer[1] @ middle[1] @ outer[1]
        rhs = zero3
        if n >= 2:
            rhs = (outer[2] @ middle[1]) + (middle[1] @ outer[2]) + outer[2].scale(qint(2))
        rhs = rhs + outer[1]
        if lhs != rhs:
            ok = False
    restricted("devils-serre", ok)
    return report
