"""The X-operator calculus on tensor squares of the spin representation.

X = H - 1/[2] generates End(S (x) S) as an algebra, and the family
X^(0), ..., X^(n) obtained from the quadratic recursion

    X^(i) X = (-1)^i "[i+1]^2" X^(i+1) + (-1)^i "[i][i+1]" X^(i)

is a basis in which the braiding takes the form q^{n/2} sum q^{-k} X^(k).
H is taken in the Clifford closed form C = clifford.wenzl_C(n); the
trivalent composite rep.H is the independent route that C is checked
against, and is not called here.  This module builds the family by two
independent routes (iterated recursion, and Horner evaluation at X of the
closed product polynomial of X^(k) that the symbolic engine's one-strand
table is built from, iqsym._factor_product), provides the braiding
(and, with sign -1, its inverse) and its strand embeddings, the quantum
partial trace, the spectral idempotents of H, and a battery of exact
matrix identities including the three-strand relation tables and the
trace/rotation rules, compared on dominant weight columns only
(rep.dominant_keys); partial traces weight each closed strand with
rep.closure_weight.  Each isotypic rank is the trace of a spectral
idempotent, since over a field of characteristic 0 the rank of an
idempotent equals its trace.  iqsym is imported only inside the functions
that read its tables, so the spin matrix route never loads it.

Every operator is a rep.LinOp, Laurent entries over one canonical
denominator.  X^(k) and the braidings have denominator 1, so the X
recursion, the braiding and the relation battery multiply and add Laurent
polynomials only; H carries 1/[2] and the spectral idempotents their
eigenvalue-gap denominators, which are reduced once per operator.
"""

from __future__ import annotations

from . import clifford
from .qalg import LaurentPoly, RatFunc, binom2, d_value, devil, devil_ratio, qint, report_entry
from .rep import (
    LinOp, S_SIG, cap_n, closure_weight, cup_n, dominant_keys, doubled_weight, is_intertwiner, sig_keys, subset_iter,
)

_ONE = LaurentPoly.one()


# perfbench/tracer.py, the only reader of this name, times the products of LinOp under it
ScaledOp = LinOp


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
    """X^(0), ..., X^(n+1) by the quadratic recursion; X^(n+1) is zero for
    a correct H."""
    idSS = LinOp.identity(("S", "S"), n)
    ops = [idSS, x]
    for i in range(1, n + 1):
        lead = RatFunc(LaurentPoly.const((-1) ** i), devil(i + 1, i + 1))
        drop = devil(i, i + 1).scale((-1) ** i)
        nxt = ((ops[i] @ x) - ops[i].scale(drop)).scale(lead)
        ops.append(nxt)
    return ops


def _x_by_product_formula(n: int, x: LinOp, k: int) -> LinOp:
    """X^(k) from iqsym's product polynomial in X, evaluated by Horner's
    rule and scaled once by its leading factor."""
    from .iqsym import _factor_product, _x_lead

    idSS = LinOp.identity(("S", "S"), x.n)
    acc = LinOp.zero(("S", "S"), ("S", "S"), x.n)
    for c in reversed(_factor_product(k)):
        acc = acc @ x + idSS.scale(c)
    return acc.scale(_x_lead(k))


def build_X(n: int, check_product_route: bool = True) -> XFamily:
    """Construct X^(0..n); the recursion route and the closed product
    formula are compared entry-for-entry, and one extra recursion step must
    give the zero operator."""
    h = clifford.wenzl_C(n)
    idSS = LinOp.identity(("S", "S"), n)
    x = h - idSS.scale(RatFunc(_ONE, qint(2)))
    *ops, beyond = _x_by_recursion(n, x)
    if check_product_route:
        for k in range(n + 1):
            if _x_by_product_formula(n, x, k) != ops[k]:
                raise AssertionError(f"X^({k}) routes disagree at n={n}")
    if not beyond.is_zero():
        raise AssertionError(f"X^({n + 1}) is nonzero at n={n}")
    return XFamily(n, ops, h)


def braiding(n: int, fam: XFamily | None = None, sign: int = 1) -> LinOp:
    """R on S (x) S, q^{n/2} sum_k q^{-k} X^(k); with sign = -1 its inverse
    R^{-1} = q^{-n/2} sum_k q^{k} X^(k)."""
    fam = fam or build_X(n, check_product_route=False)
    total = LinOp.zero(("S", "S"), ("S", "S"), n)
    for k in range(n + 1):
        total = total + fam[k].scale(LaurentPoly.v_pow(sign * (n - 2 * k)))
    return total


def r_on_strands(i: int, m: int, n: int, inverse: bool = False, fam: XFamily | None = None) -> LinOp:
    """The braiding acting on strands (i, i+1) of S^{(x) m}."""
    if not 1 <= i <= m - 1:
        raise ValueError(f"strand index {i} out of range for {m} strands")
    r = braiding(n, fam, -1 if inverse else 1)
    return r.embed(i - 1, m - i - 1, sig_keys(("S",) * m, n))


# -- the quantum partial trace ---------------------------------------------------


def ptrace(op: LinOp) -> LinOp:
    """Close off the last strand with the explicit cup and cap."""
    if not op.dom or op.dom != op.cod or any(t != "S" for t in op.dom):
        raise ValueError("partial trace needs an endomorphism of a power of S")
    n = op.n
    # the closure weight q^{B^c} / q^{B} of the closed strand (a Laurent monomial)
    mu = {B: closure_weight(doubled_weight((B,), n), 1, n) for B in subset_iter(n)}
    cols: dict = {}
    for k, col in op.cols.items():
        kk, B = k[:-1], k[-1]
        for j, v in col.items():
            if j[-1] != B:
                continue
            tgt = cols.setdefault(kk, {})
            jj = j[:-1]
            s = tgt.get(jj)
            term = v * mu[B]
            s = term if s is None else s + term
            if s:
                tgt[jj] = s
            else:
                tgt.pop(jj, None)
    cols = {k: c for k, c in cols.items() if c}
    return LinOp.reduced(n, op.dom[:-1], op.cod[:-1], cols, op.den)


# -- spectral idempotents -------------------------------------------------------


class SpectralFamily:
    """Projectors onto the H-eigenspaces of S (x) S.

    projectors[i] projects onto the V_i isotypic block for 0 <= i <= n-1;
    residual projects onto the top summand.  i_ops[i] is I^(i), the
    idempotent-scaled operator (-1)^{C(n-i+1,2)} d_{n-i} * projectors[i],
    for 0 <= i <= n-1, and i_ops[n] = I^(n) is the identity.
    """

    def __init__(self, n: int, projectors: list[LinOp], residual: LinOp):
        self.n = n
        self.projectors = projectors
        self.residual = residual
        self.i_ops = [
            projectors[i].scale(d_value(n - i).scale((-1) ** binom2(n - i + 1))) for i in range(n)
        ] + [LinOp.identity(("S", "S"), n)]


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
    # work with [2] H - [2] lambda, which has Laurent entries
    two = qint(2)
    h2 = h.scale(two)
    assert h2.den.is_one()
    factors = [h2 - idSS.scale((other * two).as_poly()) for other in vals]

    def after(a, b):
        return b if a is None else a if b is None else a @ b

    # the Lagrange numerator F_last ... F_{j+1} F_{j-1} ... F_0 of projector j
    # is above[j] @ below[j], from shared products of the factors on either side
    below, above = [None], [None]
    for f in factors[:-1]:
        below.append(after(f, below[-1]))
    for f in reversed(factors[1:]):
        above.append(after(above[-1], f))
    above.reverse()
    projs = []
    for j, lam in enumerate(vals):
        scalar = RatFunc.one()
        for t, other in enumerate(vals):
            if t != j:
                scalar = scalar * ((lam - other) * two).inv()
        projs.append(after(above[j], below[j]).scale(scalar))
    return SpectralFamily(n, projs[:-1], projs[-1])


def lambda_coeff(n: int, i: int, l: int) -> RatFunc:
    """The change-of-basis coefficient of I^(n-l) inside X^(i)."""
    return RatFunc(LaurentPoly.const((-1) ** binom2(l - i + 1)), d_value(l)) * devil_ratio(l, i)


def braid_i_coeff(n: int, i: int) -> RatFunc:
    """The coefficient of I^(n-i) in the braiding, for 1 <= i <= n; the
    q^{n/2} prefactor is an integer v-power and is folded in directly."""
    num = LaurentPoly.q_pow(-2 * binom2(i + 1)) - LaurentPoly.const((-1) ** binom2(i + 1))
    return RatFunc(num.shift(n), d_value(i))


def rank_of(op: LinOp) -> int:
    """The rank over Q(q) of an idempotent: its trace, the sum of its
    diagonal entries, which must be an integer constant."""
    diagonal = sum((col.get(k, LaurentPoly.zero()) for k, col in op.cols.items()), LaurentPoly.zero())
    trace = RatFunc(diagonal, op.den)
    value = trace.num.c.get(0, 0)
    if trace != RatFunc.from_poly(LaurentPoly.const(value)) or value != int(value):
        raise ValueError(f"the trace {trace} is not an integer constant")
    return int(value)


def change_of_basis_check(n: int, fam: XFamily | None = None) -> list[dict]:
    """Verify the spectral decomposition against the closed coefficient
    formulas: orthogonality, the I-to-X change of basis, the braiding
    coefficients in the I-basis, and the isotypic ranks.

    Each isotypic rank is the projector's trace (rank_of), taken only once
    the orthogonality products have shown the projector idempotent: over a
    field of characteristic 0 the rank of an idempotent is its trace.  The
    family is built here unless given; if build_X refuses H, the report is
    one failed "x-family" entry whose witness is build_X's message.
    """
    from math import comb

    report = []

    def entry(name, ok, witness=None):
        report.append(report_entry(name, {"n": n}, ok, witness))

    try:
        fam = fam or build_X(n)
    except AssertionError as exc:
        entry("x-family", False, exc)
        return report
    spec = spectral_basis(n, fam)

    idSS = LinOp.identity(("S", "S"), n)
    all_projs = spec.projectors + [spec.residual]
    total = LinOp.zero(("S", "S"), ("S", "S"), n)
    ok = True
    zero = LinOp.zero(("S", "S"), ("S", "S"), n)
    idempotent = []
    for a, pa in enumerate(all_projs):
        total = total + pa
        for b, pb in enumerate(all_projs):
            same = (pa @ pb) == (pa if a == b else zero)
            if a == b:
                idempotent.append(same)
            ok = ok and same
    entry("projector-orthogonality", ok and total == idSS)

    ok = True
    i_ops = spec.i_ops
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
            total = total + i_ops[n - l].scale(lambda_coeff(n, i, l))
        if total != fam[i]:
            ok, witness = False, f"X^({i})"
        if lambda_coeff(n, i, i) != RatFunc.one():
            ok, witness = False, f"lambda(n-{i}) != 1"
    entry("i-to-x-change-of-basis", ok, witness)

    entry("x-top-is-bigon", fam[n] == i_ops[0])

    r = braiding(n, fam)
    total = idSS.scale(LaurentPoly.v_pow(n))
    for i in range(1, n + 1):
        total = total + i_ops[n - i].scale(braid_i_coeff(n, i))
    entry("braiding-in-i-basis", total == r)

    ok, witness = True, None
    sizes = [comb(2 * n + 1, i) for i in range(n)]
    sizes.append(4**n - sum(sizes))
    for i, (p, want, idem) in enumerate(zip(all_projs, sizes, idempotent)):
        label = i if i < n else "residual"
        if not idem:
            ok, witness = False, f"projector {label} is not idempotent"
        elif (got := rank_of(p)) != want:
            ok, witness = False, (label, got, want)
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


def relation_suite(n: int, probe: bool = False, fam: XFamily | None = None) -> list[dict]:
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
    witnesses and no exceptions raised on failure.  The X family is built
    here unless given; a refused H is one failed "x-family" entry.
    """
    from .iqsym import relation_table, trace_rule_coeff

    report = []

    def entry(name, ok, witness=None):
        report.append(report_entry(name, {"n": n}, ok, witness))

    try:
        fam = fam or build_X(n, check_product_route=False)
    except AssertionError as exc:
        entry("x-family", False, exc)
        return report
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
    rinv = braiding(n, fam, -1)
    entry("braiding-times-inverse", (r @ rinv) == LinOp.identity(("S", "S"), n) == (rinv @ r))

    # Serre-type relations on three strands, in H-form and X-form, on the
    # dominant columns of S^(x)3
    dominant = dominant_keys(3, n)

    def on_strands(op, left):
        return op.embed(left, 1 - left, dominant)

    h1, h2 = on_strands(fam.h, 0), on_strands(fam.h, 1)
    two_q2 = devil(2, 2)
    lhs = (h2 @ h1 @ h1) + (h1 @ h1 @ h2)
    rhs = (h1 @ h2 @ h1).scale(-two_q2) + h2
    restricted("gk-serre-for-h", lhs == rhs)

    x1 = [on_strands(fam[k], 0) for k in range(n + 1)]
    x2 = [on_strands(fam[k], 1) for k in range(n + 1)]
    zero3 = LinOp.zero(("S",) * 3, ("S",) * 3, n)

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
