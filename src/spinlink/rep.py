"""The quantum so(2n+1) spin representation S and its basic intertwiners.

S is 2^n-dimensional with basis x_J indexed by subsets J of {1..n},
encoded as bitmasks (bit j-1 set iff j is in J).  The vector
representation V_1 is (2n+1)-dimensional with ordered basis
a_1..a_n, u, b_n..b_1, encoded as integers 0..2n.

All operators are sparse column maps with exact rational-function
entries.  A LinOp knows its domain and codomain signatures (a tuple of
factor tags "S" or "V"), and composition/tensoring is only defined when
signatures match up.  Conventions for the quantum group follow the
standard Hopf structure D(e) = e (x) k + 1 (x) e, D(f) = f (x) 1 +
k^{-1} (x) f, with q_i = q^2 on the long simple roots and q_n = q on the
short one.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable

from .qalg import LaurentPoly, RatFunc, binom2, d_value, qint, qint_base

Key = tuple[int, ...]
Sig = tuple[str, ...]

S_SIG: Sig = ("S",)
V_SIG: Sig = ("V",)


def factor_dim(tag: str, n: int) -> int:
    return (1 << n) if tag == "S" else 2 * n + 1


def sig_keys(sig: Sig, n: int) -> Iterable[Key]:
    if not sig:
        yield ()
        return
    head, rest = sig[0], sig[1:]
    for v in range(factor_dim(head, n)):
        for tail in sig_keys(rest, n):
            yield (v,) + tail


def subset_iter(n: int) -> range:
    return range(1 << n)


def complement(J: int, n: int) -> int:
    return ((1 << n) - 1) ^ J


def qJ(J: int, n: int) -> LaurentPoly:
    """The monomial q^J = prod_{j in J} (-1)^{n-j+1} q^{2(n-j)+1}."""
    e, sign = 0, 1
    for j in range(1, n + 1):
        if J >> (j - 1) & 1:
            e += 2 * (n - j) + 1
            if (n - j + 1) % 2:
                sign = -sign
    return LaurentPoly.q_pow(e, sign)


def weight(J: int, n: int) -> tuple[Fraction, ...]:
    """wt(x_J) = (1/2)(sum_{i not in J} eps_i - sum_{i in J} eps_i)."""
    return tuple(Fraction(-1, 2) if J >> (i - 1) & 1 else Fraction(1, 2) for i in range(1, n + 1))


def is_dominant(wt: tuple) -> bool:
    """Whether a weight (in the eps basis, any scale) is dominant for
    so(2n+1): wt_1 >= ... >= wt_n >= 0."""
    return wt[-1] >= 0 and all(a >= b for a, b in zip(wt, wt[1:]))


def doubled_weight(key: Key, n: int) -> tuple[int, ...]:
    """Twice the total weight of a basis key of S^(x)m: coordinate j is the
    number of factors without j minus the number with j."""
    return tuple(sum(-1 if J >> j & 1 else 1 for J in key) for j in range(n))


def dominant_keys(m: int, n: int) -> list[Key]:
    """The basis keys of S^(x)m whose total weight is dominant, in order."""
    keys = itertools.product(range(1 << n), repeat=m)
    return [k for k in keys if is_dominant(doubled_weight(k, n))]


def weight_V(v: int, n: int) -> tuple[Fraction, ...]:
    wt = [Fraction(0)] * n
    if v < n:
        wt[v] = Fraction(1)
    elif v > n:
        wt[2 * n - v] = Fraction(-1)
    return tuple(wt)


def alpha_pairing(i: int, wt: tuple[Fraction, ...], n: int) -> Fraction:
    """(alpha_i, wt) with the type B inner product (eps_a, eps_b) = 2 delta."""
    if i < n:
        return 2 * (wt[i - 1] - wt[i])
    return 2 * wt[n - 1]


def coroot_pairing(i: int, wt: tuple[Fraction, ...], n: int) -> Fraction:
    if i < n:
        return wt[i - 1] - wt[i]
    return 2 * wt[n - 1]


_R_ONE = RatFunc.one()
_ZERO_POLY = LaurentPoly.zero()


def _den_order(den: LaurentPoly) -> tuple:
    return tuple(sorted(den.c.items()))


class LinOp:
    """A sparse linear operator between tensor products of S and V_1 factors.

    Stored as a column map: domain basis key -> {codomain basis key ->
    RatFunc}.  Missing columns are zero.
    """

    __slots__ = ("n", "dom", "cod", "cols")

    def __init__(self, n: int, dom: Sig, cod: Sig, cols: dict[Key, dict[Key, RatFunc]] | None = None):
        self.n = n
        self.dom = tuple(dom)
        self.cod = tuple(cod)
        self.cols = cols if cols is not None else {}

    # -- construction ----------------------------------------------------

    @staticmethod
    def identity(sig: Sig, n: int) -> "LinOp":
        cols = {k: {k: _R_ONE} for k in sig_keys(tuple(sig), n)}
        return LinOp(n, sig, sig, cols)

    @staticmethod
    def zero(dom: Sig, cod: Sig, n: int) -> "LinOp":
        return LinOp(n, dom, cod, {})

    def set_entry(self, dom_key: Key, cod_key: Key, value: RatFunc | LaurentPoly) -> None:
        if isinstance(value, LaurentPoly):
            value = RatFunc.from_poly(value)
        if value.is_zero():
            return
        self.cols.setdefault(dom_key, {})[cod_key] = value

    # -- linear structure -------------------------------------------------

    def _check_same_shape(self, other: "LinOp") -> None:
        if self.dom != other.dom or self.cod != other.cod:
            raise ValueError(f"shape mismatch: {self.dom}->{self.cod} vs {other.dom}->{other.cod}")

    def __add__(self, other: "LinOp") -> "LinOp":
        self._check_same_shape(other)
        cols: dict[Key, dict[Key, RatFunc]] = {}
        for k in self.cols.keys() | other.cols.keys():
            col = dict(self.cols.get(k, ()))
            for j, c in other.cols.get(k, {}).items():
                s = col.get(j)
                s = c if s is None else s + c
                if s.is_zero():
                    col.pop(j, None)
                else:
                    col[j] = s
            if col:
                cols[k] = col
        return LinOp(self.n, self.dom, self.cod, cols)

    def __neg__(self) -> "LinOp":
        return self.scale(-1)

    def __sub__(self, other: "LinOp") -> "LinOp":
        return self + other.scale(-1)

    def scale(self, c) -> "LinOp":
        if isinstance(c, (int, Fraction, LaurentPoly)):
            c = RatFunc.from_poly(c if isinstance(c, LaurentPoly) else LaurentPoly.const(c))
        if c.is_zero():
            return LinOp.zero(self.dom, self.cod, self.n)
        cols = {k: {j: v * c for j, v in col.items()} for k, col in self.cols.items()}
        return LinOp(self.n, self.dom, self.cod, cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinOp):
            return NotImplemented
        return self.dom == other.dom and self.cod == other.cod and self.cols == other.cols

    def is_zero(self) -> bool:
        return not self.cols

    # -- composition -------------------------------------------------------

    def apply_column(self, col: dict[Key, RatFunc]) -> dict[Key, RatFunc]:
        """self applied to one column.

        Each output entry is summed per denominator: numerators over a
        common denominator add as Laurent polynomials, with no gcd, and the
        per-denominator sums are added in a fixed order of denominators.
        So the cost does not depend on the order of the entries."""
        sums: dict[Key, list] = {}
        for j, c in col.items():
            target = self.cols.get(j)
            if not target:
                continue
            for i, a in target.items():
                num = a.num * c.num
                acc = sums.get(i)
                if acc is None:
                    acc = sums[i] = [_ZERO_POLY, {}]
                if a.den.is_one() and c.den.is_one():
                    acc[0] = acc[0] + num
                else:
                    den = a.den * c.den
                    by_den = acc[1]
                    s = by_den.get(den)
                    by_den[den] = num if s is None else s + num
        out: dict[Key, RatFunc] = {}
        for i, (poly, by_den) in sums.items():
            s = RatFunc.from_poly(poly)
            for den in sorted(by_den, key=_den_order):
                s = s + RatFunc(by_den[den], den)
            if s:
                out[i] = s
        return out

    def __matmul__(self, other: "LinOp") -> "LinOp":
        """self after other."""
        if other.cod != self.dom:
            raise ValueError(f"signature mismatch: {other.cod} -> {self.dom}")
        cols: dict[Key, dict[Key, RatFunc]] = {}
        for k, col in other.cols.items():
            new = self.apply_column(col)
            if new:
                cols[k] = new
        return LinOp(self.n, other.dom, self.cod, cols)

    def tensor(self, other: "LinOp") -> "LinOp":
        cols: dict[Key, dict[Key, RatFunc]] = {}
        for k1, col1 in self.cols.items():
            for k2, col2 in other.cols.items():
                col: dict[Key, RatFunc] = {}
                for j1, c1 in col1.items():
                    for j2, c2 in col2.items():
                        col[j1 + j2] = c1 * c2
                cols[k1 + k2] = col
        return LinOp(self.n, self.dom + other.dom, self.cod + other.cod, cols)

    def embed(self, left: int, right: int, keys: Iterable[Key]) -> "LinOp":
        """The columns at keys of id^{(x) left} (x) self (x) id^{(x) right}, all
        identity factors S, built without the rest of the operator."""
        width = len(self.dom)
        cols = {}
        for k in keys:
            col = self.cols.get(k[left : left + width])
            if col:
                head, tail = k[:left], k[left + width :]
                cols[k] = {head + j + tail: v for j, v in col.items()}
        pad = ("S",)
        return LinOp(self.n, pad * left + self.dom + pad * right, pad * left + self.cod + pad * right, cols)

    # -- inspection ----------------------------------------------------------

    def entry(self, dom_key: Key, cod_key: Key) -> RatFunc:
        return self.cols.get(dom_key, {}).get(cod_key, RatFunc.zero())

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols.values())

    def dump_rows(self) -> list[tuple[list[int], list[int], str]]:
        """Canonically ordered (domain_key, codomain_key, scalar) triples."""
        rows = []
        for k in sorted(self.cols):
            for j in sorted(self.cols[k]):
                rows.append((list(k), list(j), str(self.cols[k][j])))
        return rows

    def __repr__(self) -> str:
        return f"LinOp({self.dom}->{self.cod}, n={self.n}, nnz={self.nnz()})"


# -- generator actions ------------------------------------------------------


def _factor_gen(kind: str, i: int, tag: str, n: int) -> LinOp:
    """The action of e_i, f_i, or k_i^{+-1} on a single S or V factor."""
    op = LinOp(n, (tag,), (tag,))
    if tag == "S":
        for J in subset_iter(n):
            if kind == "e":
                if i < n:
                    if J >> (i - 1) & 1 and not J >> i & 1:
                        op.set_entry((J,), (J & ~(1 << (i - 1)) | (1 << i),), LaurentPoly.one())
                else:
                    if J >> (n - 1) & 1:
                        op.set_entry((J,), (J & ~(1 << (n - 1)),), LaurentPoly.one())
            elif kind == "f":
                if i < n:
                    if J >> i & 1 and not J >> (i - 1) & 1:
                        op.set_entry((J,), (J & ~(1 << i) | (1 << (i - 1)),), LaurentPoly.one())
                else:
                    if not J >> (n - 1) & 1:
                        op.set_entry((J,), (J | (1 << (n - 1)),), LaurentPoly.one())
            else:
                e = alpha_pairing(i, weight(J, n), n)
                if kind == "k_inv":
                    e = -e
                assert e.denominator == 1
                op.set_entry((J,), (J,), LaurentPoly.q_pow(int(e)))
        return op

    a = lambda j: j - 1  # noqa: E731  (basis encoders)
    u = n
    b = lambda j: 2 * n + 1 - j  # noqa: E731
    if kind in ("k", "k_inv"):
        for v in range(2 * n + 1):
            e = alpha_pairing(i, weight_V(v, n), n)
            if kind == "k_inv":
                e = -e
            op.set_entry((v,), (v,), LaurentPoly.q_pow(int(e)))
        return op
    if kind == "f":
        if i < n:
            op.set_entry((a(i),), (a(i + 1),), LaurentPoly.one())
            op.set_entry((b(i + 1),), (b(i),), LaurentPoly.one())
        else:
            op.set_entry((a(n),), (u,), LaurentPoly.one())
            op.set_entry((u,), (b(n),), qint(2))
    else:
        if i < n:
            op.set_entry((a(i + 1),), (a(i),), LaurentPoly.one())
            op.set_entry((b(i),), (b(i + 1),), LaurentPoly.one())
        else:
            op.set_entry((b(n),), (u,), LaurentPoly.one())
            op.set_entry((u,), (a(n),), qint(2))
    return op


def spin_action(kind: str, i: int, n: int) -> LinOp:
    """Generator action on S; kind is one of "e", "f", "k", "k_inv"."""
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range for rank {n}")
    return _factor_gen(kind, i, "S", n)


def v1_action(kind: str, i: int, n: int) -> LinOp:
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range for rank {n}")
    return _factor_gen(kind, i, "V", n)


def coproduct_action(kind: str, i: int, sig: Sig, n: int) -> LinOp:
    """Iterated-coproduct action of a generator on a tensor product."""
    sig = tuple(sig)
    m = len(sig)
    if m == 0:
        # counit: k acts by 1, e and f act by 0
        return LinOp.identity((), n) if kind in ("k", "k_inv") else LinOp.zero((), (), n)
    if kind in ("k", "k_inv"):
        op = _factor_gen(kind, i, sig[0], n)
        for t in sig[1:]:
            op = op.tensor(_factor_gen(kind, i, t, n))
        return op
    total = LinOp.zero(sig, sig, n)
    for j in range(m):
        factors = []
        for t in range(m):
            if t < j:
                factors.append(
                    LinOp.identity((sig[t],), n) if kind == "e" else _factor_gen("k_inv", i, sig[t], n)
                )
            elif t == j:
                factors.append(_factor_gen(kind, i, sig[t], n))
            else:
                factors.append(
                    _factor_gen("k", i, sig[t], n) if kind == "e" else LinOp.identity((sig[t],), n)
                )
        term = factors[0]
        for f in factors[1:]:
            term = term.tensor(f)
        total = total + term
    return total


def is_intertwiner(op: LinOp, n: int) -> bool:
    """Check that op commutes with every generator (via the coproduct action)."""
    for i in range(1, n + 1):
        for kind in ("e", "f", "k"):
            lhs = coproduct_action(kind, i, op.cod, n) @ op
            rhs = op @ coproduct_action(kind, i, op.dom, n)
            if lhs != rhs:
                return False
    return True


# -- Lusztig's braid-group operator on S -------------------------------------


def lusztig_T(i: int, n: int) -> LinOp:
    """T_i(v) = sum over a, b >= 0 with b - a = <alpha_i^vee, wt v> of
    (-q_i)^b e_i^{(a)} f_i^{(b)} v, on S."""
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range for rank {n}")
    qi_exp = 2 if i < n else 1  # q_i = q^{qi_exp}
    e_op, f_op = spin_action("e", i, n), spin_action("f", i, n)

    op = LinOp(n, S_SIG, S_SIG)
    for J in subset_iter(n):
        pair = coroot_pairing(i, weight(J, n), n)
        assert pair.denominator == 1
        pair = int(pair)
        col: dict[Key, RatFunc] = {}
        # divided powers: on S every e_i^2 and f_i^2 vanish, but we keep the
        # general loop so the formula stays honest
        b = max(pair, 0)
        while True:
            a = b - pair
            vec: dict[Key, RatFunc] = {(J,): _R_ONE}
            fact = LaurentPoly.one()
            for t in range(1, b + 1):
                vec = f_op.apply_column(vec)
                fact = fact * qint_base(t, qi_exp)
            for t in range(1, a + 1):
                vec = e_op.apply_column(vec)
                fact = fact * qint_base(t, qi_exp)
            if not vec:
                break
            sign = LaurentPoly.q_pow(qi_exp * b, (-1) ** b)
            coeff = RatFunc(sign, fact)
            for k, c in vec.items():
                s = col.get(k)
                s = c * coeff if s is None else s + c * coeff
                col[k] = s
            b += 1
        col = {k: c for k, c in col.items() if not c.is_zero()}
        if col:
            op.cols[(J,)] = col
    return op


def w0_reduced_word(n: int) -> list[int]:
    """A reduced word for the longest Weyl element: the concatenation of the
    palindromic blocks s_i ... s_n ... s_i for i = n down to 1."""
    word: list[int] = []
    for i in range(n, 0, -1):
        word.extend(range(i, n + 1))
        word.extend(range(n - 1, i - 1, -1))
    return word


def lusztig_T_w0(n: int) -> LinOp:
    op = LinOp.identity(S_SIG, n)
    for i in reversed(w0_reduced_word(n)):
        op = op @ lusztig_T(i, n)
    return op


# -- cups, caps, trivalent maps, and H ----------------------------------------


def cup_n(n: int) -> LinOp:
    """The coevaluation 1 -> S (x) S, sending 1 to sum_I q^I x_{I^c} (x) x_I."""
    op = LinOp(n, (), ("S", "S"))
    col: dict[Key, RatFunc] = {}
    for I in subset_iter(n):
        col[(complement(I, n), I)] = RatFunc.from_poly(qJ(I, n))
    op.cols[()] = col
    return op


def cap_n(n: int) -> LinOp:
    """The evaluation S (x) S -> 1, sending x_I (x) x_J to q^{-I} delta_{J, I^c}."""
    op = LinOp(n, ("S", "S"), ())
    for I in subset_iter(n):
        op.set_entry((I, complement(I, n)), (), RatFunc(LaurentPoly.one(), qJ(I, n)))
    return op


def circle_value(n: int) -> LaurentPoly:
    """(-1)^{C(n+1,2)} prod_{i=1}^n (q^{2i-1} + q^{1-2i})."""
    return d_value(n).scale((-1) ** binom2(n + 1))


def closure_weight(nu: tuple[int, ...], m: int, n: int) -> LaurentPoly:
    """The product over the m factors x_B of a basis key of S^(x)m of the
    closure weight q^{B^c} / q^B, from the key's doubled weight nu:
    eps^m q^{sum_j (2n-2j+1) nu_j} with eps = (-1)^{C(n+1,2)} (every sign
    of qJ occurs once in q^{B^c} q^B)."""
    e = sum((2 * (n - j) + 1) * x for j, x in enumerate(nu, 1))
    return LaurentPoly.q_pow(e, (-1) ** (m * binom2(n + 1)))


def _phi1_pairs(n: int) -> dict[tuple[int, int], RatFunc]:
    """Nonzero values of the V_1 evaluation pairing (v, w) -> phi_1(v)(w)."""
    vals: dict[tuple[int, int], RatFunc] = {}
    mq2 = lambda k: LaurentPoly.q_pow(-2 * k, (-1) ** k)  # noqa: E731  ((-q^{-2})^k)
    for i in range(1, n + 1):
        vals[(i - 1, 2 * n + 1 - i)] = RatFunc.from_poly(mq2(i - 1))  # a_i against b_i
        vals[(2 * n + 1 - i, i - 1)] = RatFunc.from_poly(-mq2(2 * n - i))  # b_i against a_i
    vals[(n, n)] = RatFunc.from_poly(mq2(n) * qint(2))
    return vals


def cap_1(n: int) -> LinOp:
    op = LinOp(n, ("V", "V"), ())
    for (v, w), c in _phi1_pairs(n).items():
        op.set_entry((v, w), (), c)
    return op


def cup_1(n: int) -> LinOp:
    """1 -> V_1 (x) V_1 via v (x) phi_1^{-1}(v^*); inverts the pairing of cap_1."""
    op = LinOp(n, (), ("V", "V"))
    col: dict[Key, RatFunc] = {}
    for (v, w), c in _phi1_pairs(n).items():
        # cap_1(v (x) w) = c forces cup_1 to carry w (x) v with coefficient 1/c
        col[(w, v)] = c.inv()
    op.cols[()] = col
    return op


def _sigma(l: int, n: int) -> dict[int, int]:
    """The order-preserving bijection {2..n} -> {1..n} minus {l}."""
    targets = [j for j in range(1, n + 1) if j != l]
    return {src: tgt for src, tgt in zip(range(2, n + 1), targets)}


def _apply_sigma(I: int, sigma: dict[int, int]) -> int:
    out = 0
    for j, t in sigma.items():
        if I >> (j - 1) & 1:
            out |= 1 << (t - 1)
    return out


def Y1(n: int) -> LinOp:
    """The trivalent map V_1 -> S (x) S determined by its highest-weight value."""
    op = LinOp(n, ("V",), ("S", "S"))
    full = (1 << n) - 2  # subsets of {2..n} are submasks of this
    for l in range(1, n + 1):
        sig = _sigma(l, n)
        col_a: dict[Key, RatFunc] = {}
        col_b: dict[Key, RatFunc] = {}
        I = full
        while True:
            coeff = RatFunc.from_poly(qJ(I, n))
            rest = _apply_sigma(full ^ I, sig)
            img = _apply_sigma(I, sig)
            col_a[(rest, img)] = coeff
            bit = 1 << (l - 1)
            col_b[(rest | bit, img | bit)] = coeff
            if I == 0:
                break
            I = (I - 1) & full
        op.cols[(l - 1,)] = col_a
        op.cols[(2 * n + 1 - l,)] = col_b
    sig = _sigma(n, n)
    col_u: dict[Key, RatFunc] = {}
    I = full
    while True:
        coeff = qJ(I, n)
        rest = _apply_sigma(full ^ I, sig)
        img = _apply_sigma(I, sig)
        nbit = 1 << (n - 1)
        col_u[(rest | nbit, img)] = RatFunc.from_poly(coeff)
        col_u[(rest, img | nbit)] = RatFunc.from_poly(LaurentPoly.q_pow(-1) * coeff)
        if I == 0:
            break
        I = (I - 1) & full
    op.cols[(n,)] = col_u
    return op


def H(n: int) -> LinOp:
    """The basic intertwiner on S (x) S: two trivalent vertices joined by a
    V_1 edge, written out with explicit cups and caps."""
    idS = LinOp.identity(S_SIG, n)
    idSS = LinOp.identity(("S", "S"), n)
    inner = idS.tensor(cup_1(n)).tensor(idS)
    mid = idS.tensor(Y1(n)).tensor(Y1(n)).tensor(idS)
    outer = cap_n(n).tensor(idSS).tensor(cap_n(n))
    return outer @ (mid @ inner)
