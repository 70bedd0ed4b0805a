"""The quantum so(2n+1) spin representation S and its basic intertwiners.

S is 2^n-dimensional with basis x_J indexed by subsets J of {1..n},
encoded as bitmasks (bit j-1 set iff j is in J).  The vector
representation V_1 is (2n+1)-dimensional with ordered basis
a_1..a_n, u, b_n..b_1, encoded as integers 0..2n.

All operators are sparse column maps of Laurent polynomials over one
canonical global denominator (LinOp), the only operator type of the
package: the intertwiners here, X^(k) and the braiding have denominator
1, so their products, sums and comparisons never reduce a rational
function.  A LinOp knows its domain and codomain signatures (a tuple of
factor tags "S" or "V"), and composition/tensoring is only defined when
signatures match up.  Conventions for the quantum group follow the
standard Hopf structure D(e) = e (x) k + 1 (x) e, D(f) = f (x) 1 +
k^{-1} (x) f, with q_i = q^2 on the long simple roots and q_n = q on the
short one.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from . import qalg
from .qalg import LaurentPoly, RatFunc, binom2, d_value, qint, qint_base

Key = tuple[int, ...]
Sig = tuple[str, ...]

S_SIG: Sig = ("S",)
V_SIG: Sig = ("V",)


def factor_dim(tag: str, n: int) -> int:
    return (1 << n) if tag == "S" else 2 * n + 1


def sig_keys(sig: Sig, n: int) -> Iterable[Key]:
    """Every basis key of the tensor product sig, in lexicographic order."""
    return itertools.product(*(range(factor_dim(tag, n)) for tag in sig))


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


def doubled_weight(key: Key, n: int) -> tuple[int, ...]:
    """Twice the total weight of a basis key of S^(x)m: coordinate j is the
    number of factors without j minus the number with j."""
    return tuple(sum(-1 if J >> j & 1 else 1 for J in key) for j in range(n))


def dominant_keys(m: int, n: int) -> list[Key]:
    """The basis keys of S^(x)m whose total weight is dominant, in order.  If
    c_j of the m factors hold j, coordinate j of the doubled weight is
    m - 2 c_j, so the weight is dominant iff c_1 <= ... <= c_n <= m/2: each
    such count vector gives the keys that choose c_j factors for each j."""
    return sorted(
        tuple(sum(1 << j for j, row in enumerate(rows) if i in row) for i in range(m))
        for counts in itertools.combinations_with_replacement(range(m // 2 + 1), n)
        for rows in itertools.product(*(itertools.combinations(range(m), c) for c in counts))
    )


@lru_cache(maxsize=256)
def orbit_sum(nu: tuple[int, ...], steps: tuple[int, ...], signed: bool) -> LaurentPoly:
    """Sum of q^{steps . nu'} over the distinct rearrangements nu' of nu (the S_N
    orbit) and, if signed, their sign changes too (the W(B_n) orbit).  Values
    are placed one position at a time; partial sums merge by what is left."""
    layer = {tuple(sorted(abs(x) if signed else x for x in nu)): LaurentPoly.one()}
    for step in steps:
        nxt: dict[tuple[int, ...], LaurentPoly] = {}
        for rest, poly in layer.items():
            for k in set(rest):
                j = rest.index(k)
                key = rest[:j] + rest[j + 1 :]
                term = poly.shift(2 * step * k)
                if signed and k:
                    term = term + poly.shift(-2 * step * k)
                nxt[key] = nxt[key] + term if key in nxt else term
        layer = nxt
    return layer[()]


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


_ONE = LaurentPoly.one()


def _cofactors(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """(a', b') with a * b' = b * a' = lcm(a, b), for canonical denominators."""
    if a == b:
        return _ONE, _ONE
    g = qalg.poly_gcd(a, b)
    return qalg.poly_divexact(a, g), qalg.poly_divexact(b, g)


def _cols_times(cols: dict, c: LaurentPoly) -> dict:
    return cols if c.is_one() else {k: {j: v * c for j, v in col.items()} for k, col in cols.items()}


class LinOp:
    """A sparse linear operator between tensor products of S and V_1 factors.

    Stored as a column map, domain basis key -> {codomain basis key ->
    LaurentPoly}, over one global denominator den: the entry at (k, j) is
    cols[k][j] / den.  Missing columns are zero.  The form is canonical: den
    has integer coefficients with content 1, a positive leading coefficient
    and valuation 0, and no factor of den divides every entry, so den is the
    lcm of the entries' reduced denominators (1 when every entry is a
    Laurent polynomial, which costs nothing to keep).  Equality is therefore
    structural, and products, sums and scalings multiply and add Laurent
    polynomials.  Only a nontrivial den is ever reduced, and by exact
    division: reduced divides every entry by a running divisor and takes a
    gcd only when that divisor drops, and scale by a Laurent polynomial
    takes one scalar gcd.  entry() and set_entry() read and write an
    entry's value, never its numerator.
    """

    __slots__ = ("n", "dom", "cod", "cols", "den")

    def __init__(self, n: int, dom: Sig, cod: Sig, cols: dict[Key, dict[Key, LaurentPoly]] | None = None,
                 den: LaurentPoly = _ONE):
        # cols / den must be canonical already; LinOp.reduced brings any pair to that form
        self.n = n
        self.dom = tuple(dom)
        self.cod = tuple(cod)
        self.cols = cols if cols is not None else {}
        self.den = den

    # -- construction ----------------------------------------------------

    @staticmethod
    def identity(sig: Sig, n: int) -> "LinOp":
        cols = {k: {k: _ONE} for k in sig_keys(tuple(sig), n)}
        return LinOp(n, sig, sig, cols)

    @staticmethod
    def zero(dom: Sig, cod: Sig, n: int) -> "LinOp":
        return LinOp(n, dom, cod, {})

    @staticmethod
    def reduced(n: int, dom: Sig, cod: Sig, cols: dict, den: LaurentPoly) -> "LinOp":
        """The operator cols / den in canonical form, for a canonical den:
        den and every entry are divided by their common factor.

        A running divisor g starts at den, and each entry is divided by it
        exactly (qalg.poly_quotient).  Only an entry that g does not divide
        costs a gcd: g drops to g' = gcd(g, entry), and the quotients kept
        so far are multiplied by g / g'.  If g' is 1 the input is returned
        as it stands.  g always divides den and every entry seen, and is a
        multiple of their common factor, so at the end it is that factor.
        qalg's functions are looked up at call time, so a wrapper there (the
        benchmark tracer's qalg.poly_gcd counter) sees every call."""
        if den.is_one() or not cols:
            return LinOp(n, dom, cod, cols)
        g = den
        out: dict[Key, dict[Key, LaurentPoly]] = {}
        for k, col in cols.items():
            new = out[k] = {}
            for j, v in col.items():
                w = qalg.poly_quotient(v, g)
                if w is None:
                    h = qalg.poly_gcd(g, v)
                    if h.is_one():
                        return LinOp(n, dom, cod, cols, den)
                    ratio = qalg.poly_divexact(g, h)
                    for done in out.values():
                        for i, u in done.items():
                            done[i] = u * ratio
                    g = h
                    w = qalg.poly_divexact(v, g)
                new[j] = w
        return LinOp(n, dom, cod, out, _ONE if g is den else qalg.poly_divexact(den, g))

    def set_entry(self, dom_key: Key, cod_key: Key, value: RatFunc | LaurentPoly) -> None:
        """Write the value of one entry; zero removes it."""
        num, den = (value.num, value.den) if isinstance(value, RatFunc) else (value, _ONE)
        mine, theirs = _cofactors(self.den, den)
        cols = dict(_cols_times(self.cols, theirs))  # operators may share column maps: copy what changes
        col = dict(cols.get(dom_key, ()))
        num = num * mine
        if num:
            col[cod_key] = num
        else:
            col.pop(cod_key, None)
        if col:
            cols[dom_key] = col
        else:
            cols.pop(dom_key, None)
        op = LinOp.reduced(self.n, self.dom, self.cod, cols, self.den * theirs)
        self.cols, self.den = op.cols, op.den

    # -- linear structure -------------------------------------------------

    def _check_same_shape(self, other: "LinOp") -> None:
        if self.dom != other.dom or self.cod != other.cod:
            raise ValueError(f"shape mismatch: {self.dom}->{self.cod} vs {other.dom}->{other.cod}")

    def __add__(self, other: "LinOp") -> "LinOp":
        self._check_same_shape(other)
        da, db = _cofactors(self.den, other.den)
        a, b = _cols_times(self.cols, db), _cols_times(other.cols, da)
        cols: dict[Key, dict[Key, LaurentPoly]] = {}
        for k in a.keys() | b.keys():
            col = dict(a.get(k, ()))
            for j, c in b.get(k, {}).items():
                s = col.get(j)
                s = c if s is None else s + c
                if s:
                    col[j] = s
                else:
                    col.pop(j, None)
            if col:
                cols[k] = col
        return LinOp.reduced(self.n, self.dom, self.cod, cols, self.den * db)

    def __neg__(self) -> "LinOp":
        return self.scale(-1)

    def __sub__(self, other: "LinOp") -> "LinOp":
        return self + other.scale(-1)

    def scale(self, c) -> "LinOp":
        """c times self, for c an int, Fraction, LaurentPoly or RatFunc.

        A Laurent c costs at most one gcd, g = gcd(c, den), and the result is
        cols * (c/g) over den/g with no reduction: c/g and den/g are coprime,
        so an irreducible factor of den/g that divided every entry of
        cols * (c/g) would divide every entry of cols and den, which the
        canonical form excludes.  A monomial c is a unit (g = 1).  A RatFunc
        with a denominator goes through reduced."""
        if isinstance(c, RatFunc):
            if not c.den.is_one():
                return LinOp.reduced(self.n, self.dom, self.cod, _cols_times(self.cols, c.num), self.den * c.den)
            c = c.num
        elif not isinstance(c, LaurentPoly):
            c = LaurentPoly.const(c)
        if not c:
            return LinOp.zero(self.dom, self.cod, self.n)
        if c.is_one():
            return self
        den = self.den
        if len(c.c) > 1 and not den.is_one():
            g = qalg.poly_gcd(c, den)
            if not g.is_one():
                c, den = qalg.poly_divexact(c, g), qalg.poly_divexact(den, g)
        return LinOp(self.n, self.dom, self.cod, _cols_times(self.cols, c), den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinOp):
            return NotImplemented
        return (self.dom == other.dom and self.cod == other.cod and self.den == other.den
                and self.cols == other.cols)

    def is_zero(self) -> bool:
        return not self.cols

    # -- composition -------------------------------------------------------

    def apply_column(self, col: dict[Key, LaurentPoly]) -> dict[Key, LaurentPoly]:
        """The numerators, over self.den, of self applied to one column of
        Laurent entries."""
        rows = self.cols
        sums: dict[Key, LaurentPoly] = {}
        for j, c in col.items():
            target = rows.get(j)
            if not target:
                continue
            for i, e in target.items():
                p = e * c
                s = sums.get(i)
                sums[i] = p if s is None else s + p
        return {i: s for i, s in sums.items() if s}

    def __matmul__(self, other: "LinOp") -> "LinOp":
        """self after other, column by column over Laurent numerators."""
        if other.cod != self.dom:
            raise ValueError(f"signature mismatch: {other.cod} -> {self.dom}")
        cols: dict[Key, dict[Key, LaurentPoly]] = {}
        for k, col in other.cols.items():
            new = self.apply_column(col)
            if new:
                cols[k] = new
        return LinOp.reduced(self.n, other.dom, self.cod, cols, self.den * other.den)

    def tensor(self, other: "LinOp") -> "LinOp":
        cols: dict[Key, dict[Key, LaurentPoly]] = {}
        for k1, col1 in self.cols.items():
            for k2, col2 in other.cols.items():
                cols[k1 + k2] = {j1 + j2: c1 * c2 for j1, c1 in col1.items() for j2, c2 in col2.items()}
        return LinOp.reduced(self.n, self.dom + other.dom, self.cod + other.cod, cols, self.den * other.den)

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
        return LinOp.reduced(self.n, pad * left + self.dom + pad * right, pad * left + self.cod + pad * right,
                             cols, self.den)

    # -- inspection ----------------------------------------------------------

    def entry(self, dom_key: Key, cod_key: Key) -> RatFunc:
        v = self.cols.get(dom_key, {}).get(cod_key)
        if v is None:
            return RatFunc.zero()
        return RatFunc.from_poly(v) if self.den.is_one() else RatFunc(v, self.den)

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols.values())

    def dump_rows(self) -> list[tuple[list[int], list[int], str]]:
        """Canonically ordered (domain_key, codomain_key, scalar) triples."""
        return [(list(k), list(j), str(self.entry(k, j))) for k in sorted(self.cols) for j in sorted(self.cols[k])]

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
        # general loop so the formula stays honest; e_i and f_i have Laurent
        # entries (den 1), so apply_column gives the values of vec
        b = max(pair, 0)
        while True:
            a = b - pair
            vec: dict[Key, LaurentPoly] = {(J,): _ONE}
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
                col[k] = coeff * c if s is None else s + coeff * c
            b += 1
        for k, c in col.items():
            op.set_entry((J,), k, c)
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
    op.cols[()] = {(complement(I, n), I): qJ(I, n) for I in subset_iter(n)}
    return op


def cap_n(n: int) -> LinOp:
    """The evaluation S (x) S -> 1, sending x_I (x) x_J to q^{-I} delta_{J, I^c}."""
    op = LinOp(n, ("S", "S"), ())
    for I in subset_iter(n):
        op.set_entry((I, complement(I, n)), (), qJ(I, n) ** -1)
    return op


def circle_value(n: int) -> LaurentPoly:
    """(-1)^{C(n+1,2)} prod_{i=1}^n (q^{2i-1} + q^{1-2i})."""
    return d_value(n).scale((-1) ** binom2(n + 1))


def _closure_form(m: int, n: int) -> tuple[tuple[int, ...], int]:
    """(steps, sign) with closure_weight = sign q^{steps . nu}: steps_j = 2n-2j+1, and
    sign = (-1)^{m C(n+1,2)}, as every sign of qJ occurs once in q^{B^c} q^B."""
    return tuple(range(2 * n - 1, 0, -2)), (-1) ** (m * binom2(n + 1))


def closure_weight(nu: tuple[int, ...], m: int, n: int) -> LaurentPoly:
    """The closure weight prod q^{B^c} / q^B of a key of S^(x)m, from its doubled weight nu."""
    steps, sign = _closure_form(m, n)
    return LaurentPoly.q_pow(sum(s * x for s, x in zip(steps, nu)), sign)


def closure_orbit_sum(nu: tuple[int, ...], m: int, n: int) -> LaurentPoly:
    """The sum of closure_weight over the W(B_n) orbit of the doubled weight nu."""
    steps, sign = _closure_form(m, n)
    return orbit_sum(nu, steps, True).scale(sign)


def _phi1_pairs(n: int) -> dict[tuple[int, int], LaurentPoly]:
    """Nonzero values of the V_1 evaluation pairing (v, w) -> phi_1(v)(w)."""
    vals: dict[tuple[int, int], LaurentPoly] = {}
    mq2 = lambda k: LaurentPoly.q_pow(-2 * k, (-1) ** k)  # noqa: E731  ((-q^{-2})^k)
    for i in range(1, n + 1):
        vals[(i - 1, 2 * n + 1 - i)] = mq2(i - 1)  # a_i against b_i
        vals[(2 * n + 1 - i, i - 1)] = -mq2(2 * n - i)  # b_i against a_i
    vals[(n, n)] = mq2(n) * qint(2)
    return vals


def cap_1(n: int) -> LinOp:
    op = LinOp(n, ("V", "V"), ())
    for (v, w), c in _phi1_pairs(n).items():
        op.set_entry((v, w), (), c)
    return op


def cup_1(n: int) -> LinOp:
    """1 -> V_1 (x) V_1 via v (x) phi_1^{-1}(v^*); inverts the pairing of cap_1."""
    op = LinOp(n, (), ("V", "V"))
    for (v, w), c in _phi1_pairs(n).items():
        # cap_1(v (x) w) = c forces cup_1 to carry w (x) v with coefficient 1/c
        op.set_entry((), (w, v), RatFunc(_ONE, c))
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
        col_a: dict[Key, LaurentPoly] = {}
        col_b: dict[Key, LaurentPoly] = {}
        I = full
        while True:
            coeff = qJ(I, n)
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
    col_u: dict[Key, LaurentPoly] = {}
    I = full
    while True:
        coeff = qJ(I, n)
        rest = _apply_sigma(full ^ I, sig)
        img = _apply_sigma(I, sig)
        nbit = 1 << (n - 1)
        col_u[(rest | nbit, img)] = coeff
        col_u[(rest, img | nbit)] = LaurentPoly.q_pow(-1) * coeff
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
