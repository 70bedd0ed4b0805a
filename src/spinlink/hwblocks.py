"""The spin matrix trace on highest-weight multiplicity blocks.

A braid operator on S^(x)m commutes with U_q(so_{2n+1}), so it maps each
highest-weight space HW_lam (the vectors of dominant weight lam killed by
every e_i) to itself, and

  Tr_q(beta) = sum over dominant lam of qdim(L_lam) * tr(beta | HW_lam)

(Rosso-Jones 1993; the Racah-matrix method of Mironov-Morozov-Morozov 2012).
These spaces are small: at n = 3, m = 3 their dimensions add up to 10 and
none is larger than 4, against 40 dominant start states.

A basis of HW_lam is the common kernel of e_1..e_n on the keys of weight
lam, with e_i from the iterated coproduct in closed form (rep's convention
D(e) = e (x) k + 1 (x) e), found by sparse elimination over Z[v^{+-1}]:
unit pivots +-v^k first, a fraction-free step only when none is left.  Each
basis vector h_f is D at its own free key f and 0 at the other free keys, so
a crossing's block entry, the coefficient of h_f' in sigma h_f, is
(sigma h_f)[f'] / D, an exact division.  qdim(L_lam) is Weyl's product
formula, signed and evaluated as rep.closure_weight is.

Per word, the blocks are multiplied on Kronecker-packed ints (qalg._pack):
all blocks of one letter share its lowest exponent, the slot width comes
from the same product on the blocks' l1-norm matrices, and the sum over lam
is decoded once.  A letter's tables hang off its spinpoly.Crossing
(Crossing.blocks), so none outlives the images it was read from.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from . import qalg
from .qalg import LaurentPoly, _pack, _slot_bits, _unpack, qint
from .rep import _closure_form, dominant_keys, doubled_weight

_ONE = LaurentPoly.one()


def _raising(key: tuple, i: int, n: int) -> dict[tuple, int]:
    """e_i on a key of S^(x)m, sum_j 1 (x) ... (x) e_i (x) k_i (x) ... (x) k_i
    with e_i on factor j: {key': v-exponent}, every coefficient a power of v."""
    out, e = {}, 0  # e: the exponent of k_i on the factors right of j
    for j in range(len(key) - 1, -1, -1):
        J = key[j]
        a = J >> (i - 1) & 1
        if i < n:
            b = J >> i & 1
            if a and not b:
                out[key[:j] + (J ^ 3 << (i - 1),) + key[j + 1 :]] = e
            e += 4 * (b - a)  # k_i = q^(2 (w_i - w_(i+1))), w_j = 1/2 - (bit j-1 of J)
        else:
            if a:
                out[key[:j] + (J ^ 1 << (n - 1),) + key[j + 1 :]] = e
            e += 2 - 4 * a  # k_n = q^(2 w_n)
    return out


def _unit_inverse(x: LaurentPoly) -> LaurentPoly | None:
    """x^-1 if x is a unit +-v^k of Z[v^{+-1}], else None."""
    if len(x.c) == 1:
        ((e, c),) = x.c.items()
        if c in (1, -1):
            return LaurentPoly.v_pow(-e, c)
    return None


def _kernel(columns: list, rows: list[dict]) -> tuple[LaurentPoly, list[tuple]]:
    """The common kernel of the linear forms rows ({column: LaurentPoly}) as
    (D, [(f, h_f)]): one vector {column: LaurentPoly} per free column f, D at
    f and 0 at the other free columns.  Every row is reduced against each
    pivot in turn, so a pivot row holds its pivot and free columns only."""
    done: dict = {}  # pivot column -> its row
    rows = [row for row in rows if row]
    while rows:
        unit = next(((k, col) for k, row in enumerate(rows) for col, x in row.items()
                     if _unit_inverse(x) is not None), None)
        # fraction-free only when no unit is left: pivot on the shortest entry
        k, col = unit or min(((k, col) for k, row in enumerate(rows) for col in row),
                             key=lambda kc: len(rows[kc[0]][kc[1]].c))
        row = rows.pop(k)
        d = row[col]
        if unit:
            inv = _unit_inverse(d)
            row = {c: x * inv for c, x in row.items()}
        for other in (*rows, *done.values()):
            a = other.pop(col, None)
            if a is not None:
                if not unit:
                    for c, x in other.items():
                        other[c] = x * d
                for c, x in row.items():
                    if c != col:
                        s = other.get(c, LaurentPoly.zero()) - a * x
                        if s:
                            other[c] = s
                        else:
                            other.pop(c, None)
        rows = [other for other in rows if other]
        done[col] = row
    den = _ONE
    for col, row in done.items():
        d = row[col]
        if _unit_inverse(d) is None:
            den = den * qalg.poly_divexact(d, qalg.poly_gcd(den, d))
    den = den.shift(-den.v_valuation())  # a unit less, still a multiple of every pivot
    basis = []
    for f in columns:
        if f not in done:
            h = {f: den}
            for col, row in done.items():
                x = row.get(f)
                if x is not None:
                    d = row[col]
                    h[col] = -(x * den if d.is_one() else qalg.poly_divexact(x * den, d))
            basis.append((f, h))
    return den, basis


def _qdim(lam: tuple[int, ...], m: int, n: int) -> LaurentPoly:
    """qdim(L_lam) for the doubled weight lam, as the closure weights of its
    weights add up (rep._closure_form): Weyl's product over the positive roots
    e_i - e_j, e_i + e_j and e_i of B_n of [(lam + rho, a)] / [(rho, a)], in
    doubled coordinates, where 2 rho is the closure form's steps."""
    steps, sign = _closure_form(m, n)
    shifted = [x + s for x, s in zip(lam, steps)]
    num = den = _ONE
    for j, (a, s) in enumerate(zip(shifted, steps)):
        num, den = num * qint(a), den * qint(s)
        for b, t in zip(shifted[j + 1 :], steps[j + 1 :]):
            num, den = num * qint(a - b) * qint(a + b), den * qint(s - t) * qint(s + t)
    return qalg.poly_divexact(num, den).scale(sign)


class _Packable:
    """Laurent values, a list of matrices (one per highest-weight space), with
    low, their lowest exponent, norms, the matrices of their l1 norms, and
    packed(bits), the matrices packed at v^2 = 2^bits from v^low, one per width."""

    __slots__ = ("values", "low", "norms", "_packed")

    def __init__(self, values: list):
        self.values, self._packed = values, {}
        self.low = min(e for mat in values for row in mat for c in row for e in c.c)
        self.norms = self._map(lambda c: sum(map(abs, c.c.values())))

    def _map(self, entry) -> list:
        return [[[entry(c) for c in row] for row in mat] for mat in self.values]

    def packed(self, bits: int) -> list:
        if bits not in self._packed:
            self._packed[bits] = self._map(lambda c: _pack(c, self.low, 2, bits))
        return self._packed[bits]


class _Spaces:
    """The highest-weight spaces of S^(x)m, one per dominant weight lam with
    HW_lam nonzero: bases, the (D, [(f, h_f)]) of each, and qdims, the 1 x 1
    matrices [[qdim(L_lam)]]."""

    __slots__ = ("bases", "qdims")

    def __init__(self, n: int, m: int):
        keys: dict[tuple, list] = {}
        for key in dominant_keys(m, n):
            keys.setdefault(doubled_weight(key, n), []).append(key)
        self.bases, qdims = [], []
        for lam, columns in keys.items():
            rows: dict[tuple, dict] = {}  # one row per key of weight lam + alpha_i
            for key in columns:
                for i in range(1, n + 1):
                    for target, e in _raising(key, i, n).items():
                        rows.setdefault(target, {})[key] = LaurentPoly.v_pow(e)
            den, basis = _kernel(columns, list(rows.values()))
            if basis:
                self.bases.append((den, basis))
                qdims.append([[_qdim(lam, m, n)]])
        self.qdims = _Packable(qdims)


_spaces = lru_cache(maxsize=8)(_Spaces)


def _blocks(crossing, i: int, bases: list) -> list:
    """Per space, the matrix of the crossing on strands i, i+1: row r holds the
    coefficients of sigma h_f on the basis, (sigma h_f)[f'] / D, for the r-th
    h_f.  With D = 1 they are Laurent by construction; else a division that is
    not exact raises ValueError."""
    mats = []
    for den, basis in bases:
        position = {f: r for r, (f, _) in enumerate(basis)}
        mat = []
        for _, h in basis:
            row = [LaurentPoly.zero()] * len(basis)
            for key, x in h.items():
                head, tail = key[: i - 1], key[i + 1 :]
                for pair, c in crossing[key[i - 1 : i + 1]].items():
                    r = position.get(head + pair + tail)
                    if r is not None:
                        row[r] = row[r] + c * x
            mat.append(row if den.is_one() else [qalg.poly_divexact(x, den) for x in row])
        mats.append(mat)
    return mats


def _letter(crossing, i: int, n: int, m: int) -> _Packable:
    """The crossing's blocks on strands i, i+1 of S^(x)m, built on first use."""
    key = (m, i)
    if key not in crossing.blocks:
        crossing.blocks[key] = _Packable(_blocks(crossing, i, _spaces(n, m).bases))
    return crossing.blocks[key]


def _traces(letters: list) -> list:
    """Per space, the trace of the product of its matrices, one per letter, the
    first on the left."""
    out = []
    for prod, *rest in zip(*letters):
        for mat in rest:
            cols = list(zip(*mat))
            prod = [[sum(map(mul, row, col)) for col in cols] for row in prod]
        out.append(sum(row[r] for r, row in enumerate(prod)))
    return out


def block_trace(crossings: list, n: int, m: int) -> LaurentPoly:
    """Tr_q on S^(x)m of the product of the crossings (i, Crossing), the first
    acting first: sum over lam of qdim(L_lam) times the trace of the product of
    the blocks, on packed ints decoded once."""
    spaces = _spaces(n, m)
    if not crossings:
        return sum((q.scale(len(basis)) for ((q,),), (_, basis) in zip(spaces.qdims.values, spaces.bases)),
                   LaurentPoly.zero())
    letters = [_letter(crossing, i, n, m) for i, crossing in crossings]
    qdims = spaces.qdims
    bound = sum(q * t for ((q,),), t in zip(qdims.norms, _traces([letter.norms for letter in letters])))
    bits = _slot_bits(bound)
    total = sum(q * t for ((q,),), t in zip(qdims.packed(bits), _traces([letter.packed(bits) for letter in letters])))
    return _unpack(total, bits, qdims.low + sum(letter.low for letter in letters), 2)
