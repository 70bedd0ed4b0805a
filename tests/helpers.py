"""Code that only the tests run.

normalize is the symbolic engine's rewriting (iqsym._reduce_top) as an
AlgElement map, markov_suite checks the Markov moves on the matrix route, and
all_word_traces is the criterion-10 sweep, computed once per rank.

The exponent-dict trace kernel is the oracle of the packed kernel
(spinpoly._step, _diagonal, _packed_trace) that the type A route and the spin
route on four or more strands run.

The block reader (hw_spaces, crossing_blocks, block_trace_from_crossings) is
the oracle of hwblocks: it finds each highest-weight space by elimination and
reads a crossing's blocks off its crossing data, where hwblocks builds them
from eigenvalues and cap pins.  The two share only hwblocks._qdim.
A crossing is (i, image): it acts on strands i, i+1 of a state, and image(pair)
is the {pair': LaurentPoly} image of the pair on those strands (None or empty
if it has none).  Vector coefficients are {v-exponent: coeff} dicts, products
are accumulated in place, and a LaurentPoly is built only for the diagonal.
"""

from fractions import Fraction
from functools import lru_cache

from spinlink import iqsym, qalg
from spinlink.hwblocks import _qdim
from spinlink.iqsym import AlgElement
from spinlink.qalg import GradedScalar, LaurentPoly, report_entry
from spinlink.rep import LinOp, dominant_keys, doubled_weight, sig_keys
from spinlink.spinpoly import BraidWord, eval_spin, stabilization_factor, sweep_raw_traces
from spinlink.xcalc import braiding


def from_json_terms(terms) -> GradedScalar:
    """Inverse of GradedScalar.json_terms (offsets re-split canonically)."""
    total = GradedScalar.zero()
    for en, ed, cn, cd in terms:
        ex = Fraction(en, ed)
        total = total + GradedScalar(ex, LaurentPoly.const(Fraction(cn, cd)))
    return total


_sweep_cache: dict = {}


def all_word_traces(n: int) -> dict:
    """Raw traces of every signed 3-strand braid word of length <= 6, by the
    dominant-state sweep; computed once per rank and shared by the tests."""
    if n not in _sweep_cache:
        _sweep_cache[n] = sweep_raw_traces(3, n, 6)
    return _sweep_cache[n]


def r_on_strands(i: int, m: int, n: int, inverse: bool = False, fam=None) -> LinOp:
    """The braiding acting on strands (i, i+1) of S^{(x) m}."""
    if not 1 <= i <= m - 1:
        raise ValueError(f"strand index {i} out of range for {m} strands")
    r = braiding(n, fam, -1 if inverse else 1)
    return r.embed(i - 1, m - i - 1, sig_keys(("S",) * m, n))


def crossing_step(vec: dict, i: int, image) -> dict:
    """One crossing on strands i, i+1 applied to a sparse vector of states."""
    new: dict = {}
    for key, coeff in vec.items():
        img = image(key[i - 1 : i + 1])
        if not img:
            continue
        head, tail, terms = key[: i - 1], key[i + 1 :], coeff.items()
        for pair, c in img.items():
            acc = new.setdefault(head + pair + tail, {})
            for e1, c1 in c.c.items():
                for e2, c2 in terms:
                    acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    out = {}
    for key, acc in new.items():
        acc = {e: c for e, c in acc.items() if c}
        if acc:
            out[key] = acc
    return out


def closing_diagonal(vec: dict, i: int, image, start: tuple) -> LaurentPoly:
    """The entry at `start` of crossing_step(vec, i, image), read off without
    building the rest of the vector: the last crossing of a word only feeds
    the diagonal, so only the keys that agree with start outside strands i,
    i+1 are looked up, each at its image entry on start's pair."""
    head, tail, target = start[: i - 1], start[i + 1 :], start[i - 1 : i + 1]
    acc: dict = {}
    for key, coeff in vec.items():
        if key[: i - 1] == head and key[i + 1 :] == tail:
            c = (image(key[i - 1 : i + 1]) or {}).get(target)
            if c is not None:
                for e1, c1 in c.c.items():
                    for e2, c2 in coeff.items():
                        acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return LaurentPoly(acc)


def weighted_trace(crossings: list, states) -> LaurentPoly:
    """The sum over (start, weight) in states of weight times the diagonal
    entry at start of the crossings' product; the first crossing acts first."""
    if not crossings:
        return sum((weight for _, weight in states), LaurentPoly.zero())
    *body, (i, image) = crossings
    total = LaurentPoly.zero()
    for start, weight in states:
        vec = {start: {0: 1}}
        for j, img in body:
            vec = crossing_step(vec, j, img)
        total = total + closing_diagonal(vec, i, image, start) * weight
    return total


def normalize(elem: AlgElement, m: int, n: int) -> AlgElement:
    """Rewrite every word on m strands so that the top strand index m-1
    occurs at most once (the form the trace rule strips off)."""
    if n > 3:
        raise ValueError("symbolic rewriting needs the rank <= 3 relation tables")
    out = AlgElement(n, {}, canonical=True)
    for word, coeff in elem.terms.items():
        reduced = iqsym._decoded(lambda bits: iqsym._reduce_top(word, m - 1, n, bits))
        out = out + AlgElement(n, reduced, canonical=True).scale(coeff)
    return out


def markov_suite(braid: BraidWord, n: int) -> list[dict]:
    """Exercise the Markov moves on one braid: cyclic rotation and
    conjugation invariance of the raw trace, the exact nu^{+-1} factor
    under stabilization, the mirror rule, and full invariance of the
    unframed normalization."""
    report = []

    def entry(name, ok, witness=None):
        params = {"n": n, "strands": braid.strands, "word": list(braid.letters)}
        report.append(report_entry(name, params, ok, witness))

    base = eval_spin(braid, n)
    m = braid.strands

    ok, witness = True, None
    for cut in range(1, len(braid.letters)):
        rotated = BraidWord(m, braid.letters[cut:] + braid.letters[:cut])
        got = eval_spin(rotated, n)
        if got != base:
            ok, witness = False, f"rotation at {cut}: {got} != {base}"
            break
    entry("cyclic-rotation", ok, witness)

    ok, witness = True, None
    for g in range(1, m):
        for sign in (1, -1):
            conj = BraidWord(m, ((g, sign),) + braid.letters + ((g, -sign),))
            got = eval_spin(conj, n)
            if got != base:
                ok, witness = False, f"conjugation by ({g},{sign})"
                break
    entry("conjugation", ok, witness)

    nu = stabilization_factor(n)
    ok, witness = True, None
    for sign in (1, -1):
        stab = BraidWord(m + 1, braid.letters + ((m, sign),))
        got = eval_spin(stab, n)
        want = base * (nu if sign > 0 else nu.inv())
        if got != want:
            ok, witness = False, f"stabilization sign {sign}"
    entry("stabilization-factor", ok, witness)

    got = eval_spin(braid, n, mirror=True)
    entry("mirror-rule", got == base.bar())

    ok, witness = True, None
    base_u = eval_spin(braid, n, normalization="unframed")
    moves = [BraidWord(m + 1, braid.letters + ((m, 1),)), BraidWord(m + 1, braid.letters + ((m, -1),))]
    if braid.letters:
        moves.append(BraidWord(m, braid.letters[1:] + braid.letters[:1]))
    for g in range(1, m):
        moves.append(BraidWord(m, ((g, 1),) + braid.letters + ((g, -1),)))
    for mv in moves:
        if eval_spin(mv, n, normalization="unframed") != base_u:
            ok, witness = False, "unframed changed under a Markov move"
            break
    entry("unframed-invariance", ok, witness)
    return report


# -- highest-weight blocks read off crossing data: the oracle of hwblocks ----


def raising(key: tuple, i: int, n: int) -> dict[tuple, int]:
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


def hw_kernel(columns: list, rows: list[dict]) -> tuple[LaurentPoly, list[tuple]]:
    """The common kernel of the linear forms rows ({column: LaurentPoly}) as
    (D, [(f, h_f)]): one vector {column: LaurentPoly} per free column f, D at
    f and 0 at the other free columns.  Sparse elimination over Z[v^{+-1}]:
    unit pivots +-v^k first, a fraction-free step only when none is left.
    Every row is reduced against each pivot in turn, so a pivot row holds its
    pivot and free columns only."""
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
    den = LaurentPoly.one()
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


class HWSpaces:
    """The highest-weight spaces of S^(x)m, one per dominant weight lam with
    HW_lam nonzero, by elimination on the keys of weight lam: weights, bases
    (the (D, [(f, h_f)]) of each) and qdims."""

    def __init__(self, n: int, m: int):
        keys: dict[tuple, list] = {}
        for key in dominant_keys(m, n):
            keys.setdefault(doubled_weight(key, n), []).append(key)
        self.weights, self.bases, self.qdims = [], [], []
        for lam, columns in keys.items():
            rows: dict[tuple, dict] = {}  # one row per key of weight lam + alpha_i
            for key in columns:
                for i in range(1, n + 1):
                    for target, e in raising(key, i, n).items():
                        rows.setdefault(target, {})[key] = LaurentPoly.v_pow(e)
            den, basis = hw_kernel(columns, list(rows.values()))
            if basis:
                self.weights.append(lam)
                self.bases.append((den, basis))
                self.qdims.append(_qdim(lam, m, n))


hw_spaces = lru_cache(maxsize=8)(HWSpaces)


def crossing_blocks(crossing, i: int, bases: list) -> list:
    """Per space, the matrix of the crossing (a {pair: {pair': LaurentPoly}}
    map) on strands i, i+1: row r holds the coefficients of sigma h_f on the
    basis, (sigma h_f)[f'] / D, for the r-th h_f.  A division that is not
    exact raises ValueError."""
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


def block_trace_from_crossings(crossings: list, n: int, m: int) -> LaurentPoly:
    """Tr_q on S^(x)m of the product of the crossings (i, crossing), the first
    acting first: sum over lam of qdim(L_lam) times the trace of the product
    of the blocks read off the crossings."""
    spaces = hw_spaces(n, m)
    letters = [crossing_blocks(crossing, i, spaces.bases) for i, crossing in crossings]
    total = LaurentPoly.zero()
    for s, (q, (_, basis)) in enumerate(zip(spaces.qdims, spaces.bases)):
        prod = [[LaurentPoly.one() if r == c else LaurentPoly.zero() for c in range(len(basis))]
                for r in range(len(basis))]
        for mats in letters:
            cols = list(zip(*mats[s]))
            prod = [[sum((x * y for x, y in zip(row, col)), LaurentPoly.zero()) for col in cols] for row in prod]
        total = total + q * sum((row[r] for r, row in enumerate(prod)), LaurentPoly.zero())
    return total
