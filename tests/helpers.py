"""Code that only the tests run.

normalize is the symbolic engine's rewriting (iqsym._reduce_top) as an
AlgElement map, markov_suite checks the Markov moves on the matrix route, and
all_word_traces is the criterion-10 sweep, computed once per rank.

The exponent-dict trace kernel is the oracle of the packed kernel
(spinpoly._step, _diagonal, _packed_trace) that the type A route and the spin
route on four or more strands run.

linop_serre_battery checks the relation table and the two Serre relations,
linop_change_of_basis the spectral-basis identities and linop_trace_rule
the trace rule, all by LinOp products: the oracles of xcalc's packed
identities (_PackedIdentities).

The block reader (hw_spaces, crossing_blocks, block_trace_from_crossings) is
the oracle of hwblocks: it finds each highest-weight space by elimination
(slnblocks.hw_kernel, which the type A blocks run in production) and reads a
crossing's blocks off its crossing data, where hwblocks builds them from
eigenvalues and cap pins.  The two share only hwblocks._qdim.
A crossing is (i, image): it acts on strands i, i+1 of a state, and image(pair)
is the {pair': LaurentPoly} image of the pair on those strands (None or empty
if it has none).  Vector coefficients are {v-exponent: coeff} dicts, products
are accumulated in place, and a LaurentPoly is built only for the diagonal.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

from spinlink import iqsym, qalg, xcalc
from spinlink.hwblocks import _qdim
from spinlink.iqsym import AlgElement
from spinlink.qalg import GradedScalar, LaurentPoly, RatFunc, devil, qint, report_entry
from spinlink.rep import LinOp, S_SIG, dominant_keys, doubled_weight, sig_keys, subset_iter
from spinlink.slnblocks import hw_kernel
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


def linop_serre_battery(n: int, fam, table) -> dict:
    """The verdicts of xcalc._serre_battery, by the same keys, from LinOp
    products of the embedded factors on the dominant columns of S^(x)3: the
    gk-Serre relation for H, each row of the relation table with its outer
    letters on strands 1, 2 (outer 1) or 2, 3 (outer 2), and the devil's Serre
    relation on either pair.  X^(k) for k > n is zero, and a row or term that
    uses one is left out.  This is how relation_suite compared them before
    the packed battery; it is kept as that battery's oracle."""
    dominant = dominant_keys(3, n)

    def on_strands(op, left):
        return op.embed(left, 1 - left, dominant)

    def product(ops):
        out = ops[0]
        for op in ops[1:]:
            out = out @ op
        return out

    verdicts = {}
    h1, h2 = on_strands(fam.h, 0), on_strands(fam.h, 1)
    lhs = (h2 @ h1 @ h1) + (h1 @ h1 @ h2)
    verdicts["gk-serre-for-h", None] = lhs == (h1 @ h2 @ h1).scale(-devil(2, 2)) + h2

    x1 = [on_strands(fam[k], 0) for k in range(n + 1)]
    x2 = [on_strands(fam[k], 1) for k in range(n + 1)]
    zero3 = LinOp.zero(("S",) * 3, ("S",) * 3, n)
    for outer in (1, 2):
        letters = {"O": x1 if outer == 1 else x2, "M": x2 if outer == 1 else x1}
        for (a, b, c), terms in sorted(table.items()):
            if max(a, b, c) > n:
                continue
            rhs = zero3
            for coeff, word in terms:
                if all(p <= n for _, p in word):
                    rhs = rhs + product([letters[sym][p] for sym, p in word]).scale(coeff)
            lhs = product([letters["O"][a], letters["M"][b], letters["O"][c]])
            verdicts["three-strand-relation-table", ((a, b, c), outer)] = lhs == rhs

    for outer, (o, m) in ((1, (x1, x2)), (2, (x2, x1))):
        rhs = o[1]
        if n >= 2:
            rhs = (o[2] @ m[1]) + (m[1] @ o[2]) + o[2].scale(qint(2)) + rhs
        verdicts["devils-serre", outer] = o[1] @ m[1] @ o[1] == rhs
    return verdicts


def linop_change_of_basis(n: int, fam) -> list[dict]:
    """The report of xcalc.change_of_basis_check(n, fam), from LinOp products
    of the projectors and of I^(i) = c_i P_i: how change_of_basis_check
    compared them before the packed identities, kept as their oracle.
    xcalc's spectral_basis and coefficients are read at call time, so a
    perturbed one reaches both routes."""
    report = []

    def entry(name, ok, witness=None):
        report.append(report_entry(name, {"n": n}, ok, witness))

    spec = xcalc.spectral_basis(n, fam)
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
    i_ops = [spec.projectors[i].scale(xcalc.i_scalar(n, i)) for i in range(n)] + [idSS]
    for i in range(n):
        for j in range(n):
            prod = i_ops[i] @ i_ops[j]
            if i != j:
                ok = ok and prod.is_zero()
            else:
                ok = ok and prod == i_ops[i].scale(xcalc.i_scalar(n, i))
    entry("bigon-composition", ok)

    witness = None
    ok = True
    for i in range(1, n + 1):
        total = LinOp.zero(("S", "S"), ("S", "S"), n)
        for l in range(i, n + 1):
            total = total + i_ops[n - l].scale(xcalc.lambda_coeff(n, i, l))
        if total != fam[i]:
            ok, witness = False, f"X^({i})"
        if xcalc.lambda_coeff(n, i, i) != RatFunc.one():
            ok, witness = False, f"lambda(n-{i}) != 1"
    entry("i-to-x-change-of-basis", ok, witness)

    entry("x-top-is-bigon", fam[n] == i_ops[0])

    r = braiding(n, fam)
    total = idSS.scale(LaurentPoly.v_pow(n))
    for i in range(1, n + 1):
        total = total + i_ops[n - i].scale(xcalc.braid_i_coeff(n, i))
    entry("braiding-in-i-basis", total == r)

    ok, witness = True, None
    sizes = [comb(2 * n + 1, i) for i in range(n)]
    sizes.append(4**n - sum(sizes))
    for i, (p, want, idem) in enumerate(zip(all_projs, sizes, idempotent)):
        label = i if i < n else "residual"
        if not idem:
            ok, witness = False, f"projector {label} is not idempotent"
        elif (got := xcalc.rank_of(p)) != want:
            ok, witness = False, (label, got, want)
    entry("isotypic-ranks", ok, witness)
    return report


def linop_trace_rule(n: int, fam, three: bool) -> tuple:
    """xcalc._trace_rule(n, fam, three), the verdict and witness, with the
    m = 3 rule taken as ptrace of the LinOp product X^(k)_2 X^(j)_1 on the
    columns (a, b, B), (a, b) a dominant pair and B any closing state: how
    relation_suite compared it before the closed column identities, kept as
    their oracle."""
    pairs = dominant_keys(2, n)
    closed = [p + (B,) for p in pairs for B in subset_iter(n)]
    idS = LinOp.identity(S_SIG, n)
    ok_all = True
    witness = None
    for k in range(n + 1):
        coeff = iqsym.trace_rule_coeff(n, k)
        if xcalc.ptrace(fam[k]) != idS.scale(coeff):
            ok_all, witness = False, f"m=2, k={k}"
        if three:
            for j in range(n + 1):
                lhs = xcalc.ptrace(xcalc._product_on(closed, (fam[k], 1, 0), (fam[j], 0, 1)))
                if lhs != fam[j].embed(0, 0, pairs).scale(coeff):
                    ok_all, witness = False, f"m=3, k={k}, j={j}"
                    break
    return ok_all, witness
