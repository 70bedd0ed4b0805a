"""Code that only the tests run.

normalize is the symbolic engine's rewriting (iqsym._reduce_top) as an
AlgElement map, markov_suite checks the Markov moves on the matrix route, and
all_word_traces is the criterion-10 sweep, computed once per rank.

The exponent-dict trace kernel is the oracle of the packed kernel
(spinpoly._step, _diagonal, _packed_trace) that the type A route and the spin
route on four or more strands run.
A crossing is (i, image): it acts on strands i, i+1 of a state, and image(pair)
is the {pair': LaurentPoly} image of the pair on those strands (None or empty
if it has none).  Vector coefficients are {v-exponent: coeff} dicts, products
are accumulated in place, and a LaurentPoly is built only for the diagonal.
"""

from fractions import Fraction

from spinlink import iqsym
from spinlink.iqsym import AlgElement
from spinlink.qalg import GradedScalar, LaurentPoly, report_entry
from spinlink.rep import LinOp, sig_keys
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
