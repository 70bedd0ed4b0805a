"""Code that only the tests run.

The exponent-dict trace kernel is the oracle of the packed kernel
(spinpoly._step, _diagonal, _packed_trace) that both production routes run.
A crossing is (i, image): it acts on strands i, i+1 of a state, and image(pair)
is the {pair': LaurentPoly} image of the pair on those strands (None or empty
if it has none).  Vector coefficients are {v-exponent: coeff} dicts, products
are accumulated in place, and a LaurentPoly is built only for the diagonal.
"""

from fractions import Fraction

from spinlink.qalg import GradedScalar, LaurentPoly
from spinlink.rep import LinOp, sig_keys
from spinlink.xcalc import braiding


def from_json_terms(terms) -> GradedScalar:
    """Inverse of GradedScalar.json_terms (offsets re-split canonically)."""
    total = GradedScalar.zero()
    for en, ed, cn, cd in terms:
        ex = Fraction(en, ed)
        total = total + GradedScalar(ex, LaurentPoly.const(Fraction(cn, cd)))
    return total


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
