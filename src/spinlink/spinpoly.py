"""Braid closures and the spin-colored link polynomial.

A braid word is evaluated by assigning the braiding on S (x) S to every
crossing and closing up with the explicit cups and caps; the closure
reduces to a weighted diagonal sum over the start columns of S^(x)m, each
propagated through the word as a sparse vector so the full product matrix
is never materialized.

The braid operator commutes with U_q(so_{2n+1}), so its trace on a weight
space W_mu depends only on the Weyl orbit of mu: weight multiplicities are
W-invariant (Jantzen, Lectures on Quantum Groups, ch. 5), and W(B_n) acts
by signed permutations.  The closure weight of a column (rep.closure_weight)
is a signed power of q, linear in the column's total weight, with a sign
that does not depend on the column, and the dominant columns are those of
rep.dominant_keys.  Hence

  Tr_q = sum over columns of dominant weight mu of
         diag(column) * sum_{nu in W mu} closure(nu),

and only the dominant-weight columns are propagated (40 of 512 for three
strands at n = 3).  The last crossing of a word is not applied in full: only
the diagonal entry of its image is read off.  This dominant-state trace
kernel (crossing_step, closing_diagonal, weighted_trace) also takes the
trace of schur's sl_N weight-space route.  Three normalizations are
exposed:

  raw       the quantum trace of the braid operator (a framed invariant;
            an m-strand identity braid gives the m-th power of the signed
            circle value);
  unframed  raw times nu^{-e(beta)} where nu = (-1)^{C(n+1,2)} q^{n(2n+1)/2}
            is the positive-stabilization factor, killing the framing
            dependence;
  intro     raw times (-1)^{n e + m C(n+1,2)} q^{-n e / 2}, the
            Euler-characteristic normalization (it makes the unknot value
            the positive product of the q^{2i-1} + q^{1-2i}).

Mirroring a braid flips every crossing sign, and on values acts by
q -> q^{-1}.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache

from .qalg import GradedScalar, LaurentPoly, RatFunc, binom2, report_entry
from .xcalc import XFamily, braiding, build_X
from .rep import closure_weight, dominant_keys, doubled_weight


@dataclass(frozen=True)
class BraidWord:
    """An element of the braid group: strand count plus signed Artin letters."""

    strands: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("strand count must be >= 1")
        for i, sign in self.letters:
            if not 1 <= i <= self.strands - 1:
                raise ValueError(f"generator index {i} out of range for {self.strands} strands")
            if sign not in (1, -1):
                raise ValueError(f"bad crossing sign {sign}")

    @property
    def exponent_sum(self) -> int:
        return sum(sign for _, sign in self.letters)

    def mirror(self) -> "BraidWord":
        return BraidWord(self.strands, tuple((i, -sign) for i, sign in self.letters))

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple((i, -sign) for i, sign in reversed(self.letters)))

    def permutation(self) -> list[int]:
        """Where each bottom strand position ends up at the top (0-based)."""
        perm = list(range(self.strands))
        for i, _ in self.letters:
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
        return perm

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("strand counts differ")
        return BraidWord(self.strands, self.letters + other.letters)


class BraidParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at token {position})")
        self.position = position


_TOKEN = re.compile(r"^(?:s(\d+)(\^-1)?|(-?\d+))$")


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse whitespace-separated tokens "s<k>", "s<k>^-1", or bare signed
    integers "+-k"; the strand count is explicit or inferred as max index + 1."""
    letters = []
    for pos, tok in enumerate(text.split()):
        m = _TOKEN.match(tok)
        if not m:
            raise BraidParseError(f"unrecognized token {tok!r}", pos)
        if m.group(1) is not None:
            idx, sign = int(m.group(1)), (-1 if m.group(2) else 1)
        else:
            v = int(m.group(3))
            idx, sign = abs(v), (1 if v > 0 else -1)
        if idx == 0:
            raise BraidParseError("generator index 0 is not allowed", pos)
        letters.append((idx, sign))
    m_count = strands if strands is not None else max((i for i, _ in letters), default=0) + 1
    return BraidWord(max(m_count, 1), tuple(letters))


@lru_cache(maxsize=4)
def _x_family(n: int) -> XFamily:
    """The X family of rank n, shared by both crossing signs."""
    return build_X(n, check_product_route=False)


@lru_cache(maxsize=8)
def _crossing_data(n: int, sign: int) -> tuple[dict, LaurentPoly]:
    """The braiding (sign 1) or its inverse (sign -1) on S (x) S as its
    column map (a, b) -> {(c, d) -> LaurentPoly} of numerators, plus the
    global denominator: the LinOp's own canonical form."""
    op = braiding(n, _x_family(n), sign)
    return op.cols, op.den


@lru_cache(maxsize=16)
def _orbit_closure(n: int, m: int) -> dict[tuple[int, ...], LaurentPoly]:
    """The start columns of S^(x)m whose total weight mu is dominant
    (mu_1 >= ... >= mu_n >= 0), each mapped to sum_{nu in W mu} closure(nu).
    Weights are kept doubled (2 wt(x_B)_j = -1 if j in B else +1)."""
    dominant = {column: doubled_weight(column, n) for column in dominant_keys(m, n)}
    orbit_sum = {}
    for wt in set(dominant.values()):
        orbit = {
            tuple(s * x for s, x in zip(signs, perm))
            for perm in itertools.permutations(wt)
            for signs in itertools.product((1, -1), repeat=n)
        }
        orbit_sum[wt] = sum((closure_weight(nu, m, n) for nu in orbit), LaurentPoly.zero())
    return {column: orbit_sum[wt] for column, wt in dominant.items()}


# -- the dominant-state trace kernel, shared with schur's weight-space route -------
#
# A crossing is (i, image): it acts on strands i, i+1 of a state, and image(pair)
# is the {pair': LaurentPoly} image of the pair on those strands (None or empty
# if it has none).  Vector coefficients are {v-exponent: coeff} dicts, products
# are accumulated in place, and a LaurentPoly is built only for the diagonal.


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


def _raw_trace(braid: BraidWord, n: int) -> GradedScalar:
    """Tr_q of the braid operator: the diagonal entry of every dominant-weight
    start column, weighted with its orbit closure sum."""
    m = braid.strands
    weights = _orbit_closure(n, m)
    # the crossing data is only built when a word needs it
    data = {s: _crossing_data(n, s) for s in (1, -1)} if braid.letters else {}
    den = math.prod((data[sign][1] for _, sign in braid.letters), start=LaurentPoly.one())
    # operator product in word order: the rightmost letter acts first
    crossings = [(i, data[sign][0].get) for i, sign in reversed(braid.letters)]
    states = ((column, weights[column]) for column in _tuples(1 << n, m) if column in weights)
    return GradedScalar(0, RatFunc(weighted_trace(crossings, states), den))


def stabilization_factor(n: int) -> GradedScalar:
    """nu = (-1)^{C(n+1,2)} q^{n(2n+1)/2}: how raw changes under one positive
    Markov stabilization."""
    return GradedScalar(0, LaurentPoly.v_pow(n * (2 * n + 1), (-1) ** binom2(n + 1)))


def eval_spin(
    braid: BraidWord,
    n: int,
    normalization: str = "raw",
    mirror: bool = False,
    engine: str = "matrix",
) -> GradedScalar:
    """The spin-colored link polynomial of the braid closure."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    if mirror:
        braid = braid.mirror()
    if engine == "matrix":
        raw = _raw_trace(braid, n)
    elif engine == "symbolic":
        from .iqsym import eval_spin_symbolic

        raw = eval_spin_symbolic(braid, n)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    if normalization == "raw":
        return raw
    e = braid.exponent_sum
    if normalization == "unframed":
        nu = stabilization_factor(n)
        return raw * _power(nu.inv() if e >= 0 else nu, abs(e))
    if normalization == "intro":
        sign = (-1) ** (n * e + braid.strands * binom2(n + 1))
        return raw * GradedScalar(0, LaurentPoly.v_pow(-n * e, sign))
    raise ValueError(f"unknown normalization {normalization!r}")


def _power(x: GradedScalar, k: int) -> GradedScalar:
    out = GradedScalar.one()
    for _ in range(k):
        out = out * x
    return out


def _tuples(dim: int, m: int):
    """Every start column of S^(x)m, in lexicographic order."""
    return itertools.product(range(dim), repeat=m)


def sweep_raw_traces(m: int, n: int, max_len: int) -> dict[tuple, GradedScalar]:
    """Raw traces of every braid word on m strands over the signed Artin
    generators, up to the given length, sharing work along the prefix tree.

    Words are enumerated by prepending letters, so each tree edge costs a
    single sparse application per dominant start column instead of
    re-evaluating whole words from scratch; an edge into a word of the
    maximal length only reads off the diagonal entry.  The diagonals of the
    columns that share an orbit weight are summed first, and each word's sum
    is multiplied by that weight once (4 weights for 40 columns at m = 3,
    n = 3).
    """
    gens = [(i, s) for i in range(1, m) for s in (1, -1)]
    images, dens = {}, {}
    for s in (1, -1):
        cols, dens[s] = _crossing_data(n, s)
        images[s] = cols.get
    by_weight: dict[LaurentPoly, list] = {}
    for column, w in _orbit_closure(n, m).items():
        by_weight.setdefault(w, []).append(column)

    zero = LaurentPoly.zero()
    totals: dict[tuple, LaurentPoly] = {}
    for w, columns in by_weight.items():
        sums: dict[tuple, LaurentPoly] = {}
        for column in columns:
            stack = [((), {column: {0: 1}})]
            while stack:
                word, vec = stack.pop()
                sums[word] = sums.get(word, zero) + LaurentPoly(vec.get(column))
                if len(word) == max_len:
                    continue
                for i, sign in gens:
                    child = ((i, sign),) + word
                    if len(child) < max_len:
                        stack.append((child, crossing_step(vec, i, images[sign])))
                    else:
                        sums[child] = sums.get(child, zero) + closing_diagonal(vec, i, images[sign], column)
        for word, total in sums.items():
            totals[word] = totals.get(word, zero) + total * w

    one = LaurentPoly.one()
    return {
        word: GradedScalar(0, RatFunc(total, math.prod((dens[sign] for _, sign in word), start=one)))
        for word, total in totals.items()
    }


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
