"""Colored sl_N link polynomials through the idempotented quantum gl_m.

A braid crossing becomes a renormalized quantum Weyl element

    c_i^{+-} 1_a = sum_s (-q)^{+-(s - a_{i+1})} f_i^{(a_i - a_{i+1} + s)} e_i^{(s)} 1_a,

a finite sum inside the N-bounded Schur quotient (weights live in
[0, N]^m; any word passing through a dead weight is zero).  The colored
polynomial of an a-balanced braid closure is the pairing (1_a, c...c 1_a)_N
of the braid's element, times (-q^{1/N}) to the colored exponent sum; the
q^{1/N} lives in the exponent offset of the result.

The pairing lives on skew Howe weight spaces (Cautis-Kamnitzer-Morrison):
(x)_j Lambda_q^{a_j}(C^N) is the weight-a space of the U_q(gl_m)-module
(Lambda_q C^m)^{(x)N}, each c_i^{+-} acts on it as a sparse operator, and the
pairing is the quantum trace of their product.  A state is an N x m 0/1
matrix with column sums a; U_q(gl_N) acts on its rows and commutes with the
crossings.  Three routes compute the pairing:

  blocks        production on at most three strands of one color
                (slnblocks, imported on the first such word): the sum over lam
                of qdim_N(lam) * tr(beta | HW_lam), HW_lam the highest-weight
                vectors for the U_q(gl_N) on the rows, with blocks summed from
                single image entries of the crossings (_Crossing.entry).
  weight space  production on four or more strands and for mixed colors, and
                the oracle of the blocks on three strands.  Only states of
                dominant gl_N weight are propagated, in one class per shape of
                row sums, built once per input (_dominant_classes, by _states,
                which slnblocks shares) and weighted with its S_N-orbit sum
                (rep.orbit_sum, shared with the spin route), on
                spinpoly's packed kernel: a vector maps states to ints, each a
                Laurent polynomial divided by its lowest power of v and
                evaluated at v^2 = 2^B.  A crossing is a spinpoly.Crossing whose
                image of a column pair is built the first time a state reaches
                it; its tables of l1 norms (for the per-word bound B) and of
                packed images fill on lookup too, and live as long as the
                crossing.  The cost is linear in the crossings.
  annular       the oracle, below.

The oracle evaluates the same pairing annularly: expand the word, commute
divided powers with the EF relation, merge equal letters, and rotate the
word cyclically until only an idempotent remains, whose pairing is a
product of quantum binomials.  Its cost is exponential in the crossings;
verify and the tests run it on short words.

A Kauffman-bracket state sum over braid closures is included as a fully
independent oracle for the Jones family (loop value -(q + q^{-1}),
i.e. A = q^{1/2}).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .qalg import GradedScalar, LaurentPoly, _add_terms, _concat_terms, poly_divexact, qbinom
from .rep import circle_value, orbit_sum
from .spinpoly import BraidWord, Crossing, _packed_trace

GlWeight = tuple[int, ...]
Letter = tuple[str, int, int]  # ("E"|"F", color, power >= 1)
Word = tuple[Letter, ...]


def weight_alive(a: GlWeight, N: int) -> bool:
    return all(0 <= x <= N for x in a)


def _letter_shift(a: GlWeight, letter: Letter, inverse: bool = False) -> GlWeight:
    """Weight after applying the letter to 1_a (letters act on the right
    factor first; inverse undoes the shift)."""
    kind, i, r = letter
    d = r if kind == "E" else -r
    if inverse:
        d = -d
    out = list(a)
    out[i - 1] += d
    out[i] -= d
    return tuple(out)


def word_target(word: Word, a: GlWeight) -> GlWeight:
    for letter in reversed(word):
        a = _letter_shift(a, letter)
    return a


def word_alive(word: Word, a: GlWeight, N: int) -> bool:
    if not weight_alive(a, N):
        return False
    for letter in reversed(word):
        a = _letter_shift(a, letter)
        if not weight_alive(a, N):
            return False
    return True


class SchurElement:
    """A linear combination of divided-power words with a fixed source
    weight; dead words are dropped on construction."""

    __slots__ = ("src", "N", "terms")

    def __init__(self, src: GlWeight, N: int, terms: dict[Word, LaurentPoly] | None = None):
        self.src = tuple(src)
        self.N = N
        self.terms = {}
        for w, c in (terms or {}).items():
            if c.is_zero() or not word_alive(w, self.src, N):
                continue
            self.terms[w] = c

    @staticmethod
    def idempotent(a: GlWeight, N: int) -> "SchurElement":
        return SchurElement(a, N, {(): LaurentPoly.one()})

    def target(self) -> GlWeight:
        for w in self.terms:
            return word_target(w, self.src)
        return self.src

    def __add__(self, other: "SchurElement") -> "SchurElement":
        assert self.src == other.src and self.N == other.N
        return SchurElement(self.src, self.N, _add_terms(self.terms, other.terms))

    def scale(self, c: LaurentPoly) -> "SchurElement":
        return SchurElement(self.src, self.N, {w: v * c for w, v in self.terms.items()})

    def bar(self) -> "SchurElement":
        """The anti-involution swapping E and F (it reverses words and
        exchanges source and target)."""
        tgt = self.target()
        out: dict[Word, LaurentPoly] = {}
        for w, c in self.terms.items():
            flipped = tuple(("F" if k == "E" else "E", i, r) for k, i, r in reversed(w))
            out[flipped] = c
        return SchurElement(tgt, self.N, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SchurElement):
            return NotImplemented
        return self.src == other.src and self.N == other.N and self.terms == other.terms


def ef_commute(word: Word, pos: int, a: GlWeight, N: int) -> dict[Word, LaurentPoly]:
    """Apply the EF relation to the adjacent pair word[pos] = E_i^{(r)},
    word[pos+1] = F_i^{(s)}: the result is the sum over t of
    [a_i - a_{i+1} + r - s  choose t] F^{(s-t)} E^{(r-t)} at that spot."""
    kind1, i, r = word[pos]
    kind2, j, s = word[pos + 1]
    if kind1 != "E" or kind2 != "F" or i != j:
        raise ValueError("ef_commute needs an adjacent E_i F_i pair")
    b = a
    for letter in reversed(word[pos + 2 :]):
        b = _letter_shift(b, letter)
    alpha = b[i - 1] - b[i]
    out: dict[Word, LaurentPoly] = {}
    for t in range(0, min(r, s) + 1):
        coeff = _qbinom_any(alpha + r - s, t)
        if coeff.is_zero():
            continue
        mid: tuple[Letter, ...] = ()
        if s - t:
            mid += (("F", i, s - t),)
        if r - t:
            mid += (("E", i, r - t),)
        out[word[:pos] + mid + word[pos + 2 :]] = coeff
    return out


def _qbinom_any(n: int, t: int) -> LaurentPoly:
    """[n choose t] for any integer n, with [n choose t] = (-1)^t [t - n - 1 choose t]
    for n < 0 (qalg.qbinom is zero there)."""
    if n < 0:
        return qbinom(t - n - 1, t).scale((-1) ** t)
    return qbinom(n, t)


class AnnularDepthError(RuntimeError):
    pass


@lru_cache(maxsize=256)
def _binom_merge(r: int, s: int) -> LaurentPoly:
    return qbinom(r + s, r)


def _annular_eval(word: Word, a: GlWeight, N: int, cache: dict, depth: int) -> LaurentPoly:
    key = (word, a)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if depth <= 0:
        raise AnnularDepthError("annular evaluation exceeded its depth bound")
    if not word_alive(word, a, N):
        cache[key] = LaurentPoly.zero()
        return cache[key]
    if not word:
        val = LaurentPoly.one()
        for x in a:
            val = val * qbinom(N, x)
        cache[key] = val
        return val

    # merge equal neighbours
    for p in range(len(word) - 1):
        k1, i1, r1 = word[p]
        k2, i2, r2 = word[p + 1]
        if k1 == k2 and i1 == i2:
            merged = word[:p] + ((k1, i1, r1 + r2),) + word[p + 2 :]
            val = _binom_merge(r1, r2) * _annular_eval(merged, a, N, cache, depth - 1)
            cache[key] = val
            return val

    # rightmost E that still has an F to its right
    pos = None
    seen_f = False
    for p in range(len(word) - 1, -1, -1):
        if word[p][0] == "F":
            seen_f = True
        elif seen_f:
            pos = p
            break
    if pos is None:
        # sorted word: F-block then E-block; rotate the F-block away
        split = next((p for p, l in enumerate(word) if l[0] == "E"), len(word))
        if split == 0 or split == len(word):
            # a pure E or pure F word cannot close up unless it is empty
            cache[key] = LaurentPoly.zero()
            return cache[key]
        u, v = word[:split], word[split:]
        b = word_target(v, a)
        val = _annular_eval(v + u, b, N, cache, depth - 1)
        cache[key] = val
        return val

    nxt = word[pos + 1]
    if nxt[0] != "F":
        raise AssertionError("scan invariant broken")
    if nxt[1] == word[pos][1]:
        total = LaurentPoly.zero()
        for w2, coeff in ef_commute(word, pos, a, N).items():
            total = total + coeff * _annular_eval(w2, a, N, cache, depth - 1)
    else:
        swapped = word[:pos] + (nxt, word[pos]) + word[pos + 2 :]
        total = _annular_eval(swapped, a, N, cache, depth - 1)
    cache[key] = total
    return total


def bilinear_form(x: SchurElement, y: SchurElement | None = None) -> GradedScalar:
    """(1_a, x)_N for a closed element, or the two-argument form
    (x, y)_N = (1_a, bar(x) y)_N."""
    if y is not None:
        if x.src != y.src or x.N != y.N:
            return GradedScalar.zero()
        if x.target() != y.target():
            return GradedScalar.zero()
        combined = SchurElement(y.src, y.N, _concat_terms(x.bar().terms, y.terms))
        return bilinear_form(combined)
    a, N = x.src, x.N
    if x.target() != a:
        raise ValueError("bilinear form needs a weight-balanced element")
    m = len(a)
    cache: dict = {}
    total = LaurentPoly.zero()
    for w, c in x.terms.items():
        depth = max(64, (len(w) + 4) * (N + 1) ** m * 16)
        total = total + c * _annular_eval(w, a, N, cache, depth)
    return GradedScalar(0, total)


def c_pm(i: int, a: GlWeight, N: int, sign: int) -> SchurElement:
    """The renormalized quantum Weyl element c_i^{+-} 1_a, truncated to the
    alive range of the quotient."""
    m = len(a)
    if not 1 <= i <= m - 1:
        raise ValueError("color out of range")
    alpha = a[i - 1] - a[i]
    terms: dict[Word, LaurentPoly] = {}
    for s in range(max(0, -alpha), min(a[i], N - a[i - 1]) + 1):
        word: tuple[Letter, ...] = ()
        if alpha + s:
            word += (("F", i, alpha + s),)
        if s:
            word += (("E", i, s),)
        e = sign * (s - a[i])
        terms[word] = LaurentPoly.q_pow(e, (-1) ** (e % 2))
    return SchurElement(a, N, terms)


def _left_multiply_c(elem: SchurElement, i: int, sign: int) -> SchurElement:
    tgt = elem.target()
    c = c_pm(i, tgt, elem.N, sign)
    return SchurElement(elem.src, elem.N, _concat_terms(c.terms, elem.terms))


# -- weight-space route (production) ------------------------------------------------
#
# A state of the weight-a space of (Lambda_q C^m)^{(x)N} is an N x m 0/1 matrix
# with column sums a, stored as its m columns, each a bitmask of rows (bit r is
# row r + 1).  Its gl_N weight is the vector of row sums.


def _divided_power(kind: str, s: int, u: int, w: int, N: int) -> dict[tuple[int, int], int]:
    """E_i^{(s)} (or F_i^{(s)}) on a state whose columns i, i+1 are u, w, as
    {(u', w'): q-exponent}.  E moves a 1 from column i+1 to column i inside a
    row, F moves it back; with Delta(E) = E(x)K + 1(x)E, Delta(F) = F(x)1 +
    K^{-1}(x)F and K_i = q^{x_i - x_{i+1}} on a row, each s-subset T of the
    rows that can move gives one term q^e, where e is the sum over r in T and
    r' not in T of h(r') = x_i - x_{i+1}, taken over r' > r for E and over
    r' < r (negated) for F."""
    movable = w & ~u if kind == "E" else u & ~w
    rows = [r for r in range(N) if movable >> r & 1]
    out = {}
    for subset in itertools.combinations(rows, s):
        moved = sum(1 << r for r in subset)
        pair = (u | moved, w & ~moved) if kind == "E" else (u & ~moved, w | moved)
        out[pair] = _moved_exponent(kind, moved, u, w)
    return out


def _moved_exponent(kind: str, moved: int, u: int, w: int) -> int:
    """The q-exponent of E (or F) moving the rows of the bitmask moved on columns
    u, w: each row x that stays adds h(x) = x_i - x_(i+1) times the moved rows
    below it for E, and -h(x) times the moved rows above it for F."""
    e, rest = 0, (u ^ w) & ~moved  # the rows that stay with h(x) != 0
    while rest:
        low = rest & -rest
        n = (moved & low - 1).bit_count() if kind == "E" else -(moved >> low.bit_length()).bit_count()
        e += n if u & low else -n
        rest ^= low
    return e


class _Crossing(Crossing):
    """c^{+-} 1_(a, b) on two adjacent columns of colors a, b: the terms of
    c_pm read as F^{(f)} E^{(e)} operators.  The image of a column pair is
    built the first time it is looked up."""

    __slots__ = ("N", "terms")

    def __init__(self, N: int, a: int, b: int, sign: int):
        super().__init__()
        self.N, self.terms = N, []
        for word, coeff in c_pm(1, (a, b), N, sign).terms.items():
            powers = {kind: r for kind, _, r in word}
            self.terms.append((powers.get("E", 0), powers.get("F", 0), coeff))

    def __missing__(self, pair: tuple[int, int]) -> dict[tuple[int, int], LaurentPoly]:
        u, w = pair
        acc: dict[tuple[int, int], LaurentPoly] = {}
        for e, f, coeff in self.terms:
            for (u1, w1), x in _divided_power("E", e, u, w, self.N).items():
                for out, y in _divided_power("F", f, u1, w1, self.N).items():
                    term = coeff.shift(2 * (x + y))
                    acc[out] = acc[out] + term if out in acc else term
        img = self[pair] = {out: c for out, c in acc.items() if c}
        return img

    def entry(self, pair: tuple[int, int], target: tuple[int, int]) -> LaurentPoly:
        """The image of pair at target, without the rest of the image.  Rows
        holding one 1 in pair and in target: D moves by E and stays, U moves by
        F, and each row of P either stays or moves by both, so E moves D plus X
        and F moves U plus X, for X among the s-subsets of P."""
        (u, w), (u2, w2) = pair, target
        total = LaurentPoly.zero()
        if u | w != u2 | w2 or u & w != u2 & w2:
            return total
        one = u ^ w
        D, U, P = one & w & u2, one & u & w2, one & w & w2
        for e, f, coeff in self.terms:
            s = e - D.bit_count()
            if s < 0 or f - U.bit_count() != s:
                continue
            for subset in itertools.combinations([r for r in range(self.N) if P >> r & 1], s):
                X = sum(1 << r for r in subset)
                down, up = D | X, U | X
                x = _moved_exponent("E", down, u, w) + _moved_exponent("F", up, u | down, w & ~down)
                total = total + coeff.shift(2 * x)
        return total


_crossing = lru_cache(maxsize=64)(_Crossing)


def _shapes(total: int, m: int, N: int) -> list[tuple[int, ...]]:
    """The non-increasing shapes of N rows, each of at most m boxes, with total boxes."""
    return [lam for lam in itertools.combinations_with_replacement(range(m, -1, -1), N) if sum(lam) == total]


def _states(lam: tuple[int, ...], a: tuple[int, ...], free: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    """The states of row sums lam and column sums a whose rows, but for the rows
    free, are in increasing order inside each run.  Rows are chosen top down,
    each leaving a remainder the rows below can hold."""
    states = [((0,) * len(a), a, ())]  # (columns so far, column sums left, last row)
    for r, size in enumerate(lam):
        grown = []
        for columns, left, prev in states:
            for row in itertools.combinations(range(len(a)), size):
                rest = tuple(x - (j in row) for j, x in enumerate(left))
                ordered = row >= prev or size != lam[r - 1] or r in free or r - 1 in free
                if ordered and min(rest) >= 0 and max(rest) < len(lam) - r:
                    grown.append((tuple(u | (j in row) << r for j, u in enumerate(columns)), rest, row))
        states = grown
    return [columns for columns, _, _ in states]


@lru_cache(maxsize=16)
def _dominant_classes(a: GlWeight, N: int) -> dict[LaurentPoly, list[tuple[int, ...]]]:
    """The states of weight a with non-increasing row sums, one class per shape lam
    (every row free), keyed by the orbit sum of lam against 2 rho = (N - 1, ..., 1 - N)."""
    classes: dict[LaurentPoly, list] = {}
    for lam in _shapes(sum(a), len(a), N):
        if states := _states(lam, a, free=range(N)):
            classes.setdefault(orbit_sum(lam, tuple(range(N - 1, -N, -2)), False), []).extend(states)
    return classes


def _weight_space_pairing(braid: BraidWord, a: GlWeight, N: int) -> LaurentPoly:
    """The quantum trace of the braid's operator on the weight-a space, on the
    dominant states (the operator commutes with U_q(gl_N), so the trace on a
    gl_N weight space is S_N-invariant), grouped by orbit sum.  The first
    letter acts first."""
    crossings, cur = [], list(a)
    for i, sign in braid.letters:
        crossings.append((i, _crossing(N, cur[i - 1], cur[i], sign)))
        cur[i - 1], cur[i] = cur[i], cur[i - 1]
    return _packed_trace(crossings, _dominant_classes(a, N))


def _pairing(braid: BraidWord, a: GlWeight, N: int) -> LaurentPoly:
    """Production: the highest-weight blocks on at most three strands of one
    color, else the weight spaces."""
    if braid.strands <= 3 and len(set(a)) == 1:
        from . import slnblocks  # on the first such word: four or more strands never load it

        return slnblocks.block_pairing(braid, a, N)
    return _weight_space_pairing(braid, a, N)


def _annular_pairing(braid: BraidWord, a: GlWeight, N: int) -> LaurentPoly:
    """The same pairing by word expansion and annular evaluation (the oracle)."""
    elem = SchurElement.idempotent(a, N)
    for i, sign in braid.letters:
        elem = _left_multiply_c(elem, i, sign)
    return bilinear_form(elem).body


# Braid closures, as (word, strands, N, color), whose q = 1 value the annular
# route got wrong while the EF relation read [n choose t] as 0 for n < 0.
WITNESSES = (
    ("1 2", 3, 6, 3),
    ("1 2", 3, 7, 3),
    ("1 2", 3, 7, 4),
    ("1 2", 3, 8, 3),
    ("1 2", 3, 8, 4),
    ("1 2", 3, 8, 5),
    ("1 2 3", 4, 4, 2),
    ("1 2 3", 4, 5, 2),
    ("1 2 3 4", 5, 4, 2),
    ("1 -2 1 -2", 3, 6, 3),
)


def colored_exponent(braid: BraidWord, colors: GlWeight) -> int:
    """Sum over crossings of +- (product of the two strand colors)."""
    cur = list(colors)
    total = 0
    for i, sign in braid.letters:
        total += sign * cur[i - 1] * cur[i]
        cur[i - 1], cur[i] = cur[i], cur[i - 1]
    return total


def _colored(braid: BraidWord, colors: GlWeight, N: int, pairing) -> GradedScalar:
    colors = tuple(colors)
    if len(colors) != braid.strands:
        raise ValueError("one color per strand required")
    if min(colors) < 0:
        raise ValueError(f"colors must be >= 0, got {colors}")
    if not weight_alive(colors, N):
        return GradedScalar.zero()  # Lambda^c(C^N) = 0 for c > N
    perm = braid.permutation()
    if any(colors[perm[j]] != colors[j] for j in range(braid.strands)):
        raise ValueError("braid is not balanced for this coloring")
    eps = colored_exponent(braid, colors)
    prefactor = GradedScalar(Fraction(eps, N), LaurentPoly.const((-1) ** (eps % 2)))
    return prefactor * GradedScalar(0, pairing(braid, colors, N))


def eval_slN(braid: BraidWord, colors: GlWeight, N: int) -> GradedScalar:
    """The colored sl_N polynomial of the a-colored braid closure: on the
    highest-weight blocks for at most three strands of one color, else by
    the weight-space route."""
    return _colored(braid, colors, N, _pairing)


def eval_slN_weight_space(braid: BraidWord, colors: GlWeight, N: int) -> GradedScalar:
    """eval_slN by the weight-space route on any braid: the oracle of the
    blocks on three strands."""
    return _colored(braid, colors, N, _weight_space_pairing)


def eval_slN_annular(braid: BraidWord, colors: GlWeight, N: int) -> GradedScalar:
    """eval_slN by the annular route, kept as its oracle."""
    return _colored(braid, colors, N, _annular_pairing)


# -- Kauffman bracket oracle ------------------------------------------------------


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


def _state_loops(braid: BraidWord, state: int) -> int:
    """Number of loops in the braid closure after resolving crossing t to the
    identity smoothing (bit 0) or the cup-cap smoothing (bit 1)."""
    m, d = braid.strands, len(braid.letters)
    uf = _UnionFind((d + 1) * m)
    node = lambda level, p: level * m + p  # noqa: E731
    for t, (i, _) in enumerate(braid.letters):
        for p in range(m):
            if p not in (i - 1, i):
                uf.union(node(t, p), node(t + 1, p))
        if state >> t & 1:
            uf.union(node(t, i - 1), node(t, i))
            uf.union(node(t + 1, i - 1), node(t + 1, i))
        else:
            uf.union(node(t, i - 1), node(t + 1, i - 1))
            uf.union(node(t, i), node(t + 1, i))
    for p in range(m):
        uf.union(node(d, p), node(0, p))
    return len({uf.find(x) for x in range((d + 1) * m)})


def kauffman_bracket(braid: BraidWord) -> GradedScalar:
    """State sum over the closed braid with A = q^{1/2} and every loop worth
    -(q + q^{-1}); no writhe correction.  For rank one this is exactly the
    raw spin trace."""
    d = len(braid.letters)
    delta = circle_value(1)  # -(q + q^{-1})
    total = LaurentPoly.zero()
    for state in range(1 << d):
        exp = 0
        for t, (_, sign) in enumerate(braid.letters):
            smoothed = state >> t & 1
            exp += sign * (-1 if smoothed else 1)
        loops = _state_loops(braid, state)
        term = LaurentPoly.v_pow(exp)
        for _ in range(loops):
            term = term * delta
        total = total + term
    return GradedScalar(0, total)


def kauffman_jones(braid: BraidWord) -> GradedScalar:
    """The writhe-normalized bracket (unknot = 1): (-A^3)^{-w} times the
    state sum with loop exponent reduced by one."""
    w = braid.exponent_sum
    body = poly_divexact(kauffman_bracket(braid).body, circle_value(1))
    return GradedScalar(0, body * LaurentPoly.v_pow(-3 * w, (-1) ** (w % 2)))


def closure_components(braid: BraidWord) -> int:
    """Number of components of the braid closure."""
    perm = braid.permutation()
    seen, comps = set(), 0
    for start in range(braid.strands):
        if start in seen:
            continue
        comps += 1
        j = start
        while j not in seen:
            seen.add(j)
            j = perm[j]
    return comps


# Frozen normalization dictionary between the three rank-one conventions,
# derived once by matching the unknot, both stabilized unknots, the Hopf
# link, and the trefoil, then kept as golden data:
#   (D1) the raw rank-one spin trace IS the unnormalized Kauffman state sum
#        at A = q^{1/2} with every loop (including the last) worth -(q+q^{-1});
#   (D2) the unframed rank-one spin value is -(q+q^{-1}) times the
#        writhe-normalized bracket;
#   (D3) the two-row sl_N value at N = 2 with unit colors is obtained from
#        the unframed spin value by q -> q^{-1}, a sign per closure
#        component, and the framing monomial q^{-3 eps/2}.


def sl2_from_spin1(braid: BraidWord, spin_unframed: GradedScalar) -> GradedScalar:
    """Dictionary (D3): the predicted eval_slN(braid, 1...1, 2) from the
    unframed rank-one spin polynomial."""
    eps = braid.exponent_sum
    sign = (-1) ** closure_components(braid)
    mono = GradedScalar(0, LaurentPoly.v_pow(-3 * eps, sign))
    return mono * spin_unframed.bar()


def spin1_from_jones(braid: BraidWord) -> GradedScalar:
    """Dictionary (D2): the predicted unframed rank-one spin value from the
    Kauffman oracle."""
    return GradedScalar(0, circle_value(1)) * kauffman_jones(braid)
