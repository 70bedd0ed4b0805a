"""Colored sl_N link polynomials through the idempotented quantum gl_m.

A braid crossing becomes a renormalized quantum Weyl element

    c_i^{+-} 1_a = sum_s (-q)^{+-(s - a_{i+1})} f_i^{(a_i - a_{i+1} + s)} e_i^{(s)} 1_a,

a finite sum inside the N-bounded Schur quotient (weights live in
[0, N]^m; any word passing through a dead weight is zero).  Closed words
are evaluated by the annular algorithm: commute divided powers with the
EF relation, merge equal letters, and rotate the word cyclically until
only an idempotent remains, whose pairing is a product of quantum
binomials.  The colored polynomial of an a-balanced braid closure is the
pairing of the corresponding word, times (-q^{1/N}) to the colored
exponent sum; the q^{1/N} lives in the exponent offset of the result.

A Kauffman-bracket state sum over braid closures is included as a fully
independent oracle for the Jones family (loop value -(q + q^{-1}),
i.e. A = q^{1/2}).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .qalg import GradedScalar, LaurentPoly, RatFunc, qbinom
from .spinpoly import BraidWord

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
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return SchurElement(self.src, self.N, out)

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
        coeff = qbinom(alpha + r - s, t)
        if coeff.is_zero():
            continue
        mid: tuple[Letter, ...] = ()
        if s - t:
            mid += (("F", i, s - t),)
        if r - t:
            mid += (("E", i, r - t),)
        out[word[:pos] + mid + word[pos + 2 :]] = coeff
    return out


class AnnularDepthError(RuntimeError):
    pass


@lru_cache(maxsize=None)
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
        xb = x.bar()
        prod: dict[Word, LaurentPoly] = {}
        for w1, c1 in xb.terms.items():
            for w2, c2 in y.terms.items():
                w = w1 + w2
                s = prod.get(w)
                p = c1 * c2
                s = p if s is None else s + p
                prod[w] = s
        combined = SchurElement(y.src, y.N, prod)
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
    return GradedScalar(0, RatFunc.from_poly(total))


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
    out: dict[Word, LaurentPoly] = {}
    for w2, c2 in elem.terms.items():
        for w1, c1 in c.terms.items():
            w = w1 + w2
            s = out.get(w)
            p = c1 * c2
            s = p if s is None else s + p
            out[w] = s
    return SchurElement(elem.src, elem.N, out)


def colored_exponent(braid: BraidWord, colors: GlWeight) -> int:
    """Sum over crossings of +- (product of the two strand colors)."""
    cur = list(colors)
    total = 0
    for i, sign in braid.letters:
        total += sign * cur[i - 1] * cur[i]
        cur[i - 1], cur[i] = cur[i], cur[i - 1]
    return total


def eval_slN(braid: BraidWord, colors: GlWeight, N: int) -> GradedScalar:
    """The colored sl_N polynomial of the a-colored braid closure."""
    colors = tuple(colors)
    if len(colors) != braid.strands:
        raise ValueError("one color per strand required")
    if not weight_alive(colors, N):
        return GradedScalar.zero()
    perm = braid.permutation()
    if any(colors[perm[j]] != colors[j] for j in range(braid.strands)):
        raise ValueError("braid is not balanced for this coloring")
    elem = SchurElement.idempotent(colors, N)
    for i, sign in braid.letters:
        elem = _left_multiply_c(elem, i, sign)
    pairing = bilinear_form(elem)
    eps = colored_exponent(braid, colors)
    prefactor = GradedScalar(Fraction(eps, N), LaurentPoly.const((-1) ** (eps % 2)))
    return prefactor * pairing


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
    delta = LaurentPoly({2: -1, -2: -1})  # -(q + q^{-1}) in v-units
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
    return GradedScalar(0, RatFunc.from_poly(total))


def kauffman_jones(braid: BraidWord) -> GradedScalar:
    """The writhe-normalized bracket (unknot = 1): (-A^3)^{-w} times the
    state sum with loop exponent reduced by one."""
    w = braid.exponent_sum
    delta = RatFunc.from_poly(LaurentPoly({2: -1, -2: -1}))
    raw = kauffman_bracket(braid)
    body = raw.body / delta
    corr = LaurentPoly.v_pow(-3 * w, (-1) ** (w % 2))
    return GradedScalar(0, body * corr)


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
    circle = GradedScalar(0, LaurentPoly({2: -1, -2: -1}))
    return circle * kauffman_jones(braid)
