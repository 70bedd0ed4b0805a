"""Braid closures and the spin-colored link polynomial.

A braid word is evaluated by assigning the braiding on S (x) S to every
crossing and closing up with the explicit cups and caps; the closure
reduces to a weighted diagonal sum over the start columns of S^(x)m, each
propagated through the word as a sparse vector so the full product matrix
is never materialized.

The braid operator commutes with U_q(so_{2n+1}), so its trace on a weight
space W_mu depends only on the Weyl orbit of mu: weight multiplicities are
W-invariant (Jantzen, Lectures on Quantum Groups, ch. 5), and W(B_n)
permutes the coordinates and changes their signs.  The closure weight of a
column (rep.closure_weight) is a signed power of q, linear in the column's
total weight, with a sign that does not depend on the column.  Hence

  Tr_q = sum over columns of dominant weight mu of
         diag(column) * sum_{nu in W mu} closure(nu),

and only the dominant-weight columns are propagated (40 of 512 for three
strands at n = 3).  rep.dominant_keys builds them without scanning the
others, and the orbit sums come from rep.orbit_sum, shared with schur.  The
last crossing of a word is not applied in full: only the diagonal entry of
its image is read off, and the diagonals of the columns that share an orbit
sum are added before that sum multiplies them.

Coefficients are packed (Kronecker substitution): a vector maps states to
ints, each a Laurent polynomial divided by its crossing's lowest power of v
and evaluated at v^2 = 2^B (every exponent of the braiding has the parity
of n), so a crossing step is one int multiply-add per (state, image entry).
A Crossing holds its images, their lowest exponent, and tables filled on
lookup: the images' l1 norms, and the images packed, one table per width B.
B is bounded per word by the all-ones vector of each orbit-sum class pushed
through the norms.  The class sums are decoded by balanced base-2^B digits,
exactly when every coefficient is below 2^(B-1) in absolute value, which the
bound ensures.  Crossing and the kernel (_step, _diagonal, _word_bits,
_packed_trace) are shared with schur's sl_N weight-space route.

On at most three strands the trace is taken on the highest-weight
multiplicity spaces instead (hwblocks), which are far smaller (of total
dimension 10 against 40 dominant start states at n = 3), and whose blocks
come from the braiding's eigenvalues and the spaces' coordinates alone: no
crossing data is built, and xcalc and clifford are not loaded.  Four or
more strands keep the kernel on crossing data, as do sweep_raw_traces and
the tests' oracles.

Three normalizations are exposed:

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
import re
from functools import lru_cache
from math import inf

from .qalg import GradedScalar, LaurentPoly, _pack, _slot_bits, _unpack, binom2
from .rep import closure_orbit_sum, dominant_keys, doubled_weight


class BraidWord:
    """An immutable, hashable element of the braid group: strand count plus signed Artin letters."""

    def __init__(self, strands: int, letters: tuple[tuple[int, int], ...]):
        if strands < 1:
            raise ValueError("strand count must be >= 1")
        for i, sign in letters:
            if not 1 <= i <= strands - 1:
                raise ValueError(f"generator index {i} out of range for {strands} strands")
            if sign not in (1, -1):
                raise ValueError(f"bad crossing sign {sign}")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, *value):
        raise AttributeError(f"BraidWord is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.strands, self.letters) == (other.strands, other.letters)

    def __hash__(self):
        return hash((self.strands, self.letters))

    def __repr__(self):
        return f"BraidWord(strands={self.strands!r}, letters={self.letters!r})"

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


_TOKEN = re.compile(r"^(?:s(\d+)(\^-1)?|([+-]?\d+))$")


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
def _x_family(n: int):
    """The X family of rank n, shared by both crossing signs."""
    from . import xcalc  # on the first crossing data: eval_slN, the symbolic engine and m <= 3 never load it

    return xcalc.build_X(n, check_product_route=False)


def braiding(n: int, fam, sign: int):
    """xcalc.braiding, imported on first use."""
    from . import xcalc

    return xcalc.braiding(n, fam, sign)


@lru_cache(maxsize=8)
def _crossing_data(n: int, sign: int) -> tuple[Crossing, LaurentPoly]:
    """The braiding (sign 1) or its inverse (sign -1) on S (x) S as a Crossing,
    its column map (a, b) -> {(c, d) -> LaurentPoly}, plus its denominator,
    which is 1: the braiding is a Laurent combination of the X^(k), whose
    entries are Laurent with integer coefficients.  Any other denominator or
    coefficient raises ValueError."""
    op = braiding(n, _x_family(n), sign)
    if not op.den.is_one():
        raise ValueError(f"the braiding at n={n} has denominator {op.den}, not 1")
    if any(type(c) is not int for col in op.cols.values() for p in col.values() for c in p.c.values()):
        raise ValueError(f"the braiding at n={n} has a coefficient that is not an integer")
    return Crossing(op.cols), op.den


@lru_cache(maxsize=16)
def _orbit_closure(n: int, m: int) -> dict[tuple[int, ...], LaurentPoly]:
    """The start columns of S^(x)m of dominant total weight mu, in order, each
    mapped to sum_{nu in W mu} closure(nu), with weights doubled (rep.doubled_weight)."""
    dominant = {column: doubled_weight(column, n) for column in dominant_keys(m, n)}
    sums = {wt: closure_orbit_sum(wt, m, n) for wt in set(dominant.values())}
    return {column: sums[wt] for column, wt in dominant.items()}


# -- packed coefficients ------------------------------------------------------------
#
# A vector is {state: int}, each int packed by qalg._pack.  The slot width is
# fixed before the word runs (_word_bits), so an entry that is 0 in Z may be
# dropped.


class _Table(dict):
    """A table pair -> {pair': int}, filled on lookup: the crossing's image
    of the pair, each coefficient mapped by `entry`."""

    __slots__ = ("crossing", "entry")

    def __init__(self, crossing: "Crossing", entry):
        super().__init__()
        self.crossing, self.entry = crossing, entry

    def __missing__(self, pair):
        row = self[pair] = {out: self.entry(c) for out, c in self.crossing[pair].items()}
        return row


class Crossing(dict):
    """A crossing's images pair -> {pair': LaurentPoly} (a subclass may build
    them in __missing__), with low, the lowest exponent among the images
    stored, norms, the table of their l1 norms, and packed(bits), the table of
    them packed at v^2 = 2^bits from v^low.  Every exponent of an image has
    the parity of low.  The tables hang off the images, so none outlives
    them."""

    __slots__ = ("low", "norms", "_packed")

    def __init__(self, images: dict | None = None):
        super().__init__()
        self.low, self._packed = inf, {}
        self.norms = _Table(self, lambda c: sum(map(abs, c.c.values())))
        for pair, image in (images or {}).items():
            self[pair] = image

    def __setitem__(self, pair, image: dict) -> None:
        super().__setitem__(pair, image)
        low = min([self.low, *(e for c in image.values() for e in c.c)])
        if low < self.low:
            # every packed table was read from the old low
            self.low, self._packed = low, {}

    def packed(self, bits: int) -> _Table:
        """The images packed at v^2 = 2^bits from v^low: one table per width."""
        if bits not in self._packed:
            low = self.low
            self._packed[bits] = _Table(self, lambda c: _pack(c, low, 2, bits))
        return self._packed[bits]


def _step(vec: dict, i: int, table: dict) -> dict:
    """One crossing on strands i, i+1 applied to a vector {state: int}: one
    multiply-add per (state, image entry).  Entries that are 0 are skipped."""
    new: dict = {}
    get = new.get
    for key, x in vec.items():
        if x:
            head, tail = key[: i - 1], key[i + 1 :]
            for pair, c in table[key[i - 1 : i + 1]].items():
                state = head + pair + tail
                new[state] = get(state, 0) + c * x
    return new


def _diagonal(vec: dict, i: int, table: dict, start: tuple) -> int:
    """The entry at `start` of _step(vec, i, table), read off without building
    the rest of the vector: the last crossing of a word only feeds the diagonal."""
    head, tail, target = start[: i - 1], start[i + 1 :], start[i - 1 : i + 1]
    total = 0
    for key, x in vec.items():
        if key[: i - 1] == head and key[i + 1 :] == tail:
            total += table[key[i - 1 : i + 1]].get(target, 0) * x
    return total


def _word_bits(crossings: list, classes) -> int:
    """The slot width for one word: each class's all-ones vector pushed through
    the majorant of every crossing (the table of coefficient norms), and the
    largest sum of the result bounds every coefficient of that class's diagonal
    sum, since the l1 norm of polynomials is submultiplicative."""
    bound = 0
    for columns in classes:
        vec = dict.fromkeys(columns, 1)
        for i, crossing in crossings:
            vec = _step(vec, i, crossing.norms)
        bound = max(bound, sum(vec.values()))
    return _slot_bits(bound)


# braids on at most this many strands are traced on highest-weight blocks (hwblocks)
_BLOCK_STRANDS = 3


def _raw_trace(braid: BraidWord, n: int) -> GradedScalar:
    """Tr_q of the braid operator: on the highest-weight blocks for at most
    three strands, with no crossing data, else by the dominant-state kernel,
    the diagonal entries of the dominant-weight start columns summed per
    orbit closure weight on packed coefficients, each sum weighted once."""
    m = braid.strands
    # operator product in word order: the rightmost letter acts first
    letters = braid.letters[::-1]
    if m <= _BLOCK_STRANDS:
        from . import hwblocks  # on the first such word: eval_slN and the symbolic engine never load it

        return GradedScalar(0, hwblocks.block_trace(letters, n, m))
    crossings = [(i, _crossing_data(n, sign)[0]) for i, sign in letters]
    return GradedScalar(0, _packed_trace(crossings, _orbit_classes(n, m)))


def _orbit_classes(n: int, m: int) -> dict[LaurentPoly, list]:
    """The dominant start columns of S^(x)m grouped by orbit closure weight, in order."""
    classes: dict[LaurentPoly, list] = {}
    for column, w in _orbit_closure(n, m).items():
        classes.setdefault(w, []).append(column)
    return classes


def _packed_trace(crossings: list, classes: dict) -> LaurentPoly:
    """The sum over the classes {weight: start states} of weight times the sum of
    the class's diagonal entries of the product of the crossings (i, Crossing),
    the first acting first.  Each class sum is decoded once."""
    if not crossings:
        return sum((w.scale(len(starts)) for w, starts in classes.items()), LaurentPoly.zero())
    # the bound pass builds every image the packed pass reaches (its support is the
    # larger), so low is final for this word, and finite: every crossing is invertible
    bits = _word_bits(crossings, classes.values())
    offset = sum(crossing.low for _, crossing in crossings)
    *body, (i, last) = [(j, crossing.packed(bits)) for j, crossing in crossings]
    total = LaurentPoly.zero()
    for w, starts in classes.items():
        diagonal = 0
        for start in starts:
            vec = {start: 1}
            for j, table in body:
                vec = _step(vec, j, table)
            diagonal += _diagonal(vec, i, last, start)
        total = total + _unpack(diagonal, bits, offset, 2) * w
    return total


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
        return raw * GradedScalar(0, stabilization_factor(n).body ** -e)
    if normalization == "intro":
        sign = (-1) ** (n * e + braid.strands * binom2(n + 1))
        return raw * GradedScalar(0, LaurentPoly.v_pow(-n * e, sign))
    raise ValueError(f"unknown normalization {normalization!r}")


def _tuples(dim: int, m: int):
    """Every start column of S^(x)m, in lexicographic order.  No route lists
    them any more (_orbit_closure builds the dominant ones directly); the
    benchmark's tracer still wraps this function."""
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
    n = 3).  One slot width serves every word: a word's class sum is at most
    the number of dominant columns times the largest column norm of the
    majorant to the power max_len.
    """
    gens = [(i, s) for i in range(1, m) for s in (1, -1)]
    by_weight = _orbit_classes(n, m)
    data = {s: _crossing_data(n, s)[0] for s in (1, -1)}
    column_norm = max(sum(c.norms[pair].values()) for c in data.values() for pair in c)
    bits = _slot_bits(sum(map(len, by_weight.values())) * column_norm ** max_len)
    tables = {s: c.packed(bits) for s, c in data.items()}

    zero = LaurentPoly.zero()
    totals: dict[tuple, LaurentPoly] = {}
    for w, columns in by_weight.items():
        sums: dict[tuple, int] = {}
        for column in columns:
            stack = [((), {column: 1})]
            while stack:
                word, vec = stack.pop()
                sums[word] = sums.get(word, 0) + vec.get(column, 0)
                if len(word) == max_len:
                    continue
                for i, sign in gens:
                    child = ((i, sign),) + word
                    if len(child) < max_len:
                        stack.append((child, _step(vec, i, tables[sign])))
                    else:
                        sums[child] = sums.get(child, 0) + _diagonal(vec, i, tables[sign], column)
        for word, total in sums.items():
            offset = sum(data[sign].low for _, sign in word)
            totals[word] = totals.get(word, zero) + _unpack(total, bits, offset, 2) * w
    return {word: GradedScalar(0, total) for word, total in totals.items()}
