"""The spin matrix trace on highest-weight multiplicity blocks, for braids on
at most three strands, built from eigenvalues and cap pins: no crossing data.

A braid operator on S^(x)m commutes with U_q(so_{2n+1}), so it maps each
highest-weight space HW_lam (the vectors of dominant weight lam killed by
every e_i) to itself, and

  Tr_q(beta) = sum over dominant lam of qdim(L_lam) * tr(beta | HW_lam)

(Rosso-Jones 1993; the Racah-matrix method of Mironov-Morozov-Morozov 2012).
qdim(L_lam) is Weyl's product formula, signed and evaluated as
rep.closure_weight is.  Weights are doubled (rep.doubled_weight).

Two strands.  S (x) S is the multiplicity-free sum of the L_mu with
mu = (2^k, 0^(n-k)), k = 0..n, and the braiding acts on L_mu by a ratio of
twists (Reshetikhin-Turaev 1990): r_mu = (-1)^C(j+1,2) q^(c(mu) - 2 c(S)),
c(lam) = (lam, lam + 2 rho), j = n - k the zero coordinates of mu.  The
inverse crossing acts by r_mu^-1.  Every block is 1 x 1.

Three strands.  The dominant weights are lam = (3^a, 1^N), N = n - a.  On a
key of weight lam the first a coordinates lie in no factor and each other
coordinate in exactly one, and e_1..e_a vanish there, so HW_lam is HW of
weight (1^N) in S^(x)3 at rank N.  Write a key as g in {1,2,3}^N, coordinate
i in factor g(i).  The coproduct D(e) = e (x) k + 1 (x) e gives:

  - e_i, i < N, on the two keys that differ by swapping g(i) != g(i+1): one
    more inversion multiplies the value by -v^4, so a highest-weight vector
    is v(g) = (-v^4)^inv(g) V(g's content (n1, n2, n3));
  - e_N, for each content m of N - 1 coordinates:
    v^4 (-v^4)^(m2+m3) V(m+e1) + v^2 (-v^4)^m3 V(m+e2) + V(m+e3) = 0.

So V is fixed by its values V(N-k, 0, k) on the keys with factor 2 empty, and
every other value follows by a division by a unit.  These are the
coordinates of HW_lam: h_k is the vector with V(N-k', 0, k') = [k = k'],
and a Laurent vector has Laurent coordinates.  No elimination is run.

sigma_1 acts by r_mu, mu = mu_(a+j), on the left-coupled vector of L_lam in
L_mu (x) S, and sigma_2 by r_mu on the right-coupled one in S (x) L_mu.  The
left-coupled vector for mu_(a+j) is 0 where factor 3 holds more than j
coordinates (its weights lie above lam - mu), and where factor 3 holds the
first l < j coordinates it is a vector of L_mu of weight mu_(a+l) in factors
1, 2, which the cap of those factors at rank N - l (rep.cap_n) kills: the cap
kills every vector below a highest weight and not the highest-weight vector
of L_(mu_(a+l)).  These cap pins, read on the coordinates, are a matrix P
with P_l(h_k) = 0 for k < l and P_l(h_l) != 0, and P T^t is diagonal for T
the matrix of the left-coupled vectors.  So in the basis h_k the block is

  sigma = T^-1 D T = (P^-1 D P)^t,   D = diag(r_mu),

found from P X = D P by substitution, one exact division per entry (a
division that is not exact raises ValueError): the block is Laurent because
the braiding has Laurent entries on keys.  sigma_2 is the mirror image, with
the factors 1 and 3 exchanged.  The pins depend on N alone.

Per word, the blocks are traced by spinpoly's block kernel, shared with the
type A blocks of slnblocks: on Kronecker-packed ints (qalg._pack), all
blocks of one letter sharing its lowest exponent, with a slot width from the
blocks' cached norms and the sum over lam decoded once.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from . import qalg
from .qalg import LaurentPoly, binom2, qint_ratio
from .rep import _closure_form, qJ
from .spinpoly import _block_trace, _Packable

_ONE, _ZERO = LaurentPoly.one(), LaurentPoly.zero()


def _qdim(lam: tuple[int, ...], m: int, n: int) -> LaurentPoly:
    """qdim(L_lam) for the doubled weight lam, as the closure weights of its
    weights add up (rep._closure_form): Weyl's product over the positive roots
    e_i - e_j, e_i + e_j and e_i of B_n of [(lam + rho, a)] / [(rho, a)], in
    doubled coordinates, where 2 rho is the closure form's steps."""
    steps, sign = _closure_form(m, n)
    shifted = [x + s for x, s in zip(lam, steps)]
    factors = Counter()  # [a]'s exponent in the product: the equal factors of both sides cancel first
    for j, (a, s) in enumerate(zip(shifted, steps)):
        factors.update((a, *(a - b for b in shifted[j + 1 :]), *(a + b for b in shifted[j + 1 :])))
        factors.subtract((s, *(s - t for t in steps[j + 1 :]), *(s + t for t in steps[j + 1 :])))
    return qint_ratio(factors).scale(sign)


def _eigenvalue(k: int, n: int) -> LaurentPoly:
    """r_mu for mu = (2^k, 0^(n-k)): (-1)^C(j+1,2) q^(c(mu) - 2 c(S)), with
    4 c(lam) = sum x (x + 2 s) over the doubled coordinates x of lam and the
    steps s = 2 rho, and v^2 = q."""
    steps, _ = _closure_form(1, n)

    def four_c(lam):
        return sum(x * (x + 2 * s) for x, s in zip(lam, steps))

    mu = (2,) * k + (0,) * (n - k)
    return LaurentPoly.v_pow((four_c(mu) - 2 * four_c((1,) * n)) // 2, (-1) ** binom2(n - k + 1))


def _swap(x: int) -> LaurentPoly:
    """(-v^4)^x: x more inversions."""
    return LaurentPoly.v_pow(4 * x, -1 if x % 2 else 1)


def _values(N: int, k: int) -> dict[tuple[int, int], LaurentPoly]:
    """The orbit values of h_k at rank N: {(n2, n3): V(N - n2 - n3, n2, n3)},
    the row n2 = 0 given and each later row from the relation of e_N at
    m = (., b - 1, c), solved for V(m + e2), a unit times it."""
    V = {(0, c): _ONE if c == k else _ZERO for c in range(N + 1)}
    for b in range(1, N + 1):
        for c in range(N + 1 - b):
            V[b, c] = -(_swap(b - 1).shift(2) * V[b - 1, c] + _swap(-c).shift(-2) * V[b - 1, c + 1])
    return V


def _cap_weights(N: int) -> list[LaurentPoly]:
    """The cap of S (x) S at rank N (rep.cap_n) on the orbit values: entry b
    sums q^-I (-v^4)^inv over the keys (I, I^c) with |I^c| = b, where inv
    counts the coordinates of I^c before one of I.  Built one coordinate at
    a time: layer[t] is the sum over the choices with t coordinates in I."""
    layer = [_ONE]
    for i in range(1, N + 1):
        weight = qJ(1 << (i - 1), N) ** -1
        new = layer + [_ZERO]
        for t, p in enumerate(layer):
            new[t + 1] = new[t + 1] + p * weight * _swap(i - 1 - t)
        layer = new
    return layer[::-1]


@lru_cache(maxsize=16)
def _pins(N: int) -> tuple[list, list]:
    """The cap pins of HW at rank N on the coordinates, (left, right):
    left[l][k] is the cap of factors 1, 2 on the part of h_k where factor 3
    holds the first l coordinates, right[l][k] the cap of factors 2, 3 where
    factor 1 holds them.  left[l][k] = 0 for k < l, right[l][k] = 0 for
    k > N - l."""
    values = [_values(N, k) for k in range(N + 1)]
    caps = [_cap_weights(N - l) for l in range(N + 1)]
    left = [[sum((c * V[b, l] for b, c in enumerate(caps[l])), _ZERO) for V in values] for l in range(N + 1)]
    right = [[sum((c * V[N - l - t, t] for t, c in enumerate(caps[l])), _ZERO) for V in values]
             for l in range(N + 1)]
    return left, right


def _divide(row: list, d: LaurentPoly) -> list:
    """Each entry of row divided by d in Z[v^{+-1}], d = content * v^val *
    primitive: one long division by the primitive part per entry.  A division
    that is not exact raises ValueError."""
    content, primitive = qalg._content_and_primitive(d)
    primitive, shift = LaurentPoly(primitive), -d.v_valuation()
    out = []
    for x in row:
        q = qalg.poly_quotient(x, primitive)
        if q is None or any(c % content for c in q.c.values()):
            raise ValueError(f"{d} does not divide {x} in Z[v^(+-1)]")
        out.append(LaurentPoly({e + shift: c // content for e, c in q.c.items()}))
    return out


def _block(pins: list, r: list, pivots: list) -> list:
    """(P^-1 D P)^t for the pins P and D = diag(r), from P X = D P: row l of P
    is nonzero only at pivots[l] and at the pivots of the rows after it, so
    the rows are solved from the last, each entry by one exact division.
    Row r of the block holds the coefficients of sigma h_r."""
    X: list = [None] * len(pins)
    for l in reversed(range(len(pins))):
        p, row = pivots[l], [r[l] * x for x in pins[l]]
        for k, c in enumerate(pins[l]):
            if c and k != p:
                row = [a - c * b for a, b in zip(row, X[k])]
        X[p] = _divide(row, pins[l][p])
    return [list(col) for col in zip(*X)]


class _Blocks:
    """The highest-weight spaces of S^(x)m, m <= 3, at rank n: weights, the
    dominant lam with HW_lam nonzero, dims, their dimensions, and qdims, the
    1 x 1 matrices [[qdim(L_lam)]]; letter(i, sign) is the crossing's blocks
    on strands i, i+1, built on first use."""

    __slots__ = ("n", "m", "weights", "dims", "qdims", "_letters")

    def __init__(self, n: int, m: int):
        if not 1 <= m <= 3:
            raise ValueError(f"highest-weight blocks are built for 1 to 3 strands, not {m}")
        self.n, self.m, self._letters = n, m, {}
        if m == 1:
            self.weights, self.dims = [(1,) * n], [1]
        elif m == 2:
            self.weights, self.dims = [(2,) * k + (0,) * (n - k) for k in range(n + 1)], [1] * (n + 1)
        else:
            self.weights = [(3,) * a + (1,) * (n - a) for a in range(n + 1)]
            self.dims = [n - a + 1 for a in range(n + 1)]
        self.qdims = _Packable([[[_qdim(lam, m, n)]] for lam in self.weights])

    def letter(self, i: int, sign: int) -> _Packable:
        if (i, sign) not in self._letters:
            n = self.n
            if self.m == 2:
                mats = [[[_eigenvalue(k, n) ** sign]] for k in range(n + 1)]
            else:
                mats = []
                for a in range(n + 1):
                    N = n - a
                    r = [_eigenvalue(a + l, n) ** sign for l in range(N + 1)]
                    pivots = range(N + 1) if i == 1 else range(N, -1, -1)
                    mats.append(_block(_pins(N)[i - 1], r, list(pivots)))
            self._letters[i, sign] = _Packable(mats)
        return self._letters[i, sign]


_blocks = lru_cache(maxsize=8)(_Blocks)


def block_trace(letters: list, n: int, m: int) -> LaurentPoly:
    """Tr_q on S^(x)m, m <= 3, of the product of the crossings (i, sign), the
    first acting first: sum over lam of qdim(L_lam) times the trace of the
    product of the blocks, by spinpoly's block kernel."""
    return _block_trace(_blocks(n, m), letters)
