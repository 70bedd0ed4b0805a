"""The colored sl_N pairing on highest-weight multiplicity blocks, for braids
on at most three strands of one color c: schur's production route there.

The crossings act on the weight-(c^m) space of schur's states (N x m 0/1
matrices with column sums c) and commute with U_q(gl_N), which acts on the
rows: E_r moves a 1 from row r + 1 to row r in column j, with coefficient
q^(sum over t < j of (x_r - x_(r+1))(t)) times
(-1)^(sum over t > j of (x_r + x_(r+1))(t)), x_r(t) the entry of row r in
column t.  So each crossing maps HW_lam, the vectors of row sums lam killed
by every E_r (a gl_m weight space, by skew Howe duality), to itself, and

  pairing = sum over lam of qdim_N(lam) * tr(beta | HW_lam),

with qdim_N(lam) the hook-content product prod [N + content] / [hook]
(Cautis-Kamnitzer-Morrison 2014; the Racah-matrix method of
Mironov-Morozov-Morozov 2012).

A run is a maximal range of rows of equal sum.  Inside a run, two adjacent
rows A != B differ in one column each (there are at most three columns), so
E_r has one target on them with two sources, and a highest-weight vector
takes q times its value on (A, B) at (B, A) when A < B (rows compared as the
tuples of their columns).  Its value on a state is therefore q^swaps times
its value on the state with each run in order, and only E_r between two runs
is left, at targets whose other rows are in order (the rest are units times
those): its sources are in order but for rows r - 1 and r.  Both kinds of
state are enumerated directly (schur._states), and put in order when read.
The kernel (hw_kernel, which the spin oracle in the tests runs too) is taken
on the ordered states alone: 47 vectors of 18 spaces from 104 ordered states
at (N, c) = (10, 5), with D = 1.  A block entry sums the crossing's single
image entries (schur._Crossing.entry) over the states the crossing takes to a
free state, so no image is built whole.  The blocks are traced by spinpoly's
block kernel, which the spin blocks of hwblocks share.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache

from .qalg import LaurentPoly, poly_divexact, poly_gcd, qint_ratio
from .schur import _crossing, _shapes, _states
from .spinpoly import BraidWord, _block_trace, _Packable


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
            den = den * poly_divexact(d, poly_gcd(den, d))
    den = den.shift(-den.v_valuation())  # a unit less, still a multiple of every pivot
    basis = []
    for f in columns:
        if f not in done:
            h = {f: den}
            for col, row in done.items():
                x = row.get(f)
                if x is not None:
                    d = row[col]
                    h[col] = -(x * den if d.is_one() else poly_divexact(x * den, d))
            basis.append((f, h))
    return den, basis


def _raising(columns: tuple[int, ...], r: int) -> dict[tuple[int, ...], LaurentPoly]:
    """E_r on a state, as {state': coefficient}."""
    out = {}
    for j, u in enumerate(columns):
        if u >> r & 1 and not u >> (r - 1) & 1:
            e = sum((v >> (r - 1) & 1) - (v >> r & 1) for v in columns[:j])
            s = sum((v >> (r - 1) & 1) + (v >> r & 1) for v in columns[j + 1 :])
            out[columns[:j] + (u ^ 3 << (r - 1),) + columns[j + 1 :]] = LaurentPoly.q_pow(e, (-1) ** s)
    return out


def _hook_qdim(lam: tuple[int, ...], N: int) -> LaurentPoly:
    """qdim_N(lam): the product over the boxes of lam of [N + content] / [hook]."""
    factors = Counter()
    for r, row in enumerate(lam):
        for j in range(row):
            factors[N + j - r] += 1
            factors[row - j + sum(x > j for x in lam[r + 1 :])] -= 1
    return qint_ratio(factors)


def _run_sorted(columns: tuple[int, ...], runs: list[range]) -> tuple[tuple[int, ...], int]:
    """The state with the rows of each run in increasing order, rows compared as
    the tuples of their columns, and the number of pairs of rows of a run out of
    that order."""
    rows = [tuple(j for j, u in enumerate(columns) if u >> r & 1) for r in range(runs[-1].stop)]
    swaps = 0
    for run in runs:
        part = rows[run.start : run.stop]
        swaps += sum(x > y for k, x in enumerate(part) for y in part[k + 1 :])
        rows[run.start : run.stop] = sorted(part)
    return tuple(sum(1 << r for r, row in enumerate(rows) if j in row) for j in range(len(columns))), swaps


class _Blocks:
    """The highest-weight spaces of the weight-(c^m) space at N, m <= 3: bases,
    the (D, [(f, h_f)]) of each nonzero HW_lam on its ordered states, keys, per
    space a table state -> (ordered state, swaps) filled on lookup from runs,
    the runs of lam, dims, their dimensions, and qdims, the 1 x 1 matrices
    [[qdim_N(lam)]]; letter(i, sign) is the crossing's blocks on columns i,
    i + 1, built on first use."""

    __slots__ = ("N", "c", "bases", "keys", "runs", "dims", "qdims", "_letters")

    def __init__(self, N: int, c: int, m: int):
        self.N, self.c, self._letters = N, c, {}
        self.bases, self.keys, self.runs, qdims = [], [], [], []
        for lam in _shapes(m * c, m, N):
            starts = [r for r in range(N) if r == 0 or lam[r] != lam[r - 1]]
            runs = [range(a, b) for a, b in zip(starts, starts[1:] + [N])] or [range(0)]
            keys: dict = {}  # state -> (its ordered state, swaps), filled on lookup
            rows: dict[tuple, dict] = {}  # one per state of row sums lam + alpha_r, r between runs
            for r in starts[1:]:
                for state in _states(lam, (c,) * m, (r - 1, r)):
                    images = _raising(state, r)
                    if images:
                        key, swaps = keys.get(state) or keys.setdefault(state, _run_sorted(state, runs))
                        for target, x in images.items():
                            rows.setdefault(target, {})[key] = x.shift(2 * swaps)
            den, basis = hw_kernel(_states(lam, (c,) * m), list(rows.values()))
            if basis:
                self.bases.append((den, basis))
                self.keys.append(keys)
                self.runs.append(runs)
                qdims.append([[_hook_qdim(lam, N)]])
        self.dims = [len(basis) for _, basis in self.bases]
        self.qdims = _Packable(qdims)

    def letter(self, i: int, sign: int) -> _Packable:
        """Row r of a block holds the coefficients of sigma h_r, (sigma h_r)[f] / D
        at each free state f, summed over the states that the crossing takes to f."""
        if (i, sign) not in self._letters:
            crossing, zero = _crossing(self.N, self.c, self.c, sign), LaurentPoly.zero()
            mats = []
            for (den, basis), keys, runs in zip(self.bases, self.keys, self.runs):
                mat = [[zero] * len(basis) for _ in basis]
                for col, (f, _) in enumerate(basis):
                    u2, w2 = f[i - 1 : i + 1]
                    both, one = u2 & w2, u2 ^ w2
                    for subset in itertools.combinations([r for r in range(self.N) if one >> r & 1],
                                                         self.c - both.bit_count()):
                        u = both | sum(1 << r for r in subset)
                        w = both | one & ~u
                        x = crossing.entry((u, w), (u2, w2))
                        if x:
                            state = f[: i - 1] + (u, w) + f[i + 1 :]
                            key, swaps = keys.get(state) or keys.setdefault(state, _run_sorted(state, runs))
                            for row, (_, h) in zip(mat, basis):
                                if key in h:
                                    row[col] = row[col] + (x * h[key]).shift(2 * swaps)
                mats.append(mat if den.is_one() else [[poly_divexact(x, den) for x in row] for row in mat])
            self._letters[i, sign] = _Packable(mats)
        return self._letters[i, sign]


_blocks = lru_cache(maxsize=8)(_Blocks)


def block_pairing(braid: BraidWord, a: tuple[int, ...], N: int) -> LaurentPoly:
    """The pairing of schur on the highest-weight blocks, for at most three
    strands of one color: spinpoly's block kernel, the first letter acting
    first."""
    return _block_trace(_blocks(N, a[0], braid.strands), braid.letters)
