"""Tests for the highest-weight block trace (hwblocks), the spin matrix route
on at most three strands: its coordinates and blocks against the crossing
data read on the same vectors, its traces against the dominant-state kernel
and the block reader (the oracle in helpers), its eigenvalues against the
spectral decomposition of the braiding, and, past the ranks crossing data
reaches, the Markov moves and the braid relation.  The oracle's own
elimination is tested here too."""

import itertools
import math
import random

import pytest

from helpers import all_word_traces, block_trace_from_crossings, crossing_blocks, hw_spaces, markov_suite
from spinlink import hwblocks, rep, spinpoly, xcalc
from spinlink.qalg import GradedScalar, LaurentPoly, RatFunc
from spinlink.spinpoly import BraidWord, _crossing_data, _orbit_classes, _packed_trace, eval_spin


def _crossings(braid, n):
    return [(i, _crossing_data(n, sign)[0]) for i, sign in reversed(braid.letters)]


def _kernel_trace(braid, n):
    """Tr_q by the dominant-state kernel, the route of four or more strands."""
    return _packed_trace(_crossings(braid, n), _orbit_classes(n, braid.strands))


def _random_word(rng, m, length):
    return BraidWord(m, tuple((rng.randint(1, m - 1), rng.choice((1, -1))) for _ in range(length)))


def _raised(vec, i, n):
    """e_i on a vector {key: LaurentPoly} of S^(x)m through the coproduct
    sum_j 1 (x) ... (x) e_i (x) k_i (x) ... (x) k_i, from rep's one-factor actions."""
    e, k = rep.spin_action("e", i, n).cols, rep.spin_action("k", i, n).cols
    out: dict = {}
    for key, x in vec.items():
        for j, J in enumerate(key):
            for (target,), c in e.get((J,), {}).items():
                coeff = math.prod((k[(K,)][(K,)] for K in key[j + 1 :]), start=c * x)
                new = key[:j] + (target,) + key[j + 1 :]
                out[new] = out.get(new, LaurentPoly.zero()) + coeff
    return {key: x for key, x in out.items() if x}


def _key(g, a):
    """The key of S^(x)3 at rank len(g) + a with coordinate a + i in factor g[i - 1]."""
    return tuple(sum(1 << (a + i) for i, c in enumerate(g) if c == f) for f in (1, 2, 3))


def _coordinate_keys(N, a):
    """The key of coordinate k of HW_(3^a, 1^N): factor 1 holds the first N - k coordinates, factor 3 the rest."""
    return [_key((1,) * (N - k) + (3,) * k, a) for k in range(N + 1)]


def _vector(N, a, k):
    """h_k of hwblocks on the keys, from its orbit values: v(g) = (-v^4)^inv(g) V(content of g)."""
    values, out = hwblocks._values(N, k), {}
    for g in itertools.product((1, 2, 3), repeat=N):
        inv = sum(x > y for j, x in enumerate(g) for y in g[j + 1 :])
        x = values[g.count(2), g.count(3)] * LaurentPoly.v_pow(4 * inv, (-1) ** inv)
        if x:
            out[_key(g, a)] = x
    return out


def _apply(crossing, i, vec):
    out: dict = {}
    for key, x in vec.items():
        for pair, c in crossing[key[i - 1 : i + 1]].items():
            new = key[: i - 1] + pair + key[i + 1 :]
            out[new] = out.get(new, LaurentPoly.zero()) + c * x
    return out


class TestBasis:
    @pytest.mark.parametrize("N, a", ((0, 0), (1, 0), (2, 1), (3, 0), (4, 0), (3, 2)))
    def test_coordinates_are_highest_weight_vectors(self, N, a):
        n, zero = N + a, LaurentPoly.zero()
        keys = _coordinate_keys(N, a)
        for k in range(N + 1):
            h = _vector(N, a, k)
            assert all(_raised(h, i, n) == {} for i in range(1, n + 1))
            assert [h.get(key, zero) for key in keys] == [LaurentPoly.one() if j == k else zero for j in range(N + 1)]

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_spaces_are_the_oracles(self, n, m):
        blocks, oracle = hwblocks._blocks(n, m), hw_spaces(n, m)
        assert dict(zip(blocks.weights, blocks.dims)) == {lam: len(basis) for lam, (_, basis) in
                                                         zip(oracle.weights, oracle.bases)}

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_blocks_are_the_crossing_on_the_coordinates(self, n):
        # row r of a block holds the coordinates of sigma h_r, its values at the coordinate keys
        blocks, zero = hwblocks._blocks(n, 3), LaurentPoly.zero()
        for i in (1, 2):
            for sign in (1, -1):
                crossing = _crossing_data(n, sign)[0]
                for a, mat in enumerate(blocks.letter(i, sign).values):
                    N = n - a
                    images = [_apply(crossing, i, _vector(N, a, r)) for r in range(N + 1)]
                    assert [[image.get(key, zero) for key in _coordinate_keys(N, a)] for image in images] == mat

    def test_an_inexact_division_raises(self):
        # (1 - v^2) / (1 + v^2) is the entry of P^-1 D P for these pins
        one, zero, d = LaurentPoly.one(), LaurentPoly.zero(), LaurentPoly({0: 1, 2: 1})
        with pytest.raises(ValueError, match="does not divide"):
            hwblocks._block([[d, one], [zero, one]], [one, LaurentPoly.v_pow(2)], [0, 1])
        assert hwblocks._block([[d, one], [zero, one]], [one, one], [0, 1]) == [[one, zero], [zero, one]]

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_dimensions_and_qdims_give_the_empty_word(self, n, m):
        # sum_lam dim(HW_lam) qdim(L_lam) is the trace of the identity
        assert hwblocks.block_trace([], n, m) == _packed_trace([], _orbit_classes(n, m))

    # the oracle's elimination

    @pytest.mark.parametrize("n, m", ((1, 3), (2, 3), (3, 3), (3, 2), (2, 4)))
    def test_every_vector_is_highest_weight(self, n, m):
        for den, basis in hw_spaces(n, m).bases:
            frees = [f for f, _ in basis]
            for f, h in basis:
                assert all(_raised(h, i, n) == {} for i in range(1, n + 1))
                zero = LaurentPoly.zero()
                assert [h.get(g, zero) for g in frees] == [den if g == f else zero for g in frees]

    def test_three_strands_need_no_fraction_free_step(self):
        for n in (1, 2, 3, 4, 5, 6):
            assert all(den.is_one() for den, _ in hw_spaces(n, 3).bases)


class TestFractionFree:
    """At (n, m) = (2, 4) three weight spaces are left with no unit pivot, so
    the oracle's fraction-free step and the common denominator D are
    exercised there."""

    def test_three_spaces_need_a_denominator(self):
        dens = [den for den, _ in hw_spaces(2, 4).bases]
        assert sum(not den.is_one() for den in dens) == 3

    def test_dimensions_and_qdims_give_the_empty_word(self):
        spaces = hw_spaces(2, 4)
        total = sum((q.scale(len(basis)) for q, (_, basis) in zip(spaces.qdims, spaces.bases)), LaurentPoly.zero())
        assert total == _packed_trace([], _orbit_classes(2, 4)) == rep.circle_value(2) ** 4

    def test_block_traces_equal_the_kernel(self):
        rng = random.Random(2404)
        for length in (1, 2, 3, 4, 5, 6):
            braid = _random_word(rng, 4, length)
            assert block_trace_from_crossings(_crossings(braid, 2), 2, 4) == _kernel_trace(braid, 2), braid


class TestTwoStrands:
    """S (x) S is multiplicity-free, so every block is 1 x 1: the braiding's
    eigenvalue c on the summand, R P = c P for the spectral projector P that
    fixes the summand's highest-weight vector."""

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_blocks_are_braiding_eigenvalues(self, n):
        fam = spinpoly._x_family(n)
        spec = xcalc.spectral_basis(n, fam)
        projectors = spec.projectors + [spec.residual]
        bases = hw_spaces(n, 2).bases
        assert len(bases) == len(projectors)
        fixing = []
        for _, [(_, h)] in bases:
            fixes = [p for p in projectors if p.apply_column(h) == {k: x * p.den for k, x in h.items()}]
            assert len(fixes) == 1
            fixing.append(fixes[0])
        assert len({id(p) for p in fixing}) == len(projectors)
        for sign in (1, -1):
            r = xcalc.braiding(n, fam, sign)
            for p, [[c]] in zip(fixing, crossing_blocks(_crossing_data(n, sign)[0], 1, bases)):
                assert r @ p == p.scale(RatFunc.from_poly(c))

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
    def test_eigenvalues_are_the_crossing_blocks(self, n):
        blocks, oracle = hwblocks._blocks(n, 2), hw_spaces(n, 2)
        for sign in (1, -1):
            read = dict(zip(oracle.weights, crossing_blocks(_crossing_data(n, sign)[0], 1, oracle.bases)))
            assert dict(zip(blocks.weights, blocks.letter(1, sign).values)) == read


class TestWithoutCrossingData:
    """Past the ranks where crossing data is affordable: the Markov moves, the
    braid relation and the inverse, on the blocks alone."""

    @pytest.mark.parametrize("n, word", ((6, ((1, 1),)), (6, ((1, 1), (1, 1), (1, -1), (1, 1))),
                                         (7, ((1, -1), (1, -1)))))
    def test_markov_moves(self, n, word):
        report = markov_suite(BraidWord(2, word), n)
        assert len(report) == 5 and [entry for entry in report if entry["status"] != "pass"] == []

    def test_braid_relation_and_inverses_at_rank_six(self):
        blocks = hwblocks._blocks(6, 3)
        one, zero = LaurentPoly.one(), LaurentPoly.zero()

        def product(*mats):
            out = mats[0]
            for mat in mats[1:]:
                out = [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*mat)] for row in out]
            return out

        for sign in (1, -1):
            s1, s2 = blocks.letter(1, sign).values, blocks.letter(2, sign).values
            t1, t2 = blocks.letter(1, -sign).values, blocks.letter(2, -sign).values
            for a, dim in enumerate(blocks.dims):
                assert product(s1[a], s2[a], s1[a]) == product(s2[a], s1[a], s2[a])
                identity = [[one if r == c else zero for c in range(dim)] for r in range(dim)]
                assert product(s1[a], t1[a]) == product(s2[a], t2[a]) == identity
        head, tail = ((1, -1), (2, 1), (2, 1)), ((1, 1), (2, -1))
        assert (eval_spin(BraidWord(3, head + ((1, 1), (2, 1), (1, 1)) + tail), 6)
                == eval_spin(BraidWord(3, head + ((2, 1), (1, 1), (2, 1)) + tail), 6))


class TestRouteGate:
    """The block route, which eval_spin runs on at most three strands, against
    the dominant-state kernel."""

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_every_word_of_the_sweep(self, n):
        words = all_word_traces(n)
        assert len(words) == 5461
        bad = [word for word, want in words.items() if eval_spin(BraidWord(3, word), n) != want]
        assert not bad, bad[:5]

    @pytest.mark.parametrize("n, lengths", ((4, (3, 5, 7, 9)), (5, (3, 4))))
    def test_random_words_at_high_rank(self, n, lengths):
        rng = random.Random(97 * n)
        for length in lengths:
            braid = _random_word(rng, 3, length)
            assert eval_spin(braid, n) == GradedScalar(0, _kernel_trace(braid, n)), braid

    def test_two_strand_words(self):
        rng = random.Random(2)
        for n in (1, 2, 3, 4):
            for length in (0, 1, 4, 9):
                braid = _random_word(rng, 2, length)
                assert eval_spin(braid, n) == GradedScalar(0, _kernel_trace(braid, n)), braid

    def test_the_oracle_equals_the_route(self):
        rng = random.Random(3)
        for n in (1, 2, 3):
            for length in (1, 2, 5):
                braid = _random_word(rng, 3, length)
                assert eval_spin(braid, n) == GradedScalar(0, block_trace_from_crossings(_crossings(braid, n), n, 3))


class TestTables:
    def test_no_crossing_data_on_three_strands(self, monkeypatch):
        words = [BraidWord(2, ((1, 1), (1, 1), (1, -1))), BraidWord(3, ((1, 1), (2, -1), (1, 1)))]
        want = [GradedScalar(0, _kernel_trace(braid, 2)) for braid in words]

        def refuse(n, sign):
            raise AssertionError("crossing data built for a braid on at most three strands")

        monkeypatch.setattr(spinpoly, "_crossing_data", refuse)
        hwblocks._blocks.cache_clear()
        hwblocks._pins.cache_clear()
        assert [eval_spin(braid, 2) for braid in words] == want

    def test_caches_are_bounded(self):
        caches = {name for name, fn in vars(hwblocks).items() if hasattr(fn, "cache_info")}
        assert {"_blocks", "_pins"} <= caches
        for name in caches:
            assert getattr(hwblocks, name).cache_info().maxsize is not None, name
