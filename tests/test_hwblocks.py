"""Tests for the highest-weight block trace (hwblocks), the spin matrix route
on at most three strands, against the dominant-state kernel it replaces
there and against the spectral decomposition of the braiding."""

import math
import random

import pytest

from helpers import all_word_traces
from spinlink import hwblocks, rep, spinpoly, xcalc
from spinlink.qalg import GradedScalar, LaurentPoly, RatFunc
from spinlink.spinpoly import BraidWord, _crossing_data, _orbit_classes, _packed_trace, eval_spin


def _crossings(braid, n):
    return [(i, _crossing_data(n, sign)[0]) for i, sign in reversed(braid.letters)]


def _kernel_trace(braid, n):
    """Tr_q by the dominant-state kernel, the route of four or more strands."""
    return _packed_trace(_crossings(braid, n), _orbit_classes(n, braid.strands))


def _block_trace(braid, n):
    return hwblocks.block_trace(_crossings(braid, n), n, braid.strands)


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


class TestBasis:
    @pytest.mark.parametrize("n, m", ((1, 3), (2, 3), (3, 3), (3, 2), (2, 4)))
    def test_every_vector_is_highest_weight(self, n, m):
        for den, basis in hwblocks._spaces(n, m).bases:
            frees = [f for f, _ in basis]
            for f, h in basis:
                assert all(_raised(h, i, n) == {} for i in range(1, n + 1))
                zero = LaurentPoly.zero()
                assert [h.get(g, zero) for g in frees] == [den if g == f else zero for g in frees]

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_dimensions_and_qdims_give_the_empty_word(self, n, m):
        # sum_lam dim(HW_lam) qdim(L_lam) is the trace of the identity
        assert hwblocks.block_trace([], n, m) == _packed_trace([], _orbit_classes(n, m))

    def test_three_strands_need_no_fraction_free_step(self):
        for n in (1, 2, 3, 4):
            assert all(den.is_one() for den, _ in hwblocks._spaces(n, 3).bases)


class TestFractionFree:
    """At (n, m) = (2, 4) three weight spaces are left with no unit pivot, so
    the fraction-free step and the common denominator D are exercised there."""

    def test_three_spaces_need_a_denominator(self):
        dens = [den for den, _ in hwblocks._spaces(2, 4).bases]
        assert sum(not den.is_one() for den in dens) == 3

    def test_dimensions_and_qdims_give_the_empty_word(self):
        spaces = hwblocks._spaces(2, 4)
        total = sum((q.scale(len(basis)) for ((q,),), (_, basis) in zip(spaces.qdims.values, spaces.bases)),
                    LaurentPoly.zero())
        assert total == _packed_trace([], _orbit_classes(2, 4)) == rep.circle_value(2) ** 4

    def test_block_traces_equal_the_kernel(self):
        rng = random.Random(2404)
        for length in (1, 2, 3, 4, 5, 6):
            braid = _random_word(rng, 4, length)
            assert _block_trace(braid, 2) == _kernel_trace(braid, 2), braid


class TestTwoStrands:
    """S (x) S is multiplicity-free, so every block is 1 x 1: the braiding's
    eigenvalue c on the summand, R P = c P for the spectral projector P that
    fixes the summand's highest-weight vector."""

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_blocks_are_braiding_eigenvalues(self, n):
        fam = spinpoly._x_family(n)
        spec = xcalc.spectral_basis(n, fam)
        projectors = spec.projectors + [spec.residual]
        bases = hwblocks._spaces(n, 2).bases
        assert len(bases) == len(projectors)
        fixing = []
        for _, [(_, h)] in bases:
            fixes = [p for p in projectors if p.apply_column(h) == {k: x * p.den for k, x in h.items()}]
            assert len(fixes) == 1
            fixing.append(fixes[0])
        assert len({id(p) for p in fixing}) == len(projectors)
        for sign in (1, -1):
            r = xcalc.braiding(n, fam, sign)
            blocks = hwblocks._letter(_crossing_data(n, sign)[0], 1, n, 2).values
            for p, block in zip(fixing, blocks):
                [[c]] = block
                assert r @ p == p.scale(RatFunc.from_poly(c))


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


class TestTables:
    @pytest.fixture
    def fresh_crossing_data(self):
        _crossing_data.cache_clear()
        yield
        _crossing_data.cache_clear()

    def test_no_block_table_outlives_its_crossing(self, fresh_crossing_data, monkeypatch):
        words = [BraidWord(2, ((1, 1), (1, 1), (1, -1))), BraidWord(3, ((1, 1), (2, -1), (1, 1)))]
        want = [eval_spin(braid, 2) for braid in words]
        _crossing_data.cache_clear()
        braiding = spinpoly.braiding
        monkeypatch.setattr(spinpoly, "braiding",
                            lambda n, fam, sign: braiding(n, fam, sign).scale(RatFunc(LaurentPoly.const(-1))))
        assert [eval_spin(braid, 2) for braid in words] == [-value for value in want]

    def test_tables_hang_off_the_crossing(self, fresh_crossing_data):
        eval_spin(BraidWord(3, ((1, 1), (2, -1))), 2)
        assert set(_crossing_data(2, 1)[0].blocks) == {(3, 1)}
        assert set(_crossing_data(2, -1)[0].blocks) == {(3, 2)}

    def test_caches_are_bounded(self):
        caches = {name for name, fn in vars(hwblocks).items() if hasattr(fn, "cache_info")}
        assert "_spaces" in caches
        for name in caches:
            assert getattr(hwblocks, name).cache_info().maxsize is not None, name
