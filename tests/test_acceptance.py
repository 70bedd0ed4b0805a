"""Acceptance criteria for the whole package.

Each test implements one numbered criterion at its stated scope and
tolerance (exact equality of canonical forms throughout) and prints one
PASS/FAIL line.  The conjecture probes (criterion 7) report their outcome
but never gate.  Set SPINLINK_FULL_ACCEPTANCE=1 to additionally run the
optional rank-three Markov harness.
"""

import itertools
import os
import random
import time

import pytest

from helpers import markov_suite, r_on_strands
from spinlink.clifford import qgrp_via_clifford, wenzl_C
from spinlink.iqsym import eval_spin_symbolic
from spinlink.qalg import GradedScalar, LaurentPoly, RatFunc, appendixA_suite, devil, qbinom
from spinlink.rep import H, LinOp, circle_value, spin_action
from spinlink.schur import (
    SchurElement,
    bilinear_form,
    eval_slN,
    sl2_from_spin1,
    spin1_from_jones,
)
from spinlink.spinpoly import BraidWord, eval_spin, stabilization_factor, sweep_raw_traces
from spinlink.xcalc import (
    braiding,
    build_X,
    change_of_basis_check,
    relation_suite,
)

FULL = os.environ.get("SPINLINK_FULL_ACCEPTANCE") == "1"

_sweep_cache: dict = {}


def all_word_traces(n: int) -> dict:
    """Raw traces of every signed 3-strand braid word of length <= 6."""
    if n not in _sweep_cache:
        _sweep_cache[n] = sweep_raw_traces(3, n, 6)
    return _sweep_cache[n]


def report(num: int, desc: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"[{status}] criterion {num:2}: {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc}"


def test_01_unknot_values():
    t0 = time.time()
    ok = True
    for n in (1, 2, 3):
        got = eval_spin(BraidWord(1, ()), n)
        ok = ok and got == GradedScalar(0, circle_value(n))
    q = LaurentPoly.q_pow
    stripped = eval_spin(BraidWord(1, ()), 2, normalization="intro")
    ok = ok and stripped == GradedScalar(0, q(4) + q(2) + q(-2) + q(-4))
    elapsed = time.time() - t0
    report(1, "unknot circle values and sign-stripped rank-two value", ok and elapsed < 1.0,
           f"{elapsed:.2f}s")


def test_02_wenzl_c_equals_h():
    ok = True
    elapsed3 = 0.0
    for n in (1, 2, 3):
        t0 = time.time()
        ok = ok and wenzl_C(n) == H(n)
        if n == 3:
            elapsed3 = time.time() - t0
    report(2, "Clifford-model C equals the trivalent composite H for n = 1,2,3",
           ok and elapsed3 < 60.0, f"n=3 in {elapsed3:.2f}s")


def test_03_clifford_action_matches():
    ok = all(
        qgrp_via_clifford(kind, i, n) == spin_action(kind, i, n)
        for n in (1, 2, 3)
        for kind in ("e", "f", "k", "k_inv")
        for i in range(1, n + 1)
    )
    report(3, "Fock-induced action equals the spin action generator-by-generator", ok)


def test_04_spectral_suite():
    ok = True
    detail = []
    for n in (1, 2, 3):
        fam = build_X(n)  # asserts both construction routes and the vanishing step
        x = fam[1]
        idSS = LinOp.identity(("S", "S"), n)
        evals = [RatFunc.zero()] + [
            RatFunc.from_poly(devil(k, k + 1).scale((-1) ** k)) for k in range(1, n + 1)
        ]
        prod = idSS
        for ev in evals:
            prod = prod @ (x - idSS.scale(ev))
        ok = ok and prod.is_zero()
        for skip in range(len(evals)):
            sub = idSS
            for t, ev in enumerate(evals):
                if t != skip:
                    sub = sub @ (x - idSS.scale(ev))
            ok = ok and not sub.is_zero()
        rep = change_of_basis_check(n)
        bad = [e for e in rep if e["status"] != "pass"]
        ok = ok and not bad
        if bad:
            detail.append(str(bad))
    report(4, "minimal polynomial roots and isotypic ranks for n <= 3", ok, "; ".join(detail))


def test_05_braiding_axioms():
    ok = True
    times = []
    for n in (1, 2, 3):
        t0 = time.time()
        fam = build_X(n, check_product_route=False)
        r, rinv = braiding(n, fam), braiding(n, fam, -1)
        idSS = LinOp.identity(("S", "S"), n)
        ok = ok and (r @ rinv) == idSS == (rinv @ r)
        r1 = r_on_strands(1, 3, n, fam=fam)
        r2 = r_on_strands(2, 3, n, fam=fam)
        ok = ok and (r1 @ r2 @ r1) == (r2 @ r1 @ r2)
        times.append(time.time() - t0)
    ok = ok and times[0] + times[1] < 60.0 and times[2] < 600.0
    report(5, "R R^{-1} = id and Yang-Baxter on three strands, n = 1,2,3", ok,
           "n=1,2 in %.1fs; n=3 in %.1fs" % (times[0] + times[1], times[2]))


def test_06_relation_battery():
    ok = True
    bad = []
    for n in (1, 2, 3):
        rep = relation_suite(n)
        for e in rep:
            if e["status"] != "pass":
                ok = False
                bad.append((n, e["identity_id"], e.get("witness")))
    report(6, "Serre relations, three-strand tables, trace and rotation rules, n <= 3",
           ok, str(bad) if bad else "")


def test_07_conjecture_probes_rank_four():
    rep = relation_suite(4, probe=True)
    lines = ", ".join(f"{e['identity_id']}={e['status']}" for e in rep)
    print(f"[INFO] criterion  7: rank-four conjecture probes (non-gating): {lines}")
    for e in rep:
        status = e["status"].upper()
        witness = f" witness={e.get('witness')}" if e.get("witness") else ""
        print(f"       probe {e['identity_id']}: {status}{witness}")
    report(7, "rank-four probes executed and reported", bool(rep))


def test_08_appendix_identities():
    t0 = time.time()
    rep = appendixA_suite(12)
    ok = all(e["status"] == "pass" for e in rep)
    elapsed = time.time() - t0
    report(8, "quantum-combinatorial identity battery at bound 12", ok and elapsed < 5.0,
           f"{elapsed:.2f}s")


def test_09_markov_harness():
    rng = random.Random(20240917)
    ok = True
    count = 0
    t0 = time.time()
    for n in (1, 2):
        words = 30 if n == 1 else 20
        for _ in range(words):
            m = rng.randint(2, 4)
            length = rng.randint(1, 8)
            word = tuple((rng.randint(1, m - 1), rng.choice([1, -1])) for _ in range(length))
            rep = markov_suite(BraidWord(m, word), n)
            if not all(e["status"] == "pass" for e in rep):
                ok = False
            count += 1
    extra = f"{count} random words in {time.time() - t0:.1f}s"
    if FULL:
        for _ in range(3):
            word = tuple((rng.randint(1, 2), rng.choice([1, -1])) for _ in range(4))
            rep = markov_suite(BraidWord(3, word), 3)
            ok = ok and all(e["status"] == "pass" for e in rep)
        extra += "; plus rank-three spot checks"
    report(9, "Markov harness: conjugation, stabilization nu^{+-1}, mirror rule", ok, extra)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_10_route_equivalence(n):
    t0 = time.time()
    matrix = all_word_traces(n)
    mismatches = 0
    for word, want in matrix.items():
        got = eval_spin_symbolic(BraidWord(3, word), n)
        if got != want:
            mismatches += 1
    ok = mismatches == 0
    report(10, f"symbolic route equals matrix route on all {len(matrix)} words (n={n})",
           ok, f"{time.time() - t0:.0f}s")


def test_11_type_a_side():
    t0 = time.time()
    ok = True
    for N in range(0, 6):
        for m in (1, 2, 3):
            for a in itertools.product(range(N + 1), repeat=m):
                want = LaurentPoly.one()
                for x in a:
                    want = want * qbinom(N, x)
                if bilinear_form(SchurElement.idempotent(a, N)) != GradedScalar(0, want):
                    ok = False
    base_ok = ok

    matrix = all_word_traces(1)
    nu_inv = stabilization_factor(1).inv()
    nu = stabilization_factor(1)
    dict_ok = True
    for word, raw in matrix.items():
        b = BraidWord(3, word)
        e = b.exponent_sum
        factor = nu_inv if e >= 0 else nu
        unframed = raw
        for _ in range(abs(e)):
            unframed = unframed * factor
        if unframed != spin1_from_jones(b):
            dict_ok = False
            break
        if eval_slN(b, (1, 1, 1), 2) != sl2_from_spin1(b, unframed):
            dict_ok = False
            break
    ok = base_ok and dict_ok
    report(
        11,
        "q-Schur base pairing, Kauffman oracle, and rank-one dictionary on all words",
        ok,
        f"{time.time() - t0:.0f}s",
    )
