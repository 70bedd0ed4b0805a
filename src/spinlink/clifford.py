"""Fock-space model of the spin representation via the q-Clifford algebra.

The algebra has generators psi_i, psi*_i, omega_i^{+-1} (1 <= i <= n) and a
volume element f.  Its Fock module is the quotient by the left ideal
generated by the psi_i; classes of the ordered monomials psi*_I form a
basis, and the identification eps_I psi*_I <-> x_I (with the sign
eps_I = prod_{i in I} (-1)^{n-i+1}) carries the module onto S.

Each generator acts on the x-basis by a closed rule, derived once from the
defining relations and recorded next to the implementation:

  psi*_j  creates j with the anticommutation sign (-1)^{#{i in I : i < j}},
          times eps_I / eps_{I u j} = (-1)^{n-j+1};
  psi_j   annihilates j with the same sign bookkeeping, using
          psi psi* + psi* psi = 1 and psi . (vacuum class) = 0;
  omega_j is diagonal: omega = psi psi* + q^{-2} psi* psi = 1 + (q^{-2}-1) psi* psi
          is 1 on the vacuum class, so it scales x_I by q^{-2 [j in I]};
  f       is diagonal with eigenvalue (-1)^{|I|}, since each factor
          psi_i psi*_i - psi*_i psi_i acts by -1 if i in I and +1 otherwise.

This gives a second, independent route to the quantum group action on S
and to the distinguished endomorphism C of S (x) S, which must agree with
the trivalent-composite intertwiner from rep.H.  C is the closed form that
production uses as H (xcalc.build_X): it takes milliseconds where the
trivalent composite takes seconds, so rep.H is kept only as the oracle
(acceptance criterion 2, `verify clifford`, `dump h`).
"""

from __future__ import annotations

from .qalg import LaurentPoly, RatFunc, qint
from .rep import LinOp, S_SIG, subset_iter


def _sign_below(I: int, j: int) -> int:
    """(-1)^{#{i in I : i < j}}."""
    return -1 if bin(I & ((1 << (j - 1)) - 1)).count("1") % 2 else 1


def psi(j: int, n: int) -> LinOp:
    if not 1 <= j <= n:
        raise ValueError(f"Clifford index {j} out of range for rank {n}")
    op = LinOp(n, S_SIG, S_SIG)
    bit = 1 << (j - 1)
    eps_j = (-1) ** (n - j + 1)
    for I in subset_iter(n):
        if I & bit:
            c = _sign_below(I, j) * eps_j
            op.set_entry((I,), (I ^ bit,), LaurentPoly.const(c))
    return op


def psi_star(j: int, n: int) -> LinOp:
    if not 1 <= j <= n:
        raise ValueError(f"Clifford index {j} out of range for rank {n}")
    op = LinOp(n, S_SIG, S_SIG)
    bit = 1 << (j - 1)
    eps_j = (-1) ** (n - j + 1)
    for I in subset_iter(n):
        if not I & bit:
            c = _sign_below(I, j) * eps_j
            op.set_entry((I,), (I | bit,), LaurentPoly.const(c))
    return op


def omega(j: int, n: int, power: int = 1) -> LinOp:
    if not 1 <= j <= n:
        raise ValueError(f"Clifford index {j} out of range for rank {n}")
    op = LinOp(n, S_SIG, S_SIG)
    bit = 1 << (j - 1)
    for I in subset_iter(n):
        e = -2 * power if I & bit else 0
        op.set_entry((I,), (I,), LaurentPoly.q_pow(e))
    return op


def volume_f(n: int) -> LinOp:
    op = LinOp(n, S_SIG, S_SIG)
    for I in subset_iter(n):
        op.set_entry((I,), (I,), LaurentPoly.const((-1) ** bin(I).count("1")))
    return op


def qgrp_via_clifford(kind: str, i: int, n: int) -> LinOp:
    """The quantum group generator acting through the Clifford homomorphism:
    E_i -> psi_i psi*_{i+1}, F_i -> psi_{i+1} psi*_i, K_i -> omega_i omega_{i+1}^{-1}
    for i < n, and E_n -> psi_n f, F_n -> f psi*_n, K_n -> q omega_n."""
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range for rank {n}")
    if i < n:
        if kind == "e":
            return psi(i, n) @ psi_star(i + 1, n)
        if kind == "f":
            return psi(i + 1, n) @ psi_star(i, n)
        if kind == "k":
            return omega(i, n) @ omega(i + 1, n, -1)
        if kind == "k_inv":
            return omega(i, n, -1) @ omega(i + 1, n)
    else:
        if kind == "e":
            return psi(n, n) @ volume_f(n)
        if kind == "f":
            return volume_f(n) @ psi_star(n, n)
        if kind == "k":
            return (omega(n, n)).scale(LaurentPoly.q_pow(1))
        if kind == "k_inv":
            return (omega(n, n, -1)).scale(LaurentPoly.q_pow(-1))
    raise ValueError(f"unknown generator kind {kind!r}")


def _omega_prefix(k: int, n: int, power: int) -> LinOp:
    """Omega_k^{power} = (omega_1 ... omega_k)^{power}, diagonal."""
    op = LinOp(n, S_SIG, S_SIG)
    mask = (1 << k) - 1
    for I in subset_iter(n):
        e = -2 * power * bin(I & mask).count("1")
        op.set_entry((I,), (I,), LaurentPoly.q_pow(e))
    return op


def wenzl_C(n: int) -> LinOp:
    """The distinguished endomorphism of S (x) S built from the Clifford
    generators: (Omega_n f (x) Omega_n^{-1} f)/[2] plus the hopping terms
    (Omega_{k-1} (x) Omega_{k-1}^{-1})(psi_k (x) psi*_k + psi*_k (x) psi_k)."""
    fvol = volume_f(n)
    first = (_omega_prefix(n, n, 1) @ fvol).tensor(_omega_prefix(n, n, -1) @ fvol)
    total = first.scale(RatFunc(LaurentPoly.one(), qint(2)))
    for k in range(1, n + 1):
        left = _omega_prefix(k - 1, n, 1)
        right = _omega_prefix(k - 1, n, -1)
        hop = (left @ psi(k, n)).tensor(right @ psi_star(k, n)) + (left @ psi_star(k, n)).tensor(
            right @ psi(k, n)
        )
        total = total + hop
    return total
