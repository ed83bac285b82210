"""Decomposition of four-mode coins into realizable round-trip factors.

A single round trip realizes C = C_AB(a, b) . C_LL'(l, l') with 2x2 unitary
arm blocks a, b and loop blocks l (cw) and l' (ccw); the common-loop case has
l = l'.  Not every 4x4 unitary is of this form.  This module provides

- a rank test deciding one-trip realizability (common loop),
- the factor reconstruction when the test passes,
- a universal two-factor split C = C2 . C1 valid for every unitary,
- a gauge normalization pushing all blocks into SU(2) with one recorded
  global phase,
- a three-step coin schedule realizing S . C_target for arbitrary C_target.

Index conventions follow the mode order (cH, cV, ccH, ccV) and the block
layout documented in optics.coin_ab.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg_core import assert_unitary, numerical_rank
from .optics import coin_ab, coin_ll_independent
from .walk_engine import CoinProgram, RawCoin

_EYE2 = np.eye(2, dtype=complex)

DEGENERATE_BRANCH_TOL = 1e-10


@dataclass(frozen=True)
class OneTripFactors:
    """2x2 blocks of one round trip: arms a, b and per-direction loop blocks."""

    c_a: np.ndarray
    c_b: np.ndarray
    c_loop_cw: np.ndarray
    c_loop_ccw: np.ndarray

    def compose(self) -> np.ndarray:
        return coin_ab(self.c_a, self.c_b) @ coin_ll_independent(
            self.c_loop_cw, self.c_loop_ccw
        )


@dataclass(frozen=True)
class OneTripWitness:
    """Evidence returned by the one-trip rank test.

    m1/m2 are the two 4x2 matrices whose ranks decide realizability;
    their singular values are kept for inspection.
    """

    m1: np.ndarray
    m2: np.ndarray
    singular_values_m1: np.ndarray
    singular_values_m2: np.ndarray
    rank_m1: int
    rank_m2: int
    rel_tol: float

    @property
    def passed(self) -> bool:
        return self.rank_m1 == 1 and self.rank_m2 == 1


@dataclass(frozen=True)
class UniversalFactorization:
    """Two-round-trip split: compose2 @ compose1 = global_phase * target.

    residual, the max-abs miss of that equation, is set on construction.
    """

    factor_1: OneTripFactors
    factor_2: OneTripFactors
    global_phase: complex
    target: np.ndarray
    residual: float = field(init=False)

    def __post_init__(self):
        prod = self.factor_2.compose() @ self.factor_1.compose()
        residual = float(np.max(np.abs(prod - self.global_phase * self.target)))
        object.__setattr__(self, "residual", residual)


_CC_SIGN = np.diag([1.0, 1.0, -1.0, -1.0])


def _strip_mode_signs(c: np.ndarray) -> np.ndarray:
    # coin_ab carries flipped signs on its cross couplings (see optics);
    # conjugating by diag(1,1,-1,-1) exposes the plain outer-product
    # structure that the extraction formulas below are written for, and
    # the same conjugation turns the extracted factors' composition back
    # into the original coin, so factors pass through unchanged
    return _CC_SIGN @ c @ _CC_SIGN


def _stack_m1_m2(c: np.ndarray):
    # row sets picked so each matrix is (outer of one arm column with one
    # loop row) iff C = C_AB . C_LL with a common loop block
    m1 = np.array(
        [
            [c[0, 0], c[0, 1]],
            [c[3, 0], c[3, 1]],
            [c[1, 2], c[1, 3]],
            [c[2, 2], c[2, 3]],
        ],
        dtype=complex,
    )
    m2 = np.array(
        [
            [c[0, 2], c[0, 3]],
            [c[3, 2], c[3, 3]],
            [c[1, 0], c[1, 1]],
            [c[2, 0], c[2, 1]],
        ],
        dtype=complex,
    )
    return m1, m2


def one_trip_test(c: np.ndarray, rel_tol: float = 1e-9):
    """Decide whether c is realizable in a single round trip (common loop).

    Returns (bool, OneTripWitness).  The criterion is that both collected
    4x2 matrices have numerical rank exactly 1.
    """
    c = assert_unitary(np.asarray(c, dtype=complex), name="one_trip_test input")
    if c.shape != (4, 4):
        raise ValueError(f"expected a 4x4 coin, got {c.shape}")
    m1, m2 = _stack_m1_m2(_strip_mode_signs(c))
    s1 = np.linalg.svd(m1, compute_uv=False)
    s2 = np.linalg.svd(m2, compute_uv=False)
    witness = OneTripWitness(
        m1=m1,
        m2=m2,
        singular_values_m1=s1,
        singular_values_m2=s2,
        rank_m1=numerical_rank(s1, rel_tol),
        rank_m2=numerical_rank(s2, rel_tol),
        rel_tol=rel_tol,
    )
    return witness.passed, witness


def _fix_row_gauge(row_vec: np.ndarray, partner: np.ndarray):
    """Rotate a loop-block row so its first significant entry is real positive.

    The compensating inverse phase is pushed into the partner (arm entry)
    vector, keeping the outer product unchanged.
    """
    idx = int(np.argmax(np.abs(row_vec) > 1e-9))
    z = row_vec[idx]
    if z == 0.0:
        return row_vec, partner
    phase = z / abs(z)
    return row_vec / phase, partner * phase


def one_trip_reconstruct(c: np.ndarray, rel_tol: float = 1e-9) -> OneTripFactors:
    """Recover (a, b, l) from a coin passing one_trip_test.

    Raises ValueError when the rank test fails.  The loop block's row gauge
    is fixed so the first significant entry of each row is real positive.
    """
    ok, witness = one_trip_test(c, rel_tol)
    if not ok:
        raise ValueError(
            "coin is not one-trip realizable: ranks "
            f"({witness.rank_m1}, {witness.rank_m2}) != (1, 1); "
            f"singular values {witness.singular_values_m1} and "
            f"{witness.singular_values_m2}"
        )
    u1, s1, vh1 = np.linalg.svd(witness.m1, full_matrices=False)
    u2, s2, vh2 = np.linalg.svd(witness.m2, full_matrices=False)
    beta = s1[0] * u1[:, 0]
    alpha = vh1[0, :].copy()
    delta = s2[0] * u2[:, 0]
    gamma = vh2[0, :].copy()
    alpha, beta = _fix_row_gauge(alpha, beta)
    gamma, delta = _fix_row_gauge(gamma, delta)
    a = np.array([[beta[0], delta[0]], [beta[1], delta[1]]], dtype=complex)
    b = np.array([[beta[3], delta[3]], [beta[2], delta[2]]], dtype=complex)
    loop = np.array([alpha, gamma], dtype=complex)
    return OneTripFactors(c_a=a, c_b=b, c_loop_cw=loop, c_loop_ccw=loop)


def _orth_complement(v: np.ndarray) -> np.ndarray:
    # unit vector orthogonal to unit v in C^2
    return np.array([-np.conj(v[1]), np.conj(v[0])], dtype=complex)


def _norm_and_unit(w: np.ndarray):
    n = float(np.linalg.norm(w))
    return n, w / n


def factor_universal(c: np.ndarray, branch_tol: float = DEGENERATE_BRANCH_TOL) -> UniversalFactorization:
    """Split an arbitrary 4x4 unitary into two realizable round trips.

    factor_2 always has identity arms (a pure loop-block trip), so the
    product factor_2.compose() @ factor_1.compose() equals the target
    exactly with global_phase 1.  Branches:

    - generic: both singular values of the top-left block below 1,
    - degenerate: largest singular value equal to 1 within branch_tol
      (the a arm is then diagonal),
    - block-diagonal: both singular values 1 (factor_2 trivial).
    """
    c = assert_unitary(np.asarray(c, dtype=complex), name="factor_universal input")
    if c.shape != (4, 4):
        raise ValueError(f"expected a 4x4 coin, got {c.shape}")
    cg = _strip_mode_signs(c)
    tl = cg[:2, :2]
    tr = cg[:2, 2:]
    bl = cg[2:, :2]
    br = cg[2:, 2:]

    u, s, vh = np.linalg.svd(tl, full_matrices=False)
    s = np.clip(s, 0.0, 1.0)
    s1, s2 = float(s[0]), float(s[1])
    p, q = u[:, 0], u[:, 1]
    p_ket, q_ket = vh[0, :].conj(), vh[1, :].conj()  # |P>, |Q>

    if 1.0 - s2 <= branch_tol:
        # block diagonal: the top-left block is itself unitary
        f1 = OneTripFactors(_EYE2, _EYE2, tl.copy(), br.copy())
        f2 = OneTripFactors(_EYE2, _EYE2, _EYE2, _EYE2)
        return UniversalFactorization(factor_1=f1, factor_2=f2, global_phase=1.0 + 0.0j, target=c)

    b_hv, r = _norm_and_unit(bl @ q_ket)
    b_vh, r_ket = _norm_and_unit(tr.conj().T @ q)
    b_hh = -s2 * b_hv / b_vh
    if 1.0 - s1 <= branch_tol:
        # degenerate: the a arm does not mix polarizations
        a_hv = a_vh = 0.0
        s_vec = _orth_complement(r)
        s_ket = _orth_complement(r_ket)
        a_vv = np.conj(s_vec) @ (br @ s_ket)
    else:
        a_vh, s_vec = _norm_and_unit(bl @ p_ket)
        a_hv, s_ket = _norm_and_unit(tr.conj().T @ p)
        # from the block orthogonality relations of the target; equal to
        # the arm-unitarity completion in exact arithmetic
        a_vv = -s1 * a_vh / a_hv
    a = np.array([[s1, a_hv], [a_vh, a_vv]], dtype=complex)
    b = np.array([[b_hh, b_hv], [b_vh, s2]], dtype=complex)
    # loop blocks: rows <P|, <Q| and <R|, <S|; columns |p>, |q> and |r>, |s>
    l1p = np.array([r_ket.conj(), s_ket.conj()], dtype=complex)
    f1 = OneTripFactors(a, b, vh, l1p)
    f2 = OneTripFactors(_EYE2, _EYE2, u, np.column_stack([r, s_vec]))
    return UniversalFactorization(factor_1=f1, factor_2=f2, global_phase=1.0 + 0.0j, target=c)


def su2_normalize(fact: UniversalFactorization) -> UniversalFactorization:
    """Rephase all blocks into SU(2), collecting one global phase.

    Ket phases on the columns of factor_2's loop blocks are compensated in
    the rows of factor_1's arms; bra phases on the rows of factor_1's loop
    blocks are compensated in the arm columns.  The leftover determinant of
    the arms is split off as a scalar, so afterwards

        compose2 @ compose1 = global_phase * target

    with every 2x2 block of determinant 1.  factor_2's identity arms are
    untouched.
    """
    a = fact.factor_1.c_a.copy()
    b = fact.factor_1.c_b.copy()
    l1 = fact.factor_1.c_loop_cw.copy()
    l1p = fact.factor_1.c_loop_ccw.copy()
    l2 = fact.factor_2.c_loop_cw.copy()
    l2p = fact.factor_2.c_loop_ccw.copy()

    def argdet(m):
        return float(np.angle(np.linalg.det(m)))

    # ket phases th on factor_2's loop columns, bra phases ph on factor_1's loop
    # rows; pairs share one phase but |p>, |q>, which split the arms' det mismatch
    d1 = argdet(a) - argdet(b)
    sum_pq = -argdet(l2)
    th_p = 0.5 * (sum_pq + d1)
    th_q = 0.5 * (sum_pq - d1)
    th_r = -0.5 * argdet(l2p)  # = th_s
    ph_P = -0.5 * argdet(l1)  # = ph_Q
    ph_R = -0.5 * argdet(l1p)  # = ph_S

    l2[:, 0] *= np.exp(1j * th_p)
    l2[:, 1] *= np.exp(1j * th_q)
    l2p *= np.exp(1j * th_r)
    l1 *= np.exp(1j * ph_P)
    l1p *= np.exp(1j * ph_R)

    # arm compensations: rows pair with kets, columns with bras
    a[0, :] *= np.exp(-1j * th_p)
    a[1, :] *= np.exp(-1j * th_r)
    b[0, :] *= np.exp(-1j * th_r)
    b[1, :] *= np.exp(-1j * th_q)
    a[:, 0] *= np.exp(-1j * ph_P)
    a[:, 1] *= np.exp(-1j * ph_R)
    b[:, 0] *= np.exp(-1j * ph_R)
    b[:, 1] *= np.exp(-1j * ph_P)

    # arms now share one determinant e^{2i Phi}; split it off as a scalar
    phi = 0.5 * float(np.angle(np.linalg.det(a)))
    a *= np.exp(-1j * phi)
    b *= np.exp(-1j * phi)
    return UniversalFactorization(
        factor_1=OneTripFactors(a, b, l1, l1p),
        factor_2=OneTripFactors(fact.factor_2.c_a, fact.factor_2.c_b, l2, l2p),
        global_phase=complex(fact.global_phase * np.exp(-1j * phi)),
        target=fact.target,
    )


def three_step_schedule(c_target: np.ndarray, rel_tol: float = 1e-9) -> CoinProgram:
    """Coin program realizing S . C_target in three time steps.

    Step coins (C1, 1, C2): the middle identity step turns the two shifts
    into nothing (the shift squares to the identity), leaving S . C2 . C1.
    When the target passes the one-trip test the fast path (C_target, 1, 1)
    is emitted instead.  The unnormalized universal split is used, so the
    product carries no extra phase.
    """
    c_target = assert_unitary(np.asarray(c_target, dtype=complex), name="three_step target")
    eye4 = RawCoin(np.eye(4, dtype=complex))
    ok, _ = one_trip_test(c_target, rel_tol)
    if ok:
        return CoinProgram(time_table=[RawCoin(c_target.copy()), eye4, eye4])
    fact = factor_universal(c_target)
    c1 = fact.factor_1.compose()
    c2 = fact.factor_2.compose()
    return CoinProgram(time_table=[RawCoin(c1), eye4, RawCoin(c2)])
