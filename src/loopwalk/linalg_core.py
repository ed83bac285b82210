"""Small dense linear algebra helpers shared by every other module.

All matrices are numpy complex arrays. Unitarity is always checked against
max-abs deviation of U^dag U from the identity, never against determinants.
Phases are wrapped into the half-open interval [-pi, pi).
"""

from __future__ import annotations

import numpy as np

DEFAULT_UNITARY_TOL = 1e-10


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def unitarity_defect(a: np.ndarray) -> float:
    """max-abs entry of A^dag A - 1."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    eye = np.eye(a.shape[0])
    return float(np.max(np.abs(dagger(a) @ a - eye)))


def assert_unitary(a: np.ndarray, tol: float = DEFAULT_UNITARY_TOL, name: str = "matrix") -> np.ndarray:
    """Return a as a complex array, raising ValueError if not unitary within tol."""
    a = np.asarray(a, dtype=complex)
    defect = unitarity_defect(a)
    if not defect <= tol:  # a NaN defect fails too
        raise ValueError(f"{name} is not unitary: max|A^dag A - 1| = {defect:.3e} > {tol:.1e}")
    return a


def wrap_phase(phi):
    """Map angles into [-pi, pi)."""
    out = np.mod(np.asarray(phi, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    return out - 2.0 * np.pi * (out == np.pi)  # np.mod rounds a result just below 2 pi up to 2 pi


def numerical_rank(s: np.ndarray, rel_tol: float = 1e-9) -> int:
    """Number of descending singular values s above rel_tol times the largest one."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))
