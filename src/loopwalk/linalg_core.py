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


def is_unitary(a: np.ndarray, tol: float = DEFAULT_UNITARY_TOL) -> bool:
    return unitarity_defect(a) <= tol


def assert_unitary(a: np.ndarray, tol: float = DEFAULT_UNITARY_TOL, name: str = "matrix") -> np.ndarray:
    """Return a as a complex array, raising ValueError if not unitary within tol."""
    a = np.asarray(a, dtype=complex)
    defect = unitarity_defect(a)
    if not defect <= tol:  # a NaN defect fails too
        raise ValueError(f"{name} is not unitary: max|A^dag A - 1| = {defect:.3e} > {tol:.1e}")
    return a


def wrap_phase(phi):
    """Map angles into [-pi, pi)."""
    return np.mod(np.asarray(phi, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


def numerical_rank(s: np.ndarray, rel_tol: float = 1e-9) -> int:
    """Number of descending singular values s above rel_tol times the largest one."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The R diagonal phases are divided out so the distribution is exactly
    Haar rather than QR-convention dependent.
    """
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d)).conj()
    return q


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar SU(2) element [[u, v], [-conj(v), conj(u)]]."""
    g = random_unitary(2, rng)
    det = np.linalg.det(g)
    return g / np.sqrt(det)


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True when a = e^{i phi} b for some real phi, within max-abs tol."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) == 0.0:
        return bool(np.max(np.abs(a)) <= tol)
    phase = a[idx] / b[idx]
    mag = abs(phase)
    if abs(mag - 1.0) > tol:
        return False
    phase /= mag
    return bool(np.max(np.abs(a - phase * b)) <= tol)
