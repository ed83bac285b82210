import numpy as np
import pytest

from loopwalk.linalg_core import (
    DEFAULT_UNITARY_TOL,
    dagger,
    assert_unitary,
    numerical_rank,
    unitarity_defect,
    wrap_phase,
)

import oracles
from oracles import equal_up_to_global_phase, random_su2, random_unitary


def test_mat_mul_order():
    # ordered products are written with plain @: a @ b @ c applies c first
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    b = np.array([[1, 0], [0, -1]], dtype=complex)
    c = np.array([[2, 0], [0, 3]], dtype=complex)
    assert np.array_equal(a @ b @ c, np.array([[0, -3], [2, 0]]))


def test_dagger():
    m = np.array([[1 + 2j, 3], [4j, 5 - 1j]])
    assert np.array_equal(dagger(m), m.conj().T)


def test_unitarity_defect_and_checks():
    assert unitarity_defect(np.eye(3)) == 0.0
    assert unitarity_defect(oracles.HADAMARD_2) <= DEFAULT_UNITARY_TOL
    bad = np.eye(2) * 1.001
    assert not unitarity_defect(bad) <= DEFAULT_UNITARY_TOL
    with pytest.raises(ValueError):
        assert_unitary(bad, name="scaled identity")
    back = assert_unitary(oracles.HADAMARD_2)
    assert np.array_equal(back, oracles.HADAMARD_2)
    assert back.dtype == complex


def test_assert_unitary_rejects_nan():
    # a NaN defect compares false against any tolerance, so it must fail the certificate
    nan = np.eye(2, dtype=complex)
    nan[0, 0] = np.nan
    assert not unitarity_defect(nan) <= DEFAULT_UNITARY_TOL
    with pytest.raises(ValueError, match="not unitary"):
        assert_unitary(nan, name="nan matrix")


def test_wrap_phase():
    assert wrap_phase(0.0) == 0.0
    assert abs(wrap_phase(2 * np.pi) - 0.0) < 1e-15
    assert abs(wrap_phase(np.pi + 0.1) - (-np.pi + 0.1)) < 1e-12
    # -pi is the canonical endpoint, +pi wraps to -pi
    assert abs(wrap_phase(np.pi) - (-np.pi)) < 1e-15
    arr = wrap_phase(np.array([3 * np.pi, -3 * np.pi]))
    assert np.all(np.abs(np.abs(arr) - np.pi) < 1e-12)


def test_wrap_phase_stays_below_pi():
    # np.mod rounds a sum just below 2 pi up to 2 pi, which would give +pi
    # for angles a hair below an odd multiple of pi
    odd = np.pi * np.arange(-41, 42, 2)
    near = np.concatenate([np.nextafter(odd, -np.inf), odd, np.nextafter(odd, np.inf)])
    rng = np.random.default_rng(7)
    phi = np.concatenate([near, rng.uniform(-50.0, 50.0, 10_000), rng.normal(0.0, 1e3, 10_000)])
    out = wrap_phase(phi)
    assert np.all((-np.pi <= out) & (out < np.pi))
    turns = (out - phi) / (2.0 * np.pi)
    assert np.all(np.abs(turns - np.round(turns)) < 1e-12)
    assert wrap_phase(np.nextafter(-np.pi, -4.0)) == -np.pi
    assert isinstance(wrap_phase(np.nextafter(-np.pi, -4.0)), np.float64)
    assert np.ndim(wrap_phase(1.0)) == 0


def test_eig_unitary_reconstructs():
    rng = np.random.default_rng(11)
    for _ in range(40):
        dim = int(rng.integers(2, 6))
        u = random_unitary(dim, rng)
        phases, vectors = oracles.eig_unitary(u)
        assert np.all(np.abs(phases) <= np.pi + 1e-12)
        recon = (vectors * np.exp(1j * phases)) @ dagger(vectors)
        assert np.max(np.abs(recon - u)) < 1e-9
        assert unitarity_defect(vectors) < 1e-9


def test_eig_unitary_degenerate_orthonormal():
    # degenerate spectrum: eigenvectors must still come out orthonormal
    rng = np.random.default_rng(12)
    v = random_unitary(4, rng)
    u = v @ np.diag([1, 1, -1, -1]).astype(complex) @ dagger(v)
    phases, vectors = oracles.eig_unitary(u)
    gram = dagger(vectors) @ vectors
    assert np.max(np.abs(gram - np.eye(4))) < 1e-10
    recon = (vectors * np.exp(1j * phases)) @ dagger(vectors)
    assert np.max(np.abs(recon - u)) < 1e-9


def test_numerical_rank():
    def sv(m):
        return np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)

    assert numerical_rank(sv(np.eye(2))) == 2
    assert numerical_rank(sv(np.zeros((2, 2)))) == 0
    assert numerical_rank(np.array([])) == 0
    assert numerical_rank(sv(np.outer([1.0, 2.0], [3.0, 4.0]))) == 1
    wobbly = sv(np.diag([1.0, 1e-12]))
    assert numerical_rank(wobbly) == 1
    assert numerical_rank(wobbly, rel_tol=1e-13) == 2


def test_random_unitary_properties():
    rng = np.random.default_rng(14)
    for dim in (2, 3, 4):
        for _ in range(50):
            u = random_unitary(dim, rng)
            assert unitarity_defect(u) < 1e-12


def test_random_unitary_haar_moment():
    # first moment of |u_00|^2 under the Haar measure is 1/dim
    rng = np.random.default_rng(15)
    dim = 4
    n = 4000
    acc = 0.0
    for _ in range(n):
        u = random_unitary(dim, rng)
        acc += abs(u[0, 0]) ** 2
    assert abs(acc / n - 1.0 / dim) < 0.01


def test_random_su2():
    rng = np.random.default_rng(16)
    for _ in range(100):
        u = random_su2(rng)
        assert unitarity_defect(u) < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_equal_up_to_global_phase():
    rng = np.random.default_rng(17)
    u = random_unitary(3, rng)
    assert equal_up_to_global_phase(u, u)
    assert equal_up_to_global_phase(u, np.exp(0.7j) * u)
    assert equal_up_to_global_phase(u, -u)
    assert not equal_up_to_global_phase(u, random_unitary(3, rng))
    # zero matrices agree trivially
    assert equal_up_to_global_phase(np.zeros((2, 2)), np.zeros((2, 2)))
    assert not equal_up_to_global_phase(np.zeros((2, 2)), np.eye(2))
