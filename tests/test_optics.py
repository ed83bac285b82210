import numpy as np
import pytest

from loopwalk.coin_synthesis import OneTripFactors
from loopwalk.linalg_core import unitarity_defect
from loopwalk.optics import (
    ArmSetting,
    OpticalElement,
    arm_stack,
    certified_coin,
    coin_ab,
    coin_ll,
    coin_ll_independent,
    eom_matrix,
    full_coin,
    hwp_matrix,
    loop_stack,
    qwp_matrix,
)

import oracles
from oracles import equal_up_to_global_phase, random_unitary

MINUS_IX = -1j * oracles.PAULI_X


def test_qwp_special_angles():
    assert np.max(np.abs(qwp_matrix(0.0) - oracles.QWP0)) < 1e-15
    expected_45 = (-1j / np.sqrt(2)) * np.array([[1j, 1], [1, 1j]])
    assert np.max(np.abs(qwp_matrix(45.0) - expected_45)) < 1e-15
    # at 45 degrees the quarter-wave plate acts as the balanced phased mixer
    assert np.max(np.abs(qwp_matrix(45.0) - oracles.BALANCED_PHASED_2)) < 1e-15
    # two passes through the same plate at 45 degrees give -iX
    sq = qwp_matrix(45.0) @ qwp_matrix(45.0)
    assert np.max(np.abs(sq - MINUS_IX)) < 1e-15


def test_hwp_special_angles():
    assert np.max(np.abs(hwp_matrix(22.5) - oracles.HADAMARD_2)) < 1e-15
    assert np.max(np.abs(hwp_matrix(45.0) - oracles.PAULI_X)) < 1e-15
    assert np.max(np.abs(hwp_matrix(0.0) - np.diag([1.0, -1.0]))) < 1e-15


def test_hwp_hermitian_involutory():
    rng = np.random.default_rng(20)
    for _ in range(50):
        angle = rng.uniform(-180.0, 180.0)
        h = hwp_matrix(angle)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert np.max(np.abs(h @ h - np.eye(2))) < 1e-12


def test_eom_special_angles():
    assert np.max(np.abs(eom_matrix(0.0) - np.eye(2))) < 1e-15
    assert np.max(np.abs(eom_matrix(-90.0) - 1j * oracles.PAULI_X)) < 1e-15
    assert np.max(np.abs(eom_matrix(45.0) - oracles.BALANCED_PHASED_2)) < 1e-15
    assert np.max(np.abs(eom_matrix(-45.0) - oracles.BALANCED_PHASED_2.conj())) < 1e-15


def test_all_elements_unitary():
    rng = np.random.default_rng(21)
    for _ in range(100):
        angle = rng.uniform(-360.0, 360.0)
        for mat in (qwp_matrix(angle), hwp_matrix(angle), eom_matrix(angle)):
            assert unitarity_defect(mat) < 1e-12


def test_eom_commutes_with_45_degree_plates():
    # the modulator shares its eigenbasis with both plates set at 45 degrees
    rng = np.random.default_rng(22)
    for _ in range(50):
        phase = rng.uniform(-360.0, 360.0)
        e = eom_matrix(phase)
        for plate in (qwp_matrix(45.0), hwp_matrix(45.0)):
            comm = plate @ e - e @ plate
            assert np.max(np.abs(comm)) < 1e-12


def test_optical_element_validation():
    el = OpticalElement("qwp", 45.0)
    assert np.max(np.abs(el.matrix() - qwp_matrix(45.0))) == 0.0
    assert np.max(np.abs(OpticalElement("hwp", 22.5).matrix() - oracles.HADAMARD_2)) < 1e-15
    assert np.max(np.abs(OpticalElement("eom", -90.0).matrix() - 1j * oracles.PAULI_X)) < 1e-15
    with pytest.raises(ValueError):
        OpticalElement("polarizer", 10.0)


def test_arm_setting_rejects_eom_in_stack():
    with pytest.raises(ValueError):
        ArmSetting(waveplates=(OpticalElement("eom", 10.0),))


def test_arm_operator_single_plate_squares():
    # light passes every arm element twice, so one plate contributes its square
    assert np.max(np.abs(arm_stack(["qwp"], [45.0, 0.0]) - MINUS_IX)) < 1e-15
    assert np.max(np.abs(arm_stack(["hwp"], [17.0, 0.0]) - np.eye(2))) < 1e-12


def test_arm_operator_eom_placement():
    # a quarter-wave plate at 45 degrees and modulator phase -90: the
    # double-passed plate gives -iX, modulator iX applied before it: identity
    assert np.max(np.abs(arm_stack(["qwp"], [45.0, -90.0]) - np.eye(2))) < 1e-14
    flipped = arm_stack(["qwp"], [45.0, -90.0], eom_first=True)
    assert np.max(np.abs(flipped - (1j * oracles.PAULI_X) @ MINUS_IX)) < 1e-14


def test_arm_operator_balanced_mixer():
    assert np.max(np.abs(arm_stack(["qwp"], [45.0, -45.0]) - oracles.BALANCED_PHASED_2)) < 1e-14


def test_arm_operator_palindrome_order():
    q27 = qwp_matrix(27.0)
    q0 = qwp_matrix(0.0)
    # plates at 27 and 0 degrees in the order the light meets them, then the modulator phase
    angles = [27.0, 0.0, 30.0]
    expected = q27 @ q0 @ q0 @ q27 @ eom_matrix(30.0)
    assert np.max(np.abs(arm_stack(["qwp", "qwp"], angles) - expected)) < 1e-14
    expected_first = eom_matrix(30.0) @ q27 @ q0 @ q0 @ q27
    assert np.max(np.abs(arm_stack(["qwp", "qwp"], angles, eom_first=True) - expected_first)) < 1e-14


def test_loop_operator_order_and_identity():
    # first listed element acts first on the state
    expected = eom_matrix(-90.0) @ hwp_matrix(45.0)
    assert np.max(np.abs(loop_stack(["hwp", "eom"], [45.0, -90.0]) - expected)) < 1e-15

    assert np.max(np.abs(loop_stack(["hwp"], [22.5]) - oracles.HADAMARD_2)) < 1e-15
    # quarter-wave at 45 followed by modulator at -45 cancels
    cancel = loop_stack(["qwp", "eom"], [45.0, -45.0])
    assert np.max(np.abs(cancel - np.eye(2))) < 1e-15
    assert np.max(np.abs(loop_stack([], []) - np.eye(2))) == 0.0


def test_coin_ll_sparsity():
    rng = np.random.default_rng(23)
    l = random_unitary(2, rng)
    c = coin_ll(l)
    # both direction sectors see the same loop element, cross blocks stay zero
    assert np.max(np.abs(c[:2, :2] - l)) == 0.0
    assert np.max(np.abs(c[2:, 2:] - l)) == 0.0
    assert np.max(np.abs(c[:2, 2:])) == 0.0
    assert np.max(np.abs(c[2:, :2])) == 0.0

    l2 = random_unitary(2, rng)
    ci = coin_ll_independent(l, l2)
    assert np.max(np.abs(ci[:2, :2] - l)) == 0.0
    assert np.max(np.abs(ci[2:, 2:] - l2)) == 0.0


def test_coin_ll_independent_splits_directions():
    cw = np.diag([np.exp(0.3j), np.exp(-0.3j)])
    ccw = np.diag([np.exp(1.1j), np.exp(-1.1j)])
    c = coin_ll_independent(cw, ccw)
    out_cw = c @ np.array([1.0, 0, 0, 0], dtype=complex)
    assert abs(out_cw[0] - cw[0, 0]) < 1e-15
    out_ccw = c @ np.array([0, 0, 1.0, 0], dtype=complex)
    assert abs(out_ccw[2] - ccw[0, 0]) < 1e-15
    # symmetric setting reduces to the shared-block constructor
    assert np.max(np.abs(coin_ll_independent(cw, cw) - coin_ll(cw))) == 0.0


def test_coin_ab_identity_and_swap():
    eye = np.eye(2, dtype=complex)
    assert np.max(np.abs(coin_ab(eye, eye) - np.eye(4))) == 0.0
    swap = coin_ab(MINUS_IX, MINUS_IX)
    # both arms flipping polarization exchanges the four modes pairwise
    assert equal_up_to_global_phase(swap, np.fliplr(np.eye(4)), 1e-14)
    assert unitarity_defect(swap) < 1e-14


def test_coin_ab_block_structure():
    rng = np.random.default_rng(24)
    a = random_unitary(2, rng)
    b = random_unitary(2, rng)
    c = coin_ab(a, b)
    assert unitarity_defect(c) < 1e-12
    # diagonal entries of each arm stay inside the direction sectors
    assert c[0, 0] == a[0, 0]
    assert c[1, 1] == b[1, 1]
    assert c[2, 2] == b[0, 0]
    assert c[3, 3] == a[1, 1]
    # polarization flips reverse the travel direction
    assert np.max(np.abs(c[:2, :2] - np.diag([a[0, 0], b[1, 1]]))) == 0.0
    assert np.max(np.abs(c[2:, 2:] - np.diag([b[0, 0], a[1, 1]]))) == 0.0


def test_full_coin_hadamard_like():
    hp = oracles.BALANCED_PHASED_2
    c = full_coin(hp, hp, hp)
    assert np.max(np.abs(c - oracles.BALANCED_FOUR_MODE_COIN)) < 1e-12
    # same construction split into its two factors
    assert np.max(np.abs(coin_ab(hp, hp) @ coin_ll(hp) - c)) == 0.0


def test_full_coin_independent_matches_shared():
    rng = np.random.default_rng(25)
    a, b, l = (random_unitary(2, rng) for _ in range(3))
    assert np.max(np.abs(OneTripFactors(a, b, l, l).compose() - full_coin(a, b, l))) == 0.0
    l2 = random_unitary(2, rng)
    c = OneTripFactors(a, b, l, l2).compose()
    assert unitarity_defect(c) < 1e-12


def test_certified_coin():
    ok = certified_coin(oracles.BALANCED_FOUR_MODE_COIN)
    assert ok.dtype == complex
    with pytest.raises(ValueError):
        certified_coin(np.eye(4) * 1.01)
    with pytest.raises(ValueError):
        certified_coin(np.eye(3))
