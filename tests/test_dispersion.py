import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopwalk.config import parse_coin, parse_config
from loopwalk.dispersion import (
    _PAD,
    _PHASE_NOISE_FLOOR,
    _derivatives,
    _eigenpairs,
    _grid_eigenpairs,
    _grid_minima,
    band_structure,
    bloch_operator,
    classify_crossings,
    group_velocities,
    shift_bloch,
    wavefront_speeds,
)
from loopwalk.linalg_core import unitarity_defect, wrap_phase
from loopwalk.optics import full_coin, hwp_matrix, qwp_matrix
from loopwalk.walk_engine import mode_sum

import oracles
from oracles import random_su2, random_unitary

MINUS_IX = -1j * oracles.PAULI_X
CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "configs")


def hadamard_spectrum(n_k=1024):
    coin = full_coin(MINUS_IX, MINUS_IX, hwp_matrix(22.5))
    return band_structure(coin, n_k=n_k)


def crossing_coin():
    q = qwp_matrix(12.0)
    return full_coin(q @ q, q @ q, hwp_matrix(27.0))


def repulsion_coin():
    arm = qwp_matrix(27.0) @ qwp_matrix(0.0) @ qwp_matrix(0.0) @ qwp_matrix(27.0)
    return full_coin(arm, arm, hwp_matrix(20.0))


def rotation_coin(half_gap):
    # S(0)^H diag(R, e^{3i} R) with R the real rotation by half_gap: U(k) is
    # diag(e^{ik}, e^{-ik}) R on (cH, cV) and e^{3i} diag(e^{-ik}, e^{ik}) R on
    # (ccH, ccV), so each block has eigenphases +-omega(k) (plus 3) with
    # cos(omega) = cos(k) cos(half_gap): bands +-k that cross exactly at k = 0
    # for half_gap 0, else repelled there to a gap of 2 half_gap; the offset 3
    # leaves the pairs across the blocks without a minimum at k = 0
    c, s = np.cos(half_gap), np.sin(half_gap)
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = [[c, -s], [s, c]]
    m[2:, 2:] = np.exp(3j) * m[:2, :2]
    return shift_bloch(0.0).conj().T @ m


def test_shift_bloch_at_zero_is_mode_permutation():
    s = shift_bloch(0.0)
    s = s[0] if s.ndim == 3 else s
    expected = np.zeros((4, 4))
    # cH->ccH, cV->ccV, ccH->cH, ccV->cV at k = 0
    expected[2, 0] = 1
    expected[3, 1] = 1
    expected[0, 2] = 1
    expected[1, 3] = 1
    assert np.max(np.abs(s - expected)) < 1e-15


def test_shift_bloch_unitary_and_batched():
    ks = np.linspace(-np.pi, np.pi, 17)
    batch = shift_bloch(ks)
    assert batch.shape == (17, 4, 4)
    for i, k in enumerate(ks):
        assert unitarity_defect(batch[i]) < 1e-12
        single = shift_bloch(float(k))
        single = single[0] if single.ndim == 3 else single
        assert np.max(np.abs(batch[i] - single)) < 1e-15


def test_bloch_operator_determinant_k_independent():
    rng = np.random.default_rng(70)
    ks = np.linspace(-np.pi, np.pi, 9)
    for _ in range(10):
        coin = random_unitary(4, rng)
        dets = [np.linalg.det(bloch_operator(coin, float(k))) for k in ks]
        expected = np.linalg.det(coin)
        for d in dets:
            assert abs(d - expected) < 1e-10


def test_band_structure_identity_coin_flat():
    spec = band_structure(np.eye(4, dtype=complex), n_k=256)
    assert spec.n_branches == 4
    v = group_velocities(spec)
    assert np.max(np.abs(v)) < 1e-9
    # quasi-energies sit at 0 and the band edge only
    for row in spec.omegas.T:
        assert np.all((np.abs(row) < 1e-9) | (np.abs(np.abs(row) - np.pi) < 1e-9))


def test_band_structure_free_passage_ballistic():
    spec = band_structure(full_coin(MINUS_IX, MINUS_IX, oracles.PAULI_X), n_k=256)
    v = group_velocities(spec)
    assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-8


def test_hadamard_bands_match_closed_form():
    spec = hadamard_spectrum(n_k=512)
    expected = oracles.hadamard_line_bands(spec.k_grid)
    got = np.sort(wrap_phase(spec.omegas), axis=0)
    assert np.max(np.abs(got - expected)) < 1e-9


def test_hadamard_group_velocity_extremes():
    spec = hadamard_spectrum()
    v = group_velocities(spec)
    assert abs(np.max(np.abs(v)) - 1.0 / np.sqrt(2.0)) < 1e-6


def test_band_displacement_symmetry_universal():
    # shifting k by pi negates the step operator, so every branch set is
    # the k-set displaced by pi, for any coin whatsoever
    rng = np.random.default_rng(71)
    for _ in range(5):
        coin = random_unitary(4, rng)
        spec = band_structure(coin, n_k=256)
        oms = spec.omegas
        for i in (3, 57, 101):
            j = (i + 128) % 256
            a = np.sort(wrap_phase(oms[:, j]))
            b = np.sort(wrap_phase(oms[:, i] + np.pi))
            assert np.max(np.abs(a - b)) < 1e-9


def test_band_reflection_symmetry_su2_composites():
    # with determinant-one blocks the branch set maps onto itself under
    # k -> -k combined with omega -> -omega
    rng = np.random.default_rng(79)
    for _ in range(5):
        coin = full_coin(random_su2(rng), random_su2(rng), random_su2(rng))
        spec = band_structure(coin, n_k=256)
        oms = spec.omegas
        k = spec.k_grid
        for i in (3, 57, 101):
            j = int(np.argmin(np.abs(k - (-k[i]))))
            assert abs(k[j] + k[i]) < 1e-12
            a = np.sort(wrap_phase(oms[:, i]))
            b = np.sort(wrap_phase(-oms[:, j]))
            assert np.max(np.abs(a - b)) < 1e-9


def test_group_velocities_bounded_by_one():
    rng = np.random.default_rng(72)
    for _ in range(10):
        coin = random_unitary(4, rng)
        v = group_velocities(band_structure(coin, n_k=256))
        assert np.max(np.abs(v)) <= 1.0 + 1e-9


def test_group_velocity_matches_numerical_derivative():
    spec = hadamard_spectrum(n_k=512)
    v = group_velocities(spec)
    oms = wrap_phase(spec.omegas)
    dk = spec.spacing
    # central difference on the tracked branches, away from wrap points
    for b in range(spec.n_branches):
        for i in range(10, 500, 37):
            dw = wrap_phase(oms[b, i + 1] - oms[b, i - 1])
            est = dw / (2 * dk)
            assert abs(est - v[b, i]) < 1e-4


def test_band_structure_rejects_tiny_grids():
    with pytest.raises(ValueError):
        band_structure(np.eye(4), n_k=32)


def test_wavefront_speeds_hadamard():
    ws = wavefront_speeds(hadamard_spectrum())
    assert len(ws.speeds) == 2
    assert np.max(np.abs(np.sort(np.abs(ws.speeds)) - 1.0 / np.sqrt(2.0))) < 1e-6
    assert ws.speeds[0] < 0 < ws.speeds[1]


def test_wavefront_speeds_repulsion_coin():
    ws = wavefront_speeds(band_structure(repulsion_coin()))
    got = np.sort(np.abs(ws.speeds))
    expected = np.array([0.1655, 0.1655, 0.5538, 0.5538])
    assert got.shape == (4,)
    assert np.max(np.abs(got - expected)) < 1e-3


def test_band_reflection_waveplate_configurations():
    # the measurement configurations reflect through omega -> pi - omega
    # when k is negated (their arm product is i times a real matrix)
    for coin in (
        full_coin(MINUS_IX, MINUS_IX, hwp_matrix(22.5)),
        crossing_coin(),
        repulsion_coin(),
    ):
        spec = band_structure(coin, n_k=256)
        oms = spec.omegas
        k = spec.k_grid
        for i in (3, 57, 101):
            j = int(np.argmin(np.abs(k - (-k[i]))))
            assert abs(k[j] + k[i]) < 1e-12
            a = np.sort(wrap_phase(oms[:, i]))
            b = np.sort(wrap_phase(np.pi - oms[:, j]))
            assert np.max(np.abs(a - b)) < 1e-9


def test_identity_coin_single_stationary_front():
    ws = wavefront_speeds(band_structure(np.eye(4), n_k=256))
    assert len(ws.speeds) == 1
    assert abs(ws.speeds[0]) < 1e-9


# touch momentum of the crossing coin, located independently by a
# golden-section search on the eigenvalue splitting of U(k) at 40 digits;
# the other touches follow from the k -> -k and k -> pi - k symmetries
K_TOUCH = 1.0440144141740900


def test_classify_crossings_exact_touches():
    spec = band_structure(crossing_coin())
    found = classify_crossings(spec)
    expected = [((2, 3), "crossing", k) for k in (K_TOUCH, -K_TOUCH)]
    expected += [((0, 1), "crossing", k) for k in (np.pi - K_TOUCH, K_TOUCH - np.pi)]
    # at k = 0 and k = -pi the eigenphases are multiples of pi/15 and the
    # (0,3) and (1,2) pairs are repelled to exactly 2pi/5
    expected += [(pair, "avoided", k) for pair in ((0, 3), (1, 2)) for k in (0.0, -np.pi)]
    assert len(found) == len(expected)
    for pair, kind, k in expected:
        match = [
            c for c in found
            if c.branches == pair and c.kind == kind and abs(wrap_phase(c.k - k)) < 1e-6
        ]
        assert len(match) == 1, (pair, kind, k)
        if kind == "crossing":
            assert match[0].gap < 1e-9
        else:
            assert abs(match[0].gap - 2.0 * np.pi / 5.0) < 1e-9
    assert not any(c.continuum for c in found)
    # the (0,2) and (1,3) gaps are constant, so they have no isolated minimum
    assert not [c for c in found if c.branches in ((0, 2), (1, 3))]


@pytest.mark.parametrize("kind, half_gap", [("avoided", 0.3), ("crossing", 0.0)])
@pytest.mark.parametrize("sample", [20, -1, 0])
def test_classify_crossings_minimum_between_samples(kind, half_gap, sample):
    # two pairs of the rotation coin have a gap minimum at k = 0, symmetric
    # under k -> -k; the translated coin puts both exactly midway between
    # grid samples `sample` and `sample + 1`, so the two nearest samples tie
    # up to float ripple; sample -1 puts them half a step left of -pi
    n_k = 64
    h = 2.0 * np.pi / n_k
    k0 = -np.pi + h * (sample + 0.5)
    found = classify_crossings(band_structure(oracles.translated(rotation_coin(half_gap), -k0), n_k=n_k))
    at = [c for c in found if abs(wrap_phase(c.k - k0)) < 1e-6]
    assert len(at) == len({c.branches for c in at}) == 2
    for c in at:
        assert c.kind == kind
        assert abs(c.gap - 2.0 * half_gap) < 1e-9


# gap rows built from a few levels (runs of one level are plateaus, and a
# level run at either end of the main grid puts a minimum on its edge), each
# sample offset by ripple of at most half the noise floor, so two samples of
# one level differ by at most the floor
GAP_LEVELS = [0.0, 1e-12, 0.25, 0.5, 2.0]
RIPPLE = [f * _PHASE_NOISE_FLOOR for f in (0.0, 0.3, -0.3, 0.5, -0.5)]


@st.composite
def gap_rows(draw):
    n_k = draw(st.integers(min_value=1, max_value=24))
    size = n_k + 2 * _PAD
    rows = draw(st.integers(min_value=1, max_value=6))
    levels = draw(st.lists(st.sampled_from(GAP_LEVELS), min_size=rows * size, max_size=rows * size))
    ripple = draw(st.lists(st.sampled_from(RIPPLE), min_size=rows * size, max_size=rows * size))
    return n_k, (np.array(levels) + np.array(ripple)).reshape(rows, size)


@settings(derandomize=True, deadline=None)
@given(gap_rows())
@example((4, np.full((1, 4 + 2 * _PAD), 0.5)))  # a constant row
@example((4, np.array([[2.0, 2.0, 1.0, 0.0, 0.0, 0.5, 0.0, 0.0, 1.0, 2.0]])))  # minima on both edges
@example((3, np.array([[1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 1.0]])))  # a plateau over the whole grid
@example((4, np.array([[2.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                       [0.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]])))  # a fall the next row's rise must not close
def test_grid_minima_match_per_sample_scan(rows):
    # all rows are scanned as one array; each row's minima are those of the
    # per-sample scan of that row alone, in row order
    n_k, d = rows
    row, lo, hi, least = _grid_minima(d, n_k)
    assert [row.dtype.kind, lo.dtype.kind, hi.dtype.kind, least.dtype] == ["i", "i", "i", np.float64]
    assert np.all(np.diff(row) >= 0)
    for r in range(len(d)):
        expected = oracles.grid_minima(d[r], n_k, _PAD, _PHASE_NOISE_FLOOR)
        mine = row == r
        assert list(zip(lo[mine].tolist(), hi[mine].tolist())) == [(p, q) for p, q, _ in expected]
        assert np.array_equal(least[mine], np.array([g for _, _, g in expected], dtype=float))


def test_classify_crossings_repulsion_all_avoided():
    spec = band_structure(repulsion_coin())
    found = classify_crossings(spec)
    assert all(c.kind == "avoided" for c in found)
    assert all(c.gap >= 1e-9 for c in found)


def test_classify_crossings_flat_degeneracy_flagged():
    # identity coin: branches coincide over whole intervals, not points
    spec = band_structure(np.eye(4), n_k=256)
    found = classify_crossings(spec)
    assert any(c.continuum for c in found)


def test_split_step_params_validation():
    good = np.array([[0.8, 0.6], [-0.6, 0.8]], dtype=complex)
    oracles.SplitStepParams(good, good)
    with pytest.raises(ValueError):
        oracles.SplitStepParams(np.eye(3), good)
    with pytest.raises(ValueError):
        oracles.SplitStepParams(good * 1.01, good)
    with pytest.raises(ValueError):
        oracles.SplitStepParams(np.diag([1j, 1j]), good)


def test_split_step_vanishing_mixRatio_gives_pm_u():
    # second coin diagonal: speeds collapse to plus-minus the first mixing amplitude
    rng = np.random.default_rng(74)
    for _ in range(10):
        c1 = random_su2(rng)
        phase = np.exp(1j * rng.uniform(-np.pi, np.pi))
        c2 = np.diag([phase, np.conj(phase)])
        bands = oracles.SplitStepBands(oracles.SplitStepParams(c1, c2))
        u = abs(bands.u_tilde)
        s = np.sort(bands.speeds)
        assert abs(bands.v_tilde) < 1e-12
        assert np.max(np.abs(s - np.array([-u, u]))) < 1e-9


def test_split_step_exactly_two_speeds():
    rng = np.random.default_rng(75)
    for _ in range(50):
        bands = oracles.SplitStepBands(oracles.SplitStepParams(random_su2(rng), random_su2(rng)))
        s = bands.speeds
        assert s.shape == (2,)
        assert abs(s[0] + s[1]) < 1e-9


def test_split_step_closed_form_matches_operator_bands():
    rng = np.random.default_rng(76)
    for _ in range(10):
        params = oracles.SplitStepParams(random_su2(rng), random_su2(rng))
        bands = oracles.SplitStepBands(params)
        coin = oracles.split_step_coin(params)
        spec = band_structure(coin, n_k=256)
        ks = 2.0 * spec.k_grid
        # two steps of the embedded coin at k/2 act on the c modes as one
        # split step at k
        u = bloch_operator(coin, spec.k_grid)
        assert np.max(np.abs((u @ u)[:, :2, :2] - bands.bloch(ks))) < 1e-14
        closed = np.stack([bands.omega_plus(ks), bands.omega_minus(ks)] * 2, axis=0)
        got = np.sort(wrap_phase(2.0 * spec.omegas), axis=0)
        want = np.sort(wrap_phase(closed), axis=0)
        assert np.max(np.abs(got - want)) < 1e-9


def test_split_step_group_velocity_derivative():
    rng = np.random.default_rng(77)
    bands = oracles.SplitStepBands(oracles.SplitStepParams(random_su2(rng), random_su2(rng)))
    ks = np.linspace(-3.0, 3.0, 11)
    h = 1e-6
    for k in ks:
        num = wrap_phase(bands.omega_plus(k + h) - bands.omega_plus(k - h)) / (2 * h)
        assert abs(num - bands.group_velocity_plus(k)) < 1e-5


def test_random_coins_never_exceed_eight_fronts():
    rng = np.random.default_rng(78)
    for _ in range(50):
        coin = random_unitary(4, rng)
        ws = wavefront_speeds(band_structure(coin, n_k=256))
        assert len(ws.speeds) <= 8


# --- analytic band derivatives ----------------------------------------------

# element stacks on which finite-difference refinement missed fronts: two
# bands come within 5e-3 of each other near the fronts, and a front carried
# a stencil truncation error of 1.5e-5
NEAR_DEGENERATE = {
    "arm_a": {"waveplates": [{"kind": "hwp", "angle_deg": 175.030245}], "eom_phase_deg": 71.849095},
    "arm_b": {"waveplates": [{"kind": "qwp", "angle_deg": 134.430534}], "eom_phase_deg": -85.434705},
    "loop": [{"kind": "hwp", "angle_deg": 37.726975}],
}
STENCIL_ERROR = {
    "arm_a": {
        "waveplates": [{"kind": "qwp", "angle_deg": 61.05566}, {"kind": "qwp", "angle_deg": 62.275462}],
        "eom_phase_deg": -40.896978,
    },
    "arm_b": {"waveplates": [{"kind": "hwp", "angle_deg": 135.438204}], "eom_phase_deg": 10.609507},
    "loop": [{"kind": "eom", "angle_deg": 134.345656}, {"kind": "eom", "angle_deg": 169.805549}],
}


def element_coin(elements):
    return parse_coin({"elements": elements}, "coin").matrix()


def random_element_coin(rng):
    def plates():
        kinds = rng.choice(["qwp", "hwp"], size=int(rng.integers(1, 3)))
        return [{"kind": str(kd), "angle_deg": float(rng.uniform(0.0, 180.0))} for kd in kinds]

    def arm():
        return {"waveplates": plates(), "eom_phase_deg": float(rng.uniform(-90.0, 90.0))}

    loop = [{"kind": str(rng.choice(["qwp", "hwp", "eom"])), "angle_deg": float(rng.uniform(0.0, 180.0))}]
    return element_coin({"arm_a": arm(), "arm_b": arm(), "loop": loop})


def oracle_velocity(coin, k, omega):
    """Oracle group velocity of the eigenphase nearest omega at k."""
    phases, velocities = oracles.hellmann_feynman_velocities(coin, k)
    return velocities[np.argmin(np.abs(wrap_phase(phases - omega)))]


def test_group_velocities_match_hellmann_feynman_oracle():
    rng = np.random.default_rng(80)
    coins = [random_unitary(4, rng) for _ in range(3)] + [random_element_coin(rng) for _ in range(3)]
    for coin in coins:
        spec = band_structure(coin, n_k=128)
        v = group_velocities(spec)
        assert np.max(np.abs(v)) <= 1.0 + 1e-12
        for i, k in enumerate(spec.k_grid):
            for b in range(spec.n_branches):
                assert abs(v[b, i] - oracle_velocity(coin, k, spec.omegas[b, i])) < 1e-10


@pytest.mark.parametrize("elements", [NEAR_DEGENERATE, STENCIL_ERROR], ids=["near_degenerate", "stencil_error"])
def test_fronts_are_inflection_velocities(elements):
    coin = element_coin(elements)
    spec = band_structure(coin)
    ws = wavefront_speeds(spec)
    assert 0 < len(ws.speeds) <= 8
    assert np.max(np.abs(ws.speeds)) <= 1.0
    h = 1e-6
    for front in ws.fronts:
        assert front.k is not None
        phases, velocities = oracles.hellmann_feynman_velocities(coin, front.k)
        n = np.argmin(np.abs(velocities - front.speed))
        assert abs(velocities[n] - front.speed) < 1e-9
        assert abs(front.speed) <= 1.0
        # omega'' of that band by a central difference of oracle velocities
        slope = [oracle_velocity(coin, front.k + s, phases[n] + s * front.speed) for s in (-h, h)]
        assert abs(slope[1] - slope[0]) / (2.0 * h) < 1e-5


def test_balanced_coin_speeds_exact():
    ws = wavefront_speeds(hadamard_spectrum(n_k=1024))
    assert np.max(np.abs(ws.speeds - np.array([-1.0, 1.0]) / np.sqrt(2.0))) < 1e-12


MALFORMED_COINS = [np.ones(4), np.ones((4, 3)), np.stack([np.eye(4)] * 2), np.eye(2), "eye", np.full((4, 4), np.nan)]


@pytest.mark.parametrize("coin", MALFORMED_COINS, ids=["4", "4x3", "2x4x4", "2x2", "string", "nan"])
@pytest.mark.parametrize("build", [lambda c: bloch_operator(c, 0.3), lambda c: band_structure(c, n_k=64)],
                         ids=["bloch_operator", "band_structure"])
def test_malformed_coins_rejected(build, coin):
    with pytest.raises(ValueError):
        build(coin)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=-np.pi, max_value=np.pi))
def test_translated_coin_moves_fronts_and_minima(seed, k0):
    # the translated coin's bands are the coin's moved by -k0 in momentum
    coin = random_unitary(4, np.random.default_rng(seed))
    spec, moved = band_structure(coin, n_k=512), band_structure(oracles.translated(coin, k0), n_k=512)
    ws, ws_moved = wavefront_speeds(spec), wavefront_speeds(moved)
    assert len(ws.speeds) == len(ws_moved.speeds)
    assert np.max(np.abs(ws.speeds - ws_moved.speeds), initial=0.0) <= 1e-9
    found, found_moved = classify_crossings(spec), classify_crossings(moved)
    assert len(found) == len(found_moved)
    assert sorted(c.kind for c in found) == sorted(c.kind for c in found_moved)
    for a in found:
        b = min(found_moved, key=lambda c: abs(wrap_phase(c.k - a.k + k0)) + abs(c.gap - a.gap))
        assert a.kind == b.kind
        assert abs(wrap_phase(b.k - a.k + k0)) <= 1e-7
        assert abs(b.gap - a.gap) <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_group_velocity_is_band_slope(seed):
    coin = random_unitary(4, np.random.default_rng(seed))
    spec = band_structure(coin, n_k=64)
    v = group_velocities(spec)
    assert np.max(np.abs(v)) <= 1.0 + 1e-12
    h = 1e-5
    for i in range(0, 64, 8):
        k = spec.k_grid[i]
        ph = [np.angle(np.linalg.eigvals(oracles.bloch_matrix(coin, k + s))) for s in (-h, h)]
        for b in range(spec.n_branches):
            om = spec.omegas[b, i]
            near = [p[np.argmin(np.abs(wrap_phase(p - om)))] for p in ph]
            assert abs(wrap_phase(near[1] - near[0]) / (2.0 * h) - v[b, i]) < 1e-6


def test_band_structure_matches_sequential_connection():
    # bitwise on the same eigenpairs, padding included: a few coins on a
    # coarse grid, then the reference recipes and seeded Haar coins on the
    # default one
    rng = np.random.default_rng(81)
    coins = [random_unitary(4, rng), random_element_coin(rng), crossing_coin(), np.eye(4, dtype=complex)]
    coins.append(full_coin(MINUS_IX, MINUS_IX, hwp_matrix(22.5)))
    runs = [(coin, n_k) for coin in coins for n_k in (128, 129)]
    for name in ("hadamard", "crossing", "repulsion"):
        runs.append((parse_config(os.path.join(CONFIG_DIR, f"{name}_dispersion.yaml")).coin_matrix, 1024))
    runs += [(random_unitary(4, np.random.default_rng([87, seed])), 1024) for seed in range(20)]
    for coin, n_k in runs:
        spec = band_structure(coin, n_k=n_k)
        w, v, _, _ = _grid_eigenpairs(coin, spec._k_pad, n_k)
        omega, vecs = oracles.sequential_branches(w, v)
        assert np.array_equal(spec._omega_pad, omega)
        assert np.array_equal(spec._vec_pad, vecs)


# --- refinement of fronts and gap minima ------------------------------------


def branch_map(coarse, fine):
    """Branch of `fine` for every branch of `coarse`, matched by eigenphase
    at k = -pi (the first sample of both grids)."""
    dist = np.abs(wrap_phase(coarse.omegas[:, :1] - fine.omegas[:, 0]))
    labels = np.argmin(dist, axis=1)
    assert sorted(labels) == list(range(fine.n_branches))
    return labels


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_fronts_and_minima_stable_when_n_k_doubles(seed):
    coin = random_unitary(4, np.random.default_rng(seed))
    coarse, fine = band_structure(coin, n_k=512), band_structure(coin, n_k=1024)
    ws_c, ws_f = wavefront_speeds(coarse), wavefront_speeds(fine)
    assert len(ws_c.fronts) == len(ws_f.fronts)
    assert len(ws_c.speeds) == len(ws_f.speeds)
    assert np.max(np.abs(ws_c.speeds - ws_f.speeds), initial=0.0) <= 1e-9
    labels = branch_map(coarse, fine)

    def by_pair(found, relabel):
        pairs = {}
        for c in found:
            pairs.setdefault(tuple(sorted(relabel[b] for b in c.branches)), []).append(c)
        return pairs

    got_c = by_pair(classify_crossings(coarse), labels)
    got_f = by_pair(classify_crossings(fine), range(fine.n_branches))
    assert got_c.keys() == got_f.keys()
    for pair, found_c in got_c.items():
        found_f = got_f[pair]
        assert len(found_c) == len(found_f), pair
        for a in found_c:
            b = min(found_f, key=lambda c: abs(wrap_phase(c.k - a.k)))
            assert a.kind == b.kind, pair
            assert abs(wrap_phase(a.k - b.k)) <= 1e-7, pair


def test_avoided_minima_have_equal_branch_velocities():
    # d(gap)/dk = 0 at a smooth minimum: both branches move at one speed
    rng = np.random.default_rng(82)
    coins = [random_unitary(4, rng) for _ in range(3)] + [random_element_coin(rng) for _ in range(3)]
    checked = 0
    for coin in coins:
        for c in classify_crossings(band_structure(coin)):
            if c.kind != "avoided":
                continue
            phases, velocities = oracles.hellmann_feynman_velocities(coin, c.k)
            # the oracle's eigenphase pair separated by the refined gap
            pairs = [(n, m) for n in range(4) for m in range(n + 1, 4)]
            n, m = min(pairs, key=lambda nm: abs(abs(wrap_phase(phases[nm[0]] - phases[nm[1]])) - c.gap))
            assert abs(abs(wrap_phase(phases[n] - phases[m])) - c.gap) <= 1e-9
            assert abs(velocities[n] - velocities[m]) <= 1e-9
            checked += 1
    assert checked == 64


@pytest.mark.parametrize(
    "coin, n_avoided",
    [(full_coin(MINUS_IX, MINUS_IX, hwp_matrix(22.5)), 8), (crossing_coin(), 4)],
    ids=["hadamard", "crossing"],
)
def test_symmetric_avoided_minima_land_on_zero_and_minus_pi(coin, n_avoided):
    # by the k -> -k symmetry these minima sit exactly on grid samples
    found = [c for c in classify_crossings(band_structure(coin)) if c.kind == "avoided"]
    assert len(found) == n_avoided
    for c in found:
        target = min((0.0, -np.pi), key=lambda t: abs(wrap_phase(c.k - t)))
        assert abs(c.k - target) <= 1e-12, c


def test_near_degenerate_minima_not_above_their_grid_samples():
    # branch tracking passes diabatically through a 4.7e-3 avoided crossing
    # of this coin, so some grid brackets of the (0,2) and (1,3) gaps carry
    # no sign change of d(gap)/dk; the refined gap must still sit at or
    # below the grid samples enclosing it
    spec = band_structure(element_coin(NEAR_DEGENERATE))
    h = spec.spacing
    found = classify_crossings(spec)
    assert len(found) == 16
    for c in found:
        i, j = c.branches
        grid_gap = np.abs(wrap_phase(spec.omegas[i] - spec.omegas[j]))
        s = np.floor((c.k + np.pi) / h).astype(int)
        enclosing = grid_gap[[s % spec._n_k, (s + 1) % spec._n_k]]
        assert c.gap <= np.min(enclosing) + 64.0 * np.finfo(float).eps * np.pi, c


def test_near_degenerate_ternary_fallback_finds_the_followed_minima(monkeypatch):
    # the four brackets of this coin whose tracked slopes keep their sign go
    # to the ternary search; each refined gap must be the minimum of the pair
    # followed by eigenvector overlap from the bracket's middle sample, found
    # here by nested scans over oracles.eig_unitary, each 100 times finer (the
    # followed gap falls with slope about 1.8 into a jump of 8e-3, where one
    # followed vector switches eigenpair, and the last scan's samples lie
    # 3e-13 apart)
    import loopwalk.dispersion as dispersion

    coin = element_coin(NEAR_DEGENERATE)
    spec = band_structure(coin)
    h = spec.spacing
    brackets, ternary_minimum = [], dispersion._ternary_minimum

    def ternary(gap_at, lo, hi, sel):
        k, gap = ternary_minimum(gap_at, lo, hi, sel)
        brackets.extend(zip(lo.tolist(), hi.tolist(), k.tolist()))
        return k, gap

    monkeypatch.setattr(dispersion, "_ternary_minimum", ternary)
    found = {c.k: c for c in classify_crossings(spec)}
    assert len(brackets) == 4

    def followed_gaps(ks, refs):
        gaps = []
        for k in ks:
            phases, v = oracles.eig_unitary(shift_bloch(k) @ coin)
            a, b = (np.argmax(np.abs(ref.conj() @ v)) for ref in refs)
            gaps.append(abs(wrap_phase(phases[a] - phases[b])))
        return np.array(gaps)

    refined = []
    for lo, hi, k in brackets:
        middle = int(round((lo + h + np.pi) / h)) % spec._n_k
        c = found[k]
        phases, v = oracles.eig_unitary(shift_bloch(spec.k_grid[middle]) @ coin)
        refs = [v[:, np.argmin(np.abs(wrap_phase(phases - spec.omegas[b, middle])))] for b in c.branches]
        ks = np.linspace(lo, hi, 401)
        for _ in range(4):
            best = np.argmin(followed_gaps(ks, refs))
            ks = np.linspace(ks[max(best - 2, 0)], ks[min(best + 2, len(ks) - 1)], 401)
        assert abs(c.gap - followed_gaps(ks, refs).min()) <= 1e-12, c
        assert np.all(c.gap <= followed_gaps([c.k - 1e-7, c.k + 1e-7], refs)), c
        refined.append((c.branches, c.k, c.gap))
    assert [r[0] for r in sorted(refined)] == [(0, 2), (0, 2), (1, 3), (1, 3)]
    assert np.allclose(sorted(r[1] for r in refined), [-2.202991, -0.938601, 0.938601, 2.202991], rtol=0, atol=1e-6)
    assert np.allclose([r[2] for r in refined], 3.0738156343716, rtol=0, atol=1e-12)


# --- the Hermitian eigensolver ----------------------------------------------

RESIDUAL_GATE = 3e-14


def residuals(u, w, v):
    """Largest ||U v - lambda v|| over the eigenpairs of each matrix."""
    return np.max(np.linalg.norm(u @ v - v * w[:, None, :], axis=1), axis=1)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_eigenpairs_match_eig_on_random_coins(seed, haar):
    rng = np.random.default_rng(seed)
    coin = random_unitary(4, rng) if haar else random_element_coin(rng)
    u = shift_bloch(rng.uniform(-np.pi, np.pi, size=256)) @ coin
    w, v, redo, accepted = _eigenpairs(u)
    assert np.max(residuals(u, w, v)) <= 1e-13
    assert accepted <= RESIDUAL_GATE
    # each eigenphase of eig has one within 1e-13 on the circle, and back
    dist = np.abs(wrap_phase(np.angle(w)[:, :, None] - np.angle(np.linalg.eigvals(u))[:, None, :]))
    assert np.max(np.min(dist, axis=2)) <= 1e-13
    assert np.max(np.min(dist, axis=1)) <= 1e-13
    # eigh's vectors are orthonormal; eig's, in the matrices that fell back,
    # need not be (they are off by up to 1.04e-13 where two eigenphases lie
    # 0.01 apart) and are orthonormalised where the derivatives are taken
    kept = np.setdiff1d(np.arange(len(u)), redo)
    gram = np.conj(np.swapaxes(v[kept], 1, 2)) @ v[kept]
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-13


def test_eigenpairs_of_non_normal_callable_are_eigs():
    # a non-normal operator shares no eigenvectors with its Hermitian part,
    # so every matrix fails the gate and is solved by eig, bit for bit
    re, im = np.random.default_rng(83).normal(size=(2, 4, 4))
    m = re + 1j * im

    def bloch(ks):
        return shift_bloch(ks) @ m

    ks = -np.pi + 2.0 * np.pi / 64 * np.arange(-3, 67)
    w, v, redo, accepted = _eigenpairs(bloch(ks))
    w_eig, v_eig = np.linalg.eig(bloch(ks))
    assert np.array_equal(redo, np.arange(len(ks)))
    assert accepted == 0.0
    assert np.array_equal(w, w_eig)
    assert np.array_equal(v, v_eig)


def test_symmetric_walk_needs_no_fallback():
    # the split-step Hadamard walk's eigenphases come in +-omega pairs, which
    # a Hermitian part (U + U^H)/2 alone would collide at every k; solved on
    # the padded grid of n_k = 64 (its four-mode embedding has the spectrum
    # {+-omega/2, +-omega/2 + pi}, whose pairs the mix collides at isolated k)
    coin = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / np.sqrt(2.0)
    ks = -np.pi + 2.0 * np.pi / 64 * np.arange(-_PAD, 64 + _PAD)
    _, _, redo, _ = _eigenpairs(oracles.SplitStepBands(oracles.SplitStepParams(coin, coin)).bloch(ks))
    assert len(redo) == 0


def test_derivatives_orthonormalise_fallback_vectors():
    # eig may return any unit vectors inside a degenerate eigenspace; the
    # Hadamard coin's bands are pairwise degenerate at every k
    coin = full_coin(MINUS_IX, MINUS_IX, hwp_matrix(22.5))
    w, v, redo, _ = _eigenpairs(shift_bloch(np.linspace(-3.0, 3.0, 7)) @ coin)
    phases = np.angle(w)
    skewed = v.copy()
    for n, i, j in zip(*np.nonzero(np.abs(phases[:, :, None] - phases[:, None, :]) < 1e-9)):
        if i < j:
            x = v[n, :, i] + 0.7 * v[n, :, j]
            skewed[n, :, i] = x / np.linalg.norm(x)
    assert len(redo) == 0 and not np.allclose(skewed, v)
    first, second = _derivatives(coin, v, phases, redo)
    first_s, second_s = _derivatives(coin, skewed, phases, np.arange(len(w)))
    assert np.max(np.abs(first_s - first)) <= 1e-12
    assert np.max(np.abs(second_s - second)) <= 1e-12


@pytest.mark.parametrize("recipe", ["hadamard", "crossing", "repulsion"])
def test_recipe_grid_solves_certified(recipe):
    coin = parse_config(os.path.join(CONFIG_DIR, f"{recipe}_dispersion.yaml")).coin_matrix
    spec = band_structure(coin)
    assert 0.0 < spec._residual <= RESIDUAL_GATE
    assert len(spec._redo) < spec._k_pad.size
    # the accepted vectors are eigenvectors of U(k) to the gate
    u = shift_bloch(spec._k_pad) @ coin
    kept = np.setdiff1d(np.arange(spec._k_pad.size), spec._redo)
    v = spec._vec_pad.transpose(1, 2, 0)[kept]
    w = np.einsum("nij,nij->nj", v.conj(), u[kept] @ v)
    assert np.max(residuals(u[kept], w, v)) <= RESIDUAL_GATE


# --- the half grid: U(k + pi) = -U(k) ---------------------------------------


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans(),
       st.one_of(st.integers(min_value=64, max_value=512), st.sampled_from([65, 257])))
@example(seed=0, haar=True, n_k=257).via("an odd grid")
@example(seed=1, haar=False, n_k=65).via("an odd grid")
def test_twin_samples_are_eigenpairs(seed, haar, n_k):
    rng = np.random.default_rng(seed)
    coin = random_unitary(4, rng) if haar else random_element_coin(rng)
    spec = band_structure(coin, n_k=n_k)
    # every band on the circle is an eigenphase of U(k), padding included
    exact = np.angle(np.linalg.eigvals(shift_bloch(spec._k_pad) @ coin))
    dist = np.abs(wrap_phase(spec._omega_pad.T[:, :, None] - exact[:, None, :]))
    assert np.max(np.min(dist, axis=2)) <= 1e-12
    assert np.max(np.min(dist, axis=1)) <= 1e-12
    # an even grid solves n_k/2 + 2 _PAD samples; each later one holds the
    # vectors and negated eigenvalues of the sample n_k/2 before it, and
    # falls back with it
    m, half = spec._k_pad.size, (0 if n_k % 2 else n_k // 2)
    w, v, redo, _ = _grid_eigenpairs(coin, spec._k_pad, n_k)
    twin = np.arange(m - half, m)
    assert np.array_equal(v[twin], v[twin - half])
    assert np.array_equal(w[twin], -w[twin - half])
    assert np.array_equal(redo[redo >= m - half], np.intersect1d(redo, twin - half) + half)
    assert np.array_equal(spec._redo, redo)
    assert np.max(np.abs(group_velocities(spec))) <= 1.0 + 1e-12


@settings(derandomize=True, deadline=None)
@given(st.sampled_from(["haar", "element"]), st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([64, 128, 129, 1024]))
@example("identity", 0, 128).via("the identity coin")
@example("fallback", 2, 128).via("k + pi twins that fell back to eig")
def test_grid_derivatives_equal_derivatives_on_every_sample(kind, seed, n_k):
    # a k + pi twin reads its source's matrix elements in its own branch
    # order and sums omega'' with its own phases: bit for bit what
    # _derivatives gives when run on every padded sample
    rng = np.random.default_rng(seed)
    if kind == "identity":
        coin = np.eye(4, dtype=complex)
    else:
        coin = random_element_coin(rng) if kind == "element" else random_unitary(4, rng)
    spec = band_structure(coin, n_k=n_k)
    m, half = spec._k_pad.size, (0 if n_k % 2 else n_k // 2)
    source, _ = spec._sources
    fallback_twins = np.count_nonzero(spec._redo >= m - half)
    assert np.count_nonzero(source != np.arange(m)) == half - fallback_twins
    if kind == "fallback":
        assert fallback_twins > 0
    first, second = _derivatives(spec._coin, spec._vec_pad.transpose(1, 2, 0), spec._omega_pad.T, spec._redo)
    got = spec._grid_derivatives()
    assert np.array_equal(got[0], first.T)
    assert np.array_equal(got[1], second.T)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from(["haar", "element"]), st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([64, 65, 257, 1024]))
@example("balanced", 0, 64).via("the balanced coin's pairwise degenerate bands")
@example("balanced", 0, 257).via("the balanced coin on an odd grid")
def test_curvature_has_the_bits_of_numpys_sum(kind, seed, n_k):
    # omega'' sums each row's four terms with mode_sum; numpy's sum differs
    # only on a row of four -0.0s, and each row holds its own diagonal term,
    # +0.0 since cot is zero there
    import loopwalk.dispersion as dispersion

    rng = np.random.default_rng(seed)
    coin = {"haar": lambda: random_unitary(4, rng), "element": lambda: random_element_coin(rng),
            "balanced": lambda: full_coin(MINUS_IX, MINUS_IX, hwp_matrix(22.5))}[kind]()
    spec = band_structure(coin, n_k=n_k)
    terms = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dispersion, "mode_sum", lambda v: terms.append(v) or mode_sum(v))
        _, got = _derivatives(spec._coin, spec._vec_pad.transpose(1, 2, 0), spec._omega_pad.T, spec._redo)
    (terms,) = terms
    assert got.tobytes() == np.sum(terms, axis=-1).tobytes()


@pytest.mark.parametrize("n_k, solved", [(64, 38), (65, 71), (1024, 518), (1025, 1031)])
def test_band_structure_solves_half_an_even_grid(monkeypatch, n_k, solved):
    eigh, matrices = np.linalg.eigh, []

    def counted(a, *args, **kwargs):
        matrices.append(int(np.prod(np.shape(a)[:-2], dtype=int)))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    band_structure(random_unitary(4, np.random.default_rng(88)), n_k=n_k)
    assert sum(matrices) == solved
