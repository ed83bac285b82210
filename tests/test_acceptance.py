"""End-to-end acceptance checks.

Each test covers one headline behavior of the package at a stated numerical
tolerance and runtime budget, and prints a single summary line.  The
fixtures are the three reference configurations used throughout the docs:
the balanced walk (quarter wave plates at 45 degrees in both arms, half
wave plate at 22.5 degrees in the loop), the exact-crossing configuration
(12 degree quarter wave plates, 27 degree loop plate), and the
level-repulsion configuration (27/0 degree plates in the arms, 20 degree
loop plate).
"""

import time

import numpy as np

import oracles
from oracles import random_su2, random_unitary
from loopwalk.analysis import (
    WalkSetup,
    equidistribution_similarity,
    find_revivals,
    monte_carlo_error_bars,
)
from loopwalk.coin_synthesis import (
    factor_universal,
    one_trip_reconstruct,
    one_trip_test,
    three_step_schedule,
)
from loopwalk.dispersion import band_structure, classify_crossings, wavefront_speeds
from loopwalk.graph_programs import map_sites, ring_chain
from loopwalk.linalg_core import unitarity_defect, wrap_phase
from loopwalk.optics import (
    ArmSetting,
    OpticalElement,
    eom_matrix,
    full_coin,
    hwp_matrix,
    qwp_matrix,
)
from loopwalk.walk_engine import (
    CoinProgram,
    ElementCoin,
    constant_program,
    evolve,
    evolve_states,
    make_initial,
    trace_intensities,
)

MINUS_IX = np.array([[0.0, -1j], [-1j, 0.0]])


def hadamard_coin():
    return full_coin(MINUS_IX, MINUS_IX, oracles.HADAMARD_2)


def crossing_coin():
    q = qwp_matrix(12.0)
    return full_coin(q @ q, q @ q, hwp_matrix(27.0))


def repulsion_coin():
    arm = qwp_matrix(27.0) @ qwp_matrix(0.0) @ qwp_matrix(0.0) @ qwp_matrix(27.0)
    return full_coin(arm, arm, hwp_matrix(20.0))


def report(num: int, detail: str, t0: float, budget: float):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"
    print(f"criterion {num:02d}: PASS ({elapsed:.2f}s) {detail}")


def test_criterion_01_hadamard_wavefront_speeds():
    t0 = time.perf_counter()
    # fine grid: the front sits at a band inflection flanked by a branch
    # crossing, where coarse-grid references bias the refined slope
    ws = wavefront_speeds(band_structure(hadamard_coin(), n_k=4096))
    speeds = np.sort(ws.speeds)
    assert len(speeds) == 2
    target = 1.0 / np.sqrt(2.0)
    assert abs(speeds[0] + target) <= 1e-6
    assert abs(speeds[1] - target) <= 1e-6
    report(1, f"two speeds {speeds[0]:.8f}, {speeds[1]:.8f}", t0, 1.0)


def test_criterion_02_four_speed_configuration():
    t0 = time.perf_counter()
    ws = wavefront_speeds(band_structure(repulsion_coin()))
    speeds = np.sort(ws.speeds)
    expected = np.array([-0.5538, -0.1655, 0.1655, 0.5538])
    assert len(speeds) == 4
    assert np.max(np.abs(speeds - expected)) <= 1e-3
    report(2, "speeds " + ", ".join(f"{s:.4f}" for s in speeds), t0, 5.0)


def test_criterion_03_crossings_vs_repulsions():
    t0 = time.perf_counter()
    touching = classify_crossings(band_structure(crossing_coin()))
    exact = [c for c in touching if c.gap < 1e-9 and not c.continuum]
    assert exact, "expected at least one exact interbranch crossing"
    repelled = classify_crossings(band_structure(repulsion_coin()))
    assert not [c for c in repelled if c.gap < 1e-9]
    gaps = min(c.gap for c in repelled) if repelled else float("inf")
    report(3, f"{len(exact)} exact crossings vs none (min gap {gaps:.2e})", t0, 5.0)


def test_criterion_04_multi_lobe_structure():
    t0 = time.perf_counter()
    rec = evolve(make_initial("ccw", "D", 0), constant_program(repulsion_coin()), 50)
    traced = trace_intensities(rec, mode="sum_all")
    tables = [dict(zip(rec.positions(t).tolist(), traced[t][rec.reached[t]].tolist())) for t in range(len(rec))]

    def maxima(table):
        xs = sorted(table)
        v = [table[x] for x in xs]
        out = []
        for i in range(len(v)):
            left = v[i - 1] if i > 0 else 0.0
            right = v[i + 1] if i + 1 < len(v) else 0.0
            if v[i] > left and v[i] > right:
                out.append((xs[i], v[i]))
        return out

    # local maxima carrying more than 5 % of the total intensity
    n15 = len([m for m in maxima(tables[15]) if m[1] > 0.05])
    n50 = len([m for m in maxima(tables[50]) if m[1] > 0.05])
    assert n15 == 3, f"step 15 has {n15} lobes, expected 3"
    assert n50 == 4, f"step 50 has {n50} lobes, expected 4"

    # outermost maxima drift at the fast front speed once the transient
    # has passed; fit over the last twenty steps
    right_track, left_track = [], []
    for t in range(30, 51):
        peaks = maxima(tables[t])
        top = max(val for _, val in peaks)
        peaks = [p for p in peaks if p[1] >= 0.05 * top]
        left_track.append(peaks[0][0])
        right_track.append(peaks[-1][0])
    ts = np.arange(30, 51)
    slope_r = np.polyfit(ts, right_track, 1)[0]
    slope_l = np.polyfit(ts, left_track, 1)[0]
    fast = 0.5538
    assert abs(slope_r - fast) <= 0.03
    assert abs(slope_l + fast) <= 0.03
    report(
        4,
        f"lobes 3@15, 4@50; outer drift {slope_l:+.4f}, {slope_r:+.4f}",
        t0,
        10.0,
    )


def _check_universal(c):
    fact = factor_universal(c)
    for factors in (fact.factor_1, fact.factor_2):
        for block in (factors.c_a, factors.c_b, factors.c_loop_cw, factors.c_loop_ccw):
            assert unitarity_defect(block) <= 1e-10
    product = fact.factor_2.compose() @ fact.factor_1.compose()
    assert np.max(np.abs(product - fact.global_phase * c)) <= 1e-9
    assert fact.residual <= 1e-9
    return fact


def test_criterion_05_two_trip_universality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    for _ in range(1000):
        _check_universal(random_unitary(4, rng))
    # directed draws for each structural branch of the construction:
    # block-diagonal targets need no second trip at all
    for _ in range(20):
        c = np.zeros((4, 4), dtype=complex)
        c[:2, :2] = random_unitary(2, rng)
        c[2:, 2:] = random_unitary(2, rng)
        fact = _check_universal(c)
        assert np.max(np.abs(fact.factor_2.compose() - np.eye(4))) <= 1e-12
    # a diagonal arm block pins the leading singular value to one exactly
    for _ in range(20):
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=2))
        _check_universal(full_coin(np.diag(phases), random_unitary(2, rng), random_unitary(2, rng)))
    # and just outside that window the generic formulas must still hold
    for _ in range(20):
        theta = np.arcsin(4.5e-5)
        a = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        _check_universal(full_coin(a, random_unitary(2, rng), random_unitary(2, rng)))
    report(5, "1000 Haar targets + 60 directed branch draws, residual <= 1e-9", t0, 30.0)


def test_criterion_06_one_trip_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    for _ in range(1000):
        c = full_coin(random_unitary(2, rng), random_unitary(2, rng), random_unitary(2, rng))
        passed, _ = one_trip_test(c)
        assert passed
        fact = one_trip_reconstruct(c)
        assert np.max(np.abs(fact.compose() - c)) <= 1e-9
    passed, _ = one_trip_test(oracles.GROVER_4)
    assert not passed
    report(6, "1000 composed coins reconstruct; Grover coin rejected", t0, 10.0)


def test_criterion_07_three_step_protocol():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    for target in (oracles.GROVER_4, oracles.FOURIER_4):
        schedule = three_step_schedule(target)
        for _ in range(100):
            vec = rng.normal(size=4) + 1j * rng.normal(size=4)
            vec /= np.linalg.norm(vec)
            init = {int(rng.integers(-8, 9)): vec}
            got = list(evolve_states(init, schedule, 3))[-1]
            want = np.zeros_like(got)  # one step of the target, on the same light cone
            for x, amps in oracles.dense_evolve(init, target, 1).items():
                want[x - min(init) + 3] = amps
            diff = got - want
            assert np.max(np.abs(diff)) <= 1e-9
    report(7, "Grover and Fourier schedules match step+coin on 100 states each", t0, 10.0)


def test_criterion_08_circle_integrity():
    t0 = time.perf_counter()
    worst_leak = 0.0
    worst_norm = 0.0
    for num_sites in (4, 8, 10, 16):
        for flavor in ("hadamard_like", "non_mixing"):
            program, smap = ring_chain((0, num_sites // 2), flavor)
            rec = evolve(make_initial("ccw", "V", 1), program, 25)
            mapped = map_sites(smap, rec)
            worst_leak = max(worst_leak, mapped.max_leakage)
            for table in mapped.steps:
                total = sum(float(np.sum(v)) for v in table)
                worst_norm = max(worst_norm, abs(total - 1.0))
    assert worst_leak <= 1e-12
    assert worst_norm <= 1e-10
    report(8, f"max leakage {worst_leak:.2e}, norm drift {worst_norm:.2e}", t0, 10.0)


def test_criterion_09_revivals():
    t0 = time.perf_counter()
    program, smap = ring_chain((0, 4), "hadamard_like")
    mapped = map_sites(smap, evolve(make_initial("ccw", "V", 1), program, 24))
    events = {(s, sh, kind) for s, sh, kind in find_revivals(mapped, tol=1e-6) if s > 0}
    assert (24, 0, "perfect") in events

    program, smap = ring_chain((0, 2), "hadamard_like")
    mapped = map_sites(smap, evolve(make_initial("ccw", "V", 1), program, 8))
    events4 = {(s, sh, kind) for s, sh, kind in find_revivals(mapped, tol=1e-6)}
    assert (4, 2, "shifted") in events4
    assert (8, 0, "perfect") in events4
    report(9, "8-site perfect@24; 4-site shifted@4 (shift 2), perfect@8", t0, 5.0)


def test_criterion_10_equidistribution():
    t0 = time.perf_counter()
    program, smap = ring_chain((0, 4), "hadamard_like")
    mapped = map_sites(smap, evolve(make_initial("ccw", "V", 1), program, 11))
    s = equidistribution_similarity(mapped, 11, [1, 3, 5, 7])
    assert s >= 0.99
    report(10, f"similarity to flat at step 11: {s:.6f}", t0, 5.0)


def test_criterion_11_partial_reversal():
    t0 = time.perf_counter()
    q0 = qwp_matrix(0.0)
    coin = full_coin(MINUS_IX, q0 @ q0, hwp_matrix(22.5))
    rec = evolve(make_initial("ccw", "A", 0), constant_program(coin), 22)
    eff_init = {0: np.array([1, -1], dtype=complex) / np.sqrt(2.0)}
    eff = oracles.effective_2d_evolve(eff_init, oracles.HADAMARD_2, 22)
    worst = 0.0
    for t in range(23):
        walk_pd = dict(zip(rec.positions(t).tolist(), rec.position_distribution(t)))
        eff_pd = {x: float(v.sum()) for x, v in eff[t].items()}
        for x in set(walk_pd) | set(eff_pd):
            worst = max(worst, abs(walk_pd.get(x, 0.0) - eff_pd.get(x, 0.0)))
    assert worst <= 1e-10
    report(11, f"22 steps match standard walk, max deviation {worst:.2e}", t0, 5.0)


def test_criterion_12_split_step_two_speeds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1212)
    for _ in range(200):
        params = oracles.SplitStepParams(random_su2(rng), random_su2(rng))
        bands = oracles.SplitStepBands(params)
        speeds = bands.speeds
        assert len(speeds) == 2
        assert abs(speeds[0] + speeds[1]) <= 1e-9
        # the split-step eigenphases at k are twice the embedded coin's at k/2
        spec = band_structure(oracles.split_step_coin(params), n_k=256)
        ks = 2.0 * spec.k_grid
        closed = np.stack([bands.omega_plus(ks), bands.omega_minus(ks)] * 2, axis=0)
        got = np.sort(wrap_phase(2.0 * spec.omegas), axis=0)
        want = np.sort(wrap_phase(closed), axis=0)
        assert np.max(np.abs(got - want)) <= 1e-9
        found = wavefront_speeds(spec).speeds
        assert len(found) == 2
        assert np.max(np.abs(found - speeds)) <= 1e-9
    report(12, "200 walks: two mirrored speeds, closed form matches operator", t0, 30.0)


def test_criterion_13_eight_wavefront_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1313)
    most = 0
    for _ in range(1000):
        spec = band_structure(random_unitary(4, rng), n_k=256)
        most = max(most, len(wavefront_speeds(spec).speeds))
    assert most <= 8
    report(13, f"1000 random coins, max front count {most}", t0, 60.0)


def test_criterion_14_balanced_coin_identity():
    t0 = time.perf_counter()
    h_prime = eom_matrix(45.0)
    got = full_coin(h_prime, h_prime, h_prime)
    assert np.max(np.abs(got - oracles.BALANCED_FOUR_MODE_COIN)) <= 1e-12
    report(14, "balanced three-element coin matches its closed form", t0, 1.0)


def test_criterion_15_monte_carlo_determinism_and_convergence():
    t0 = time.perf_counter()
    program, smap = ring_chain((0, 4), "hadamard_like")
    setup = WalkSetup(
        program=program,
        initial=make_initial("ccw", "V", 1),
        steps=5,
        site_map=smap,
        support=[1, 3, 5, 7],
    )
    a = monte_carlo_error_bars(setup, n_samples=100, seed=5)
    b = monte_carlo_error_bars(setup, n_samples=100, seed=5)
    for t in range(6):
        assert np.array_equal(a.sigma_position[t], b.sigma_position[t])
        assert np.array_equal(a.sigma_mode[t], b.sigma_mode[t])
        assert np.array_equal(a.reference.intensities[t], b.reference.intensities[t])
    assert a.similarity_sigma == b.similarity_sigma
    assert a.similarity_sigma_sampled == b.similarity_sigma_sampled

    qwp45 = OpticalElement("qwp", 45.0)
    coin = ElementCoin(
        arm_a=ArmSetting((qwp45,), 0.0),
        arm_b=ArmSetting((qwp45,), 0.0),
        loop=(OpticalElement("hwp", 22.5),),
    )
    line = WalkSetup(
        program=CoinProgram(default=coin),
        initial=make_initial("ccw", "H", 0),
        steps=6,
    )
    small = monte_carlo_error_bars(line, n_samples=1000, seed=0)
    big = monte_carlo_error_bars(line, n_samples=4000, seed=1)
    bound = 3.0 / np.sqrt(1000.0)
    worst = 0.0
    for t in range(7):
        top = max(big.sigma_position[t], default=0.0)
        for x, sig in enumerate(big.sigma_position[t]):
            if top > 0.0 and sig >= 0.01 * top:
                rel = abs(small.sigma_position[t][x] - sig) / sig
                worst = max(worst, rel)
    assert worst <= bound
    report(15, f"bit-identical reruns; 1000 vs 4000 samples within {worst:.4f}", t0, 60.0)
