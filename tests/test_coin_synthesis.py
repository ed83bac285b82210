import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopwalk.coin_synthesis import (
    OneTripFactors,
    factor_universal,
    one_trip_reconstruct,
    one_trip_test,
    su2_normalize,
    three_step_schedule,
)
from loopwalk.linalg_core import unitarity_defect
from loopwalk.optics import coin_ab, coin_ll, coin_ll_independent, full_coin

import oracles
from oracles import random_su2, random_unitary

HP = oracles.BALANCED_PHASED_2


def random_composite(rng):
    return full_coin(random_unitary(2, rng), random_unitary(2, rng), random_unitary(2, rng))


def witness_margin(witness):
    # distance from rank one: worst second-to-first singular value ratio
    r1 = witness.singular_values_m1[1] / witness.singular_values_m1[0]
    r2 = witness.singular_values_m2[1] / witness.singular_values_m2[0]
    return max(r1, r2)


def test_one_trip_accepts_known_composites():
    ok, witness = one_trip_test(oracles.BALANCED_FOUR_MODE_COIN)
    assert ok
    assert witness.passed
    assert witness.rank_m1 == 1 and witness.rank_m2 == 1
    ok, _ = one_trip_test(np.eye(4, dtype=complex))
    assert ok


def test_one_trip_rejects_grover_and_fourier():
    for coin in (oracles.GROVER_4, oracles.FOURIER_4):
        ok, witness = one_trip_test(coin)
        assert not ok
        assert witness.rank_m1 == 2 or witness.rank_m2 == 2


def test_witness_singular_values_match_gram_oracle():
    rng = np.random.default_rng(50)
    for _ in range(20):
        c = random_unitary(4, rng)
        _, witness = one_trip_test(c)
        for m, s in ((witness.m1, witness.singular_values_m1),
                     (witness.m2, witness.singular_values_m2)):
            assert m.shape == (4, 2)
            # gram oracle works on the 2x2 gram of the stacked matrix
            gram = m.conj().T @ m
            eigs = np.linalg.eigvalsh(gram)
            expected = np.sqrt(np.clip(eigs[::-1], 0.0, None))
            assert np.max(np.abs(np.asarray(s) - expected)) < 1e-10


def test_one_trip_soundness_bulk():
    # every composed coin must pass, whatever the blocks
    rng = np.random.default_rng(51)
    for _ in range(10_000):
        ok, _ = one_trip_test(random_composite(rng))
        assert ok


def test_reconstruct_round_trip():
    rng = np.random.default_rng(52)
    for _ in range(1000):
        c = random_composite(rng)
        factors = one_trip_reconstruct(c)
        for block in (factors.c_a, factors.c_b, factors.c_loop_cw, factors.c_loop_ccw):
            assert unitarity_defect(block) <= 1e-10
        assert np.max(np.abs(factors.c_loop_cw - factors.c_loop_ccw)) <= 1e-9
        assert np.max(np.abs(factors.compose() - c)) <= 1e-9


def _column_phases(m, ref, tol):
    ratios = m / ref
    phases = []
    for j in range(ratios.shape[1]):
        col = ratios[:, j]
        assert np.max(np.abs(col - col[0])) < tol
        assert abs(abs(col[0]) - 1.0) < tol
        phases.append(col[0])
    return np.array(phases)


def test_reconstruct_balanced_coin_factor_gauge():
    factors = one_trip_reconstruct(oracles.BALANCED_FOUR_MODE_COIN)
    # arms match the balanced mixer up to a phase per column, the loop
    # up to a phase per row, and the recomposition cancels them exactly
    pa = _column_phases(factors.c_a, HP, 1e-12)
    pb = _column_phases(factors.c_b, HP, 1e-12)
    pl = _column_phases(factors.c_loop_cw.T, HP.T, 1e-12)
    assert np.max(np.abs(pa * pl - 1.0)) < 1e-12
    assert np.max(np.abs(pb * pl - 1.0)) < 1e-12
    assert np.max(np.abs(factors.compose() - oracles.BALANCED_FOUR_MODE_COIN)) < 1e-12


def test_reconstruct_identity():
    factors = one_trip_reconstruct(np.eye(4, dtype=complex))
    assert np.max(np.abs(factors.compose() - np.eye(4))) < 1e-12


def test_reconstruct_failure_reports_singular_values():
    with pytest.raises(ValueError) as err:
        one_trip_reconstruct(oracles.GROVER_4)
    message = str(err.value)
    assert "singular values" in message
    assert "1." in message


def test_independent_loop_blocks():
    rng = np.random.default_rng(53)
    for _ in range(200):
        c = random_composite(rng)
        # the shared-loop pass implies the independent-loop pass
        ok, _ = one_trip_test(c)
        assert ok
        assert oracles.one_trip_test_independent(c)

    for _ in range(200):
        a, b = random_unitary(2, rng), random_unitary(2, rng)
        cw, ccw = random_unitary(2, rng), random_unitary(2, rng)
        c = coin_ab(a, b) @ coin_ll_independent(cw, ccw)
        assert oracles.one_trip_test_independent(c)
        ok, _ = one_trip_test(c)
        # generic distinct blocks are not realizable with a shared loop
        assert not ok

    assert not oracles.one_trip_test_independent(oracles.GROVER_4)


def test_completeness_scaled_residual():
    # coins pushed off the decomposable set by eps keep a reconstruction
    # residual comparable to their rank-one defect
    rng = np.random.default_rng(54)
    checked_large = 0
    for _ in range(100):
        c = random_composite(rng)
        eps = 10.0 ** rng.uniform(-6, -2)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, r = np.linalg.qr(c + eps * g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        ok, witness = one_trip_test(q)
        if ok:
            continue
        margin = witness_margin(witness)
        try:
            best_effort = one_trip_reconstruct(q, rel_tol=0.99999)
        except ValueError:
            continue
        residual = np.max(np.abs(best_effort.compose() - q))
        assert residual >= margin / 4.0
        if margin >= 4e-3:
            checked_large += 1
            assert residual >= 1e-3
    assert checked_large >= 10


def test_haar_matrices_far_from_decomposable():
    rng = np.random.default_rng(55)
    rejected = 0
    for _ in range(50):
        c = random_unitary(4, rng)
        ok, witness = one_trip_test(c)
        if ok:
            continue
        rejected += 1
        if witness_margin(witness) < 4e-3:
            continue
        try:
            best_effort = one_trip_reconstruct(c, rel_tol=0.99999)
        except ValueError:
            continue
        assert np.max(np.abs(best_effort.compose() - c)) >= 1e-3
    assert rejected == 50


def check_factorization(fact, target, tol=1e-9):
    for factors in (fact.factor_1, fact.factor_2):
        for block in (factors.c_a, factors.c_b, factors.c_loop_cw, factors.c_loop_ccw):
            assert unitarity_defect(block) <= 1e-10
    product = fact.factor_2.compose() @ fact.factor_1.compose()
    assert np.max(np.abs(product - fact.global_phase * target)) <= tol
    assert abs(abs(fact.global_phase) - 1.0) <= 1e-10
    assert fact.residual <= tol
    # the second stage never needs arm elements
    assert np.max(np.abs(fact.factor_2.c_a - np.eye(2))) <= 1e-12
    assert np.max(np.abs(fact.factor_2.c_b - np.eye(2))) <= 1e-12


def test_factor_universal_haar_sweep():
    rng = np.random.default_rng(56)
    for _ in range(300):
        c = random_unitary(4, rng)
        check_factorization(factor_universal(c), c)


def test_factor_universal_block_diagonal_branch():
    rng = np.random.default_rng(57)
    for _ in range(20):
        c = np.zeros((4, 4), dtype=complex)
        c[:2, :2] = random_unitary(2, rng)
        c[2:, 2:] = random_unitary(2, rng)
        fact = factor_universal(c)
        check_factorization(fact, c)
        assert np.max(np.abs(fact.factor_2.compose() - np.eye(4))) <= 1e-12


def test_factor_universal_degenerate_branch():
    # a diagonal first arm pins the top-left singular value to one exactly
    rng = np.random.default_rng(58)
    for _ in range(20):
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=2))
        c = full_coin(np.diag(phases), random_unitary(2, rng), random_unitary(2, rng))
        check_factorization(factor_universal(c), c)


def test_factor_universal_near_degenerate():
    # just outside the degenerate-branch window: generic formulas must
    # survive a top-left block within 1e-8 of singular
    rng = np.random.default_rng(59)
    for _ in range(20):
        tiny = 4.5e-5
        theta = np.arcsin(tiny)
        a = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        c = full_coin(a, random_unitary(2, rng), random_unitary(2, rng))
        s = np.linalg.svd(c[:2, :2], compute_uv=False)
        assert 1e-10 < 1.0 - s[0] < 1e-8
        check_factorization(factor_universal(c), c)


def test_su2_normalize_properties():
    rng = np.random.default_rng(60)
    for _ in range(100):
        c = random_unitary(4, rng)
        norm = su2_normalize(factor_universal(c))
        for factors in (norm.factor_1, norm.factor_2):
            for block in (factors.c_a, factors.c_b, factors.c_loop_cw, factors.c_loop_ccw):
                assert abs(np.linalg.det(block) - 1.0) <= 1e-10
                assert unitarity_defect(block) <= 1e-10
        product = norm.factor_2.compose() @ norm.factor_1.compose()
        assert np.max(np.abs(product - norm.global_phase * c)) <= 1e-9
        assert norm.residual <= 1e-9
        assert abs(abs(norm.global_phase) - 1.0) <= 1e-10


def test_su2_normalize_keeps_unimodular_factors():
    from loopwalk.coin_synthesis import UniversalFactorization

    rng = np.random.default_rng(61)
    f1 = OneTripFactors(random_su2(rng), random_su2(rng), random_su2(rng), random_su2(rng))
    f2 = OneTripFactors(
        np.eye(2, dtype=complex), np.eye(2, dtype=complex), random_su2(rng), random_su2(rng)
    )
    target = f2.compose() @ f1.compose()
    fact = UniversalFactorization(
        factor_1=f1, factor_2=f2, global_phase=1.0 + 0j, target=target
    )
    norm = su2_normalize(fact)
    assert abs(norm.global_phase - 1.0) <= 1e-12
    assert np.max(np.abs(norm.factor_1.c_a - f1.c_a)) <= 1e-12
    assert np.max(np.abs(norm.factor_2.c_loop_cw - f2.c_loop_cw)) <= 1e-12


def test_su2_normalize_block_diagonal_phase_quartic():
    # with trivial second factor all determinant weight lands on the
    # global phase: phase^4 times det(target) returns to one
    rng = np.random.default_rng(62)
    for _ in range(20):
        c = np.zeros((4, 4), dtype=complex)
        c[:2, :2] = random_unitary(2, rng)
        c[2:, 2:] = random_unitary(2, rng)
        norm = su2_normalize(factor_universal(c))
        assert abs(norm.global_phase**4 * np.linalg.det(c) - 1.0) <= 1e-9


def test_three_step_schedule_fast_path():
    program = three_step_schedule(oracles.BALANCED_FOUR_MODE_COIN)
    assert np.max(np.abs(program.coin_at(0, 0) - oracles.BALANCED_FOUR_MODE_COIN)) <= 1e-12
    assert np.max(np.abs(program.coin_at(1, 5) - np.eye(4))) == 0.0
    assert np.max(np.abs(program.coin_at(2, -3) - np.eye(4))) == 0.0


def test_three_step_schedule_equals_single_target_step():
    from loopwalk.walk_engine import evolve_states

    rng = np.random.default_rng(63)
    for target in (oracles.GROVER_4, oracles.FOURIER_4):
        program = three_step_schedule(target)
        for _ in range(20):
            xs = rng.choice(np.arange(-4, 5), size=3, replace=False)
            state = {}
            for x in xs:
                state[int(x)] = rng.normal(size=4) + 1j * rng.normal(size=4)
            total = np.sqrt(sum(float(np.vdot(v, v).real) for v in state.values()))
            state = {x: v / total for x, v in state.items()}

            three = list(evolve_states(state, program, 3))[-1]
            one = np.zeros_like(three.amp)  # one step of the target, on the same window
            for x, amps in oracles.dense_evolve(state, target, 1).items():
                one[x - three.offset] = amps
            assert np.max(np.abs(three.amp - one)) <= 1e-9


def _branch_coin(kind, rng):
    # generic Haar coin, or one that pins the top-left singular values of
    # the sign-stripped coin to (1, s) (degenerate) or (1, 1) (block diagonal)
    if kind == "degenerate":
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=2))
        return full_coin(np.diag(phases), random_unitary(2, rng), random_unitary(2, rng))
    if kind == "block_diagonal":
        c = np.zeros((4, 4), dtype=complex)
        c[:2, :2] = random_unitary(2, rng)
        c[2:, 2:] = random_unitary(2, rng)
        return c
    return random_unitary(4, rng)


def _recomposition_error(fact):
    def trip(f):
        return coin_ab(f.c_a, f.c_b) @ coin_ll_independent(f.c_loop_cw, f.c_loop_ccw)

    prod = trip(fact.factor_2) @ trip(fact.factor_1)
    return float(np.max(np.abs(prod - fact.global_phase * fact.target)))


@settings(derandomize=True, deadline=None, max_examples=90)
@given(
    st.sampled_from(["haar", "degenerate", "block_diagonal"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_factor_universal_and_su2_normalize_on_haar_coins(kind, seed):
    c = _branch_coin(kind, np.random.default_rng(seed))
    s = np.linalg.svd(c[:2, :2], compute_uv=False)
    assert (1.0 - s[0] <= 1e-10) == (kind != "haar")
    assert (1.0 - s[1] <= 1e-10) == (kind == "block_diagonal")
    fact = factor_universal(c)
    assert fact.residual <= 1e-10
    assert fact.residual == _recomposition_error(fact)
    norm = su2_normalize(fact)
    assert norm.residual <= 1e-10
    assert norm.residual == _recomposition_error(norm)
    for factors in (norm.factor_1, norm.factor_2):
        for block in (factors.c_a, factors.c_b, factors.c_loop_cw, factors.c_loop_ccw):
            assert abs(np.linalg.det(block) - 1.0) <= 1e-10


def test_one_trip_test_decomposes_each_witness_once(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for coin in (oracles.GROVER_4, oracles.BALANCED_FOUR_MODE_COIN):
        calls.clear()
        one_trip_test(coin)
        assert calls == [(4, 2), (4, 2)]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_one_trip_reconstruct_round_trips_haar_blocks(seed):
    c = random_composite(np.random.default_rng(seed))
    factors = one_trip_reconstruct(c)
    for block in (factors.c_a, factors.c_b, factors.c_loop_cw):
        assert unitarity_defect(block) <= 1e-10
    assert np.array_equal(factors.c_loop_cw, factors.c_loop_ccw)
    assert np.max(np.abs(factors.compose() - c)) <= 1e-9
    # the recomposed coin is one-trip again and gives back the same factors
    again = one_trip_reconstruct(factors.compose())
    assert np.max(np.abs(again.compose() - c)) <= 1e-9
