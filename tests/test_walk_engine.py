from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopwalk import walk_engine
from loopwalk.optics import ArmSetting, OpticalElement, full_coin, hwp_matrix, qwp_matrix
from loopwalk.walk_engine import (
    CCH,
    CCV,
    CH,
    CV,
    TRACE_LABELS,
    CoinProgram,
    ElementCoin,
    ProgramError,
    RawCoin,
    constant_program,
    draw_jitter,
    evolve,
    evolve_states,
    make_initial,
    mode_sum,
    reach,
    trace_intensities,
)

import oracles
from oracles import random_unitary

MINUS_IX = -1j * oracles.PAULI_X


def norm(state):
    return sum(float(np.vdot(v, v).real) for v in state.values())


def table(amp, left):
    """Amplitude rows on the positions left, left + 1, ... as {position:
    amplitudes} over the positions holding a nonzero amplitude."""
    return {left + int(i): amp[i] for i in np.flatnonzero(amp.any(axis=-1))}


def walk(state, coin, steps):
    """The states after 0 .. steps steps of one coin everywhere, through the
    kernel, as tables of their light cone's rows."""
    return [table(amp, min(state) - steps) for amp in evolve_states(state, constant_program(coin), steps)]


def step_table(rec, t):
    """Step t of a record as {position: intensities} over its reached positions."""
    return dict(zip(rec.positions(t).tolist(), rec.intensity(t)))


def blocks_of(rows, init, steps, window=None, samples=1):
    """The kernel's block bound patched so that a walk of `init` on `window`
    (default the light cone) makes blocks of `rows` rows, or one block of
    every step for rows None."""
    left, right = window or (min(init) - steps, max(init) + steps)
    row_bytes = samples * (right - left + 3) * 4 * 16
    return mock.patch.object(walk_engine, "BLOCK_BYTES", (rows or steps + 1) * row_bytes)


def random_state(rng, width=5, slots=7):
    state = {}
    for x in rng.choice(np.arange(-width, width + 1), size=slots, replace=False):
        state[int(x)] = rng.normal(size=4) + 1j * rng.normal(size=4)
    total = np.sqrt(norm(state))
    return {x: v / total for x, v in state.items()}


def test_make_initial_basis():
    s = make_initial("ccw", "V", 0)
    assert set(s) == {0}
    assert np.array_equal(s[0], np.array([0, 0, 0, 1], dtype=complex))

    s = make_initial("cw", "H", 3)
    assert np.array_equal(s[3], np.array([1, 0, 0, 0], dtype=complex))

    d = make_initial("ccw", "D", 0)[0]
    assert np.max(np.abs(d - np.array([0, 0, 1, 1]) / oracles.SQ2)) < 1e-15

    a = make_initial("ccw", "A", 0)[0]
    assert np.max(np.abs(a - np.array([0, 0, 1, -1]) / oracles.SQ2)) < 1e-15


def test_make_initial_rejects_bad_labels():
    with pytest.raises(ValueError):
        make_initial("up", "H", 0)
    with pytest.raises(ValueError):
        make_initial("cw", "L", 0)


def test_apply_step_single_modes():
    # under the identity coin a step is the shift alone
    moved = walk({0: np.array([1, 0, 0, 0], dtype=complex)}, np.eye(4), 1)[1]
    assert set(moved) == {-1}
    assert np.array_equal(moved[-1], np.array([0, 0, 1, 0], dtype=complex))

    moved = walk({5: np.array([0, 0, 0, 1], dtype=complex)}, np.eye(4), 1)[1]
    assert set(moved) == {4}
    assert np.array_equal(moved[4], np.array([0, 1, 0, 0], dtype=complex))

    moved = walk({2: np.array([0, 1, 0, 0], dtype=complex)}, np.eye(4), 1)[1]
    assert set(moved) == {3}
    assert np.array_equal(moved[3], np.array([0, 0, 0, 1], dtype=complex))

    moved = walk({0: np.array([0, 0, 1, 0], dtype=complex)}, np.eye(4), 1)[1]
    assert set(moved) == {1}
    assert np.array_equal(moved[1], np.array([1, 0, 0, 0], dtype=complex))


def test_apply_step_is_involution():
    rng = np.random.default_rng(30)
    for _ in range(100):
        state = random_state(rng)
        back = walk(state, np.eye(4), 2)[2]
        assert set(back) == set(state)
        for x in state:
            assert np.max(np.abs(back[x] - state[x])) == 0.0


def test_apply_coin_identity_and_translation_invariance():
    # one step coins every position alike, then shifts: with the identity
    # coin it is the dense step, and with u the identity step of u @ state
    rng = np.random.default_rng(31)
    state = random_state(rng)
    same = walk(state, np.eye(4), 1)[1]
    shifted = oracles.dense_evolve(state, np.eye(4), 1)
    assert set(same) == set(shifted)
    for x in shifted:
        assert np.max(np.abs(same[x] - shifted[x])) == 0.0

    u = random_unitary(4, rng)
    coined = walk(state, u, 1)[1]
    want = walk({x: u @ v for x, v in state.items()}, np.eye(4), 1)[1]
    assert set(coined) == set(want)
    for x in want:
        assert np.max(np.abs(coined[x] - want[x])) < 1e-15


def test_apply_coin_unresolvable_names_position():
    # two identity steps bring the walkers back to 0 and 4, where step 2 has a rule for 0 only
    identity = RawCoin(np.eye(4))
    program = CoinProgram(default=None, overrides={0: identity}, time_table=[identity, identity])
    state = {0: np.array([1, 0, 0, 0], dtype=complex) / np.sqrt(2),
             4: np.array([1, 0, 0, 0], dtype=complex) / np.sqrt(2)}
    with pytest.raises(ProgramError) as err:
        list(evolve_states(state, program, 3))
    assert "4" in str(err.value)
    assert "2" in str(err.value)


def test_coins_resolved_only_at_reached_positions():
    # under the identity coin, cH at 0 shifts to ccH at -1 and back, so only
    # -1 and 0 need a rule although the walk's window spans -20 .. 20
    identity = RawCoin(np.eye(4))
    program = CoinProgram(default=None, overrides={-1: identity, 0: identity})
    rec = evolve(make_initial("cw", "H", 0), program, 20)
    for t in range(21):
        assert rec.positions(t).tolist() == ([0] if t % 2 == 0 else [-1])


def test_uncovered_hole_inside_the_span_raises_only_when_reached():
    # walkers at both ends of the span and no rule for 1 .. 3 between them
    # (there is no default): a check over the span rather than the reached
    # positions would raise at step 0
    identity = RawCoin(np.eye(4))
    steady = CoinProgram(overrides={-1: identity, 0: identity, 4: identity, 5: identity})
    init = {0: np.array([1, 0, 0, 0], dtype=complex), 5: np.array([1, 0, 0, 0], dtype=complex)}
    rec = evolve(init, steady, 8)
    for t in range(9):
        assert rec.positions(t).tolist() == ([0, 5] if t % 2 == 0 else [-1, 4])

    # swapping cH and ccH lets the walkers pass on: from 0 to the right and
    # from 5 to the left, both into the hole at step 2
    through = RawCoin(np.eye(4)[[CCH, CV, CH, CCV]])
    passing = CoinProgram(overrides={0: through, 1: through, 4: through, 5: through})
    init = {0: np.array([1, 0, 0, 0], dtype=complex), 5: np.array([0, 0, 1, 0], dtype=complex)}
    with pytest.raises(ProgramError) as err:
        evolve(init, passing, 8)
    assert str(err.value) == "'no coin rule for step 2 at position 2'"


def test_evolve_zero_steps():
    init = make_initial("ccw", "H", 0)
    rec = evolve(init, constant_program(np.eye(4)), 0)
    assert rec.num_steps == 0
    assert len(rec) == 1
    assert step_table(rec, 0) == {0: pytest.approx([0, 0, 1, 0])}


def test_evolve_matches_dense_oracle():
    rng = np.random.default_rng(32)
    for _ in range(6):
        coin = random_unitary(4, rng)
        init = make_initial("ccw", "D", 0)
        rec = evolve(init, constant_program(coin), 8)
        expected = oracles.dense_evolve(init, coin, 8)
        got = step_table(rec, 8)
        for x, amps in expected.items():
            want = np.abs(amps) ** 2
            have = got.get(x, np.zeros(4))
            assert np.max(np.abs(have - want)) < 1e-12
        for x in got:
            assert x in expected or np.max(np.abs(got[x])) < 1e-12


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=12))
def test_evolve_matches_dense_oracle_at_every_step(seed, steps):
    rng = np.random.default_rng(seed)
    coin = random_unitary(4, rng)
    x0 = int(rng.integers(-3, 4))
    amp = rng.normal(size=4) + 1j * rng.normal(size=4)
    init = {x0: amp / np.linalg.norm(amp)}
    rec = evolve(init, constant_program(coin), steps)
    for t in range(steps + 1):
        expected = {x: np.abs(a) ** 2 for x, a in oracles.dense_evolve(init, coin, t).items()}
        got = step_table(rec, t)
        for x in set(expected) | set(got):
            assert np.max(np.abs(got.get(x, np.zeros(4)) - expected.get(x, np.zeros(4)))) < 1e-12
        assert abs(rec.total(t) - 1.0) < 1e-12
        for x in got:
            assert (x - x0 - t) % 2 == 0
            assert abs(x - x0) <= t


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_norm_conserved_under_per_position_programs(seed):
    rng = np.random.default_rng(seed)
    overrides = {
        int(x): RawCoin(random_unitary(4, rng))
        for x in rng.integers(-6, 7, size=int(rng.integers(1, 8)))
    }
    program = CoinProgram(default=RawCoin(random_unitary(4, rng)), overrides=overrides)
    init = make_initial(str(rng.choice(["cw", "ccw"])), str(rng.choice(["H", "V", "D", "A"])), int(rng.integers(-4, 5)))
    steps = int(rng.integers(0, 30))
    rec = evolve(init, program, steps)
    for t in range(steps + 1):
        assert abs(rec.total(t) - 1.0) < 1e-12


def test_evolve_equals_sitewise_walk_bit_for_bit():
    # the batched coin and the sliced shift do the same arithmetic as a walk
    # taken one position at a time, and reach the same positions
    from loopwalk.graph_programs import ring_chain

    rng = np.random.default_rng(42)
    cases = [
        (make_initial("ccw", "D", 0), constant_program(random_unitary(4, rng)), 30),
        (make_initial("cw", "A", 2), constant_program(oracles.BALANCED_FOUR_MODE_COIN), 30),
        (make_initial("ccw", "V", 1), ring_chain((0, 4), "hadamard_like")[0], 40),
        (make_initial("cw", "H", 1), ring_chain((-3, 0, 4), "hadamard_like")[0], 40),
        (
            make_initial("cw", "D", 0),
            CoinProgram(
                default=RawCoin(random_unitary(4, rng)),
                overrides={1: RawCoin(random_unitary(4, rng))},
                time_table=[RawCoin(random_unitary(4, rng)) for _ in range(5)],
            ),
            20,
        ),
    ]
    # a second position in one mode at 1e-170, whose intensity underflows to
    # 0.0: it is reached wherever its amplitude is nonzero
    tiny = np.zeros(4, dtype=complex)
    tiny[CCV] = 1e-170
    cases.append(({**make_initial("cw", "D", 0), 7: tiny}, constant_program(random_unitary(4, rng)), 30))
    assert evolve(cases[-1][0], cases[-1][1], 0).intensity(0)[1].tolist() == [0.0] * 4
    for init, program, steps in cases:
        rec = evolve(init, program, steps)
        want, _ = oracles.sitewise_evolve(init, program, steps)
        for t in range(steps + 1):
            assert rec.positions(t).tolist() == sorted(want[t])
            got = step_table(rec, t)
            for x in want[t]:
                assert np.array_equal(got[x], want[t][x])


@pytest.mark.parametrize("rows", [1, 2, 3, None])
def test_window_walk_equals_sitewise_walk_with_drains(rows):
    # light that leaves the window drains away: a Haar line walk on a window
    # narrower than its light cone, and the leaky ring of
    # test_window_walk_drains_a_leaking_ring, in blocks of each size
    from loopwalk.graph_programs import ring_chain

    rng = np.random.default_rng(45)
    haar = constant_program(random_unitary(4, rng))
    leaky = CoinProgram(default=ring_chain((0, 4), "hadamard_like")[0].default)
    cases = [
        (make_initial("ccw", "D", 0), haar, 40, (-5, 7)),
        ({-1: random_unitary(4, rng)[:, 0] / oracles.SQ2, 2: random_unitary(4, rng)[:, 1] / oracles.SQ2}, haar, 25, (-2, 2)),
        (make_initial("ccw", "V", 1), leaky, 24, (0, 4)),
    ]
    for init, program, steps, window in cases:
        with blocks_of(rows, init, steps, window):
            rec = evolve(init, program, steps, window)
        want, drained = oracles.sitewise_evolve(init, program, steps, window)
        assert drained[-1] > 1e-3
        assert np.max(np.abs(rec.drained - drained)) <= 1e-15
        for t in range(steps + 1):
            assert rec.positions(t).tolist() == sorted(want[t])
            got = step_table(rec, t)
            for x in want[t]:
                assert np.array_equal(got[x], want[t][x])


def dense_record(want, drained, left, n):
    """The sitewise oracle's steps on the sites left .. left + n - 1 as a
    record's (T+1, n, 4) intensities and (T+1, n) reached mask, and its
    drained totals."""
    intensities, reached = np.zeros((len(want), n, 4)), np.zeros((len(want), n), dtype=bool)
    for t, step in enumerate(want):
        for x, v in step.items():
            intensities[t, x - left], reached[t, x - left] = v, True
    return intensities, reached, np.array(drained)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_record_filled_on_the_light_cone_equals_sitewise_walk(rows):
    # evolve fills each block's cells only as far as light reaches by its
    # last step; every cell of the record and of its reached mask equals the
    # sitewise oracle's, on a line from several starts, on a ring's window
    # and on a batch of three perturbed ring walks.  So do the drained
    # totals: zeros on the line; on the ring, whose end coins leak about
    # 1e-32 a step, and on the perturbed rings, which leak 1e-3 in all, to
    # rounding, as the two add the drained cells in different orders
    from loopwalk.graph_programs import ring_chain

    rng = np.random.default_rng(25)
    ring, site_map = ring_chain((-3, 2), "hadamard_like")
    window, steps = site_map.span, 23
    line = (random_state(rng, width=4, slots=3), constant_program(random_unitary(4, rng)), 17, None)
    for init, program, steps, window in (line, (make_initial("ccw", "D", 1), ring, steps, window)):
        with blocks_of(rows, init, steps, window):
            rec = evolve(init, program, steps, window)
        want, drained = oracles.sitewise_evolve(init, program, steps, window)
        expected = dense_record(want, drained, rec.offset, rec.intensities.shape[1])
        assert np.array_equal(rec.intensities, expected[0])
        assert np.array_equal(rec.reached, expected[1])
        assert np.allclose(rec.drained, expected[2], rtol=1e-14, atol=0)
        assert np.array_equal(rec.drained == 0, expected[2] == 0)
    offsets = draw_jitter(rng, 3, len(ring.angles()), 2.0, "uniform")
    init = make_initial("cw", "H", 0)
    with blocks_of(rows, init, steps, window, samples=3):
        batch = evolve(init, ring.sampled(offsets), steps, window)
    for s, row in enumerate(offsets):
        want, drained = oracles.sitewise_evolve(init, oracles.jittered_program(ring, row), steps, window)
        expected = dense_record(want, drained, batch.offset, batch.intensities.shape[2])
        assert np.array_equal(batch.intensities[:, s], expected[0])
        assert np.array_equal(batch.reached[:, s], expected[1])
        assert np.allclose(batch.drained[:, s], expected[2], rtol=1e-14, atol=0)
        assert np.array_equal(batch.drained[:, s] == 0, expected[2] == 0) and expected[2][-1] > 1e-3


def _kind_coin(rng, kind: str) -> RawCoin:
    """A Haar coin, or a diagonal or permutation coin with random phases,
    which leave modes empty, so reached sets get holes and spans shrink; a
    lossy coin is diagonal with some entries zero, so that walkers vanish
    and spans shrink by more than a site a step."""
    if kind == "haar":
        return RawCoin(random_unitary(4, rng))
    phases = np.diag(np.exp(2j * np.pi * rng.random(4)))
    if kind == "lossy":
        phases[np.diag_indices(4)] *= rng.random(4) < 0.5
    return RawCoin(phases[rng.permutation(4)] if kind == "permutation" else phases)


_KINDS = st.sampled_from(("haar", "diagonal", "permutation", "lossy"))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(_KINDS, min_size=1, max_size=6),
    st.lists(_KINDS, max_size=5),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4, unique=True),
    st.integers(min_value=0, max_value=30),
    st.sampled_from((1, 2, 3, None)),
)
def test_span_kernel_equals_sitewise_walk_bit_for_bit(seed, kinds, timed, starts, steps, rows):
    # the default coin, overrides at random positions and a time table, on
    # an initial state with gaps and some empty modes; evolve and three
    # sampled copies through evolve_states walk as the sitewise oracle does,
    # in blocks of 1, 2 or 3 rows or of every step
    rng = np.random.default_rng(seed)
    program = CoinProgram(
        default=_kind_coin(rng, kinds[0]),
        overrides={int(x): _kind_coin(rng, kind) for x, kind in zip(rng.integers(-9, 10, len(kinds) - 1), kinds[1:])},
        time_table=[_kind_coin(rng, kind) for kind in timed],
    )
    init = {}
    for x in starts:
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        amp[rng.random(4) < 0.4] = 0.0
        amp[rng.integers(4)] = 1.0
        init[x] = amp / np.linalg.norm(amp)
    want, _ = oracles.sitewise_evolve(init, program, steps)
    with blocks_of(rows, init, steps):
        rec = evolve(init, program, steps)
    with blocks_of(rows, init, steps, samples=3):
        states = list(evolve_states(init, program.sampled(np.zeros((3, 0))), steps))
    for t, state in enumerate(states):
        assert rec.positions(t).tolist() == sorted(want[t])
        got = step_table(rec, t)
        for s in range(3):
            sample = table(state[s], rec.offset)
            assert sorted(sample) == sorted(want[t])
            for x, amp in sample.items():
                assert np.array_equal(got[x], want[t][x])
                assert np.array_equal(np.abs(amp) ** 2, want[t][x])


def test_norm_conservation_long_run():
    rng = np.random.default_rng(33)
    coin = random_unitary(4, rng)
    rec = evolve(make_initial("cw", "D", 0), constant_program(coin), 50)
    for t in range(51):
        assert abs(rec.total(t) - 1.0) < 1e-10


def test_hadamard_configuration_stays_counterclockwise():
    coin = full_coin(MINUS_IX, MINUS_IX, hwp_matrix(22.5))
    rec = evolve(make_initial("ccw", "H", 0), constant_program(coin), 20)
    for t in range(21):
        for v in rec.intensity(t):
            assert float(np.max(v[:2])) <= 1e-14


def test_invariant_subspace_any_loop_block():
    # the swap arms confine a counterclockwise start for any loop element
    rng = np.random.default_rng(34)
    for _ in range(5):
        coin = full_coin(MINUS_IX, MINUS_IX, random_unitary(2, rng))
        rec = evolve(make_initial("ccw", "D", 0), constant_program(coin), 15)
        for t in range(16):
            for v in rec.intensity(t):
                assert float(np.max(v[:2])) <= 1e-14


def test_hadamard_configuration_matches_effective_walk():
    coin = full_coin(MINUS_IX, MINUS_IX, hwp_matrix(22.5))
    rec = evolve(make_initial("ccw", "H", 0), constant_program(coin), 25)
    eff = oracles.effective_2d_evolve({0: np.array([0, 1], dtype=complex)}, oracles.HADAMARD_2, 25)
    for t in range(26):
        walk_pd = dict(zip(rec.positions(t).tolist(), rec.position_distribution(t)))
        eff_pd = {x: float(v.sum()) for x, v in eff[t].items()}
        for x in set(walk_pd) | set(eff_pd):
            assert abs(walk_pd.get(x, 0.0) - eff_pd.get(x, 0.0)) < 1e-12


def test_effective_2d_single_step_hadamard():
    out = oracles.effective_2d_evolve({0: np.array([1, 0], dtype=complex)}, oracles.HADAMARD_2, 1)
    table = out[1]
    assert set(table) == {-1, 1}
    assert abs(table[1][0] - 0.5) < 1e-15
    assert abs(table[-1][1] - 0.5) < 1e-15


def test_effective_2d_identity_ballistic():
    out = oracles.effective_2d_evolve({0: np.array([1, 0], dtype=complex)}, np.eye(2), 9)
    table = out[9]
    assert set(x for x, v in table.items() if v.sum() > 1e-15) == {9}
    assert abs(table[9].sum() - 1.0) < 1e-12


def test_effective_2d_matches_path_enumeration():
    rng = np.random.default_rng(35)
    for _ in range(4):
        coin2 = random_unitary(2, rng)
        init = {0: np.array([1, 1j], dtype=complex) / oracles.SQ2}
        out = oracles.effective_2d_evolve(init, coin2, 10)
        for t in (3, 7, 10):
            expected = oracles.path_enumeration_2d(init, coin2, t)
            got = {x: v for x, v in out[t].items()}
            for x in set(expected) | set(got):
                want = expected.get(x, np.zeros(2))
                have = got.get(x, np.zeros(2))
                assert np.max(np.abs(have - want)) < 1e-12


def test_partial_reversal_sums_to_hadamard_walk():
    q0 = qwp_matrix(0.0)
    coin = full_coin(MINUS_IX, q0 @ q0, hwp_matrix(22.5))
    rec = evolve(make_initial("ccw", "A", 0), constant_program(coin), 22)
    eff_init = {0: np.array([1, -1], dtype=complex) / oracles.SQ2}
    eff = oracles.effective_2d_evolve(eff_init, oracles.HADAMARD_2, 22)
    for t in range(23):
        walk_pd = dict(zip(rec.positions(t).tolist(), rec.position_distribution(t)))
        eff_pd = {x: float(v.sum()) for x, v in eff[t].items()}
        for x in set(walk_pd) | set(eff_pd):
            assert abs(walk_pd.get(x, 0.0) - eff_pd.get(x, 0.0)) < 1e-10


# +-0.0, subnormals, +-inf, NaNs of either sign and two payloads, and normals
MODE_SUM_SPECIALS = np.array(
    [0, 1 << 63, 1, (1 << 63) | 1, 0x000FFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
     0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FEFFFFFFFFFFFFF, 0x3FF0000000000000],
    dtype=np.uint64,
).view(np.float64).tolist()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.integers(1, 5),
    st.integers(1, 9),
    st.sampled_from(["contiguous", "strided", "gathered", "modes_outer"]),
    st.data(),
)
def test_mode_sum_has_the_bits_of_numpys_sum(samples, sites, layout, data):
    # mode_sum replaces v.sum(axis=-1) wherever the mode axis alone is summed;
    # it adds in numpy's order, so a numpy that changes its order fails here
    n = samples * sites * 4
    values = data.draw(st.lists(st.one_of(st.floats(), st.sampled_from(MODE_SUM_SPECIALS)), min_size=n, max_size=n))
    v = np.array(values).reshape(samples, sites, 4)  # a sampler step: (samples, sites, 4)
    if layout == "strided":  # every second site and mode of a larger array
        w = np.zeros((samples, 2 * sites, 8))
        w[:, ::2, ::2] = v
        v = w[:, ::2, ::2]
    elif layout == "gathered":  # (samples, nodes, 4), nodes gathered from sites as gather_nodes does
        v = v[:, data.draw(st.lists(st.integers(0, sites - 1), min_size=1, max_size=12))]
    elif layout == "modes_outer":  # the mode axis outermost in memory
        v = np.moveaxis(np.ascontiguousarray(np.moveaxis(v, -1, 0)), 0, -1)
    for part in (v, v[0], v[0, 0]):  # also a record's (sites, 4) cells, and one site
        with np.errstate(all="ignore"):
            got, want = np.asarray(mode_sum(part)), np.asarray(part.sum(axis=-1))
        # which NaN a sum of two NaNs returns is left to the machine, and every
        # NaN prints as "nan"; four -0.0s: IEEE addition keeps -0.0, numpy's
        # sum starts from +0.0, and intensities are never -0.0
        same = (got.view(np.uint64) == want.view(np.uint64)) | (np.isnan(got) & np.isnan(want))
        negative_zeros = np.all((part == 0) & np.signbit(part), axis=-1)
        assert np.all(same | negative_zeros)
        assert np.all(np.signbit(got[negative_zeros])) and not np.any(np.signbit(want[negative_zeros]))


def test_trace_intensities_modes():
    coin = oracles.BALANCED_FOUR_MODE_COIN
    rec = evolve(make_initial("ccw", "D", 0), constant_program(coin), 6)

    full = trace_intensities(rec, "full")
    pol = trace_intensities(rec, "sum_polarization")
    direc = trace_intensities(rec, "sum_direction")
    total = trace_intensities(rec, "sum_all")

    for t in range(7):
        assert abs(full[t].sum() - 1.0) < 1e-10
        assert abs(pol[t].sum() - 1.0) < 1e-10
        assert abs(direc[t].sum() - 1.0) < 1e-10
        assert abs(total[t].sum() - 1.0) < 1e-10

    sites = rec.reached.shape
    assert full.shape == (*sites, 4) and TRACE_LABELS["full"] == ("cH", "cV", "ccH", "ccV")
    assert pol.shape == (*sites, 2) and TRACE_LABELS["sum_polarization"] == ("c", "cc")
    assert direc.shape == (*sites, 2) and TRACE_LABELS["sum_direction"] == ("H", "V")
    assert total.shape == sites

    with pytest.raises(ValueError):
        trace_intensities(rec, "sideways")


def test_parity_of_occupied_sites():
    rng = np.random.default_rng(36)
    coin = random_unitary(4, rng)
    rec = evolve(make_initial("cw", "V", 0), constant_program(coin), 16)
    for t in range(17):
        for x, v in step_table(rec, t).items():
            if (x + t) % 2 == 1:
                assert float(np.max(v)) <= 1e-14


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4, unique=True),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=12),
    st.sampled_from([None, 2, 3]),
)
def test_light_sits_only_on_the_cells_reach_names(seed, starts, overridden, timed, steps, samples):
    # the sampler skips every light-cone cell outside slice(lo - t, hi + t,
    # step) at step t: each holds an exact zero, under overrides, a time
    # table and a sampled table alike, and each nonzero amplitude lies inside
    rng = np.random.default_rng(seed)
    program = CoinProgram(
        default=_element_coin(rng),
        overrides={int(x): _element_coin(rng) for x in rng.integers(-9, 10, overridden)},
        time_table=[_element_coin(rng) for _ in range(timed)],
    )
    if samples is not None:
        program = program.sampled(draw_jitter(rng, samples, len(program.angles()), 2.0, "uniform"))
    init = {x: rng.normal(size=4) + 1j * rng.normal(size=4) for x in starts}
    lo, hi, step = reach(np.subtract(starts, min(starts) - steps))
    assert step == (2 if len({x % 2 for x in starts}) == 1 else 1)
    for t, amp in enumerate(evolve_states(init, program, steps)):
        cells = np.zeros(amp.shape[-2], dtype=bool)
        cells[lo - t : hi + t : step] = True
        assert not amp[..., ~cells, :].any()
        assert cells[np.nonzero(amp.any(axis=-1))[-1]].all()


def test_final_state_consistent_with_record():
    rng = np.random.default_rng(37)
    coin = random_unitary(4, rng)
    init = make_initial("ccw", "D", 0)
    rec = evolve(init, constant_program(coin), 9)
    last = walk(init, coin, 9)[-1]
    for x, v in last.items():
        assert np.max(np.abs(np.abs(v) ** 2 - step_table(rec, 9).get(x, np.zeros(4)))) < 1e-13


def test_intensity_record_helpers():
    coin = oracles.BALANCED_FOUR_MODE_COIN
    rec = evolve(make_initial("ccw", "H", 0), constant_program(coin), 4)
    assert rec.num_steps == 4
    assert len(rec) == 5
    assert rec.positions(0).tolist() == [0]
    assert sorted(rec.positions(1).tolist()) == rec.positions(1).tolist()
    pd = rec.position_distribution(2)
    assert abs(sum(pd) - 1.0) < 1e-10
    assert abs(rec.total(3) - 1.0) < 1e-10


def test_raw_coin_cannot_be_perturbed():
    rng = np.random.default_rng(38)
    raw = RawCoin(np.eye(4))
    with pytest.raises(ValueError):
        CoinProgram(default=raw).perturbed(rng, 1.0, "uniform")
    assert not raw.has_elements


def test_raw_coin_matrix_is_a_frozen_copy():
    # CoinProgram builds a spec's matrix once and reuses it, so the matrix
    # must not change after construction
    source = np.eye(4, dtype=complex)
    raw = RawCoin(source)
    program = CoinProgram(default=raw)
    before = program.coin_at(0, 0).copy()
    with pytest.raises(ValueError):
        raw.matrix()[0, 0] = -1.0
    source[0, 0] = -1.0
    assert np.array_equal(raw.matrix(), np.eye(4))
    assert np.array_equal(program.coin_at(0, 0), before)


def test_element_coin_angles_roundtrip():
    from loopwalk.optics import ArmSetting, OpticalElement

    coin = ElementCoin(
        arm_a=ArmSetting((OpticalElement("qwp", 45.0),)),
        arm_b=ArmSetting((OpticalElement("qwp", 45.0),), eom_phase_deg=-90.0),
        loop=(OpticalElement("hwp", 22.5),),
    )
    assert coin.angles() == [45.0, 0.0, 45.0, -90.0, 22.5]
    assert coin.has_elements

    rebuilt = oracles.with_angles(coin, coin.angles())
    assert np.max(np.abs(rebuilt.matrix() - coin.matrix())) == 0.0
    angles = [46.0, 0.0, 45.0, -90.0, 22.5]
    shifted = oracles.with_angles(coin, angles)
    assert np.max(np.abs(shifted.matrix() - coin.matrix())) > 1e-3
    assert np.array_equal(coin.matrices(angles), shifted.matrix())
    with pytest.raises(ValueError):
        oracles.with_angles(coin, [1.0, 2.0])


def test_element_coin_perturbation_stays_bounded():
    from loopwalk.optics import ArmSetting, OpticalElement

    coin = ElementCoin(
        arm_a=ArmSetting((OpticalElement("qwp", 45.0),)),
        arm_b=ArmSetting((OpticalElement("qwp", 45.0),)),
        loop=(OpticalElement("hwp", 22.5),),
    )
    rng = np.random.default_rng(41)
    base = np.array(coin.angles())
    for dist in ("uniform", "truncated_normal"):
        bumped = base + draw_jitter(rng, 25, len(base), 0.5, dist)
        assert np.max(np.abs(bumped - base)) <= 0.5
        # the sampled coins are the coins at the jittered angles
        assert np.array_equal(CoinProgram(default=coin).sampled(bumped - base).table[:, 0], coin.matrices(bumped))


@pytest.mark.parametrize("distribution", ["uniform", "truncated_normal"])
def test_draw_jitter_matches_scalar_draws(distribution):
    # the rows and the stream position are those of one draw at a time (any
    # batched form of the draws must keep both): the next draws agree too
    for seed in range(300):
        for n_angles in (0, 1, 7, 12):
            for err in (0.5, 2.0):
                for eff_err in (None, 0.025):
                    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                    rows = draw_jitter(rng, 5, n_angles, err, distribution, eff_err)
                    want = oracles.scalar_jitter(ref, 5, n_angles, err, distribution, eff_err)
                    assert np.array_equal(rows.view(np.int64), want.view(np.int64))
                    assert rng.random() == ref.random()


def test_coin_program_time_table_precedence():
    base = RawCoin(np.eye(4))
    special = RawCoin(oracles.BALANCED_FOUR_MODE_COIN)
    t0 = RawCoin(np.diag([1, 1, -1, -1]).astype(complex))
    t1 = RawCoin(np.diag([1, -1, 1, -1]).astype(complex))
    program = CoinProgram(
        default=base,
        overrides={3: special},
        time_table=[t0, t1],
    )
    # steps covered by the table ignore position rules entirely
    assert np.array_equal(program.coin_at(0, 3), np.diag([1, 1, -1, -1]).astype(complex))
    assert np.array_equal(program.coin_at(1, 0), np.diag([1, -1, 1, -1]).astype(complex))
    # past the table, position rules take over again
    assert np.array_equal(program.coin_at(2, 3), oracles.BALANCED_FOUR_MODE_COIN)
    assert np.array_equal(program.coin_at(2, 0), np.eye(4))


def test_coin_program_without_rules_raises():
    program = CoinProgram(default=None)
    with pytest.raises(ProgramError):
        program.coin_at(0, 0)


def test_coin_program_perturbation_draws_are_shared():
    # every site using the same physical element set must get the same draw
    from loopwalk.graph_programs import ring_chain

    left_end, right_end = -3, 1  # an 8-site circle
    program, _ = ring_chain((left_end, right_end), "hadamard_like")
    rng = np.random.default_rng(39)
    bumped = program.sampled(draw_jitter(rng, 1, len(program.angles()), 2.0, "uniform")[0])
    inner_positions = range(left_end + 1, right_end)
    mats = [bumped.coin_at(0, x) for x in inner_positions]
    for m in mats[1:]:
        assert np.max(np.abs(m - mats[0])) == 0.0
    left = bumped.coin_at(0, left_end)
    right = bumped.coin_at(0, right_end)
    assert np.max(np.abs(left - right)) == 0.0
    # the ends were actually jittered away from the ideal setting
    ideal = program.coin_at(0, left_end)
    assert np.max(np.abs(left - ideal)) > 1e-6


def test_coin_program_perturbation_distributions():
    from loopwalk.graph_programs import ring_chain

    rng, ref = np.random.default_rng(40), np.random.default_rng(40)
    for stops in ((0, 4), (-3, 0, 4)):
        program, _ = ring_chain(stops, "hadamard_like")
        for dist in ("uniform", "truncated_normal"):
            bumped = program.perturbed(rng, 1.5, dist)
            assert bumped is not program
            m = bumped.coin_at(0, 1)
            assert np.max(np.abs(m.conj().T @ m - np.eye(4))) < 1e-12
            # perturbed is one draw_jitter row through sampled, and draws as much
            row = draw_jitter(ref, 1, len(program.angles()), 1.5, dist)[0]
            assert np.array_equal(bumped.table, program.sampled(row).table)
            assert rng.bit_generator.state == ref.bit_generator.state
    with pytest.raises(ValueError):
        program.perturbed(rng, 1.5, "gaussian")


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=12))
def test_apply_step_twice_is_identity_on_random_states(seed, n):
    rng = np.random.default_rng(seed)
    # rows of Haar-coined amplitudes, some rows empty
    amp = np.array([random_unitary(4, rng)[:, 0] for _ in range(n + 2)])
    amp[rng.random(n + 2) < 0.3] = 0.0
    state = dict(enumerate(amp, start=int(rng.integers(-5, 6))))
    back = walk(state, np.eye(4), 2)[2]
    assert set(back) == {x for x, a in state.items() if a.any()}
    for x in back:
        assert np.array_equal(back[x], state[x])


def _element_coin(rng) -> ElementCoin:
    angle = lambda: float(rng.uniform(0.0, 180.0))
    arm = lambda: ArmSetting((OpticalElement("qwp", angle()), OpticalElement("hwp", angle())), angle())
    return ElementCoin(arm(), arm(), (OpticalElement("hwp", angle()),))


@pytest.mark.parametrize("distribution", ["uniform", "truncated_normal"])
def test_coin_program_specs_order_and_per_sample_draws(distribution):
    a, b, c, d, e = (_element_coin(np.random.default_rng(41 + i)) for i in range(5))
    twin = ElementCoin(a.arm_a, a.arm_b, a.loop)  # equal to a, but another object
    program = CoinProgram(default=a, overrides={3: b, -1: c, 5: a, 0: twin}, time_table=[d, b, e, d])
    # default, overrides by ascending position, time table; each object once
    order = (a, c, twin, b, d, e)
    assert len(program.specs) == len(order)
    assert all(got is want for got, want in zip(program.specs, order))

    def jitter(ref, n):
        if distribution == "uniform":
            return ref.uniform(-1.5, 1.5, size=n).tolist()
        out = []
        for _ in range(n):
            while abs(draw := ref.normal(0.0, 0.75)) > 1.5:
                pass
            out.append(draw)
        return out

    # per sample, as error sampling draws: one jitter per angle of each
    # entry of specs in order, then four efficiencies
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    n_angles = len(program.angles())
    draws = draw_jitter(rng, 3, n_angles, 1.5, distribution, 0.025)
    batch = program.sampled(draws[:, :n_angles])
    assert batch.table.shape == (3, len(order), 4, 4)
    for s, row in enumerate(draws):
        jittered = {
            id(spec): oracles.with_angles(spec, [x + j for x, j in zip(spec.angles(), jitter(ref, len(spec.angles())))])
            for spec in order
        }
        assert np.array_equal(row[n_angles:], ref.uniform(0.975, 1.025, size=4))
        # each jittered spec serves every rule its original served
        assert np.array_equal(batch.coin_at(4, 7)[s], jittered[id(a)].matrix())
        for x, spec in program.overrides.items():
            assert np.array_equal(batch.coin_at(4, x)[s], jittered[id(spec)].matrix())
        for t, spec in enumerate(program.time_table):
            assert np.array_equal(batch.coin_at(t, 3)[s], jittered[id(spec)].matrix())


def _batch_cases(rng):
    from loopwalk.graph_programs import ring_chain

    element = _element_coin(rng)
    # diagonal at zero angles: unjittered, the walker stays on -1 .. 1
    diagonal = ElementCoin(ArmSetting((OpticalElement("qwp", 0.0),), 0.0), ArmSetting(), (OpticalElement("hwp", 0.0),))
    return [
        (make_initial("ccw", "D", 0), CoinProgram(default=element), 12),
        (make_initial("cw", "D", 0), CoinProgram(default=diagonal), 8),
        (make_initial("ccw", "V", 1), ring_chain((0, 4), "hadamard_like")[0], 14),
        (make_initial("cw", "H", 1), ring_chain((-3, 0, 4), "non_mixing")[0], 14),
        (
            make_initial("cw", "D", 0),
            CoinProgram(
                default=RawCoin(random_unitary(4, rng)),
                overrides={1: element, -2: RawCoin(random_unitary(4, rng))},
                time_table=[RawCoin(random_unitary(4, rng)) for _ in range(3)],
            ),
            10,
        ),
    ]


def test_sampled_copies_evolve_like_evolve_bit_for_bit():
    # S contiguous copies of a program's table walk exactly as the program
    # does alone, in every sample
    for init, program, steps in _batch_cases(np.random.default_rng(43)):
        copies = program.sampled(np.zeros((5, len(program.angles()))))
        assert copies.table.shape == (5, *program.table.shape)
        assert copies.table.flags.c_contiguous
        for state, single in zip(evolve_states(init, copies, steps), evolve_states(init, program, steps)):
            for s in range(5):
                assert np.array_equal(state[s], single)
        batch, alone = evolve(init, copies, steps), evolve(init, program, steps)
        assert batch.offset == alone.offset
        for s in range(5):
            assert np.array_equal(batch.reached[:, s], alone.reached)


def test_sampled_program_walks_each_sample_as_its_own_program():
    # a sample of the batch equals the program rebuilt from its jittered
    # angles; sample 0 is not jittered, so the samples reach different sites
    rng = np.random.default_rng(44)
    for init, program, steps in _batch_cases(rng):
        offsets = rng.uniform(-2.0, 2.0, size=(4, len(program.angles())))
        offsets[0] = 0.0
        batch = list(evolve_states(init, program.sampled(offsets), steps))
        for s, row in enumerate(offsets):
            alone = oracles.jittered_program(program, row)
            for state, single in zip(batch, evolve_states(init, alone, steps)):
                assert np.array_equal(state[s], single)


def test_batch_raises_the_lowest_failing_sample_first_failure():
    # the coin at zero angles is diagonal, so the walker bounces between two
    # positions; a jittered coin mixes all four modes and spreads it.
    # Sample 0 mixes on -3..0 and leaves the covered positions at step 4,
    # sample 1 mixes on 1 only and leaves at step 2, sample 2 never leaves.
    # One by one, sample 0 raises first, so the batch must name its failure
    covered = (-3, -2, -1, 0, 1)
    specs = [ElementCoin(ArmSetting((), 0.0), ArmSetting((), 0.0), (OpticalElement("hwp", 0.0),)) for _ in covered]
    program = CoinProgram(overrides=dict(zip(covered, specs)))
    mix = np.array([20.0, 35.0, 10.0])
    offsets = np.zeros((3, 5, 3))
    offsets[0, :4] = mix
    offsets[1, 4] = mix
    init = make_initial("ccw", "H", 0)
    one_by_one = []
    for row in offsets:
        alone = CoinProgram(overrides={x: oracles.with_angles(spec, d) for x, spec, d in zip(covered, specs, row)})
        try:
            evolve(init, alone, 6)
        except ProgramError as err:
            one_by_one.append(str(err))
    assert one_by_one == ["'no coin rule for step 4 at position -4'", "'no coin rule for step 2 at position 2'"]
    with pytest.raises(ProgramError) as err:
        for _ in evolve_states(init, program.sampled(offsets.reshape(3, -1)), 6):
            pass
    assert str(err.value) == one_by_one[0]
