import os
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopwalk.analysis import (
    equidistribution_similarity,
    find_revivals,
    monte_carlo_error_bars,
    similarity,
)
from loopwalk.config import parse_config
from loopwalk.graph_programs import FLAVORS, MappedRecord, map_sites, ring_chain
from loopwalk.optics import ArmSetting, OpticalElement
from loopwalk.walk_engine import (
    CH,
    CoinProgram,
    ElementCoin,
    ProgramError,
    RawCoin,
    constant_program,
    evolve,
    make_initial,
)

import oracles
from oracles import random_unitary

# monte_carlo_error_bars' leading arguments, in its order
Walk = namedtuple("Walk", "program initial steps site_map support", defaults=(None, None))


def test_similarity_hand_values():
    assert abs(similarity([1.0, 0.0], [0.5, 0.5]) - 0.5) < 1e-15
    assert similarity([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert abs(similarity([0.3, 0.0, 0.7], [0.3, 0.0, 0.7]) - 1.0) < 1e-12
    assert abs(similarity([0.25, 0.75], [0.25, 0.75]) - 1.0) < 1e-12


def test_similarity_cauchy_schwarz():
    rng = np.random.default_rng(80)
    for _ in range(200):
        p = rng.uniform(0, 1, size=6)
        q = rng.uniform(0, 1, size=6)
        p /= p.sum()
        q /= q.sum()
        s = similarity(p, q)
        assert 0.0 <= s <= 1.0 + 1e-12
        # equality holds exactly when the distributions are proportional
        assert abs(similarity(p, p * 1.0) - 1.0) < 1e-12
        if np.max(np.abs(p - q)) > 1e-3:
            assert s < 1.0


def test_similarity_rejects_negative_entries():
    with pytest.raises(ValueError):
        similarity([-0.1, 1.1], [1.0, 0.0])
    with pytest.raises(ValueError):
        similarity([0.5, 0.5], [-0.2, 1.2])


def test_similarity_resolved_flag():
    p = np.array([[0.0, 0.0, 1.0, 0.0]])
    q = np.array([[0.0, 0.0, 0.0, 1.0]])
    # position-summed view: both sit entirely at position 0
    assert abs(similarity(p.sum(axis=1), q.sum(axis=1)) - 1.0) < 1e-12
    # mode-resolved view: orthogonal
    assert similarity(p, q) == 0.0


def test_equidistribution_similarity():
    program, smap = ring_chain((0, 4), "hadamard_like")
    rec = evolve(make_initial("ccw", "V", 1), program, 12)
    mapped = map_sites(smap, rec)

    # all weight on one node of a 4-node support: sqrt(1 * 1/4)^2 = 1/4
    s0 = equidistribution_similarity(mapped, 0, [2, 4, 6, 0])
    assert abs(s0 - 0.25) < 1e-12

    s11 = equidistribution_similarity(mapped, 11, [1, 3, 5, 7])
    assert s11 > 0.99
    s11_r = equidistribution_similarity(mapped, 11, [1, 3, 5, 7], renormalize=True)
    assert s11_r >= s11
    assert abs(s11_r - 1.0) < 1e-10


def test_find_revivals_hadamard_like_circle():
    program, smap = ring_chain((0, 4), "hadamard_like")
    mapped = map_sites(smap, evolve(make_initial("ccw", "V", 1), program, 24))
    revivals = find_revivals(mapped)
    perfect = [r for r in revivals if r[2] == "perfect" and r[0] > 0]
    assert perfect
    assert perfect[0][0] == 24
    assert perfect[0][1] == 0


def test_find_revivals_four_site_circle():
    program, smap = ring_chain((0, 2), "hadamard_like")
    mapped = map_sites(smap, evolve(make_initial("ccw", "V", 1), program, 8))
    revivals = find_revivals(mapped)
    shifted = [r for r in revivals if r[0] == 4]
    assert shifted and shifted[0][2] == "shifted" and shifted[0][1] == 2
    perfect = [r for r in revivals if r[0] == 8]
    assert perfect and perfect[0][2] == "perfect" and perfect[0][1] == 0


def test_find_revivals_non_mixing_period():
    for num_sites in (4, 6, 8, 10, 16):
        program, smap = ring_chain((0, num_sites // 2), "non_mixing")
        mapped = map_sites(smap, evolve(make_initial("ccw", "H", 1), program, 2 * num_sites))
        revivals = find_revivals(mapped)
        perfect_steps = [r[0] for r in revivals if r[2] == "perfect" and r[0] > 0]
        assert num_sites in perfect_steps
        assert 2 * num_sites in perfect_steps
        # the rigid rotation makes every intermediate step a shifted revival
        shifted_steps = [r[0] for r in revivals if r[2] == "shifted"]
        assert set(shifted_steps) == set(range(1, 2 * num_sites + 1)) - set(perfect_steps)


def test_find_revivals_matches_shift_by_shift_search():
    # small rings against one similarity call per step and shift, and the
    # recipe rings over 2,000 steps against the step-by-step search
    specs = [
        ((0, 4), "hadamard_like"),  # circles of 8, 10 and 4 sites
        ((-1, 4), "non_mixing"),
        ((2, 4), "hadamard_like"),
        ((-4, 0, 4), "non_mixing"),  # the figure-eight
    ]
    for stops, flavor in specs:
        program, smap = ring_chain(stops, flavor)
        start = stops[0] + 1
        mapped = map_sites(smap, evolve(make_initial("ccw", "V", start), program, 3 * smap.num_nodes))
        p0 = mapped.distribution_vector(0)
        want = [
            (t, s, "perfect" if s == 0 else "shifted")
            for t in range(1, len(mapped))
            for s in range(smap.num_nodes)
            if similarity(np.roll(p0, s), mapped.distribution_vector(t)) >= 1.0 - 1e-6
        ]
        assert want
        assert find_revivals(mapped) == want
    configs = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "configs")
    for recipe in ("circle8", "figure_eight", "circle10_nonmixing"):
        cfg = parse_config(os.path.join(configs, f"{recipe}.yaml"))
        mapped = map_sites(cfg.site_map, evolve(cfg.initial, cfg.program, 2000, cfg.site_map.span))
        for tol in (1e-6, 1e-3, 0.5):
            want = oracles.stepwise_revivals(mapped, tol)
            assert want
            assert find_revivals(mapped, tol) == want


def revival_thresholds(square: float) -> list:
    """1 - tol for tols at which `square`, a squared overlap in (0.5, 1], is
    exactly the threshold or one ulp either side of it: 1 - tol is exact
    there, and tol lies in [0, 1)."""
    return [c for c in (np.nextafter(square, 0.0), square, np.nextafter(square, 2.0)) if c <= 1.0]


def near_revivals(rng, num_nodes: int, steps: int) -> MappedRecord:
    """A record on num_nodes nodes whose step 0 spreads over every node and
    whose later steps are step 0 moved by a random shift, each node's
    intensity off by a relative 1e-9 or less: squared overlaps just below 1,
    each a sum of num_nodes rounded terms."""
    p0 = rng.random((num_nodes, 4))
    p0 /= p0.sum()
    moved = [np.roll(p0, rng.integers(num_nodes), axis=0) * (1.0 + 1e-9 * rng.random((num_nodes, 4))) for _ in range(steps)]
    intensities = np.array([p0, *moved])
    return MappedRecord(intensities, np.ones(intensities.shape[:2], bool), np.zeros(steps + 1))


def test_find_revivals_at_the_threshold_and_one_ulp_either_side():
    # tol set so that 1 - tol is a (step, shift) pair's squared overlap as the
    # stepwise search adds it, or one ulp above or below it, on the recipe
    # rings and on records of near revivals spread over 3 to 40 nodes
    configs = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "configs")
    rng = np.random.default_rng(29)
    records = [
        map_sites(cfg.site_map, evolve(cfg.initial, cfg.program, 400, cfg.site_map.span))
        for cfg in (parse_config(os.path.join(configs, f"{r}.yaml")) for r in ("circle8", "figure_eight", "circle10_nonmixing"))
    ]
    records += [near_revivals(rng, num_nodes, 30) for num_nodes in (3, 8, 16, 40)]
    for mapped in records:
        squares = oracles.stepwise_overlaps(mapped)
        pairs = np.argwhere((squares > 0.5) & (squares <= 1.0))
        assert len(pairs) >= 8
        picks = [np.unravel_index(np.argmax(squares), squares.shape), *rng.permutation(pairs)[:8]]
        for t, s in picks:
            for c in revival_thresholds(squares[t, s]):
                tol = 1.0 - c
                assert 0.0 <= tol < 1.0 and 1.0 - tol == c
                got = find_revivals(mapped, tol)
                assert got == oracles.stepwise_revivals(mapped, tol)
                assert ((t + 1, s, "perfect" if s == 0 else "shifted") in got) == (squares[t, s] >= c)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.lists(st.integers(2, 5), min_size=1, max_size=4),
    st.sampled_from(FLAVORS),
    st.integers(-4, 4),
    st.data(),
)
def test_find_revivals_matches_stepwise_search_on_random_chains(gaps, flavor, left, data):
    # a chain of K = 1 to 4 rings, a random interior start, and a random tol
    # or one at (or an ulp beside) one of the walk's squared overlaps
    stops = tuple(left + np.cumsum([0, *gaps]))
    program, smap = ring_chain(stops, flavor)
    initial = make_initial(
        data.draw(st.sampled_from(["cw", "ccw"])),
        data.draw(st.sampled_from(["H", "V", "D", "A"])),
        data.draw(st.integers(stops[0] + 1, stops[-1] - 1)),
    )
    steps = data.draw(st.integers(1, 3 * smap.num_nodes))
    mapped = map_sites(smap, evolve(initial, program, steps, smap.span))
    squares = oracles.stepwise_overlaps(mapped)
    near = squares[(squares > 0.5) & (squares <= 1.0)].tolist()
    if near and data.draw(st.booleans()):
        tol = 1.0 - data.draw(st.sampled_from(revival_thresholds(data.draw(st.sampled_from(near)))))
    else:
        tol = data.draw(st.floats(0.0, 1.0, exclude_max=True))
    assert find_revivals(mapped, tol) == oracles.stepwise_revivals(mapped, tol)


def test_monte_carlo_zero_error_is_exactly_zero():
    program, smap = ring_chain((0, 4), "hadamard_like")
    walk = Walk(program, make_initial("ccw", "V", 1), 6, smap)
    report = monte_carlo_error_bars(*walk, n_samples=5, eff_err=0.0, angle_err_deg=0.0)
    for t in range(7):
        for v in report.sigma_mode[t]:
            assert float(np.max(v)) == 0.0
        for v in report.sigma_position[t]:
            assert v == 0.0


def test_monte_carlo_seed_reproducibility():
    program, smap = ring_chain((0, 4), "hadamard_like")
    walk = Walk(program, make_initial("ccw", "V", 1), 5, smap, [1, 3, 5, 7])
    a = monte_carlo_error_bars(*walk, n_samples=20, seed=7)
    b = monte_carlo_error_bars(*walk, n_samples=20, seed=7)
    c = monte_carlo_error_bars(*walk, n_samples=20, seed=8)
    for t in range(6):
        assert np.array_equal(a.sigma_position[t], b.sigma_position[t])
        assert np.array_equal(a.sigma_mode[t], b.sigma_mode[t])
    assert a.similarity_sigma_sampled == b.similarity_sigma_sampled
    assert any(
        not np.array_equal(a.sigma_position[t], c.sigma_position[t]) for t in range(6)
    )


def test_monte_carlo_similarity_fields():
    program, smap = ring_chain((0, 4), "hadamard_like")
    report = monte_carlo_error_bars(program, make_initial("ccw", "V", 1), 11, smap, [1, 3, 5, 7], n_samples=15, seed=3)
    assert report.similarity_ref is not None
    assert len(report.similarity_ref) == 12
    assert report.similarity_ref[11] > 0.99
    assert all(s >= 0.0 for s in report.similarity_sigma)
    assert all(s >= 0.0 for s in report.similarity_sigma_sampled)
    assert report.reference.num_nodes == 8


def test_monte_carlo_argument_errors():
    walk = Walk(constant_program(np.eye(4)), make_initial("ccw", "V", 0), 3)
    with pytest.raises(ValueError):
        monte_carlo_error_bars(*walk, n_samples=0)
    # raw-matrix programs cannot absorb angle jitter
    with pytest.raises(ValueError):
        monte_carlo_error_bars(*walk, n_samples=2, angle_err_deg=1.0)
    # but pure efficiency noise is fine
    report = monte_carlo_error_bars(*walk, n_samples=2, angle_err_deg=0.0, eff_err=0.01)
    assert report.n_samples == 2


def test_monte_carlo_empty_support_raises():
    program, smap = ring_chain((0, 4), "hadamard_like")
    with pytest.raises(ValueError, match="support must not be empty"):
        monte_carlo_error_bars(program, make_initial("ccw", "V", 1), 4, smap, [], n_samples=2)


def _random_walk(rng, support_size: int) -> Walk:
    """A ring, a figure-eight or a line walk with a support of distinct
    sites in random order; a line's support may reach past its window."""
    flavor = str(rng.choice(["hadamard_like", "non_mixing"]))
    kind = str(rng.choice(["circle", "figure_eight", "line"]))
    if kind == "line":
        angle = lambda: float(rng.uniform(0.0, 180.0))
        arm = lambda: ArmSetting((OpticalElement("qwp", angle()), OpticalElement("hwp", angle())), angle())
        program = CoinProgram(default=ElementCoin(arm(), arm(), (OpticalElement("hwp", angle()),)))
        steps = int(rng.integers(0, 8))
        return Walk(program, make_initial("ccw", "D", 0), steps, support=_line_support(rng, steps, support_size))
    left = int(rng.integers(-4, 4))
    if kind == "circle":
        stops = (left, left + int(rng.integers(5, 8)))
    else:
        stops = (left, left + int(rng.integers(2, 5)), left + int(rng.integers(5, 9)))
    program, smap = ring_chain(stops, flavor)
    initial = make_initial("ccw", str(rng.choice(["H", "V", "D", "A"])), int(rng.integers(stops[0] + 1, stops[-1])))
    support = rng.choice(smap.num_nodes, size=support_size, replace=False).tolist()
    return Walk(program, initial, int(rng.integers(0, 13)), smap, support)


def _line_support(rng, steps: int, support_size: int) -> list:
    return rng.choice(np.arange(-steps - 5, steps + 6), size=support_size, replace=False).tolist()


def _raw_time_table_walk(rng, support_size: int) -> Walk:
    """A line walk under a time table of raw coins, then a default and an
    override; raw coins take no angle error."""
    raw = lambda: RawCoin(random_unitary(4, rng))
    table = [raw() for _ in range(int(rng.integers(1, 5)))]
    program = CoinProgram(default=raw(), overrides={1: raw()}, time_table=table)
    steps = int(rng.integers(0, 8))
    return Walk(program, make_initial("cw", "A", 0), steps, support=_line_support(rng, steps, support_size))


def _uncovered_walk(rng, support_size: int) -> Walk:
    """A line walk whose program has no default and covers only x0 - 1 ..
    x0 + 1: at zero angles every coin is diagonal and the walker started at
    x0 stays on them, but any angle jitter spreads it further."""
    zero = lambda kind: OpticalElement(kind, 0.0)
    arm = lambda: ArmSetting(tuple(zero(str(k)) for k in rng.choice(["qwp", "hwp"], size=int(rng.integers(0, 3)))))
    coin = lambda: ElementCoin(arm(), arm(), (zero(str(rng.choice(["qwp", "hwp", "eom"]))),))
    x0, shared = int(rng.integers(-3, 4)), coin()
    program = CoinProgram(overrides={x0 - 1: shared, x0: coin(), x0 + 1: shared})
    initial = make_initial(str(rng.choice(["cw", "ccw"])), str(rng.choice(["H", "V", "D", "A"])), x0)
    steps = int(rng.integers(0, 8))
    return Walk(program, initial, steps, support=_line_support(rng, steps, support_size))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["uniform", "truncated_normal"]),
    st.booleans(),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=16),
    st.sampled_from(["elements", "raw_time_table", "uncovered"]),
)
# a propagated spread that comes out one bit off when its terms are squared
# as x * x rather than by pow, as the sitewise formula squares them
@example(seed=324, distribution="truncated_normal", renormalize=False, support_size=7, n_samples=16, kind="elements")
def test_monte_carlo_error_bars_equal_sitewise_oracle(seed, distribution, renormalize, support_size, n_samples, kind):
    rng = np.random.default_rng(seed)
    walk = {"elements": _random_walk, "raw_time_table": _raw_time_table_walk, "uncovered": _uncovered_walk}[kind](
        rng, support_size
    )
    angle_err = float(rng.choice([0.0, 1.0, 2.5])) if walk.program.has_elements else 0.0
    eff_err = float(rng.uniform(0.0, 0.05))
    args = (*walk, n_samples, eff_err, angle_err, seed, distribution, renormalize)
    try:
        want = oracles.monte_carlo_error_bars(*args)
    except ProgramError as err:
        # a sample left the covered positions: the same error, naming the
        # first failing sample's step and position
        with pytest.raises(ProgramError) as got:
            monte_carlo_error_bars(*args)
        assert str(got.value) == str(err)
        return
    report = monte_carlo_error_bars(*args)
    assert np.array_equal(report.sigma_mode, want["sigma_mode"])
    assert np.array_equal(report.sigma_position, want["sigma_position"])
    for field in ("similarity_ref", "similarity_sigma", "similarity_sigma_sampled"):
        assert getattr(report, field) == want[field], field


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=4),
    st.booleans(),
    st.booleans(),
    st.integers(min_value=1, max_value=6),
)
def test_monte_carlo_error_bars_from_several_sites_equal_sitewise_oracle(seed, sites, same_parity, renormalize, n_samples):
    # a start on several sites, of one parity (the sampler's cells are every
    # second site) or of both (every site), on a line or a ring
    rng = np.random.default_rng(seed)
    walk = _random_walk(rng, 3)
    # a ring's start stays off its ends, where half the modes leave the graph
    low, high = (-6, 7) if walk.site_map is None else (walk.site_map.span[0] + 1, walk.site_map.span[1])
    while True:
        starts = rng.choice(np.arange(low, high, 2 if same_parity else 1), size=min(sites, (high - low) // 2), replace=False)
        if same_parity or len(starts) == 1 or np.ptp(starts % 2):
            break
    initial = {int(x): rng.normal(size=4) + 1j * rng.normal(size=4) for x in starts}
    args = (walk.program, initial, walk.steps, walk.site_map, walk.support, n_samples, 0.03, 1.5, seed, "uniform", renormalize)
    want, report = oracles.monte_carlo_error_bars(*args), monte_carlo_error_bars(*args)
    assert np.array_equal(report.sigma_mode, want["sigma_mode"])
    assert np.array_equal(report.sigma_position, want["sigma_position"])
    for field in ("similarity_ref", "similarity_sigma", "similarity_sigma_sampled"):
        assert getattr(report, field) == want[field], field


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=9), st.booleans())
def test_equidistribution_similarity_equals_sitewise_oracle(seed, support_size, renormalize):
    rng = np.random.default_rng(seed)
    walk = _random_walk(rng, support_size)
    record = evolve(walk.initial, walk.program, walk.steps)
    if walk.site_map is not None:
        record = map_sites(walk.site_map, record)
    for t in range(len(record)):
        got = equidistribution_similarity(record, t, walk.support, renormalize=renormalize)
        assert got == oracles.equidistribution_similarity(record, t, walk.support, renormalize=renormalize)


def test_errorbars_recipe_propagated_similarity_sigmas_are_bounded():
    # the recipe's reference puts float dust (about 1e-32) on support nodes
    # at steps 1 and 9, where dS/dp = amp * sqrt(q / p) blew up to 1e12
    import os

    from loopwalk.config import parse_config

    cfg = parse_config(os.path.join(os.path.dirname(__file__), os.pardir, "docs", "configs", "errorbars_circle8.yaml"))
    base = cfg.base
    report = monte_carlo_error_bars(
        base.program, base.initial, base.steps, base.site_map, cfg.support, cfg.n_samples, cfg.eff_err, cfg.angle_err_deg, cfg.seed, cfg.distribution, cfg.renormalize
    )
    sigma = np.array(report.similarity_sigma)
    assert np.all(np.isfinite(sigma))
    assert np.all(sigma <= 1.0)


def test_errorbars_recipe_samples_walk_on_the_light_cone():
    # the samples walk on the light cone, not on the ring's window: light a
    # jittered end coin lets out walks on under the inner coin and comes
    # back, and only such light feeds node 1's cH mode at step 3, so its
    # spread is nonzero under angle jitter and rounding dust without it
    cfg = parse_config(os.path.join(os.path.dirname(__file__), os.pardir, "docs", "configs", "errorbars_circle8.yaml"))
    base = cfg.base
    walk = Walk(base.program, base.initial, 12, base.site_map, cfg.support)
    sigma = [
        monte_carlo_error_bars(*walk, cfg.n_samples, cfg.eff_err, angle_err, cfg.seed).sigma_mode[3, 1, CH]
        for angle_err in (cfg.angle_err_deg, 0.0)
    ]
    assert sigma[0] > 1e-6
    assert sigma[1] < 1e-30


def test_monte_carlo_batch_size_does_not_change_the_result(monkeypatch):
    # samples walk in batches of BATCH_SITES // window of them; smaller
    # batches give the same bits, and the same error when a sample leaves
    # the covered positions; the ring's support is looked up once per run
    # and serves every batch
    import loopwalk.analysis as analysis

    def run(walk):
        try:
            report = monte_carlo_error_bars(*walk, 7, 0.02, 1.5, seed=11, distribution="truncated_normal")
        except ProgramError as err:
            return str(err)
        fields = report.sigma_mode, report.sigma_position, report.similarity_sigma_sampled
        return [np.asarray(values, dtype=float).view(np.int64).tolist() for values in fields]

    rng = np.random.default_rng(12)
    program, smap = ring_chain((0, 4), "hadamard_like")
    ring = Walk(program, make_initial("ccw", "V", 1), 10, smap, [1, 3, 5, 7])
    walks = [_random_walk(rng, 3) for _ in range(4)] + [ring, _uncovered_walk(rng, 3)._replace(steps=5)]
    whole = [run(walk) for walk in walks]
    for sites in (1, 20, 50):  # windows of 1 to 25 sites
        monkeypatch.setattr(analysis, "BATCH_SITES", sites)
        assert [run(walk) for walk in walks] == whole
    assert whole[-1].startswith("'no coin rule for step 2 at position")


def test_monte_carlo_program_without_rules():
    # zero steps never ask for a coin; one step asks at the start
    report = monte_carlo_error_bars(CoinProgram(), make_initial("cw", "H", 0), 0, n_samples=3)
    assert not report.sigma_mode.any()
    with pytest.raises(ProgramError, match="no coin rule for step 0 at position 0"):
        monte_carlo_error_bars(CoinProgram(), make_initial("cw", "H", 0), 1, n_samples=3)
