import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopwalk.analysis import find_revivals
from loopwalk.graph_programs import NO_POSITION, CircleSpec, FigureEightSpec, map_sites, ring_chain
from loopwalk.optics import coin_ab, coin_ll, full_coin
from loopwalk.walk_engine import constant_program, evolve, make_initial

import oracles

MINUS_IX = -1j * oracles.PAULI_X
HP = oracles.BALANCED_PHASED_2


def test_circle_map_anchor_and_coverage():
    # 10-site circle between -1 and 4: ccw subspace at the origin is node 2
    _, smap = ring_chain((-1, 4), "hadamard_like")
    assert smap.node_of(0, "cc") == 2
    assert smap.num_nodes == 10

    _, smap8 = ring_chain((0, 4), "hadamard_like")
    nodes = sorted({smap8.node_of(x, sub) for x in range(0, 5) for sub in ("c", "cc")})
    assert nodes == list(range(8))


def test_circle_map_ends_are_shared():
    spec = CircleSpec(num_sites=8, left_end=-3)
    _, smap = ring_chain(spec.stops, spec.flavor)
    left_end, right_end = spec.stops
    assert smap.node_of(left_end, "c") == smap.node_of(left_end, "cc")
    assert smap.node_of(right_end, "c") == smap.node_of(right_end, "cc")
    # interior positions split into two distinct arc nodes
    for x in range(left_end + 1, right_end):
        assert smap.node_of(x, "c") != smap.node_of(x, "cc")


def test_circle_spec_validation():
    with pytest.raises(ValueError):
        CircleSpec(num_sites=3)
    with pytest.raises(ValueError):
        CircleSpec(num_sites=6, flavor="mixing")
    with pytest.raises(ValueError):
        CircleSpec(num_sites=2)


def test_circle_program_coin_matrices():
    prog_nm, _ = ring_chain((0, 4), "non_mixing")
    inner = prog_nm.coin_at(0, 2)
    assert np.max(np.abs(inner - full_coin(MINUS_IX, MINUS_IX, oracles.PAULI_X))) < 1e-14
    end = prog_nm.coin_at(0, 0)
    assert np.max(np.abs(end - 1j * np.eye(4))) < 1e-14

    prog_hl, _ = ring_chain((0, 4), "hadamard_like")
    inner = prog_hl.coin_at(0, 2)
    assert np.max(np.abs(inner - coin_ab(MINUS_IX, MINUS_IX) @ coin_ll(HP))) < 1e-14
    end = prog_hl.coin_at(0, 4)
    assert np.max(np.abs(end - coin_ab(HP, HP))) < 1e-14


def test_circle_confinement_all_sizes_and_flavors():
    for num_sites in (4, 8, 10, 16):
        for flavor in ("non_mixing", "hadamard_like"):
            spec = CircleSpec(num_sites=num_sites, left_end=-1, flavor=flavor)
            program, smap = ring_chain(spec.stops, spec.flavor)
            init = make_initial("ccw", "D", 0)
            rec = evolve(init, program, 25)
            mapped = map_sites(smap, rec)
            assert not mapped.flagged
            assert mapped.max_leakage <= 1e-12
            for t in range(26):
                assert abs(rec.total(t) - 1.0) < 1e-10


def test_non_mixing_circle_is_modular_rotation():
    spec = CircleSpec(num_sites=8, left_end=0, flavor="non_mixing")
    program, smap = ring_chain(spec.stops, spec.flavor)
    init = make_initial("ccw", "H", 1)
    mapped = map_sites(smap, evolve(init, program, 16))
    v0 = mapped.distribution_vector(0)
    assert int(np.argmax(v0)) == 2
    for t in range(17):
        expected = oracles.rotation_circle_distribution(v0, -t)
        assert np.max(np.abs(mapped.distribution_vector(t) - expected)) < 1e-12


def test_non_mixing_period_is_num_sites():
    for num_sites in (4, 6, 8, 10, 16):
        spec = CircleSpec(num_sites=num_sites, left_end=0, flavor="non_mixing")
        program, smap = ring_chain(spec.stops, spec.flavor)
        init = make_initial("ccw", "V", 1)
        mapped = map_sites(smap, evolve(init, program, num_sites))
        v0 = mapped.distribution_vector(0)
        vT = mapped.distribution_vector(num_sites)
        assert np.max(np.abs(vT - v0)) < 1e-12
        # strictly earlier returns do not happen
        for t in range(1, num_sites):
            assert np.max(np.abs(mapped.distribution_vector(t) - v0)) > 0.5


def test_circle_parity_classes():
    # bipartite circulation: node parity alternates with the step parity
    spec = CircleSpec(num_sites=8, left_end=0, flavor="hadamard_like")
    program, smap = ring_chain(spec.stops, spec.flavor)
    init = make_initial("ccw", "V", 1)  # node 2
    mapped = map_sites(smap, evolve(init, program, 15))
    for t in range(16):
        dist = mapped.distribution_vector(t)
        for m in range(8):
            if (m + t) % 2 == 1:
                assert dist[m] <= 1e-14


def test_figure_eight_spec_validation():
    assert FigureEightSpec().num_nodes == 15
    assert FigureEightSpec(-2, 0, 3).num_nodes == 9
    with pytest.raises(ValueError):
        FigureEightSpec(2, 0, 4)
    with pytest.raises(ValueError):
        FigureEightSpec(-2, 0, 4, flavor="spinning")


def test_figure_eight_map_center_is_shared():
    spec = FigureEightSpec(-4, 0, 4)
    _, smap = ring_chain(spec.stops, spec.flavor)
    assert smap.node_of(0, "c") == smap.node_of(0, "cc") == 7
    nodes = sorted({smap.node_of(x, sub) for x in range(-4, 5) for sub in ("c", "cc")})
    assert nodes == list(range(15))


def test_figure_eight_center_coins():
    prog_hl, _ = ring_chain((-4, 0, 4), "hadamard_like")
    center = prog_hl.coin_at(0, 0)
    assert np.max(np.abs(center - oracles.BALANCED_FOUR_MODE_COIN)) < 1e-14

    prog_nm, _ = ring_chain((-4, 0, 4), "non_mixing")
    center = prog_nm.coin_at(0, 0)
    # arms cancel, the loop flips polarization in both direction sectors
    assert np.max(np.abs(center - coin_ll(oracles.PAULI_X))) < 1e-14


def test_figure_eight_circulation_and_revival():
    spec = FigureEightSpec()  # 15 nodes, non-mixing
    program, smap = ring_chain(spec.stops, spec.flavor)
    init = make_initial("ccw", "H", 0)
    mapped = map_sites(smap, evolve(init, program, 16))
    assert mapped.max_leakage <= 1e-12
    seq = [int(np.argmax(mapped.distribution_vector(t))) for t in range(17)]
    # one full pass around the left lobe, then around the right lobe
    assert seq == [7, 6, 5, 4, 3, 2, 1, 0, 7, 8, 9, 10, 11, 12, 13, 14, 7]
    v0 = mapped.distribution_vector(0)
    assert np.max(np.abs(mapped.distribution_vector(16) - v0)) < 1e-12


def test_map_sites_preserves_totals():
    spec = CircleSpec(num_sites=10, left_end=-1, flavor="hadamard_like")
    program, smap = ring_chain(spec.stops, spec.flavor)
    rec = evolve(make_initial("ccw", "D", 0), program, 12)
    mapped = map_sites(smap, rec)
    for t in range(13):
        assert abs(sum(mapped.position_distribution(t)) - rec.total(t)) < 1e-12
        assert abs(mapped.distribution_vector(t).sum() - 1.0) < 1e-10


def test_map_sites_flags_leakage():
    # an unconfined line walk pushed through a circle map must flag
    _, smap = ring_chain((0, 4), "hadamard_like")
    coin = full_coin(MINUS_IX, MINUS_IX, oracles.HADAMARD_2)
    rec = evolve(make_initial("ccw", "H", 0), constant_program(coin), 12)
    mapped = map_sites(smap, rec)
    assert mapped.flagged
    assert mapped.max_leakage > 1e-3
    relaxed = map_sites(smap, rec, leak_tol=2.0)
    assert not relaxed.flagged


def test_line_program_uniform():
    program = constant_program(full_coin(MINUS_IX, MINUS_IX, oracles.HADAMARD_2))
    c = program.coin_at(5, -17)
    assert np.max(np.abs(c - full_coin(MINUS_IX, MINUS_IX, oracles.HADAMARD_2))) == 0.0


def _positions_from_nodes(nodes: dict, num_nodes: int) -> np.ndarray:
    positions = np.full((2, num_nodes), NO_POSITION)
    for (x, subspace), m in nodes.items():
        positions[("c", "cc").index(subspace), m] = x
    return positions


def test_ring_chain_numbering_matches_circle_and_figure_eight_formulas():
    for num_sites in range(4, 60, 2):
        for left_end in range(-6, 6):
            spec = CircleSpec(num_sites=num_sites, left_end=left_end)
            _, smap = ring_chain(spec.stops, spec.flavor)
            want = _positions_from_nodes(oracles.circle_nodes(num_sites, left_end), num_sites)
            assert np.array_equal(smap.node_positions, want), spec
    for left_end in range(-8, 3):
        for center in range(left_end + 1, 4):
            for right_end in range(4, 12):
                spec = FigureEightSpec(left_end, center, right_end)
                _, smap = ring_chain(spec.stops, spec.flavor)
                nodes = oracles.figure_eight_nodes(left_end, center, right_end)
                assert np.array_equal(smap.node_positions, _positions_from_nodes(nodes, spec.num_nodes)), spec


def test_ring_chain_rejects_bad_stops():
    for stops in ((0,), (), (0, 0), (3, 1), (0, 2, 2, 5), (0.0, 2.0)):
        with pytest.raises(ValueError, match="stops"):
            ring_chain(stops, "non_mixing")
    with pytest.raises(ValueError, match="flavor"):
        ring_chain((0, 2), "mixing")


# modes that an end coin sends off the chain: cH and ccV at the left end,
# cV and ccH at the right end
_OFF_LEFT = {("cw", "H"), ("ccw", "V")}
_OFF_RIGHT = {("cw", "V"), ("ccw", "H")}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    st.integers(min_value=-10, max_value=10),
    st.sampled_from(("non_mixing", "hadamard_like")),
    st.integers(min_value=0, max_value=20),
    st.sampled_from(("cw", "ccw")),
    st.sampled_from(("H", "V")),
)
def test_ring_chain_properties(lobes, left_end, flavor, start, direction, polarization):
    stops = tuple(int(s) for s in np.cumsum([left_end, *lobes]))
    left, right, k = stops[0], stops[-1], len(lobes)
    x0 = left + start % (right - left + 1)
    assume(not (x0 == left and (direction, polarization) in _OFF_LEFT))
    assume(not (x0 == right and (direction, polarization) in _OFF_RIGHT))
    program, smap = ring_chain(stops, flavor)

    # a bijection onto 0 .. M-1; c and cc share a node exactly at the stops
    num_nodes = 2 * (right - left) - k + 1
    assert smap.num_nodes == num_nodes
    nodes = [smap.node_of(x, sub) for x in range(left, right + 1) for sub in ("c", "cc")]
    assert set(nodes) == set(range(num_nodes))
    for x in range(left, right + 1):
        assert (smap.node_of(x, "c") == smap.node_of(x, "cc")) == (x in stops)

    mapped = map_sites(smap, evolve(make_initial(direction, polarization, x0), program, 4 * num_nodes))
    assert mapped.max_leakage <= 1e-9
    totals = mapped.intensities.sum(axis=(1, 2))
    assert np.max(np.abs(totals - 1.0)) <= 1e-12
    if flavor == "non_mixing":
        assert (2 * (right - left), 0, "perfect") in find_revivals(mapped)
