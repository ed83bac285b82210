import numpy as np
import pytest

from loopwalk.graph_programs import (
    CircleSpec,
    FigureEightSpec,
    circle_map,
    circle_program,
    figure_eight_map,
    figure_eight_program,
    line_program,
    map_sites,
)
from loopwalk.optics import coin_ab, coin_ll, full_coin
from loopwalk.walk_engine import constant_program, evolve, make_initial

import oracles

MINUS_IX = -1j * oracles.PAULI_X
HP = oracles.BALANCED_PHASED_2


def test_circle_map_anchor_and_coverage():
    # 10-site circle between -1 and 4: ccw subspace at the origin is node 2
    smap = circle_map(CircleSpec(num_sites=10, left_end=-1))
    assert smap.node_of(0, "cc") == 2
    assert smap.num_nodes == 10

    smap8 = circle_map(CircleSpec(num_sites=8, left_end=0))
    nodes = sorted(set(smap8.mapping.values()))
    assert nodes == list(range(8))


def test_circle_map_ends_are_shared():
    spec = CircleSpec(num_sites=8, left_end=-3)
    smap = circle_map(spec)
    assert smap.node_of(spec.left_end, "c") == smap.node_of(spec.left_end, "cc")
    assert smap.node_of(spec.right_end, "c") == smap.node_of(spec.right_end, "cc")
    # interior positions split into two distinct arc nodes
    for x in range(spec.left_end + 1, spec.right_end):
        assert smap.node_of(x, "c") != smap.node_of(x, "cc")


def test_circle_spec_validation():
    with pytest.raises(ValueError):
        CircleSpec(num_sites=3)
    with pytest.raises(ValueError):
        CircleSpec(num_sites=6, flavor="mixing")
    with pytest.raises(ValueError):
        CircleSpec(num_sites=2)


def test_circle_program_coin_matrices():
    prog_nm, _ = circle_program(CircleSpec(num_sites=8, left_end=0, flavor="non_mixing"))
    inner = prog_nm.coin_at(0, 2)
    assert np.max(np.abs(inner - full_coin(MINUS_IX, MINUS_IX, oracles.PAULI_X))) < 1e-14
    end = prog_nm.coin_at(0, 0)
    assert np.max(np.abs(end - 1j * np.eye(4))) < 1e-14

    prog_hl, _ = circle_program(CircleSpec(num_sites=8, left_end=0, flavor="hadamard_like"))
    inner = prog_hl.coin_at(0, 2)
    assert np.max(np.abs(inner - coin_ab(MINUS_IX, MINUS_IX) @ coin_ll(HP))) < 1e-14
    end = prog_hl.coin_at(0, 4)
    assert np.max(np.abs(end - coin_ab(HP, HP))) < 1e-14


def test_circle_confinement_all_sizes_and_flavors():
    for num_sites in (4, 8, 10, 16):
        for flavor in ("non_mixing", "hadamard_like"):
            spec = CircleSpec(num_sites=num_sites, left_end=-1, flavor=flavor)
            program, smap = circle_program(spec)
            init = make_initial("ccw", "D", 0)
            rec = evolve(init, program, 25)
            mapped = map_sites(smap, rec)
            assert not mapped.flagged
            assert mapped.max_leakage <= 1e-12
            for t in range(26):
                assert abs(rec.total(t) - 1.0) < 1e-10


def test_non_mixing_circle_is_modular_rotation():
    spec = CircleSpec(num_sites=8, left_end=0, flavor="non_mixing")
    program, smap = circle_program(spec)
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
        program, smap = circle_program(spec)
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
    program, smap = circle_program(spec)
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
    smap = figure_eight_map(spec)
    assert smap.node_of(0, "c") == smap.node_of(0, "cc") == 7
    nodes = sorted(set(smap.mapping.values()))
    assert nodes == list(range(15))


def test_figure_eight_center_coins():
    prog_hl, _ = figure_eight_program(FigureEightSpec(flavor="hadamard_like"))
    center = prog_hl.coin_at(0, 0)
    assert np.max(np.abs(center - oracles.BALANCED_FOUR_MODE_COIN)) < 1e-14

    prog_nm, _ = figure_eight_program(FigureEightSpec(flavor="non_mixing"))
    center = prog_nm.coin_at(0, 0)
    # arms cancel, the loop flips polarization in both direction sectors
    assert np.max(np.abs(center - coin_ll(oracles.PAULI_X))) < 1e-14


def test_figure_eight_circulation_and_revival():
    spec = FigureEightSpec()  # 15 nodes, non-mixing
    program, smap = figure_eight_program(spec)
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
    program, smap = circle_program(spec)
    rec = evolve(make_initial("ccw", "D", 0), program, 12)
    mapped = map_sites(smap, rec)
    for t in range(13):
        assert abs(sum(mapped.position_distribution(t)) - rec.total(t)) < 1e-12
        assert abs(mapped.distribution_vector(t).sum() - 1.0) < 1e-10


def test_map_sites_flags_leakage():
    # an unconfined line walk pushed through a circle map must flag
    smap = circle_map(CircleSpec(num_sites=8, left_end=0))
    coin = full_coin(MINUS_IX, MINUS_IX, oracles.HADAMARD_2)
    rec = evolve(make_initial("ccw", "H", 0), constant_program(coin), 12)
    mapped = map_sites(smap, rec)
    assert mapped.flagged
    assert mapped.max_leakage > 1e-3
    relaxed = map_sites(smap, rec, leak_tol=2.0)
    assert not relaxed.flagged


def test_line_program_uniform():
    program = line_program(MINUS_IX, MINUS_IX, oracles.HADAMARD_2)
    c = program.coin_at(5, -17)
    assert np.max(np.abs(c - full_coin(MINUS_IX, MINUS_IX, oracles.HADAMARD_2))) == 0.0
