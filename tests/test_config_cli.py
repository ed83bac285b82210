"""Config validation plus end-to-end runs of the command line tool."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from loopwalk import cli
from loopwalk.config import ConfigError, parse_config, parse_config_dict
from loopwalk.optics import full_coin
from loopwalk.walk_engine import CoinProgram, make_initial


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "configs")

QWP45 = {"kind": "qwp", "angle_deg": 45.0}
HWP225 = {"kind": "hwp", "angle_deg": 22.5}

# each arm is traversed twice, so a single quarter wave plate at 45
# degrees contributes its square -iX per round trip
HADAMARD_COIN = {
    "elements": {
        "arm_a": {"waveplates": [QWP45]},
        "arm_b": {"waveplates": [QWP45]},
        "loop": [HWP225],
    }
}


def line_cfg(**overrides):
    cfg = {"kind": "line", "coin": HADAMARD_COIN, "steps": 5}
    cfg.update(overrides)
    return cfg


def matrix_block(m):
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def write_cfg(tmp_path, obj, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(obj))
    return str(path)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "loopwalk", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------- config


def test_line_defaults():
    cfg = parse_config_dict({"kind": "line", "coin": HADAMARD_COIN})
    assert cfg.kind == "line"
    assert cfg.steps == 25
    coin = cfg.program.coin_at(0, 0)
    minus_ix = np.array([[0.0, -1j], [-1j, 0.0]])
    expected = full_coin(minus_ix, minus_ix, oracles.HADAMARD_2)
    assert np.max(np.abs(coin - expected)) < 1e-12


def test_initial_defaults_and_overrides():
    cfg = parse_config_dict(line_cfg())
    assert set(cfg.initial) == {0}
    vec = cfg.initial[0]
    assert vec[2] == 1.0 and np.sum(np.abs(vec)) == 1.0

    cfg = parse_config_dict(
        line_cfg(initial={"direction": "cw", "polarization": "V", "position": 3})
    )
    assert set(cfg.initial) == {3}
    assert cfg.initial[3][1] == 1.0

    with pytest.raises(ConfigError, match="initial"):
        parse_config_dict(line_cfg(initial={"direction": "sideways"}))


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config_dict(line_cfg(extra=1))
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config_dict(line_cfg(coin={"elements": HADAMARD_COIN["elements"], "bogus": 1}))
    bad_elements = dict(HADAMARD_COIN["elements"])
    bad_elements["mirror"] = {}
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config_dict(line_cfg(coin={"elements": bad_elements}))
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config_dict(
            line_cfg(
                coin={
                    "elements": {
                        "arm_a": {"waveplates": [], "tilt": 2},
                        "arm_b": {},
                        "loop": [],
                    }
                }
            )
        )


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="kind"):
        parse_config_dict({})
    with pytest.raises(ConfigError, match="coin"):
        parse_config_dict({"kind": "line"})
    with pytest.raises(ConfigError, match="num_sites"):
        parse_config_dict({"kind": "circle"})
    with pytest.raises(ConfigError, match="target"):
        parse_config_dict({"kind": "decompose"})
    with pytest.raises(ConfigError, match="base"):
        parse_config_dict({"kind": "errorbars"})


def test_unknown_kind():
    with pytest.raises(ConfigError, match="unknown kind"):
        parse_config_dict({"kind": "torus"})


def test_coin_source_exclusive():
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config_dict(line_cfg(coin={}))
    both = {
        "elements": HADAMARD_COIN["elements"],
        "matrix": matrix_block(np.eye(4)),
    }
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config_dict(line_cfg(coin=both))


def test_raw_matrix_coin_roundtrip():
    cfg = parse_config_dict(line_cfg(coin={"matrix": matrix_block(oracles.GROVER_4)}))
    got = cfg.program.coin_at(0, 0)
    assert np.max(np.abs(got - oracles.GROVER_4)) < 1e-12


def test_matrix_validation():
    with pytest.raises(ConfigError, match="shape"):
        parse_config_dict(line_cfg(coin={"matrix": matrix_block(np.eye(2))}))
    with pytest.raises(ConfigError, match="not unitary"):
        parse_config_dict(line_cfg(coin={"matrix": matrix_block(2.0 * np.eye(4))}))
    bad = {"re": [["x"] * 4] * 4, "im": np.zeros((4, 4)).tolist()}
    with pytest.raises(ConfigError, match="numbers"):
        parse_config_dict(line_cfg(coin={"matrix": bad}))


def test_element_validation():
    coin = {
        "elements": {
            "arm_a": {"waveplates": [{"kind": "polarizer", "angle_deg": 0.0}]},
            "arm_b": {},
            "loop": [],
        }
    }
    with pytest.raises(ConfigError, match="element kind"):
        parse_config_dict(line_cfg(coin=coin))

    coin = {
        "elements": {
            "arm_a": {"waveplates": [{"kind": "eom", "angle_deg": 30.0}]},
            "arm_b": {},
            "loop": [],
        }
    }
    with pytest.raises(ConfigError, match="eom_phase_deg"):
        parse_config_dict(line_cfg(coin=coin))


def test_line_steps_nonnegative():
    with pytest.raises(ConfigError, match="nonnegative"):
        parse_config_dict(line_cfg(steps=-1))


def test_graph_steps_nonnegative():
    with pytest.raises(ConfigError, match="circle.steps: must be nonnegative"):
        parse_config_dict({"kind": "circle", "num_sites": 8, "steps": -1})
    with pytest.raises(ConfigError, match="figure_eight.steps: must be nonnegative"):
        parse_config_dict({"kind": "figure_eight", "steps": -1})


def test_graph_start_off_the_graph_is_a_config_error():
    # position outside [stops[0], stops[-1]]
    with pytest.raises(ConfigError, match=r"circle.initial.position: 40 is not on the graph \[0, 4\]"):
        parse_config_dict({"kind": "circle", "num_sites": 8, "initial": {"position": 40}})
    with pytest.raises(ConfigError, match="figure_eight.initial.position: -5 is not on the graph"):
        parse_config_dict({"kind": "figure_eight", "initial": {"position": -5}})
    # a start at an end whose modes the shift carries off the graph
    for initial in (
        {"direction": "cw", "polarization": "H", "position": 0},
        {"direction": "ccw", "polarization": "V", "position": 0},
        {"direction": "cw", "polarization": "V", "position": 4},
        {"direction": "ccw", "polarization": "D", "position": 4},
    ):
        with pytest.raises(ConfigError, match="circle.initial: the start at end"):
            parse_config_dict({"kind": "circle", "num_sites": 8, "initial": initial})
    with pytest.raises(ConfigError, match="figure_eight.initial: the start at end 4"):
        parse_config_dict({"kind": "figure_eight", "initial": {"direction": "cw", "polarization": "A", "position": 4}})
    # the same through an errorbars base
    with pytest.raises(ConfigError, match="circle.initial.position"):
        parse_config_dict({"kind": "errorbars", "base": {"kind": "circle", "num_sites": 8, "initial": {"position": 9}}})
    with pytest.raises(ConfigError, match="circle.initial: the start at end 0"):
        parse_config_dict(
            {"kind": "errorbars", "base": {"kind": "circle", "num_sites": 8, "initial": {"direction": "cw"}}}
        )


def test_graph_start_rule_matches_leakage():
    # every start on and next to a circle and a figure-eight: the parser
    # rejects exactly the starts whose walk leaks off the graph
    from loopwalk.graph_programs import map_sites
    from loopwalk.walk_engine import evolve

    graphs = [{"kind": "circle", "num_sites": 8, "left_end": -2}, {"kind": "figure_eight", "left_end": -3, "right_end": 2}]
    for graph, flavor in itertools.product(graphs, ("non_mixing", "hadamard_like")):
        full = parse_config_dict({**graph, "flavor": flavor})
        left, right = graph["left_end"], graph.get("right_end", graph["left_end"] + 4)
        positions = (left - 1, left, left + 1, 0, right - 1, right, right + 1)
        for x, direction, polarization in itertools.product(positions, ("cw", "ccw"), "HVDA"):
            initial = {"direction": direction, "polarization": polarization, "position": x}
            record = evolve(make_initial(direction, polarization, x), full.program, 12)
            leaks = map_sites(full.site_map, record).max_leakage > 1e-9
            try:
                parse_config_dict({**graph, "flavor": flavor, "initial": initial})
                rejected = False
            except ConfigError:
                rejected = True
            assert rejected == leaks, (graph["kind"], flavor, initial)


def test_circle_validation():
    cfg = parse_config_dict({"kind": "circle", "num_sites": 8})
    assert cfg.kind == "circle"
    assert cfg.steps == 25
    assert cfg.site_map is not None

    with pytest.raises(ConfigError, match="flavor"):
        parse_config_dict({"kind": "circle", "num_sites": 8, "flavor": "mixing"})
    with pytest.raises(ConfigError, match="circle"):
        parse_config_dict({"kind": "circle", "num_sites": 5})


def test_figure_eight_validation():
    cfg = parse_config_dict({"kind": "figure_eight"})
    assert cfg.steps == 32
    with pytest.raises(ConfigError, match="figure_eight"):
        parse_config_dict({"kind": "figure_eight", "center": 9})
    with pytest.raises(ConfigError, match="flavor"):
        parse_config_dict({"kind": "figure_eight", "flavor": "braided"})


def test_dispersion_validation():
    cfg = parse_config_dict({"kind": "dispersion", "coin": HADAMARD_COIN})
    assert cfg.n_k == 1024
    assert cfg.merge_tol == 1e-4
    assert cfg.gap_tol == 1e-9
    assert cfg.coin_matrix.shape == (4, 4)

    with pytest.raises(ConfigError, match="at least 64"):
        parse_config_dict({"kind": "dispersion", "coin": HADAMARD_COIN, "n_k": 32})


def test_decompose_defaults():
    cfg = parse_config_dict(
        {"kind": "decompose", "target": matrix_block(oracles.BALANCED_FOUR_MODE_COIN)}
    )
    assert cfg.rel_tol == 1e-9
    assert np.max(np.abs(cfg.target - oracles.BALANCED_FOUR_MODE_COIN)) < 1e-12


def test_errorbars_validation():
    base = line_cfg()
    ok = parse_config_dict({"kind": "errorbars", "base": base})
    assert ok.n_samples == 1000
    assert ok.angle_err_deg == 1.0
    assert ok.eff_err == 0.025
    assert ok.distribution == "uniform"
    assert ok.renormalize is True

    with pytest.raises(ConfigError, match="cannot be sampled"):
        parse_config_dict(
            {"kind": "errorbars", "base": {"kind": "dispersion", "coin": HADAMARD_COIN}}
        )
    with pytest.raises(ConfigError, match="positive"):
        parse_config_dict({"kind": "errorbars", "base": base, "n_samples": 0})
    with pytest.raises(ConfigError, match="distribution"):
        parse_config_dict({"kind": "errorbars", "base": base, "distribution": "gaussian"})
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_dict({"kind": "errorbars", "base": base, "renormalize": 1})
    with pytest.raises(ConfigError, match="nonnegative"):
        parse_config_dict({"kind": "errorbars", "base": base, "angle_err_deg": -0.5})
    with pytest.raises(ConfigError, match="support"):
        parse_config_dict({"kind": "errorbars", "base": base, "support": [0, 1]})
    circle_base = {"kind": "circle", "num_sites": 8}
    with pytest.raises(ConfigError, match="integers"):
        parse_config_dict(
            {"kind": "errorbars", "base": circle_base, "support": [1, "three"]}
        )
    # support nodes must exist on the graph, once each
    with pytest.raises(ConfigError, match="not in"):
        parse_config_dict(
            {"kind": "errorbars", "base": circle_base, "support": [1, 3, 99, -2]}
        )
    with pytest.raises(ConfigError, match="twice"):
        parse_config_dict(
            {"kind": "errorbars", "base": circle_base, "support": [1, 1, 1, 1]}
        )
    with pytest.raises(ConfigError, match="errorbars.support: expected a nonempty list of integers"):
        parse_config_dict({"kind": "errorbars", "base": circle_base, "support": []})
    ok = parse_config_dict(
        {"kind": "errorbars", "base": circle_base, "support": [1, 3, 5, 7]}
    )
    assert ok.support == [1, 3, 5, 7]


def test_errorbars_raw_matrix_base():
    """A raw-matrix coin has no angles, so angle noise must be zero."""
    raw_base = line_cfg(coin={"matrix": matrix_block(oracles.BALANCED_FOUR_MODE_COIN)})
    with pytest.raises(ConfigError, match="no element angles"):
        parse_config_dict({"kind": "errorbars", "base": raw_base})
    cfg = parse_config_dict(
        {"kind": "errorbars", "base": raw_base, "angle_err_deg": 0.0}
    )
    assert cfg.angle_err_deg == 0.0


def test_errorbars_leaking_program_exits_3_before_sampling(monkeypatch, capsys):
    cfg = parse_config(os.path.join(CONFIG_DIR, "errorbars_circle8.yaml"))
    # without its end coins the ring program walks off the graph
    cfg.base.program = CoinProgram(default=cfg.base.program.default)
    monkeypatch.setattr(cli, "parse_config", lambda path: cfg)

    def sample(*args, **kwargs):
        raise AssertionError("sampled a leaking walk")

    monkeypatch.setattr(cli, "monte_carlo_error_bars", sample)
    assert cli.main(["errorbars", "--config", "unused.yaml"]) == 3
    assert "walker left the graph" in capsys.readouterr().err


def test_parse_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(str(tmp_path / "missing.yaml"))

    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        parse_config(str(empty))

    mangled = tmp_path / "mangled.yaml"
    mangled.write_text("kind: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        parse_config(str(mangled))


def test_parse_config_roundtrip(tmp_path):
    path = write_cfg(tmp_path, line_cfg(steps=7))
    cfg = parse_config(path)
    assert cfg.kind == "line"
    assert cfg.steps == 7


# ------------------------------------------------------------------- cli


def test_cli_help():
    res = run_cli("--help")
    assert res.returncode == 0
    for name in ("simulate", "circle", "figure-eight", "revivals", "dispersion",
                 "decompose", "errorbars"):
        assert name in res.stdout


def test_cli_simulate_csv(tmp_path):
    path = write_cfg(tmp_path, line_cfg(steps=3))
    res = run_cli("simulate", "--config", path)
    assert res.returncode == 0, res.stderr
    header, rows = csv_rows(res.stdout)
    assert header == ["step", "position", "mode", "intensity"]
    by_step = {}
    for step, _pos, _mode, val in rows:
        by_step[int(step)] = by_step.get(int(step), 0.0) + float(val)
    assert sorted(by_step) == [0, 1, 2, 3]
    for total in by_step.values():
        assert abs(total - 1.0) < 1e-12


def test_cli_simulate_trace_sum_all(tmp_path):
    path = write_cfg(tmp_path, line_cfg(steps=2))
    res = run_cli("simulate", "--config", path, "--trace", "sum_all")
    assert res.returncode == 0, res.stderr
    header, rows = csv_rows(res.stdout)
    assert header == ["step", "position", "intensity"]
    final = {int(r[1]): float(r[2]) for r in rows if r[0] == "2"}
    assert abs(sum(final.values()) - 1.0) < 1e-12


def test_cli_steps_override_and_out_file(tmp_path):
    path = write_cfg(tmp_path, line_cfg(steps=9))
    out = tmp_path / "table.csv"
    res = run_cli("simulate", "--config", path, "--steps", "1", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert res.stdout == ""
    header, rows = csv_rows(out.read_text())
    assert header[0] == "step"
    assert {r[0] for r in rows} == {"0", "1"}

    res = run_cli("simulate", "--config", path, "--steps", "-1")
    assert res.returncode == 2
    assert "config error" in res.stderr


def test_cli_table_format(tmp_path):
    path = write_cfg(tmp_path, line_cfg(steps=1))
    res = run_cli("simulate", "--config", path, "--format", "table")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0].split() == ["step", "position", "mode", "intensity"]
    assert set(lines[1]) <= {"-", " "}


def test_cli_bad_config_exits_2(tmp_path):
    res = run_cli("simulate", "--config", str(tmp_path / "nope.yaml"))
    assert res.returncode == 2
    assert "config error" in res.stderr

    path = write_cfg(tmp_path, {"kind": "circle", "num_sites": 8})
    res = run_cli("simulate", "--config", path)
    assert res.returncode == 2
    assert "simulate" in res.stderr


def test_cli_circle_smoke(tmp_path):
    cfg = {
        "kind": "circle",
        "num_sites": 8,
        "flavor": "hadamard_like",
        "initial": {"direction": "ccw", "polarization": "V", "position": 1},
        "steps": 6,
    }
    path = write_cfg(tmp_path, cfg)
    res = run_cli("circle", "--config", path)
    assert res.returncode == 0, res.stderr
    assert "max off-graph intensity" in res.stderr
    header, rows = csv_rows(res.stdout)
    assert header == ["step", "node", "mode", "intensity"]
    nodes = {int(r[1]) for r in rows}
    assert nodes <= set(range(16))
    last = sum(float(r[3]) for r in rows if r[0] == "6")
    assert abs(last - 1.0) < 1e-10


def test_cli_figure_eight_smoke(tmp_path):
    path = write_cfg(tmp_path, {"kind": "figure_eight", "steps": 4})
    res = run_cli("figure-eight", "--config", path)
    assert res.returncode == 0, res.stderr
    header, rows = csv_rows(res.stdout)
    assert header == ["step", "node", "mode", "intensity"]
    start = sum(float(r[3]) for r in rows if r[0] == "0")
    assert abs(start - 1.0) < 1e-10


def test_cli_revivals(tmp_path):
    cfg = {
        "kind": "circle",
        "num_sites": 4,
        "flavor": "hadamard_like",
        "initial": {"direction": "ccw", "polarization": "V", "position": 1},
        "steps": 8,
    }
    path = write_cfg(tmp_path, cfg)
    res = run_cli("revivals", "--config", path)
    assert res.returncode == 0, res.stderr
    header, rows = csv_rows(res.stdout)
    assert header == ["step", "shift", "kind"]
    events = {(int(r[0]), int(r[1]), r[2]) for r in rows}
    assert (4, 2, "shifted") in events
    assert (8, 0, "perfect") in events


def test_cli_dispersion(tmp_path):
    path = write_cfg(tmp_path, {"kind": "dispersion", "coin": HADAMARD_COIN, "n_k": 256})
    res = run_cli("dispersion", "--config", path)
    assert res.returncode == 0, res.stderr
    header, rows = csv_rows(res.stdout)
    assert header[0] == "section"
    sections = {r[0] for r in rows}
    assert {"band", "wavefront", "speed"} <= sections
    speeds = sorted(abs(float(r[6])) for r in rows if r[0] == "speed")
    assert len(speeds) == 2
    for s in speeds:
        assert abs(s - 1.0 / np.sqrt(2.0)) < 1e-6


def test_cli_dispersion_crossing_recipe():
    # the crossing_dispersion recipe of docs/RECIPES.md: four exact touches
    # and four avoided minima, nothing from the constant-gap branch pairs
    res = run_cli("dispersion", "--config", os.path.join(CONFIG_DIR, "crossing_dispersion.yaml"))
    assert res.returncode == 0, res.stderr
    _, rows = csv_rows(res.stdout)
    crossings = [r for r in rows if r[0] == "crossing"]
    assert len(crossings) == 8
    touches = [r for r in crossings if r[8] == "crossing"]
    assert len(touches) == 4
    assert all(float(r[7]) < 1e-9 for r in touches)
    assert sorted(abs(float(r[3])) for r in touches) == pytest.approx(
        [1.044, 1.044, 2.098, 2.098], abs=1e-3
    )
    assert sum(r[8] == "avoided" for r in crossings) == 4


def test_cli_decompose_pass(tmp_path):
    cfg = {"kind": "decompose", "target": matrix_block(oracles.BALANCED_FOUR_MODE_COIN)}
    path = write_cfg(tmp_path, cfg)
    res = run_cli("decompose", "--config", path)
    assert res.returncode == 0, res.stderr
    header, rows = csv_rows(res.stdout)
    scalars = {r[1]: r[4] for r in rows if r[0] == "scalar"}
    assert float(scalars["one_trip_pass"]) == 1.0
    assert float(scalars["residual"]) < 1e-9
    assert float(scalars["residual_normalized"]) < 1e-8
    names = {r[1] for r in rows if r[0] == "matrix"}
    assert "trip1.arm_a" in names and "trip2_su2.loop_ccw" in names


def test_cli_decompose_grover_needs_two_trips(tmp_path):
    """Grover fails the one-trip test but still factors over two trips."""
    cfg = {"kind": "decompose", "target": matrix_block(oracles.GROVER_4)}
    path = write_cfg(tmp_path, cfg)
    res = run_cli("decompose", "--config", path)
    assert res.returncode == 0, res.stderr
    _, rows = csv_rows(res.stdout)
    scalars = {r[1]: r[4] for r in rows if r[0] == "scalar"}
    assert float(scalars["one_trip_pass"]) == 0.0
    assert float(scalars["one_trip_rank_m1"]) == 2.0
    assert float(scalars["residual"]) < 1e-9


def test_cli_decompose_reject_exits_3(tmp_path):
    cfg = {
        "kind": "decompose",
        "target": matrix_block(oracles.GROVER_4),
        "rel_tol": 1.0e-18,
    }
    path = write_cfg(tmp_path, cfg)
    res = run_cli("decompose", "--config", path)
    assert res.returncode == 3
    assert "certification failure" in res.stderr
    assert "residual" in res.stderr


def test_cli_errorbars_smoke(tmp_path):
    cfg = {
        "kind": "errorbars",
        "base": line_cfg(steps=3),
        "n_samples": 8,
        "seed": 11,
    }
    path = write_cfg(tmp_path, cfg)
    res = run_cli("errorbars", "--config", path)
    assert res.returncode == 0, res.stderr
    header, rows = csv_rows(res.stdout)
    assert header == ["step", "position", "mode", "reference", "sigma"]
    totals = [r for r in rows if r[2] == "total"]
    assert totals
    for r in totals:
        assert float(r[4]) >= 0.0


def test_cli_errorbars_negative_steps_exits_2():
    res = run_cli("errorbars", "--config", os.path.join(CONFIG_DIR, "errorbars_circle8.yaml"), "--steps", "-1")
    assert res.returncode == 2
    assert "config error: --steps must be nonnegative" in res.stderr


def test_cli_off_graph_start_and_empty_support_exit_2(tmp_path):
    circle = {"kind": "circle", "num_sites": 8, "initial": {"position": 40}}
    res = run_cli("circle", "--config", write_cfg(tmp_path, circle))
    assert res.returncode == 2
    assert "config error: circle.initial.position: 40 is not on the graph [0, 4]" in res.stderr
    eight = {"kind": "figure_eight", "initial": {"direction": "ccw", "polarization": "V", "position": -4}}
    res = run_cli("revivals", "--config", write_cfg(tmp_path, eight))
    assert res.returncode == 2
    assert "config error: figure_eight.initial: the start at end -4 points off the graph" in res.stderr
    empty = {"kind": "errorbars", "base": {"kind": "circle", "num_sites": 8}, "support": [], "n_samples": 2}
    res = run_cli("errorbars", "--config", write_cfg(tmp_path, empty))
    assert res.returncode == 2
    assert "config error: errorbars.support: expected a nonempty list of integers" in res.stderr
    assert res.stdout == ""


def test_cli_errorbars_zero_noise_zero_sigma(tmp_path):
    cfg = {
        "kind": "errorbars",
        "base": line_cfg(steps=3),
        "n_samples": 4,
        "angle_err_deg": 0.0,
        "eff_err": 0.0,
    }
    path = write_cfg(tmp_path, cfg)
    res = run_cli("errorbars", "--config", path)
    assert res.returncode == 0, res.stderr
    _, rows = csv_rows(res.stdout)
    for r in rows:
        assert float(r[4]) == 0.0


def test_cli_errorbars_similarity_rows(tmp_path):
    cfg = {
        "kind": "errorbars",
        "base": {
            "kind": "circle",
            "num_sites": 8,
            "initial": {"direction": "ccw", "polarization": "V", "position": 1},
            "steps": 4,
        },
        "n_samples": 5,
        "support": [1, 3, 5, 7],
    }
    path = write_cfg(tmp_path, cfg)
    res = run_cli("errorbars", "--config", path, "--seed", "3")
    assert res.returncode == 0, res.stderr
    header, rows = csv_rows(res.stdout)
    assert header[1] == "node"
    kinds = {r[2] for r in rows}
    assert "similarity" in kinds and "similarity_sampled" in kinds


# ---------------------------------------------------------------- rendering


def test_columnar_output_matches_row_oracle(tmp_path, capsys):
    def recipe(name):
        return os.path.join(CONFIG_DIR, f"{name}.yaml")

    with open(recipe("errorbars_circle8"), encoding="utf-8") as fh:
        errorbars = yaml.safe_load(fh)
    errorbars["n_samples"] = 20
    # a direction-swapping coin has constant-velocity branches, whose
    # wavefront rows leave k empty, and continuum crossings
    swap = np.roll(np.eye(4), 2, axis=1)
    swap_cfg = {"kind": "dispersion", "n_k": 64, "coin": {"matrix": matrix_block(swap)}}
    runs = [
        ["simulate", "--config", recipe("hadamard_line"), "--trace", trace]
        for trace in ("full", "sum_polarization", "sum_direction", "sum_all")
    ]
    runs += [
        ["circle", "--config", recipe("circle8")],
        ["figure-eight", "--config", recipe("figure_eight")],
        ["revivals", "--config", recipe("figure_eight")],
        ["dispersion", "--config", recipe("crossing_dispersion")],
        ["dispersion", "--config", write_cfg(tmp_path, swap_cfg, "swap.yaml")],
        ["decompose", "--config", recipe("decompose_grover")],
        ["errorbars", "--config", write_cfg(tmp_path, errorbars, "errorbars.yaml"), "--steps", "6"],
    ]
    parser = cli.build_parser()
    for run in runs:
        for fmt in ("csv", "table"):
            argv = [*run, "--format", fmt]
            assert cli.main(argv) == 0, argv
            got = capsys.readouterr().out
            args = parser.parse_args(argv)
            assert got == oracles.render_rows(args.command, parse_config(args.config), args), argv


@settings(derandomize=True, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_column_formats_floats_round_trip(xs):
    xs = [*xs, 0.0, -0.0, 5e-324, -2.2250738585072e-308, float("nan"), float("inf"), float("-inf")]
    assert cli._column(np.array(xs)) == [f"{float(x):.17g}" for x in xs]


@settings(derandomize=True, deadline=None)
@given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=40))
def test_column_formats_int64_in_decimal(vs):
    info = np.iinfo(np.int64)
    a = np.array([*vs, info.min, info.max, -1, 0], dtype=np.int64)
    assert cli._column(a) == [str(int(v)) for v in a]


def test_package_all_lists_every_public_name():
    import types

    import loopwalk

    public = {
        name
        for name, value in vars(loopwalk).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(loopwalk.__all__) == len(set(loopwalk.__all__))
    assert set(loopwalk.__all__) == public
