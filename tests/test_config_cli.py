"""Config validation plus end-to-end runs of the command line tool."""

import ast
import functools
import glob
import importlib
import itertools
import math
import os
import runpy
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import config_fuzz
import oracles
import loopwalk
from loopwalk import cli, config
from loopwalk.config import ConfigError, parse_config, parse_config_dict
from loopwalk.optics import full_coin
from loopwalk.walk_engine import CoinProgram, RawCoin, make_initial


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "configs")
UNWRITABLE = os.path.join(os.sep, "nonexistent", "dir", "x.csv")

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
    """The command line in a fresh interpreter, as `python -m loopwalk`."""
    return subprocess.run(
        [sys.executable, "-m", "loopwalk", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def main_cli(capsys, *args):
    """cli.main in this process, its exit code and output shaped like run_cli's."""
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, out, err)


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
    # positions may lie anywhere within 2**62 of zero, the ends included
    for x in (2**62, -(2**62)):
        assert set(parse_config_dict(line_cfg(initial={"position": x})).initial) == {x}

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
    # numpy takes any nonnegative seed, so the seed alone has no upper bound
    assert parse_config_dict({"kind": "errorbars", "base": base, "seed": 10**30}).seed == 10**30

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


@pytest.mark.skipif(sys.version_info < (3, 11), reason="earlier interpreters keep a call's arguments until it returns")
def test_errorbars_base_walk_is_freed_before_the_samples_walk(monkeypatch, capsys):
    # the base walk's intensities are as large as the light cone; once the
    # reference is built the sampler keeps only its offset and width, so no
    # one holds them by the time the samples walk
    import weakref

    import loopwalk.analysis as analysis

    evolve, evolve_states = cli.evolve, analysis.evolve_states
    walks, freed = [], []

    def walk(*args, **kwargs):
        record = evolve(*args, **kwargs)
        walks.append(weakref.ref(record.intensities))
        return record

    def sample(*args, **kwargs):
        freed.append([ref() is None for ref in walks])
        return evolve_states(*args, **kwargs)

    monkeypatch.setattr(cli, "evolve", walk)
    monkeypatch.setattr(analysis, "evolve", walk)
    monkeypatch.setattr(analysis, "evolve_states", sample)
    result = main_cli(capsys, "errorbars", "--config", os.path.join(CONFIG_DIR, "errorbars_circle8.yaml"), "--steps", "12")
    assert result.returncode == 0
    assert len(walks) == 1
    assert freed and all(batch == [True] for batch in freed)


@pytest.mark.parametrize("trace", cli._COMMANDS["simulate"][3]["--trace"]["choices"])
def test_simulate_frees_its_walk_before_formatting(monkeypatch, capsys, trace):
    # the walk's intensities span its whole light cone; simulate keeps only
    # the reached cells, so no one holds them by the time a column is formatted
    import weakref

    evolve, column = cli.evolve, cli._column
    walks, alive = [], []

    def walk(*args, **kwargs):
        record = evolve(*args, **kwargs)
        walks.append(weakref.ref(record.intensities))
        return record

    def format_column(values):
        alive.append(any(ref() is not None for ref in walks))
        return column(values)

    monkeypatch.setattr(cli, "evolve", walk)
    monkeypatch.setattr(cli, "_column", format_column)
    result = main_cli(capsys, "simulate", "--config", os.path.join(CONFIG_DIR, "four_speed_line.yaml"), "--trace", trace)
    assert result.returncode == 0
    assert len(walks) == 1
    assert alive and not any(alive)


@pytest.mark.parametrize("command", ["circle", "revivals"])
def test_ring_with_inner_coin_ends_leaks_and_exits_3(monkeypatch, capsys, command):
    # the end coins replaced by the inner coin: the walk leaves the graph window
    cfg = parse_config(os.path.join(CONFIG_DIR, "circle8.yaml"))
    cfg.program = CoinProgram(default=cfg.program.default)
    monkeypatch.setattr(cli, "parse_config", lambda path: cfg)
    result = main_cli(capsys, command, "--config", "unused.yaml")
    assert result.returncode == 3
    assert "walker left the graph" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "command, recipe", [("circle", "circle8"), ("revivals", "circle8"), ("errorbars", "errorbars_circle8")]
)
def test_ring_walk_with_a_nan_coin_entry_exits_3(monkeypatch, capsys, command, recipe):
    # one NaN entry in the inner coin makes the leakage NaN, which no
    # tolerance comparison passes
    cfg = parse_config(os.path.join(CONFIG_DIR, f"{recipe}.yaml"))
    walk = cfg.base if command == "errorbars" else cfg
    inner = walk.program.default.matrix().copy()
    inner[0, 0] = np.nan
    walk.program = CoinProgram(default=RawCoin(inner), overrides=walk.program.overrides)
    monkeypatch.setattr(cli, "parse_config", lambda path: cfg)
    result = main_cli(capsys, command, "--config", "unused.yaml")
    assert result.returncode == 3
    assert "walker left the graph" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "command, recipe",
    [("simulate", "hadamard_line"), ("circle", "circle8"), ("revivals", "figure_eight"), ("errorbars", "errorbars_circle8")],
)
def test_run_too_large_to_allocate_exits_2_without_traceback(capsys, command, recipe):
    # 10**13 steps need petabytes: the allocation fails at once, touching no
    # memory; 10**18 steps need more bytes than an array can address
    config = os.path.join(CONFIG_DIR, f"{recipe}.yaml")
    for steps in (10**13, 10**18):
        result = main_cli(capsys, command, "--config", config, "--steps", str(steps))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("config error: ") and "too large" in result.stderr
        assert result.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("dispersion", {"kind": "dispersion", "coin": HADAMARD_COIN, "n_k": 2**62}),
        ("circle", {"kind": "circle", "num_sites": 2**62}),
        ("errorbars", {"kind": "errorbars", "base": line_cfg(), "n_samples": 2**62}),
        ("figure-eight", {"kind": "figure_eight", "left_end": -(2**62), "right_end": 2**62}),
    ],
    ids=["n_k", "num_sites", "n_samples", "figure_eight_ends"],
)
def test_config_sizes_numpy_cannot_address_exit_2_without_traceback(tmp_path, capsys, command, cfg):
    # within the 2**62 bound, but the grid, the ring's node table or the
    # sample draws would need more bytes than an array can address
    result = main_cli(capsys, command, "--config", write_cfg(tmp_path, cfg))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("config error: run too large for memory: Unable to allocate ")
    assert result.stderr.count("\n") == 1


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


def assert_loaders_agree(text):
    # repr tells 1 from 1.0 and True, and -0.0 from 0.0, and compares NaNs
    assert repr(yaml.load(text, Loader=config._YAML_LOADER)) == repr(yaml.load(text, Loader=yaml.SafeLoader))


def test_recipes_load_alike_under_both_loaders():
    recipes = sorted(os.listdir(CONFIG_DIR))
    assert recipes
    for name in recipes:
        with open(os.path.join(CONFIG_DIR, name), encoding="utf-8") as fh:
            assert_loaders_agree(fh.read())


YAML_DATA = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text() | st.integers(), inner, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, deadline=None)
@given(st.dictionaries(st.text(), YAML_DATA, max_size=6))
def test_dumped_configs_load_alike_under_both_loaders(data):
    assert_loaders_agree(yaml.safe_dump(data, sort_keys=False))


def test_parse_config_uses_libyaml_when_available(monkeypatch):
    # a silent fall back to the pure-Python loader costs several times the load time
    loaders, load = [], yaml.load

    def spy(stream, Loader):
        loaders.append(Loader)
        return load(stream, Loader)

    monkeypatch.setattr(yaml, "load", spy)  # yaml.safe_load calls it too
    parse_config(os.path.join(CONFIG_DIR, "hadamard_line.yaml"))
    assert loaders == [yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader]


# ------------------------------------------------------------------- cli
#
# Runs that check output or exit codes go through cli.main in this process
# (main_cli); `python -m loopwalk`, --help and the error exits that must
# print no traceback run in a fresh interpreter (run_cli).


def test_cli_help():
    res = run_cli("--help")
    assert res.returncode == 0
    for name in ("simulate", "circle", "figure-eight", "revivals", "dispersion",
                 "decompose", "errorbars"):
        assert name in res.stdout


def test_cli_simulate_csv(tmp_path, capsys):
    path = write_cfg(tmp_path, line_cfg(steps=3))
    res = main_cli(capsys, "simulate", "--config", path)
    assert res.returncode == 0, res.stderr
    header, rows = csv_rows(res.stdout)
    assert header == ["step", "position", "mode", "intensity"]
    by_step = {}
    for step, _pos, _mode, val in rows:
        by_step[int(step)] = by_step.get(int(step), 0.0) + float(val)
    assert sorted(by_step) == [0, 1, 2, 3]
    for total in by_step.values():
        assert abs(total - 1.0) < 1e-12


def test_cli_simulate_trace_sum_all(tmp_path, capsys):
    path = write_cfg(tmp_path, line_cfg(steps=2))
    res = main_cli(capsys, "simulate", "--config", path, "--trace", "sum_all")
    assert res.returncode == 0, res.stderr
    header, rows = csv_rows(res.stdout)
    assert header == ["step", "position", "intensity"]
    final = {int(r[1]): float(r[2]) for r in rows if r[0] == "2"}
    assert abs(sum(final.values()) - 1.0) < 1e-12


def test_cli_steps_override_and_out_file(tmp_path, capsys):
    path = write_cfg(tmp_path, line_cfg(steps=9))
    out = tmp_path / "table.csv"
    res = main_cli(capsys, "simulate", "--config", path, "--steps", "1", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert res.stdout == ""
    header, rows = csv_rows(out.read_text())
    assert header[0] == "step"
    assert {r[0] for r in rows} == {"0", "1"}

    res = main_cli(capsys, "simulate", "--config", path, "--steps", "-1")
    assert res.returncode == 2
    assert "config error" in res.stderr


def test_cli_table_format(tmp_path, capsys):
    path = write_cfg(tmp_path, line_cfg(steps=1))
    res = main_cli(capsys, "simulate", "--config", path, "--format", "table")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0].split() == ["step", "position", "mode", "intensity"]
    assert set(lines[1]) <= {"-", " "}


def test_cli_bad_config_exits_2(tmp_path, capsys):
    res = main_cli(capsys, "simulate", "--config", str(tmp_path / "nope.yaml"))
    assert res.returncode == 2
    assert "config error" in res.stderr

    # a directory and a file that is not UTF-8 name their path
    latin = tmp_path / "latin1.yaml"
    latin.write_bytes("kind: line  # Fran\xe7ais\n".encode("latin-1"))
    for bad in (str(tmp_path), str(latin)):
        res = main_cli(capsys, "simulate", "--config", bad)
        assert res.returncode == 2
        assert "config error" in res.stderr and bad in res.stderr

    path = write_cfg(tmp_path, {"kind": "circle", "num_sites": 8})
    res = main_cli(capsys, "simulate", "--config", path)
    assert res.returncode == 2
    assert "simulate" in res.stderr


NAN, INF = float("nan"), float("inf")


def hadamard_coin_with_loop_angle(angle):
    return {"elements": {**HADAMARD_COIN["elements"], "loop": [{"kind": "hwp", "angle_deg": angle}]}}


NAN_IDENTITY = {"re": [[NAN if i == j == 0 else float(i == j) for j in range(4)] for i in range(4)], "im": [[0.0] * 4] * 4}


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        (
            "dispersion",
            {"kind": "dispersion", "coin": HADAMARD_COIN, "merge_tol": NAN},
            "dispersion.merge_tol: expected a finite number, got nan",
        ),
        (
            "errorbars",
            {"kind": "errorbars", "base": line_cfg(), "angle_err_deg": NAN},
            "errorbars.angle_err_deg: expected a finite number, got nan",
        ),
        (
            "simulate",
            line_cfg(coin=hadamard_coin_with_loop_angle(INF)),
            "line.coin.elements.loop[0].angle_deg: expected a finite number, got inf",
        ),
        (
            "dispersion",
            {"kind": "dispersion", "coin": hadamard_coin_with_loop_angle(NAN)},
            "dispersion.coin.elements.loop[0].angle_deg: expected a finite number, got nan",
        ),
        (
            "simulate",
            line_cfg(coin={"matrix": NAN_IDENTITY}),
            "line.coin.matrix: matrix is not unitary (an entry is not finite or has modulus above 1)",
        ),
        ("simulate", line_cfg(initial={"direction": 1}), "line.initial.direction: expected a string, got 1"),
        ("simulate", line_cfg(initial={"polarization": ["H"]}), "line.initial.polarization: expected a string, got ['H']"),
        ("simulate", {**line_cfg(), 1: "a", "foo": "b"}, "line: unknown keys [1, 'foo']"),
        (
            "dispersion",
            {"kind": "dispersion", "coin": HADAMARD_COIN, "merge_tol": -1.0},
            "dispersion.merge_tol: must be nonnegative, got -1.0",
        ),
        (
            "dispersion",
            {"kind": "dispersion", "coin": HADAMARD_COIN, "gap_tol": -1.0},
            "dispersion.gap_tol: must be nonnegative, got -1.0",
        ),
        (
            "decompose",
            {"kind": "decompose", "target": matrix_block(oracles.BALANCED_FOUR_MODE_COIN), "rel_tol": -1.0},
            "decompose.rel_tol: must be nonnegative, got -1.0",
        ),
        # efficiencies are drawn from [1 - eff_err, 1 + eff_err], so eff_err >= 1 allows zero or less
        ("errorbars", {"kind": "errorbars", "base": line_cfg(), "eff_err": 1.0}, "errorbars.eff_err: must be below 1, got 1.0"),
        ("errorbars", {"kind": "errorbars", "base": line_cfg(), "eff_err": 2.0}, "errorbars.eff_err: must be below 1, got 2.0"),
        # numpy's default_rng raises its own ValueError on a negative seed
        ("errorbars", {"kind": "errorbars", "base": line_cfg(), "seed": -5}, "errorbars.seed: must be nonnegative, got -5"),
        # integers that become positions or array sizes lie within 2**62 of zero
        (
            "dispersion",
            {"kind": "dispersion", "coin": HADAMARD_COIN, "n_k": 10**20},
            "dispersion.n_k: must lie within 2**62 of zero, got 100000000000000000000",
        ),
        (
            "circle",
            {"kind": "circle", "num_sites": 10**20},
            "circle.num_sites: must lie within 2**62 of zero, got 100000000000000000000",
        ),
        (
            "circle",
            {"kind": "circle", "num_sites": 8, "left_end": 10**20, "initial": {"position": 10**20 + 1}},
            "circle.left_end: must lie within 2**62 of zero, got 100000000000000000000",
        ),
        (
            "errorbars",
            {"kind": "errorbars", "base": line_cfg(), "n_samples": 10**20},
            "errorbars.n_samples: must lie within 2**62 of zero, got 100000000000000000000",
        ),
        (
            "simulate",
            line_cfg(initial={"position": 10**20}),
            "line.initial.position: must lie within 2**62 of zero, got 100000000000000000000",
        ),
        # within int64, but a few steps on its positions would wrap
        (
            "simulate",
            line_cfg(steps=3, initial={"position": 2**63 - 2}),
            "line.initial.position: must lie within 2**62 of zero, got 9223372036854775806",
        ),
        # the position's own error carries its context once
        ("simulate", line_cfg(initial={"position": "a"}), "line.initial.position: expected an integer, got 'a'"),
    ],
    ids=["merge_tol_nan", "angle_err_nan", "line_angle_inf", "dispersion_angle_nan", "matrix_nan",
         "direction_int", "polarization_list", "mixed_unknown_keys", "merge_tol_negative",
         "gap_tol_negative", "rel_tol_negative", "eff_err_one", "eff_err_two", "seed_negative",
         "n_k_huge", "num_sites_huge", "left_end_huge", "n_samples_huge", "position_huge", "position_wraps",
         "position_not_integer"],
)
def test_cli_malformed_config_exits_2_without_traceback(tmp_path, command, cfg, message):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=False))  # YAML writes the floats as .nan and .inf
    res = run_cli(command, "--config", str(path))
    assert res.returncode == 2, res.stderr
    assert res.stderr == f"config error: {message}\n"
    assert res.stdout == ""


@pytest.mark.parametrize("value", [INF, -INF, NAN, 1e308])
@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("command", ["decompose", "simulate"])
def test_non_finite_or_huge_matrix_entry_exits_2_before_any_arithmetic(tmp_path, capsys, command, part, value):
    # no unitary has an entry of modulus above 1; the entry is rejected before
    # the unitarity certificate's product, which would warn (an error here)
    block = matrix_block(oracles.GROVER_4)
    block[part][0][0] = value
    if command == "decompose":
        ctx, cfg = "decompose.target", {"kind": "decompose", "target": block}
    else:
        ctx, cfg = "line.coin.matrix", line_cfg(coin={"matrix": block})
    result = main_cli(capsys, command, "--config", write_cfg(tmp_path, cfg))
    assert result.returncode == 2
    assert result.stderr == f"config error: {ctx}: matrix is not unitary (an entry is not finite or has modulus above 1)\n"
    assert result.stdout == ""


def test_errorbars_angle_err_is_bounded_at_180_degrees(tmp_path, capsys):
    # a huge jitter overflowed the draws' span and printed nan cells with exit 0
    with open(os.path.join(CONFIG_DIR, "errorbars_circle8.yaml"), encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    for angle in (1e308, 180.5):
        result = main_cli(capsys, "errorbars", "--config", write_cfg(tmp_path, {**cfg, "angle_err_deg": angle}), "--steps", "4")
        assert result.returncode == 2
        assert result.stderr == f"config error: errorbars.angle_err_deg: must be at most 180 degrees, got {angle!r}\n"
        assert result.stdout == ""
    result = main_cli(capsys, "errorbars", "--config", write_cfg(tmp_path, {**cfg, "angle_err_deg": 180.0}), "--steps", "4")
    assert result.returncode == 0
    assert "nan" not in result.stdout


# the config kinds each subcommand takes
TAKES = {
    "simulate": ["line"],
    "circle": ["circle"],
    "figure-eight": ["figure_eight"],
    "revivals": ["circle", "figure_eight"],
    "dispersion": ["dispersion"],
    "decompose": ["decompose"],
    "errorbars": ["errorbars"],
}


@functools.cache
def recipes_by_kind():
    """One docs/configs recipe of each kind found there."""
    out = {}
    for name in sorted(os.listdir(CONFIG_DIR)):
        with open(os.path.join(CONFIG_DIR, name), encoding="utf-8") as fh:
            out.setdefault(yaml.safe_load(fh)["kind"], os.path.join(CONFIG_DIR, name))
    return out


@pytest.mark.parametrize(
    "command, kind",
    [(command, kind) for command in TAKES for kind in recipes_by_kind() if kind not in TAKES[command]],
)
def test_cli_rejects_a_kind_its_command_does_not_take(capsys, command, kind):
    res = main_cli(capsys, command, "--config", recipes_by_kind()[kind])
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == f"config error: {command}: config kind {kind!r} not usable here; expected one of {TAKES[command]}\n"


def test_cli_commands_take_the_kinds_of_their_table():
    assert {name: sorted(row[1]) for name, row in cli._COMMANDS.items()} == TAKES
    assert set(recipes_by_kind()) == set(config.KINDS)


def test_tracer_wrap_targets_resolve():
    # bench/tracing.py times layers by wrapping these names from outside the
    # package, so a renamed or deleted one would silently drop its metric;
    # the module is only read here, its wrappers are never installed
    tracing = runpy.run_path(os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py"))
    for owner, attr, _ in tracing["WRAPPED"]:
        module, _, cls = owner.partition(":")
        target = importlib.import_module(f"loopwalk.{module}")
        target = getattr(target, cls) if cls else target
        assert callable(getattr(target, attr, None)), f"{owner}.{attr}"


# public names that nothing the command line or the benchmark runs reaches,
# each kept on purpose
UNREACHED_EXPORTS = {
    "bloch_operator": "the momentum-space step operator, a certificate of the dispersion layer",
    "constant_program": "one coin everywhere, the program of the README's library example",
    "one_trip_reconstruct": "paper synthesis claim: the element blocks of a one-trip coin",
    "three_step_schedule": "paper synthesis claim: any coin applied in three steps of the loop",
}


def test_public_names_are_reached_or_kept():
    # a name is reached when cli, config or bench/*.py refers to it, or a
    # reached top-level definition of the package does (bench also binds
    # names as strings); so a new test-only export fails here until it is
    # added to UNREACHED_EXPORTS with its reason
    def refs(tree):
        out = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.asname or node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                out.add(node.value)
        return out

    def parse(path):
        with open(path, encoding="utf-8") as fh:
            return ast.parse(fh.read())

    package = os.path.dirname(loopwalk.__file__)
    defined = {}  # top-level name -> names its definition refers to; __all__ is no use
    for path in set(glob.glob(os.path.join(package, "*.py"))) - {os.path.join(package, "__init__.py")}:
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = refs(node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defined[target.id] = refs(node.value)
    entry_points = [os.path.join(package, "cli.py"), os.path.join(package, "config.py")]
    entry_points += glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "bench", "*.py"))
    todo = set().union(*(refs(parse(path)) for path in entry_points))
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo |= defined.get(name, set()) - reached
    assert sorted(set(loopwalk.__all__) - reached) == sorted(UNREACHED_EXPORTS)


def test_cli_circle_smoke(tmp_path, capsys):
    cfg = {
        "kind": "circle",
        "num_sites": 8,
        "flavor": "hadamard_like",
        "initial": {"direction": "ccw", "polarization": "V", "position": 1},
        "steps": 6,
    }
    path = write_cfg(tmp_path, cfg)
    res = main_cli(capsys, "circle", "--config", path)
    assert res.returncode == 0, res.stderr
    assert "max off-graph intensity" in res.stderr
    header, rows = csv_rows(res.stdout)
    assert header == ["step", "node", "mode", "intensity"]
    nodes = {int(r[1]) for r in rows}
    assert nodes <= set(range(16))
    last = sum(float(r[3]) for r in rows if r[0] == "6")
    assert abs(last - 1.0) < 1e-10


def test_cli_figure_eight_smoke(tmp_path, capsys):
    path = write_cfg(tmp_path, {"kind": "figure_eight", "steps": 4})
    res = main_cli(capsys, "figure-eight", "--config", path)
    assert res.returncode == 0, res.stderr
    header, rows = csv_rows(res.stdout)
    assert header == ["step", "node", "mode", "intensity"]
    start = sum(float(r[3]) for r in rows if r[0] == "0")
    assert abs(start - 1.0) < 1e-10


def test_cli_revivals(tmp_path, capsys):
    cfg = {
        "kind": "circle",
        "num_sites": 4,
        "flavor": "hadamard_like",
        "initial": {"direction": "ccw", "polarization": "V", "position": 1},
        "steps": 8,
    }
    path = write_cfg(tmp_path, cfg)
    res = main_cli(capsys, "revivals", "--config", path)
    assert res.returncode == 0, res.stderr
    header, rows = csv_rows(res.stdout)
    assert header == ["step", "shift", "kind"]
    events = {(int(r[0]), int(r[1]), r[2]) for r in rows}
    assert (4, 2, "shifted") in events
    assert (8, 0, "perfect") in events


def test_cli_dispersion(tmp_path, capsys):
    path = write_cfg(tmp_path, {"kind": "dispersion", "coin": HADAMARD_COIN, "n_k": 256})
    res = main_cli(capsys, "dispersion", "--config", path)
    assert res.returncode == 0, res.stderr
    header, rows = csv_rows(res.stdout)
    assert header[0] == "section"
    sections = {r[0] for r in rows}
    assert {"band", "wavefront", "speed"} <= sections
    speeds = sorted(abs(float(r[6])) for r in rows if r[0] == "speed")
    assert len(speeds) == 2
    for s in speeds:
        assert abs(s - 1.0 / np.sqrt(2.0)) < 1e-6


def test_cli_dispersion_crossing_recipe(capsys):
    # the crossing_dispersion recipe of docs/RECIPES.md: four exact touches
    # and four avoided minima, nothing from the constant-gap branch pairs
    res = main_cli(capsys, "dispersion", "--config", os.path.join(CONFIG_DIR, "crossing_dispersion.yaml"))
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


def test_cli_decompose_pass(tmp_path, capsys):
    cfg = {"kind": "decompose", "target": matrix_block(oracles.BALANCED_FOUR_MODE_COIN)}
    path = write_cfg(tmp_path, cfg)
    res = main_cli(capsys, "decompose", "--config", path)
    assert res.returncode == 0, res.stderr
    header, rows = csv_rows(res.stdout)
    scalars = {r[1]: r[4] for r in rows if r[0] == "scalar"}
    assert float(scalars["one_trip_pass"]) == 1.0
    assert float(scalars["residual"]) < 1e-9
    assert float(scalars["residual_normalized"]) < 1e-8
    names = {r[1] for r in rows if r[0] == "matrix"}
    assert "trip1.arm_a" in names and "trip2_su2.loop_ccw" in names


def test_cli_decompose_grover_needs_two_trips(tmp_path, capsys):
    """Grover fails the one-trip test but still factors over two trips."""
    cfg = {"kind": "decompose", "target": matrix_block(oracles.GROVER_4)}
    path = write_cfg(tmp_path, cfg)
    res = main_cli(capsys, "decompose", "--config", path)
    assert res.returncode == 0, res.stderr
    _, rows = csv_rows(res.stdout)
    scalars = {r[1]: r[4] for r in rows if r[0] == "scalar"}
    assert float(scalars["one_trip_pass"]) == 0.0
    assert float(scalars["one_trip_rank_m1"]) == 2.0
    assert float(scalars["residual"]) < 1e-9


def test_cli_decompose_reject_exits_3(tmp_path, capsys):
    cfg = {
        "kind": "decompose",
        "target": matrix_block(oracles.GROVER_4),
        "rel_tol": 1.0e-18,
    }
    path = write_cfg(tmp_path, cfg)
    res = main_cli(capsys, "decompose", "--config", path)
    assert res.returncode == 3
    assert "certification failure" in res.stderr
    assert "residual" in res.stderr


def test_cli_errorbars_smoke(tmp_path, capsys):
    cfg = {
        "kind": "errorbars",
        "base": line_cfg(steps=3),
        "n_samples": 8,
        "seed": 11,
    }
    path = write_cfg(tmp_path, cfg)
    res = main_cli(capsys, "errorbars", "--config", path)
    assert res.returncode == 0, res.stderr
    header, rows = csv_rows(res.stdout)
    assert header == ["step", "position", "mode", "reference", "sigma"]
    totals = [r for r in rows if r[2] == "total"]
    assert totals
    for r in totals:
        assert float(r[4]) >= 0.0


@pytest.mark.parametrize(
    "args, message",
    [
        (["errorbars", "--config", os.path.join(CONFIG_DIR, "errorbars_circle8.yaml"), "--seed", "-1"],
         "--seed must be nonnegative"),
        # the allowed shortfall below a similarity of 1 must lie in [0, 1)
        (["revivals", "--config", os.path.join(CONFIG_DIR, "circle8.yaml"), "--tol", "-1"],
         "--tol must lie in [0, 1), got -1.0"),
        (["revivals", "--config", os.path.join(CONFIG_DIR, "circle8.yaml"), "--tol", "nan"],
         "--tol must lie in [0, 1), got nan"),
        (["revivals", "--config", os.path.join(CONFIG_DIR, "circle8.yaml"), "--tol", "inf"],
         "--tol must lie in [0, 1), got inf"),
        (["revivals", "--config", os.path.join(CONFIG_DIR, "circle8.yaml"), "--tol", "1"],
         "--tol must lie in [0, 1), got 1.0"),
        # the walk runs, then the output has nowhere to go
        (["simulate", "--config", os.path.join(CONFIG_DIR, "hadamard_line.yaml"), "--out", UNWRITABLE],
         f"cannot write --out {UNWRITABLE}: No such file or directory"),
    ],
    ids=["seed_negative", "tol_negative", "tol_nan", "tol_inf", "tol_one", "out_unwritable"],
)
def test_cli_bad_flag_exits_2_without_traceback(args, message):
    res = run_cli(*args)
    assert res.returncode == 2, res.stderr
    assert f"config error: {message}" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_cli_errorbars_negative_steps_exits_2(capsys):
    res = main_cli(capsys, "errorbars", "--config", os.path.join(CONFIG_DIR, "errorbars_circle8.yaml"), "--steps", "-1")
    assert res.returncode == 2
    assert "config error: --steps must be nonnegative" in res.stderr


def test_cli_off_graph_start_and_empty_support_exit_2(tmp_path, capsys):
    circle = {"kind": "circle", "num_sites": 8, "initial": {"position": 40}}
    res = main_cli(capsys, "circle", "--config", write_cfg(tmp_path, circle))
    assert res.returncode == 2
    assert "config error: circle.initial.position: 40 is not on the graph [0, 4]" in res.stderr
    eight = {"kind": "figure_eight", "initial": {"direction": "ccw", "polarization": "V", "position": -4}}
    res = main_cli(capsys, "revivals", "--config", write_cfg(tmp_path, eight))
    assert res.returncode == 2
    assert "config error: figure_eight.initial: the start at end -4 points off the graph" in res.stderr
    empty = {"kind": "errorbars", "base": {"kind": "circle", "num_sites": 8}, "support": [], "n_samples": 2}
    res = main_cli(capsys, "errorbars", "--config", write_cfg(tmp_path, empty))
    assert res.returncode == 2
    assert "config error: errorbars.support: expected a nonempty list of integers" in res.stderr
    assert res.stdout == ""


def test_cli_errorbars_zero_noise_zero_sigma(tmp_path, capsys):
    cfg = {
        "kind": "errorbars",
        "base": line_cfg(steps=3),
        "n_samples": 4,
        "angle_err_deg": 0.0,
        "eff_err": 0.0,
    }
    path = write_cfg(tmp_path, cfg)
    res = main_cli(capsys, "errorbars", "--config", path)
    assert res.returncode == 0, res.stderr
    _, rows = csv_rows(res.stdout)
    for r in rows:
        assert float(r[4]) == 0.0


def test_cli_errorbars_similarity_rows(tmp_path, capsys):
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
    res = main_cli(capsys, "errorbars", "--config", path, "--seed", "3")
    assert res.returncode == 0, res.stderr
    header, rows = csv_rows(res.stdout)
    assert header[1] == "node"
    kinds = {r[2] for r in rows}
    assert "similarity" in kinds and "similarity_sampled" in kinds


def test_shared_parser_carries_no_state_between_calls(tmp_path, capsys):
    with open(os.path.join(CONFIG_DIR, "errorbars_circle8.yaml"), encoding="utf-8") as fh:
        errorbars = yaml.safe_load(fh)
    errorbars["n_samples"] = 20
    errorbars_path = write_cfg(tmp_path, errorbars)
    line = os.path.join(CONFIG_DIR, "hadamard_line.yaml")
    runs = [
        ["simulate", "--config", line, "--trace", "sum_all"],
        ["simulate", "--config", line],
        ["errorbars", "--config", errorbars_path, "--seed", "5"],
        ["errorbars", "--config", errorbars_path],
    ]

    def outputs(fresh_parser):
        got = []
        for argv in runs:
            if fresh_parser:
                cli.build_parser.cache_clear()
            assert cli.main(argv) == 0, argv
            got.append(capsys.readouterr())
        return got

    shared = outputs(fresh_parser=False)
    assert shared == outputs(fresh_parser=True)
    assert shared[0] != shared[1] and shared[2] != shared[3]


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
        # no revival within zero steps: the header alone
        ["revivals", "--config", recipe("circle8"), "--steps", "0"],
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


def cells(values):
    """cli._column's cells as str."""
    return cli._column(values).astype(str).tolist()


def both_paths(values):
    """`values` as given and repeated past the size where _column formats
    floats with array arithmetic instead of "%"."""
    a = np.asarray(values)
    return [a, np.resize(a, cli._ARRAY_MIN + len(a))] if len(a) else [a]


def count_percent_calls(monkeypatch):
    """A list that collects how many floats each later call of cli._percent,
    the "%" path, formats."""
    counts, percent = [], cli._percent
    monkeypatch.setattr(cli, "_percent", lambda x: counts.append(len(x)) or percent(x))
    return counts


@settings(derandomize=True, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_column_formats_floats_round_trip(xs):
    xs = [*xs, 0.0, -0.0, 5e-324, -2.2250738585072e-308, float("nan"), float("inf"), float("-inf")]
    for a in both_paths(xs):
        assert cells(a) == [f"{float(x):.17g}" for x in a]


@settings(derandomize=True, deadline=None)
@given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=40))
def test_column_formats_int64_in_decimal(vs):
    info = np.iinfo(np.int64)
    a = np.array([*vs, info.min, info.max, -1, 0], dtype=np.int64)
    assert cells(a) == [str(int(v)) for v in a]


@settings(derandomize=True, deadline=None)
@given(st.lists(st.integers(min_value=-300, max_value=300), min_size=1, max_size=80), st.integers(-(2**62), 2**62))
def test_column_formats_narrow_integer_ranges_in_decimal(vs, base):
    # columns whose range is a few times their length go through a table of the range
    for dtype in (np.int64, np.int32, np.int16):
        a = np.array(vs, dtype=dtype)
        assert cells(a) == [str(v) for v in vs]
    a = np.array(vs, dtype=np.int64) // 3  # -100 .. 100, a range that overflows int8
    assert cells(a.astype(np.int8)) == [str(v) for v in a.tolist()]
    a = np.array(vs, dtype=np.int64) + base
    assert cells(a) == [str(v) for v in a.tolist()]
    a = np.array(vs, dtype=np.int64) - min(vs)
    assert cells(a.astype(np.uint64)) == [str(v) for v in a.tolist()]


# bit patterns of 0.0, -0.0, NaNs of either sign with different payloads,
# +-inf, the smallest and largest subnormals and two normal numbers
FLOAT_BITS = np.array(
    [0, 1 << 63, 0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0xFFF4000000000000,
     0x7FF0000000000000, 0xFFF0000000000000, 1, (1 << 63) | 1, 0x000FFFFFFFFFFFFF, 0x3FF0000000000000,
     0x3FB999999999999A],
    dtype=np.uint64,
)
INT64_POOL = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 1]
UINT64_POOL = [0, 1, 2**63, 2**64 - 1]


@settings(derandomize=True, deadline=None)
@given(
    st.lists(st.integers(0, len(FLOAT_BITS) - 1), max_size=60),
    st.lists(st.sampled_from(INT64_POOL), max_size=60),
    st.lists(st.sampled_from(UINT64_POOL), max_size=60),
)
def test_column_of_repeated_values_formats_each_cell_alike(picks, ints, uints):
    for floats in both_paths(FLOAT_BITS[np.array(picks, dtype=np.intp)].view(np.float64)):
        assert cells(floats) == [f"{x:.17g}" for x in floats.tolist()]
    for values, dtype in ((ints, np.int64), (uints, np.uint64)):
        a = np.array(values, dtype=dtype)
        assert cells(a) == [str(v) for v in a.tolist()]


def test_column_empty_and_none_cells():
    assert cells([]) == []
    assert cells(np.array([], dtype=np.int64)) == []
    assert cells([None, None]) == ["", ""]
    assert cells([None, 0.5, -0.0, None, 0.5, 0.0]) == ["", "0.5", "-0", "", "0.5", "0"]
    assert cells([None, 0.5, -0.0, None, 0.5, 0.0] * 70) == ["", "0.5", "-0", "", "0.5", "0"] * 70  # 280 floats


# doubles whose product |x| * 10**(16 - e), taken in x87 extended precision,
# lies nearer a half-integer than its own rounding error: rounded from that
# product, each prints with its last digit off by one
NEAR_HALF = [float.fromhex(h) for h in (
    "-0x1.c75287e8d49e3p-420", "0x1.9f630a886a2e0p+848", "0x1.9781a0da9c267p-988",
    "0x1.780bb0c9991a1p+197", "-0x1.d673604fdebccp+476", "-0x1.c36ca86098f5cp+354",
    "0x1.584e1bf27aa28p+933", "0x1.e0c51ebf9ca16p+362", "-0x1.2753826f459e3p-983",
    "-0x1.b60dca5ccb98bp+693", "-0x1.523d8fbe9d2c9p+876", "-0x1.3b349cd02025ep-225",
    "-0x1.a6a3cb5a73232p+158", "-0x1.813bb8a117381p+712", "-0x1.852f3d96c5822p-807",
    "-0x1.9a48f6d8fa9ebp+364", "-0x1.8c190cce21d4ap+158", "-0x1.5bc3d258b46e0p-702",
    "0x1.7609b6a7a43e7p-938", "0x1.d0e10a00be006p-204", "-0x1.4acd594268228p+711",
    "-0x1.5817472709af0p-805", "0x1.ec42888c7680fp-709", "0x1.32f2e7f916906p+145",
    "0x1.6d1b580b3bad6p+859", "-0x1.ce802133c64bfp-234", "-0x1.6f46f12eb6131p-915",
    "0x1.4a9530e2f356ep-561", "-0x1.bf5b96cf7aeffp-709", "-0x1.19e6d6da12f59p+993",
    "0x1.6121fa07e053ep+691", "0x1.d706935c32e61p-206", "-0x1.9bd8c3266b0c7p+919",
    "-0x1.aa61d78293991p-380", "0x1.c16d81821a25dp+570", "0x1.88eb77cecea9ep+145",
    "0x1.41858505b7a13p-987", "0x1.a057088f2ab91p-174", "0x1.21d89cef5a5c0p+694",
    "0x1.5b5b960ba1668p+570", "0x1.5144885f5a078p-586", "0x1.32bca679fbcbbp+199",
    "0x1.963174beae2f6p+143", "0x1.b47168bd32bb3p+178", "0x1.3d085bd1cedc1p+132",
    "0x1.76247388d41e3p-224", "0x1.b6f5927035a9ap+198", "0x1.3efa8889b9bcep-466",
)]


def exact_ties(rng, per_scale):
    """Doubles m * 2**-s with m odd whose decimal expansion m * 5**s / 10**s
    has 18 significant digits, the last a 5: exact ties at 17 digits."""
    ties = []
    for s in range(2, 70):
        lo, hi = -(-(10**17) // 5**s), min(10**18 // 5**s, 2**53)
        if lo < hi:
            ties.append(np.ldexp((rng.integers(lo, hi, per_scale) | 1).astype(np.float64), -s))
    return np.concatenate(ties)


@functools.cache
def adversarial_floats():
    rng = np.random.default_rng(17)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)]).view(np.int64)
    return {
        "bit_patterns": rng.integers(0, 2**64, 40_000, dtype=np.uint64, endpoint=False).view(np.float64),
        "subnormals": rng.integers(1, 2**52, 10_000, dtype=np.uint64).view(np.float64),
        "exact_ties": exact_ties(rng, 100),
        "power_of_ten_neighbours": (powers[:, None] + np.arange(-5, 6)).ravel().view(np.float64),
        "integers": rng.integers(0, 10**17, 20_000).astype(np.float64),
        "uniform": rng.uniform(size=20_000),
        "scaled": rng.uniform(size=20_000) * 10.0 ** rng.integers(-300, 300, 20_000),
        "near_half": np.array(NEAR_HALF),
        "specials": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, 1e16, 1e17, 1e-305, 1e-176]),
    }


@pytest.mark.parametrize("name", list(adversarial_floats()))
def test_float_cells_match_percent_on_adversarial_sets(name):
    x = adversarial_floats()[name]
    x = np.resize(np.concatenate([x, -x]), max(2 * len(x), cli._ARRAY_MIN))
    assert cells(x) == ["%.17g" % v for v in x.tolist()]


@settings(derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.integers(10**16, 10**17 - 1), st.integers(-340, 290), st.integers(-2, 2)), min_size=1))
def test_float_cells_match_percent_next_to_decimal_midpoints(draws):
    # the doubles nearest the midpoint between two 17-digit decimals, and
    # their neighbours up to two steps away
    midpoints = np.array([float(f"{digits}5e{exponent}") for digits, exponent, _ in draws])
    x = (midpoints.view(np.int64) + [step for *_, step in draws]).view(np.float64)
    x = np.resize(x, cli._ARRAY_MIN + len(x))
    assert cells(x) == ["%.17g" % v for v in x.tolist()]


def test_float_cells_match_percent_on_near_half_products(monkeypatch):
    # products that x87 extended precision could not round by itself: the
    # double-double pair decides each without "%"
    counts = count_percent_calls(monkeypatch)
    x = np.resize(np.array(NEAR_HALF), cli._ARRAY_MIN)
    assert cells(x) == ["%.17g" % v for v in x.tolist()]
    assert sum(counts) == 0


def percent_inputs(monkeypatch):
    """A list that collects the floats each later call of cli._percent formats."""
    inputs, percent = [], cli._percent
    monkeypatch.setattr(cli, "_percent", lambda x: inputs.extend(x.tolist()) or percent(x))
    return inputs


def test_float_cells_send_only_ties_and_round_ups_through_percent(monkeypatch):
    # a finite cell goes through "%" only when |x| * 10**(16 - e) is exactly
    # a half-integer, or when its digits are 1 and zeros: the product rounds
    # up to 1e17, or to 1e16, where the pair's error may cross 1e16
    inputs = percent_inputs(monkeypatch)
    x = np.concatenate(list(adversarial_floats().values()))
    x = np.concatenate([x, -x])
    assert cells(x) == ["%.17g" % v for v in x.tolist()]
    ties = 0
    for v in inputs:
        if not math.isfinite(v) or v == 0:
            continue
        e = math.floor(math.log10(abs(v)))
        product = Fraction(abs(v)) * Fraction(10) ** (16 - e)
        e += (product >= 10**17) - (product < 10**16)  # log10 can be one off
        product = Fraction(abs(v)) * Fraction(10) ** (16 - e)
        assert 10**16 <= product < 10**17, v
        assert product.denominator == 2 or round(product) in (10**16, 10**17), v
        ties += product.denominator == 2
    assert ties >= 2 * len(adversarial_floats()["exact_ties"])


def test_float_cells_do_not_depend_on_longdouble(monkeypatch):
    # cells and "%" counts as they are, also where longdouble is plain double
    x = np.concatenate(list(adversarial_floats().values()))
    counts = count_percent_calls(monkeypatch)
    want = cells(x)
    want_counts = list(counts)
    monkeypatch.setattr(np, "longdouble", np.float64)
    cli._tables.cache_clear()
    try:
        counts.clear()
        assert cells(x) == want
        assert counts == want_counts
    finally:
        cli._tables.cache_clear()


def test_float_cells_match_percent_on_600k_values():
    # random bit patterns of both signs, 40 doubles either side of every
    # power of ten, subnormals of both signs, and 1e-06, whose product
    # 9.99999999999999954e15 adds up to 1e16 in a double
    rng = np.random.default_rng(25)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)]).view(np.int64)
    near = (powers[:, None] + np.arange(-40, 41)).ravel().view(np.float64)
    subnormals = rng.integers(1, 2**52, 50_000, dtype=np.uint64) | (rng.integers(0, 2, 50_000, dtype=np.uint64) << 63)
    x = np.concatenate([
        rng.integers(0, 2**64, 450_000, dtype=np.uint64).view(np.float64),
        near,
        -near,
        subnormals.view(np.float64),
        [1e-06, -1e-06],
    ])
    assert cells(x) == ["%.17g" % v for v in x.tolist()]


def test_float_cells_send_few_uniform_values_through_percent(monkeypatch):
    # a guard that sent every cell to "%" would keep the bytes and lose the speed
    counts = count_percent_calls(monkeypatch)
    x = np.random.default_rng(5).uniform(size=10_000)
    assert cells(x) == ["%.17g" % v for v in x.tolist()]
    assert sum(counts) == 0


@settings(derandomize=True, deadline=None)
@given(
    st.lists(st.one_of(st.floats(), st.sampled_from([1.0, 5.0, -1.0])), min_size=1, max_size=40),
    st.integers(0, 60),
    st.sampled_from(["none", "some", "all_but_one", "all"]),
    st.data(),
)
def test_float_cells_of_columns_with_zeros(values, extra, zeros, data):
    # +0.0 and -0.0 at drawn positions of a column long enough for array
    # formatting: the cells, their width and the floats sent through "%"
    # are those of the same column without its zeros
    x = np.resize(np.array(values), cli._ARRAY_MIN + extra)
    n = len(x)
    at = {
        "none": [],
        "some": data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True)),
        "all_but_one": np.delete(np.arange(n), data.draw(st.integers(0, n - 1))),
        "all": np.arange(n),
    }[zeros]
    x[at] = np.where(data.draw(st.lists(st.booleans(), min_size=len(at), max_size=len(at))), -0.0, 0.0)
    want = ["%.17g" % v for v in x.tolist()]
    with pytest.MonkeyPatch.context() as patch:
        inputs = percent_inputs(patch)
        got = cli._column(x)
        sent, inputs[:] = list(inputs), []
        if (x != 0).any():
            cli._float_cells(x[x != 0])
    assert got.astype(str).tolist() == want
    assert got.itemsize == max(map(len, want))
    bits = lambda vs: np.array(vs, dtype=float).view(np.int64).tolist()
    assert bits(sent) == bits(inputs)
    table = lambda cells: cli._render(["value"], [cells], "table")
    assert table(got) == table(np.array(want, dtype="S"))


def test_float_cells_reach_every_layout_a_double_prints():
    # decimals of 1 to 17 significant digits, both signs, at every decimal
    # exponent of a double; the layouts of their "%" text (notation, digit
    # count, sign) reach every fixed-notation exponent (-4 to 16), both
    # exponent widths of scientific notation, both signs and every digit
    # count, and a column of one layout's floats is as wide as its cells
    rng = np.random.default_rng(31)
    texts = []
    for exponent in range(-323, 309):
        for n in range(1, 18):  # a first digit (1 at 1e308, below the largest double), then n - 1 ending in nonzero
            rest = [*rng.integers(0, 10, max(n - 2, 0)), rng.integers(1, 10)][: n - 1]
            texts.append(f"{rng.integers(1, 2 if exponent == 308 else 10)}.{''.join(map(str, rest))}e{exponent}")
    x = np.array([float(t) for t in texts])
    x = np.concatenate([x, -x])
    want = ["%.17g" % v for v in x.tolist()]
    assert cells(x) == want
    layouts = {}
    for i, text in enumerate(want):
        mantissa, _, power = text.lstrip("-").partition("e")
        if power:  # "e+05" or "e-308": the exponent's width
            notation = f"e{len(power) - 1}"
        elif mantissa.startswith("0."):  # "0.000123": exponent -4
            notation = -(len(mantissa) - len(mantissa[2:].lstrip("0")) - 1)
        else:
            notation = len(mantissa.partition(".")[0]) - 1
        layouts.setdefault((notation, len(mantissa.replace(".", "").strip("0")), text.startswith("-")), []).append(i)
    notations, counts, signs = map(set, zip(*layouts))
    assert notations == {*range(-4, 17), "e2", "e3"}
    assert counts == set(range(1, 18))
    assert signs == {False, True}
    for rows in layouts.values():
        column = cli._column(np.resize(x[rows], max(len(rows), cli._ARRAY_MIN)))
        assert set(column.tolist()) == {want[i].encode() for i in rows}
        assert column.itemsize == len(want[rows[0]])


def test_float_cells_of_zeros_and_one_short_cell():
    # "-0" widens a column whose other cells are one character wide; "0" does not
    for zero, width in ((0.0, 1), (-0.0, 2)):
        x = np.full(cli._ARRAY_MIN, zero)
        x[7] = 5.0
        assert cli._column(x).itemsize == width
        assert cells(x) == ["%.17g" % v for v in x.tolist()]


def test_powers_of_ten_are_correctly_rounded():
    # 10**(16 - e) = 2**k (hi + lo): hi and lo each correctly rounded, hi in
    # (1/4, 1] split into two halves of at most 26 bits
    (powers, exponents), *_ = cli._tables()
    for e, hi_1, hi_2, hi, lo, k in zip(range(-330, 331), *powers, exponents.tolist()):
        exact = Fraction(10) ** (16 - e) / Fraction(2) ** k
        assert Fraction(1, 4) < exact < 1, e
        assert abs(Fraction(hi) - exact) <= Fraction(np.spacing(hi)) / 2, e
        assert abs(Fraction(lo) - (exact - Fraction(hi))) <= Fraction(np.spacing(abs(lo))) / 2, e
        assert hi_1 + hi_2 == hi and Fraction(hi_1) + Fraction(hi_2) == Fraction(hi), e
        assert all(Fraction(abs(h)).numerator.bit_length() <= 26 for h in (hi_1, hi_2)), e


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


_FUZZ_BASES = config_fuzz.bases()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_one_leaf_config_mutations_end_as_config_runs_should(data):
    # a sample of config_fuzz's sweep: one leaf of a recipe (or of a raw-matrix
    # copy of a line or dispersion recipe) changed, deleted or joined by an
    # unknown key exits 0, 2 or 3 without a warning or a traceback, prints no
    # nan on success and one stderr line alone on failure
    name, command, base = data.draw(st.sampled_from(_FUZZ_BASES))
    path, change = data.draw(st.sampled_from(config_fuzz.cases(base)))
    with tempfile.TemporaryDirectory() as workdir:
        outcome = config_fuzz.run(command, config_fuzz.mutate(base, path, change), workdir)
    assert config_fuzz.problems(change, *outcome) == [], (name, path, change)
