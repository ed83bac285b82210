"""Parsing and validation of run configuration files.

Configs are YAML mappings with a `kind` discriminator.  Validation is
strict: unknown keys anywhere are rejected, matrices must come as separate
real/imaginary row arrays of the right shape, and matrices promised
unitary are certified at parse time.  Integers that become positions or
array sizes lie within 2**62 of zero, so a position plus any step count
that can be allocated stays an int64.  All validation failures raise
ConfigError (the CLI maps these to exit code 2).

The graph kinds are the rows of GRAPHS: each is a chain of rings
(graph_programs.ring_chain) whose stops its row makes from the kind's
integer keys.  KINDS and the parsers are built from that table.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np
import yaml

from .graph_programs import FLAVORS, SiteMap, ring_chain
from .linalg_core import DEFAULT_UNITARY_TOL, unitarity_defect
from .optics import ArmSetting, OpticalElement
from .walk_engine import CCH, CCV, CH, CV, CoinProgram, ElementCoin, InitialState, RawCoin, make_initial

# libyaml's safe loader when PyYAML was built with it; it shares
# yaml.SafeLoader's constructor and resolver, so it returns the same objects
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Invalid or ill-formed run configuration."""


def _mapping(obj, ctx: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx}: expected a mapping, got {type(obj).__name__}")
    return dict(obj)


def _reject_unknown(d: dict, ctx: str):
    if d:
        raise ConfigError(f"{ctx}: unknown keys {sorted(d, key=str)}")


def _take(d: dict, key: str, ctx: str, required: bool = False, default=None):
    if key in d:
        return d.pop(key)
    if required:
        raise ConfigError(f"{ctx}: missing required key {key!r}")
    return default


def _number(v, ctx: str) -> float:
    # abs(v) <= max is False for NaN, infinities and ints too large for a float
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{ctx}: expected a finite number, got {v!r}")
    return float(v)


def _tolerance(v, ctx: str) -> float:
    x = _number(v, ctx)
    if x < 0.0:
        raise ConfigError(f"{ctx}: must be nonnegative, got {x!r}")
    return x


def _integer(v, ctx: str, bounded: bool = True) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{ctx}: expected an integer, got {v!r}")
    if bounded and abs(v) > 2**62:
        raise ConfigError(f"{ctx}: must lie within 2**62 of zero, got {v!r}")
    return v


def parse_matrix(obj, ctx: str, shape: tuple) -> np.ndarray:
    """Complex matrix from {re: rows, im: rows}, certified unitary."""
    d = _mapping(obj, ctx)
    re = _take(d, "re", ctx, required=True)
    im = _take(d, "im", ctx, required=True)
    _reject_unknown(d, ctx)
    try:
        re_arr = np.array(re, dtype=float)
        im_arr = np.array(im, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{ctx}: matrix entries must be numbers ({exc})") from exc
    if re_arr.shape != shape or im_arr.shape != shape:
        raise ConfigError(
            f"{ctx}: expected re/im arrays of shape {shape}, got {re_arr.shape} and {im_arr.shape}"
        )
    if not np.all(np.hypot(re_arr, im_arr) <= 1.0 + DEFAULT_UNITARY_TOL):  # checked before any arithmetic; NaN fails too
        raise ConfigError(f"{ctx}: matrix is not unitary (an entry is not finite or has modulus above 1)")
    m = re_arr + 1j * im_arr
    defect = unitarity_defect(m)
    if not defect <= DEFAULT_UNITARY_TOL:  # a NaN defect fails too
        raise ConfigError(f"{ctx}: matrix is not unitary (defect {defect:.3e})")
    return m


def _parse_element(obj, ctx: str) -> OpticalElement:
    d = _mapping(obj, ctx)
    kind = _take(d, "kind", ctx, required=True)
    angle = _take(d, "angle_deg", ctx, required=True)
    _reject_unknown(d, ctx)
    if kind not in ("qwp", "hwp", "eom"):
        raise ConfigError(f"{ctx}: unknown element kind {kind!r}")
    return OpticalElement(kind, _number(angle, f"{ctx}.angle_deg"))


def _parse_arm(obj, ctx: str) -> ArmSetting:
    d = _mapping(obj, ctx)
    wps = _take(d, "waveplates", ctx, default=[])
    eom = _take(d, "eom_phase_deg", ctx, default=0.0)
    _reject_unknown(d, ctx)
    if not isinstance(wps, list):
        raise ConfigError(f"{ctx}.waveplates: expected a list")
    elements = tuple(_parse_element(w, f"{ctx}.waveplates[{i}]") for i, w in enumerate(wps))
    for el in elements:
        if el.kind == "eom":
            raise ConfigError(f"{ctx}: modulators go in eom_phase_deg, not waveplates")
    return ArmSetting(elements, _number(eom, f"{ctx}.eom_phase_deg"))


def parse_coin(obj, ctx: str):
    """Coin spec: either element-level or a raw unitary matrix."""
    d = _mapping(obj, ctx)
    elements = _take(d, "elements", ctx)
    matrix = _take(d, "matrix", ctx)
    _reject_unknown(d, ctx)
    if (elements is None) == (matrix is None):
        raise ConfigError(f"{ctx}: give exactly one of 'elements' or 'matrix'")
    if matrix is not None:
        return RawCoin(parse_matrix(matrix, f"{ctx}.matrix", (4, 4)))
    e = _mapping(elements, f"{ctx}.elements")
    arm_a = _parse_arm(_take(e, "arm_a", f"{ctx}.elements", required=True), f"{ctx}.elements.arm_a")
    arm_b = _parse_arm(_take(e, "arm_b", f"{ctx}.elements", required=True), f"{ctx}.elements.arm_b")
    loop = _take(e, "loop", f"{ctx}.elements", default=[])
    eom_first = _take(e, "eom_first", f"{ctx}.elements", default=False)
    _reject_unknown(e, f"{ctx}.elements")
    if not isinstance(loop, list):
        raise ConfigError(f"{ctx}.elements.loop: expected a list")
    if not isinstance(eom_first, bool):
        raise ConfigError(f"{ctx}.elements.eom_first: expected a boolean")
    loop_elements = tuple(
        _parse_element(el, f"{ctx}.elements.loop[{i}]") for i, el in enumerate(loop)
    )
    return ElementCoin(arm_a, arm_b, loop_elements, eom_first)


def _parse_initial(obj, ctx: str) -> InitialState:
    if obj is None:
        return make_initial("ccw", "H", 0)
    d = _mapping(obj, ctx)
    direction = _take(d, "direction", ctx, default="ccw")
    polarization = _take(d, "polarization", ctx, default="H")
    position = _take(d, "position", ctx, default=0)
    _reject_unknown(d, ctx)
    for key, value in (("direction", direction), ("polarization", polarization)):
        if not isinstance(value, str):
            raise ConfigError(f"{ctx}.{key}: expected a string, got {value!r}")
    position = _integer(position, f"{ctx}.position")
    try:
        return make_initial(direction, polarization, position)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


@dataclass
class RunConfig:
    """Parsed configuration; the payload fields depend on kind."""

    kind: str
    program: Optional[CoinProgram] = None
    initial: Optional[InitialState] = None
    steps: int = 0
    site_map: Optional[SiteMap] = None
    coin_matrix: Optional[np.ndarray] = None
    n_k: int = 1024
    merge_tol: float = 1e-4
    gap_tol: float = 1e-9
    target: Optional[np.ndarray] = None
    rel_tol: float = 1e-9
    base: Optional["RunConfig"] = None
    n_samples: int = 1000
    angle_err_deg: float = 1.0
    eff_err: float = 0.025
    seed: int = 0
    distribution: str = "uniform"
    renormalize: bool = True
    support: Optional[list] = None


def _parse_line(d: dict) -> RunConfig:
    coin = parse_coin(_take(d, "coin", "line", required=True), "line.coin")
    initial = _parse_initial(_take(d, "initial", "line"), "line.initial")
    steps = _integer(_take(d, "steps", "line", default=25), "line.steps")
    _reject_unknown(d, "line")
    if steps < 0:
        raise ConfigError("line.steps: must be nonnegative")
    return RunConfig(kind="line", program=CoinProgram(default=coin), initial=initial, steps=steps)


def _circle_stops(num_sites: int, left_end: int) -> tuple:
    if num_sites < 4 or num_sites % 2 != 0:
        raise ConfigError(f"circle: num_sites must be even and at least 4, got {num_sites}")
    return (left_end, left_end + num_sites // 2)


def _figure_eight_stops(left_end: int, center: int, right_end: int) -> tuple:
    if not left_end < center < right_end:
        raise ConfigError(f"figure_eight: need left_end < center < right_end, got {left_end}, {center}, {right_end}")
    return (left_end, center, right_end)


# per graph kind: the function turning its integer keys into the stops of its
# ring chain, those keys with their defaults (None: required), default flavor
# and default step count
GRAPHS = {
    "circle": (_circle_stops, {"num_sites": None, "left_end": 0}, "hadamard_like", 25),
    "figure_eight": (_figure_eight_stops, {"left_end": -4, "center": 0, "right_end": 4}, "non_mixing", 32),
}


def _parse_graph(d: dict, kind: str) -> RunConfig:
    make_stops, keys, default_flavor, default_steps = GRAPHS[kind]
    flavor = _take(d, "flavor", kind, default=default_flavor)
    ints = {
        key: _integer(_take(d, key, kind, required=default is None, default=default), f"{kind}.{key}")
        for key, default in keys.items()
    }
    initial = _parse_initial(_take(d, "initial", kind), f"{kind}.initial")
    steps = _integer(_take(d, "steps", kind, default=default_steps), f"{kind}.steps")
    _reject_unknown(d, kind)
    if steps < 0:
        raise ConfigError(f"{kind}.steps: must be nonnegative")
    if flavor not in FLAVORS:
        raise ConfigError(f"{kind}.flavor: unknown flavor {flavor!r}")
    stops = make_stops(**ints)
    ((x, amp),) = initial.items()
    left, right = stops[0], stops[-1]
    if not left <= x <= right:
        raise ConfigError(f"{kind}.initial.position: {x} is not on the graph [{left}, {right}]")
    # at an end only the modes the shift carries back onto the graph may start
    if (x == left and (amp[CH] or amp[CCV])) or (x == right and (amp[CV] or amp[CCH])):
        raise ConfigError(f"{kind}.initial: the start at end {x} points off the graph")
    program, site_map = ring_chain(stops, flavor)
    return RunConfig(kind=kind, program=program, initial=initial, steps=steps, site_map=site_map)


def _parse_dispersion(d: dict) -> RunConfig:
    coin_spec = parse_coin(_take(d, "coin", "dispersion", required=True), "dispersion.coin")
    n_k = _integer(_take(d, "n_k", "dispersion", default=1024), "dispersion.n_k")
    merge_tol = _tolerance(_take(d, "merge_tol", "dispersion", default=1e-4), "dispersion.merge_tol")
    gap_tol = _tolerance(_take(d, "gap_tol", "dispersion", default=1e-9), "dispersion.gap_tol")
    _reject_unknown(d, "dispersion")
    if n_k < 64:
        raise ConfigError("dispersion.n_k: must be at least 64")
    matrix = coin_spec.matrix()
    defect = unitarity_defect(matrix)
    if not defect <= DEFAULT_UNITARY_TOL:
        raise ConfigError(f"dispersion.coin: composed coin is not unitary (defect {defect:.3e})")
    return RunConfig(kind="dispersion", coin_matrix=matrix, n_k=n_k, merge_tol=merge_tol, gap_tol=gap_tol)


def _parse_decompose(d: dict) -> RunConfig:
    target = parse_matrix(_take(d, "target", "decompose", required=True), "decompose.target", (4, 4))
    rel_tol = _tolerance(_take(d, "rel_tol", "decompose", default=1e-9), "decompose.rel_tol")
    _reject_unknown(d, "decompose")
    return RunConfig(kind="decompose", target=target, rel_tol=rel_tol)


def _parse_errorbars(d: dict) -> RunConfig:
    base_obj = _mapping(_take(d, "base", "errorbars", required=True), "errorbars.base")
    base = parse_config_dict(base_obj, ctx="errorbars.base")
    if base.kind not in ("line", *GRAPHS):
        raise ConfigError(f"errorbars.base: kind {base.kind!r} cannot be sampled")
    n_samples = _integer(_take(d, "n_samples", "errorbars", default=1000), "errorbars.n_samples")
    angle_err = _number(_take(d, "angle_err_deg", "errorbars", default=1.0), "errorbars.angle_err_deg")
    eff_err = _number(_take(d, "eff_err", "errorbars", default=0.025), "errorbars.eff_err")
    seed = _integer(_take(d, "seed", "errorbars", default=0), "errorbars.seed", bounded=False)
    distribution = _take(d, "distribution", "errorbars", default="uniform")
    renormalize = _take(d, "renormalize", "errorbars", default=True)
    support = _take(d, "support", "errorbars")
    _reject_unknown(d, "errorbars")
    if n_samples < 1:
        raise ConfigError("errorbars.n_samples: must be positive")
    if seed < 0:
        raise ConfigError(f"errorbars.seed: must be nonnegative, got {seed!r}")
    if distribution not in ("uniform", "truncated_normal"):
        raise ConfigError(f"errorbars.distribution: unknown {distribution!r}")
    if not isinstance(renormalize, bool):
        raise ConfigError("errorbars.renormalize: expected a boolean")
    if angle_err < 0.0 or eff_err < 0.0:
        raise ConfigError("errorbars: error ranges must be nonnegative")
    if eff_err >= 1.0:  # efficiencies are drawn from [1 - eff_err, 1 + eff_err]
        raise ConfigError(f"errorbars.eff_err: must be below 1, got {eff_err!r}")
    if angle_err > 180.0:  # a wider jitter only repeats angles, and a huge one overflows the draws' span
        raise ConfigError(f"errorbars.angle_err_deg: must be at most 180 degrees, got {angle_err!r}")
    if support is not None:
        if not isinstance(support, list) or not support or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in support
        ):
            raise ConfigError("errorbars.support: expected a nonempty list of integers")
        if base.site_map is None:
            raise ConfigError(f"errorbars.support: only meaningful for {'/'.join(GRAPHS)} bases")
        for i, node in enumerate(support):
            if not 0 <= node < base.site_map.num_nodes:
                raise ConfigError(f"errorbars.support: node {node} is not in [0, {base.site_map.num_nodes})")
            if node in support[:i]:
                raise ConfigError(f"errorbars.support: node {node} is listed twice")
    if angle_err > 0.0 and not base.program.has_elements:
        raise ConfigError("errorbars: base coin has no element angles to perturb")
    return RunConfig(
        kind="errorbars",
        base=base,
        n_samples=n_samples,
        angle_err_deg=angle_err,
        eff_err=eff_err,
        seed=seed,
        distribution=distribution,
        renormalize=renormalize,
        support=support,
    )


_PARSERS = {
    "line": _parse_line,
    **{kind: functools.partial(_parse_graph, kind=kind) for kind in GRAPHS},
    "dispersion": _parse_dispersion,
    "decompose": _parse_decompose,
    "errorbars": _parse_errorbars,
}
KINDS = tuple(_PARSERS)


def parse_config_dict(obj, ctx: str = "config") -> RunConfig:
    d = _mapping(obj, ctx)
    kind = _take(d, "kind", ctx, required=True)
    if kind not in KINDS:
        raise ConfigError(f"{ctx}.kind: unknown kind {kind!r}; expected one of {KINDS}")
    return _PARSERS[kind](d)


def parse_config(path: str) -> RunConfig:
    """Load and validate a YAML configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_YAML_LOADER)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if data is None:
        raise ConfigError(f"config file {path} is empty")
    return parse_config_dict(data)
