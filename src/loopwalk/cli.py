"""Command line front end.

Every subcommand reads a YAML config (--config), runs the requested
computation, and writes either CSV or an aligned text table to stdout or
--out, rendered by columns (floats as %.17g).  Exit codes: 0 on success,
2 for configuration problems (including payload matrices that fail their
unitarity certificate), 3 when a numerical certification fails at run
time (decomposition residual above tolerance, intensity leaking off a
closed graph).
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain

import numpy as np

from .analysis import WalkSetup, find_revivals, monte_carlo_error_bars
from .coin_synthesis import factor_universal, one_trip_test, su2_normalize
from .config import ConfigError, RunConfig, parse_config
from .dispersion import band_structure, classify_crossings, group_velocities, wavefront_speeds
from .graph_programs import map_sites
from .walk_engine import MODE_NAMES, TRACE_LABELS, evolve, trace_intensities

GRAPH_LEAK_TOL = 1e-9


class CertificationError(RuntimeError):
    """A run-time numerical certificate failed."""


def _column(values) -> list:
    """One output column as strings: integers in decimal, floats as %.17g,
    and in a sequence holding None, an empty cell for each None."""
    a = np.asarray(values)
    if a.dtype == object:
        cells = iter(_column([v for v in values if v is not None]))
        return ["" if v is None else next(cells) for v in values]
    return list(map(str if a.dtype.kind in "iu" else "%.17g".__mod__, a.tolist()))


def _blocks(header: list, *blocks) -> list:
    """Columns under `header` of row blocks stacked in order.  A block maps
    column names to string lists and always holds the first column; any
    other column it lacks is empty in its rows."""
    return [list(chain.from_iterable(b.get(h, [""] * len(b[header[0]])) for b in blocks)) for h in header]


def _render(header: list, columns: list, fmt: str) -> str:
    """CSV or aligned text of equal-length string columns under `header`."""
    if fmt == "csv":
        return "\n".join(map(",".join, chain([header], zip(*columns)))) + "\n"
    widths = [max(map(len, [h, *col])) for h, col in zip(header, columns)]
    line = "  ".join(f"{{:<{w}}}" for w in widths).format
    rows = chain([header, ["-" * w for w in widths]], zip(*columns))
    return "\n".join(line(*row).rstrip() for row in rows) + "\n"


def _site_columns(step_index: np.ndarray, site: np.ndarray, labels) -> list:
    """step, site and label columns: one row per label at each reached site."""
    n = len(labels)
    return [_column(np.repeat(step_index, n)), _column(np.repeat(site, n)), list(labels) * len(step_index)]


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _steps(cfg: RunConfig, args) -> int:
    if args.steps is not None:
        if args.steps < 0:
            raise ConfigError("--steps must be nonnegative")
        return args.steps
    return cfg.steps


def _require_kind(cfg: RunConfig, allowed, command: str):
    if cfg.kind not in allowed:
        raise ConfigError(
            f"{command}: config kind {cfg.kind!r} not usable here; expected one of {sorted(allowed)}"
        )


_TRACE_THIRD_COLUMN = {
    "full": "mode",
    "sum_polarization": "subspace",
    "sum_direction": "polarization",
}


def _cmd_simulate(cfg: RunConfig, args) -> str:
    _require_kind(cfg, {"line"}, "simulate")
    steps = _steps(cfg, args)
    record = evolve(cfg.initial, cfg.program, steps)
    traced = trace_intensities(record, mode=args.trace)
    step_index, site = np.nonzero(record.reached)
    values = _column(traced[step_index, site].ravel())
    if args.trace == "sum_all":
        header = ["step", "position", "intensity"]
        columns = [_column(step_index), _column(record.offset + site), values]
    else:
        header = ["step", "position", _TRACE_THIRD_COLUMN[args.trace], "intensity"]
        columns = [*_site_columns(step_index, record.offset + site, TRACE_LABELS[args.trace]), values]
    return _render(header, columns, args.format)


def _mapped_record(site_map, record):
    """record mapped onto the graph; raises CertificationError on leakage."""
    mapped = map_sites(site_map, record, leak_tol=GRAPH_LEAK_TOL)
    if mapped.flagged:
        raise CertificationError(
            f"walker left the graph: max leakage {mapped.max_leakage:.3e} "
            f"exceeds {GRAPH_LEAK_TOL:.1e}"
        )
    return mapped


def _cmd_graph(cfg: RunConfig, args, command: str) -> str:
    kind = {"circle": "circle", "figure-eight": "figure_eight"}[command]
    _require_kind(cfg, {kind}, command)
    steps = _steps(cfg, args)
    mapped = _mapped_record(cfg.site_map, evolve(cfg.initial, cfg.program, steps))
    header = ["step", "node", "mode", "intensity"]
    step_index, node = np.nonzero(mapped.reached)
    intensity = _column(mapped.intensities[step_index, node].ravel())
    columns = [*_site_columns(step_index, node, MODE_NAMES), intensity]
    print(f"max off-graph intensity {mapped.max_leakage:.3e}", file=sys.stderr)
    return _render(header, columns, args.format)


def _cmd_revivals(cfg: RunConfig, args) -> str:
    _require_kind(cfg, {"circle", "figure_eight"}, "revivals")
    steps = _steps(cfg, args)
    mapped = _mapped_record(cfg.site_map, evolve(cfg.initial, cfg.program, steps))
    events = find_revivals(mapped, tol=args.tol)
    step, shift, kind = map(list, zip(*events)) if events else ([], [], [])
    return _render(["step", "shift", "kind"], [_column(step), _column(shift), kind], args.format)


def _cmd_dispersion(cfg: RunConfig, args) -> str:
    _require_kind(cfg, {"dispersion"}, "dispersion")
    spec = band_structure(cfg.coin_matrix, n_k=cfg.n_k)
    vg = group_velocities(spec)
    fronts = wavefront_speeds(spec, merge_tol=cfg.merge_tol)
    crossings = classify_crossings(spec, gap_tol=cfg.gap_tol)
    header = ["section", "branch", "branch_2", "k", "omega", "v_group", "speed", "gap", "kind"]
    branch, _ = np.indices(spec.omegas.shape)
    band = {
        "section": ["band"] * branch.size,
        "branch": _column(branch.ravel()),
        "k": _column(np.broadcast_to(spec.k_grid, branch.shape).ravel()),
        "omega": _column(spec.omegas.ravel()),
        "v_group": _column(vg.ravel()),
    }
    fr = fronts.fronts
    wavefront = {
        "section": ["wavefront"] * len(fr),
        "branch": _column([f.branch for f in fr]),
        "k": _column([f.k for f in fr]),
        "speed": _column([f.speed for f in fr]),
    }
    speed = {"section": ["speed"] * len(fronts.speeds), "speed": _column(fronts.speeds)}
    crossing = {
        "section": ["crossing"] * len(crossings),
        "branch": _column([c.branches[0] for c in crossings]),
        "branch_2": _column([c.branches[1] for c in crossings]),
        "k": _column([c.k for c in crossings]),
        "gap": _column([c.gap for c in crossings]),
        "kind": ["continuum" if c.continuum else c.kind for c in crossings],
    }
    return _render(header, _blocks(header, band, wavefront, speed, crossing), args.format)


def _cmd_decompose(cfg: RunConfig, args) -> str:
    _require_kind(cfg, {"decompose"}, "decompose")
    passed, witness = one_trip_test(cfg.target, rel_tol=cfg.rel_tol)
    fact = factor_universal(cfg.target)
    if fact.residual > cfg.rel_tol:
        raise CertificationError(
            f"decomposition residual {fact.residual:.3e} exceeds {cfg.rel_tol:.1e}"
        )
    norm = su2_normalize(fact)
    header = ["section", "name", "row", "col", "re", "im"]
    scalars = ["one_trip_pass", "one_trip_rank_m1", "one_trip_rank_m2", "residual", "residual_normalized"]
    values = [float(passed), witness.rank_m1, witness.rank_m2, fact.residual, norm.recompute_residual()]
    scalar = {
        "section": ["scalar"] * 6,
        "name": [*scalars, "global_phase"],
        "re": _column([*values, norm.global_phase.real]),
        "im": [""] * 5 + _column([norm.global_phase.imag]),
    }
    # arm and loop blocks of both trips, raw and in the SU(2) gauge, row-major
    trips = ("trip1", "trip2", "trip1_su2", "trip2_su2")
    factors = (fact.factor_1, fact.factor_2, norm.factor_1, norm.factor_2)
    mats = np.array([[f.c_a, f.c_b, f.c_loop_cw, f.c_loop_ccw] for f in factors], dtype=complex)
    names = [f"{trip}.{part}" for trip in trips for part in ("arm_a", "arm_b", "loop_cw", "loop_ccw")]
    row, col = np.indices(mats.shape)[-2:]
    matrix = {
        "section": ["matrix"] * mats.size,
        "name": np.repeat(names, mats[0, 0].size).tolist(),
        "row": _column(row.ravel()),
        "col": _column(col.ravel()),
        "re": _column(mats.real.ravel()),
        "im": _column(mats.imag.ravel()),
    }
    return _render(header, _blocks(header, scalar, matrix), args.format)


def _cmd_errorbars(cfg: RunConfig, args) -> str:
    _require_kind(cfg, {"errorbars"}, "errorbars")
    base = cfg.base
    steps = _steps(base, args)
    seed = cfg.seed if args.seed is None else args.seed
    record = evolve(base.initial, base.program, steps)
    if base.site_map is not None:
        _mapped_record(base.site_map, record)  # leakage failures exit 3 before sampling
    setup = WalkSetup(
        program=base.program,
        initial=base.initial,
        steps=steps,
        site_map=base.site_map,
        support=cfg.support,
    )
    report = monte_carlo_error_bars(
        setup,
        n_samples=cfg.n_samples,
        eff_err=cfg.eff_err,
        angle_err_deg=cfg.angle_err_deg,
        seed=seed,
        distribution=cfg.distribution,
        renormalize=cfg.renormalize,
        base_record=record,
    )
    site_col = "node" if report.mapped else "position"
    header = ["step", site_col, "mode", "reference", "sigma"]
    ref = report.reference
    # per reached site: the four modes, then their "total"
    step_index, i = np.nonzero(ref.reached)
    modes, sigma_modes = ref.intensities[step_index, i], report.sigma_mode[step_index, i]
    sites = dict(zip(header, _site_columns(step_index, ref.offset + i, (*MODE_NAMES, "total"))))
    sites["reference"] = _column(np.column_stack([modes, modes.sum(axis=1)]).ravel())
    sites["sigma"] = _column(np.column_stack([sigma_modes, report.sigma_position[step_index, i]]).ravel())
    blocks = [sites]
    if report.similarity_ref is not None:
        n_steps = len(report.similarity_ref)
        sigma = np.column_stack([report.similarity_sigma, report.similarity_sigma_sampled])
        blocks.append({
            "step": _column(np.repeat(np.arange(n_steps), 2)),
            "mode": ["similarity", "similarity_sampled"] * n_steps,
            "reference": _column(np.repeat(report.similarity_ref, 2)),
            "sigma": _column(sigma.ravel()),
        })
    return _render(header, _blocks(header, *blocks), args.format)


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", required=True, help="YAML run configuration")
    sub.add_argument("--steps", type=int, default=None, help="override step count")
    sub.add_argument("--out", default=None, help="write output here instead of stdout")
    sub.add_argument("--format", choices=("csv", "table"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopwalk",
        description="simulate and analyze four-mode walks in a looped interferometer",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="walk on the line")
    _add_common(p)
    p.add_argument(
        "--trace",
        choices=("full", "sum_polarization", "sum_direction", "sum_all"),
        default="full",
        help="how far to collapse the mode axis",
    )

    for name, blurb in (
        ("circle", "walk on a closed ring"),
        ("figure-eight", "walk on two rings sharing a node"),
    ):
        p = subs.add_parser(name, help=blurb)
        _add_common(p)

    p = subs.add_parser("revivals", help="detect full-state returns on a closed graph")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-6, help="similarity shortfall allowed")

    p = subs.add_parser("dispersion", help="band structure, front speeds, crossings")
    _add_common(p)

    p = subs.add_parser("decompose", help="factor a four-mode coin into round trips")
    _add_common(p)

    p = subs.add_parser("errorbars", help="Monte Carlo spread under element noise")
    _add_common(p)
    p.add_argument("--seed", type=int, default=None, help="override sampling seed")

    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "revivals": _cmd_revivals,
    "dispersion": _cmd_dispersion,
    "decompose": _cmd_decompose,
    "errorbars": _cmd_errorbars,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command in ("circle", "figure-eight"):
            text = _cmd_graph(cfg, args, args.command)
        else:
            text = _COMMANDS[args.command](cfg, args)
        _emit(text, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
