"""Command line front end.

Every subcommand reads a YAML config (--config), runs the requested
computation, and writes either CSV or an aligned text table to stdout or
--out.  Exit codes: 0 on success, 2 for configuration problems (including
payload matrices that fail their unitarity certificate), 3 when a
numerical certification fails at run time (decomposition residual above
tolerance, intensity leaking off a closed graph).
"""

from __future__ import annotations

import argparse
import sys

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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _render(header: list, rows: list, fmt: str) -> str:
    cells = [[_fmt(v) for v in row] for row in rows]
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(row) for row in cells)
        return "\n".join(lines) + "\n"
    widths = [len(h) for h in header]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    def line(vals):
        return "  ".join(v.ljust(w) for v, w in zip(vals, widths)).rstrip()
    out = [line(header), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out) + "\n"


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
    cells = zip(step_index.tolist(), (record.offset + site).tolist(), traced[step_index, site].tolist())
    if args.trace == "sum_all":
        header = ["step", "position", "intensity"]
        rows = [[t, x, v] for t, x, v in cells]
    else:
        header = ["step", "position", _TRACE_THIRD_COLUMN[args.trace], "intensity"]
        labels = TRACE_LABELS[args.trace]
        rows = [[t, x, label, v] for t, x, vals in cells for label, v in zip(labels, vals)]
    return _render(header, rows, args.format)


def _mapped_record(cfg: RunConfig, steps: int):
    record = evolve(cfg.initial, cfg.program, steps)
    mapped = map_sites(cfg.site_map, record, leak_tol=GRAPH_LEAK_TOL)
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
    mapped = _mapped_record(cfg, steps)
    header = ["step", "node", "mode", "intensity"]
    step_index, node = np.nonzero(mapped.reached)
    cells = zip(step_index.tolist(), node.tolist(), mapped.intensities[step_index, node].tolist())
    rows = [[t, m, name, v] for t, m, vals in cells for name, v in zip(MODE_NAMES, vals)]
    print(f"max off-graph intensity {mapped.max_leakage:.3e}", file=sys.stderr)
    return _render(header, rows, args.format)


def _cmd_revivals(cfg: RunConfig, args) -> str:
    _require_kind(cfg, {"circle", "figure_eight"}, "revivals")
    steps = _steps(cfg, args)
    mapped = _mapped_record(cfg, steps)
    events = find_revivals(mapped, tol=args.tol)
    header = ["step", "shift", "kind"]
    rows = [[t, s, kind] for t, s, kind in events]
    return _render(header, rows, args.format)


def _cmd_dispersion(cfg: RunConfig, args) -> str:
    _require_kind(cfg, {"dispersion"}, "dispersion")
    spec = band_structure(cfg.coin_matrix, n_k=cfg.n_k)
    vg = group_velocities(spec)
    fronts = wavefront_speeds(spec, merge_tol=cfg.merge_tol)
    crossings = classify_crossings(spec, gap_tol=cfg.gap_tol)
    header = ["section", "branch", "branch_2", "k", "omega", "v_group", "speed", "gap", "kind"]
    rows = []
    for b in range(spec.n_branches):
        for i, k in enumerate(spec.k_grid):
            rows.append(["band", b, None, k, spec.omegas[b, i], vg[b, i], None, None, None])
    for front in fronts.fronts:
        rows.append(["wavefront", front.branch, None, front.k, None, None, front.speed, None, None])
    for s in fronts.speeds:
        rows.append(["speed", None, None, None, None, None, s, None, None])
    for c in crossings:
        kind = "continuum" if c.continuum else c.kind
        rows.append(["crossing", c.branches[0], c.branches[1], c.k, None, None, None, c.gap, kind])
    return _render(header, rows, args.format)


def _matrix_rows(rows: list, name: str, m: np.ndarray):
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            rows.append(["matrix", name, i, j, float(m[i, j].real), float(m[i, j].imag)])


def _factor_rows(rows: list, prefix: str, factors):
    _matrix_rows(rows, f"{prefix}.arm_a", factors.c_a)
    _matrix_rows(rows, f"{prefix}.arm_b", factors.c_b)
    _matrix_rows(rows, f"{prefix}.loop_cw", factors.c_loop_cw)
    _matrix_rows(rows, f"{prefix}.loop_ccw", factors.c_loop_ccw)


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
    rows = []
    rows.append(["scalar", "one_trip_pass", None, None, 1.0 if passed else 0.0, None])
    rows.append(["scalar", "one_trip_rank_m1", None, None, float(witness.rank_m1), None])
    rows.append(["scalar", "one_trip_rank_m2", None, None, float(witness.rank_m2), None])
    rows.append(["scalar", "residual", None, None, fact.residual, None])
    rows.append(["scalar", "residual_normalized", None, None, norm.recompute_residual(), None])
    rows.append(
        ["scalar", "global_phase", None, None, float(norm.global_phase.real), float(norm.global_phase.imag)]
    )
    _factor_rows(rows, "trip1", fact.factor_1)
    _factor_rows(rows, "trip2", fact.factor_2)
    _factor_rows(rows, "trip1_su2", norm.factor_1)
    _factor_rows(rows, "trip2_su2", norm.factor_2)
    return _render(header, rows, args.format)


def _cmd_errorbars(cfg: RunConfig, args) -> str:
    _require_kind(cfg, {"errorbars"}, "errorbars")
    base = cfg.base
    steps = base.steps if args.steps is None else args.steps
    seed = cfg.seed if args.seed is None else args.seed
    if base.site_map is not None:
        _mapped_record(base, steps)  # run once up front so leakage failures exit 3 before sampling
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
    )
    site_col = "node" if report.mapped else "position"
    header = ["step", site_col, "mode", "reference", "sigma"]
    ref = report.reference
    rows = []
    for t, i in zip(*np.nonzero(ref.reached)):
        site = ref.offset + int(i)
        for m in range(4):
            rows.append([t, site, MODE_NAMES[m], ref.intensities[t, i, m], report.sigma_mode[t, i, m]])
        rows.append([t, site, "total", np.sum(ref.intensities[t, i]), report.sigma_position[t, i]])
    if report.similarity_ref is not None:
        for t in range(len(report.similarity_ref)):
            rows.append([t, None, "similarity", report.similarity_ref[t], report.similarity_sigma[t]])
            rows.append(
                [t, None, "similarity_sampled", report.similarity_ref[t], report.similarity_sigma_sampled[t]]
            )
    return _render(header, rows, args.format)


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
