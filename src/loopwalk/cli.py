"""Command line front end.

Every subcommand reads a YAML config (--config), runs the requested
computation, and writes either CSV or an aligned text table to stdout or
--out, built by columns in byte arrays.  Floats are exact %.17g from
double-double array arithmetic in float64; an exact decimal tie, one whose
digits are 1 and zeros, an inf, a nan and the floats of a short column go
through the % operator; a zero of a longer column skips the digits ("0",
or "-0" where the sign bit is set).  Exit codes:
0 on success, 2 for configuration problems (including payload matrices
that fail their unitarity certificate, an unwritable --out, and a run too
large to allocate), 3 when a numerical certification fails at run time
(decomposition residual above tolerance, intensity leaking off a closed
graph).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .analysis import find_revivals, monte_carlo_error_bars
from .coin_synthesis import factor_universal, one_trip_test, su2_normalize
from .config import GRAPHS, ConfigError, RunConfig, parse_config
from .dispersion import band_structure, classify_crossings, group_velocities, wavefront_speeds
from .graph_programs import map_sites
from .walk_engine import MODE_NAMES, TRACE_LABELS, evolve, mode_sum, trace_intensities

GRAPH_LEAK_TOL = 1e-9


class CertificationError(RuntimeError):
    """A run-time numerical certificate failed."""


# "%.17g" prints the digits of rint(|x| * 10**(16 - e)), the product in [1e16, 1e17).
# _scaled gives the product as a pair of doubles within 2**-47 of it, compared with
# 1e16 and 1e17 unevaluated (1e-06's 9.99999999999999954e15 adds up to 1e16).  A cell
# whose pair lies within 2**-40 of a half-integer (an exact decimal tie) or whose
# digits round up to 1e17 goes through "%"; an error across 1e16 leaves the digits 1
# and zeros, or sends them through "%".  One uint64 division splits the digits into
# 32-bit halves of 9 and 8, which give the first digit and four 4-digit groups, each
# an ASCII word from a table.  A cell's layout key (fixed-notation exponent or width
# of the scientific one, digit count, sign) picks its gather row and its length.
_ARRAY_MIN = 256  # a shorter float column goes through "%" alone
_SLICE = 4096  # floats formatted at a time, bounding the temporaries


def _split(v: np.ndarray) -> tuple:
    """Veltkamp's split of doubles v into h + (v - h), each of 26 bits or fewer."""
    h = 134217729.0 * v
    h -= h - v
    return h, v - h


@functools.cache
def _tables():
    """_float_cells' tables.  At e + 330: 10**(16 - e) = 2**k (hi + lo), hi in
    (1/4, 1] and lo correctly rounded, as hi's halves, hi, lo and int32 k; e's
    suffix word, empty in fixed notation (-4 <= e <= 16); e's first layout key.
    The ASCII of 0..9999 as 4-byte words; at j * 10**4 + g, the digits up to
    the last nonzero one of g as 4-digit group j after the first digit.  Per
    layout key, a cell's gather row from its source row and its length."""
    pairs = []
    for e in range(-330, 331):
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        k = num.bit_length() - den.bit_length() + 1  # 2**(k - 2) < num / den < 2**k
        num, den = num << max(-k, 0), den << max(k, 0)
        hi = num / den  # a quotient of ints rounds correctly
        pairs.append((hi, (num * 2**55 - int(hi * 2**55) * den) / (den * 2**55), k))
    hi, lo, k = map(np.array, zip(*pairs))
    e = np.arange(-330, 331, dtype=np.int16)
    fixed = (e >= -4) & (e <= 16)
    suffix = np.array(["" if f else f"e{v:+03d}" for v, f in zip(e.tolist(), fixed)], dtype="S8")
    base = np.where(fixed, e + 4, 21 + (np.abs(e) >= 100)) * 36 + 2  # a key adds 2 * (digits - 1) + sign
    g = np.arange(10_000, dtype=np.int16)  # small integer types keep the build's temporaries small
    quads = ((g[:, None] // np.int16([1000, 100, 10, 1])) % 10 + 48).astype(np.uint8).view(np.uint32).ravel()
    upto = np.where(g == 0, 0, np.int8([[4], [8], [12], [16]]) - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0))
    # a layout: notation (fixed e + 4, or 21 + wide exponent), digits, sign; the
    # source row holds "-", ".", NUL, four "0"s, the 17 digits and the suffix
    notation, digits, neg = (a.astype(np.int8)[..., None] for a in np.ogrid[:23, :18, :2])
    start = 4 + np.minimum(notation - 4, 0) * (notation < 21)  # leading zeros of fixed e < 0
    point = np.where((notation >= 4) & (notation < 21), notation - 3, 1)
    stop = np.maximum(digits, point) + 4 - start
    stop += stop > point
    q = np.arange(24, dtype=np.int8) - neg  # output byte after the sign
    digit = np.where(q == point, 1, 3 + start + q - (q > point))
    layouts = np.where(q < 0, 0, np.where(q >= stop, 24 + np.minimum(q - stop, 7), digit))
    lengths = (neg + stop + np.where(notation < 21, 0, notation - 17))[..., 0]
    powers = np.array([*_split(hi), hi, lo]), k.astype(np.int32)
    return powers, suffix.view(np.uint64), base, quads, upto.astype(np.uint8).ravel(), layouts.reshape(-1, 24), lengths.ravel()


def _scaled(m: np.ndarray, q: np.ndarray, i: np.ndarray) -> tuple:
    """m * 2**q * 10**(16 - e), i = e + 330, for frexp's m and q as doubles (p, r),
    p an integer from 2**53 on, whose sum lies within 2**-47 of it below 2**57:
    Dekker's exact product m * hi, plus m * lo.  ldexp's fast path is int32."""
    powers, exponents = _tables()[0]
    hi_1, hi_2, hi, lo = powers.take(i, axis=1)
    m_1, m_2 = _split(m)
    p = m * hi
    r = ((((m_1 * hi_1 - p) + m_1 * hi_2) + m_2 * hi_1) + m_2 * hi_2) + m * lo
    k = exponents.take(i) + q
    return np.ldexp(p, k), np.ldexp(r, k)


def _percent(x: np.ndarray) -> list:
    """'%.17g' % v of each float v in x: the reference every cell matches."""
    return ["%.17g" % v for v in x.tolist()]


def _float_cells(x: np.ndarray) -> np.ndarray:
    """'%.17g' % v of each float v in x, as an S array as wide as its
    longest cell."""
    n, zero = len(x), x == 0
    if zero.any():  # zeros skip the digits
        cells = np.zeros(0, "S1") if zero.all() else _float_cells(x[~zero])
        sign = np.signbit(x) & zero
        out = np.full(n, b"0", f"S{max(cells.itemsize, 1 + sign.any())}")
        out[sign], out[~zero] = b"-0", cells
        return out
    _, suffix, base, quads, upto, layouts, lengths = _tables()
    ok = np.isfinite(x)
    a = np.where(ok, np.abs(x), 1.0)
    i = np.floor(np.log10(a)).astype(np.intp) + 330  # e + 330
    m, q = np.frexp(a)
    p, r = _scaled(m, q, i)
    off = np.flatnonzero(((p - 1e17) + r >= 0) | ((p - 1e16) + r < 0))  # log10 can be one off
    i[off] += np.where(p[off] >= 1e17, 1, -1)
    p[off], r[off] = _scaled(m[off], q[off], i[off])
    d = p.astype(np.int64) + np.rint(r).astype(np.int64)
    safe = ok & (np.abs(r - np.rint(r)) < 0.5 - 2.0**-40) & (d >= 10**16) & (d < 10**17)
    d = np.where(safe, d, 0)
    h = d // 10**8
    halves = np.array([h, d - 10**8 * h], np.uint32)  # the first 9 digits, the last 8
    fours = halves // 10**4
    first = fours[0] // 10**4
    groups = np.array([first, fours[0] - 10**4 * first, halves[0] - 10**4 * fours[0], fours[1], halves[1] - 10**4 * fours[1]])
    src = np.empty((n, 8), np.uint32)  # "-.", NUL, "0"; "000" and the first digit, then fours; the suffix
    src[:, 0] = np.frombuffer(b"-.\0" + b"0", np.uint32)
    src[:, 1:6] = quads.take(groups).T
    src.view(np.uint64)[:, 3] = suffix.take(i)
    last = upto.take(groups[1:] + np.arange(0, 40_000, 10_000)[:, None]).max(axis=0)  # %g drops trailing zeros
    key = base.take(i) + 2 * last + np.signbit(x)
    length = np.where(safe, lengths.take(key), 0)
    j = np.flatnonzero(~safe)
    text = _percent(x[j])
    width = max(1, length.max(), *map(len, text))
    index = layouts.take(key, axis=0)[:, :width]
    out = np.take(src.view(np.uint8), index + 32 * np.arange(n)[:, None])
    out[j] = np.array(text, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return out.view(f"S{width}").ravel()


def _column(values) -> np.ndarray:
    """One output column as an S array of cells: integers in decimal, floats
    as %.17g, and in a sequence holding None, an empty cell for each None."""
    a = np.asarray(values)
    if a.dtype == object:
        cells = _column([v for v in values if v is not None])
        out = np.zeros(len(values), cells.dtype)
        out[np.array([v is not None for v in values], bool)] = cells
        return out
    if a.dtype.kind in "iu":
        lo, hi = (int(a.min()), int(a.max())) if a.size else (0, -1)
        if hi - lo < 4 * a.size:  # a cell per integer of the range
            cells = np.array(list(map(str, range(lo, hi + 1))), dtype="S")
            return cells.take((a - lo).view(f"u{a.itemsize}"))  # a - lo may wrap, but read unsigned it is exact
        distinct, inverse = np.unique(a, return_inverse=True)
        return np.array(list(map(str, distinct.tolist())), dtype="S").take(inverse)
    if len(a) < _ARRAY_MIN:
        return np.array(_percent(a), dtype="S")
    return np.concatenate([_float_cells(a[i : i + _SLICE]) for i in range(0, len(a), _SLICE)])


def _blocks(header: list, *blocks) -> list:
    """Columns under `header` of row blocks stacked in order.  A block maps
    column names to cell columns and always holds the first column; any
    other column it lacks is empty in its rows."""
    empty = [np.zeros(len(b[header[0]]), "S1") for b in blocks]
    return [np.concatenate([np.asarray(b.get(h, z), dtype="S") for b, z in zip(blocks, empty)]) for h in header]


def _render(header: list, columns: list, fmt: str) -> str:
    """CSV or aligned text of equal-length cell columns (S arrays as wide as
    their longest cell, or str lists) under `header`, laid side by side in a
    byte matrix.  A table pads with spaces up to each row's last cell, CSV
    with NULs; one pass drops the NULs."""
    cells = [np.asarray(c, dtype="S") for c in columns]
    n, csv = len(cells[0]), fmt == "csv"
    if csv:
        widths, gap, head = [c.itemsize for c in cells], 1, ",".join(header) + "\n"
    else:
        widths, gap = [max(len(h), c.itemsize) for h, c in zip(header, cells)], 2
        line = "  ".join(f"{{:<{w}}}" for w in widths).format
        head = line(*header).rstrip() + "\n" + line(*("-" * w for w in widths)) + "\n"
    body = np.zeros((n, sum(widths) + gap * len(widths)), np.uint8)
    at = np.cumsum([0, *widths]) + gap * np.arange(len(widths) + 1)
    pad = np.zeros((n, 1), np.uint8)  # a table pads with spaces left of a row's last nonempty cell
    for c, i, j in reversed(list(zip(cells, at, at[1:]))):
        c = c.view(np.uint8).reshape(n, c.itemsize)
        if csv:
            body[:, i : i + c.shape[1]] = c
            body[:, j - 1] = 44
        else:
            body[:, i:j] = pad
            np.maximum(c, pad, out=body[:, i : i + c.shape[1]])  # every cell byte exceeds the space
            pad[c[:, 0] != 0] = 32
    body[:, -1] = 10
    compacted = body[body != 0]
    del body  # freed before decoding, which then reuses its pages
    return head + str(compacted, "ascii")


def _site_columns(step_index: np.ndarray, site: np.ndarray, labels) -> list:
    """step, site and label columns: one row per label at each reached site."""
    labels = np.array(labels, "S")
    n = len(labels)
    return [np.repeat(_column(step_index), n), np.repeat(_column(site), n), np.tile(labels, len(step_index))]


def _emit(text: str, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out_path}: {exc.strerror or exc}") from None


def _steps(cfg: RunConfig, args) -> int:
    if args.steps is not None:
        if args.steps < 0:
            raise ConfigError("--steps must be nonnegative")
        return args.steps
    return cfg.steps


_TRACE_THIRD_COLUMN = {
    "full": "mode",
    "sum_polarization": "subspace",
    "sum_direction": "polarization",
}


def _cmd_simulate(cfg: RunConfig, args) -> str:
    steps = _steps(cfg, args)
    record = evolve(cfg.initial, cfg.program, steps)
    step_index, site = np.divmod(np.flatnonzero(record.reached), record.reached.shape[1])
    traced = trace_intensities(record.intensities[step_index, site], mode=args.trace).ravel()
    position = record.offset + site
    del record, site  # the light cone is freed before formatting, which then reuses its resident pages
    values = _column(traced)
    del traced
    if args.trace == "sum_all":
        header = ["step", "position", "intensity"]
        columns = [_column(step_index), _column(position), values]
    else:
        header = ["step", "position", _TRACE_THIRD_COLUMN[args.trace], "intensity"]
        columns = [*_site_columns(step_index, position, TRACE_LABELS[args.trace]), values]
    return _render(header, columns, args.format)


def _mapped_record(site_map, record):
    """record mapped onto the graph; raises CertificationError on leakage
    above GRAPH_LEAK_TOL or NaN."""
    mapped = map_sites(site_map, record)
    if not mapped.max_leakage <= GRAPH_LEAK_TOL:
        raise CertificationError(
            f"walker left the graph: max leakage {mapped.max_leakage:.3e} "
            f"exceeds {GRAPH_LEAK_TOL:.1e}"
        )
    return mapped


def _graph_walk(cfg: RunConfig, args):
    """The config's walk on its graph window, mapped onto the graph and certified."""
    return _mapped_record(cfg.site_map, evolve(cfg.initial, cfg.program, _steps(cfg, args), cfg.site_map.span))


def _cmd_graph(cfg: RunConfig, args) -> str:
    mapped = _graph_walk(cfg, args)
    header = ["step", "node", "mode", "intensity"]
    step_index, node = np.divmod(np.flatnonzero(mapped.reached), mapped.num_nodes)
    intensity = _column(mapped.intensities[step_index, node].ravel())
    columns = [*_site_columns(step_index, node, MODE_NAMES), intensity]
    print(f"max off-graph intensity {mapped.max_leakage:.3e}", file=sys.stderr)
    return _render(header, columns, args.format)


def _cmd_revivals(cfg: RunConfig, args) -> str:
    if not 0.0 <= args.tol < 1.0:  # similarities lie in [0, 1]; NaN fails too
        raise ConfigError(f"--tol must lie in [0, 1), got {args.tol!r}")
    events = find_revivals(_graph_walk(cfg, args), tol=args.tol)
    step, shift, kind = map(list, zip(*events)) if events else ([], [], [])
    return _render(["step", "shift", "kind"], [_column(step), _column(shift), kind], args.format)


def _cmd_dispersion(cfg: RunConfig, args) -> str:
    spec = band_structure(cfg.coin_matrix, n_k=cfg.n_k)
    vg = group_velocities(spec)
    fronts = wavefront_speeds(spec, merge_tol=cfg.merge_tol)
    crossings = classify_crossings(spec, gap_tol=cfg.gap_tol)
    header = ["section", "branch", "branch_2", "k", "omega", "v_group", "speed", "gap", "kind"]
    branch, _ = np.indices(spec.omegas.shape)
    band = {
        "section": np.full(branch.size, b"band"),
        "branch": _column(branch.ravel()),
        "k": np.tile(_column(spec.k_grid), spec.n_branches),
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
    passed, witness = one_trip_test(cfg.target, rel_tol=cfg.rel_tol)
    fact = factor_universal(cfg.target)
    if fact.residual > cfg.rel_tol:
        raise CertificationError(
            f"decomposition residual {fact.residual:.3e} exceeds {cfg.rel_tol:.1e}"
        )
    norm = su2_normalize(fact)
    header = ["section", "name", "row", "col", "re", "im"]
    scalars = ["one_trip_pass", "one_trip_rank_m1", "one_trip_rank_m2", "residual", "residual_normalized"]
    values = [float(passed), witness.rank_m1, witness.rank_m2, fact.residual, norm.residual]
    scalar = {
        "section": ["scalar"] * 6,
        "name": [*scalars, "global_phase"],
        "re": _column([*values, norm.global_phase.real]),
        "im": _column([None] * 5 + [norm.global_phase.imag]),
    }
    # arm and loop blocks of both trips, raw and in the SU(2) gauge, row-major
    trips = ("trip1", "trip2", "trip1_su2", "trip2_su2")
    factors = (fact.factor_1, fact.factor_2, norm.factor_1, norm.factor_2)
    mats = np.array([[f.c_a, f.c_b, f.c_loop_cw, f.c_loop_ccw] for f in factors], dtype=complex)
    names = [f"{trip}.{part}" for trip in trips for part in ("arm_a", "arm_b", "loop_cw", "loop_ccw")]
    row, col = np.indices(mats.shape)[-2:]
    matrix = {
        "section": ["matrix"] * mats.size,
        "name": np.repeat(names, mats[0, 0].size),
        "row": _column(row.ravel()),
        "col": _column(col.ravel()),
        "re": _column(mats.real.ravel()),
        "im": _column(mats.imag.ravel()),
    }
    return _render(header, _blocks(header, scalar, matrix), args.format)


def _base_walk(base, steps):
    """An errorbars base's unperturbed light-cone walk; leakage off its graph exits 3 before sampling."""
    record = evolve(base.initial, base.program, steps)
    if base.site_map is not None:
        _mapped_record(base.site_map, record)
    return record


def _cmd_errorbars(cfg: RunConfig, args) -> str:
    base = cfg.base
    steps = _steps(base, args)
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be nonnegative")
    report = monte_carlo_error_bars(
        base.program,
        base.initial,
        steps,
        base.site_map,
        cfg.support,
        n_samples=cfg.n_samples,
        eff_err=cfg.eff_err,
        angle_err_deg=cfg.angle_err_deg,
        seed=cfg.seed if args.seed is None else args.seed,
        distribution=cfg.distribution,
        renormalize=cfg.renormalize,
        base_record=_base_walk(base, steps),  # held by no name here, so the sampler can free it
    )
    site_col = "position" if base.site_map is None else "node"
    header = ["step", site_col, "mode", "reference", "sigma"]
    ref = report.reference
    # per reached site: the four modes, then their "total"
    step_index, i = np.divmod(np.flatnonzero(ref.reached), ref.reached.shape[1])
    modes, sigma_modes = ref.intensities[step_index, i], report.sigma_mode[step_index, i]
    sites = dict(zip(header, _site_columns(step_index, ref.offset + i, (*MODE_NAMES, "total"))))
    sites["reference"] = _column(np.column_stack([modes, mode_sum(modes)]).ravel())
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


# per subcommand: its help, the config kinds it takes, its function and its own flags
_COMMANDS = {
    "simulate": ("walk on the line", ("line",), _cmd_simulate, {
        "--trace": dict(choices=(*TRACE_LABELS, "sum_all"), default="full", help="how far to collapse the mode axis"),
    }),
    "circle": ("walk on a closed ring", ("circle",), _cmd_graph, {}),
    "figure-eight": ("walk on two rings sharing a node", ("figure_eight",), _cmd_graph, {}),
    "revivals": ("detect full-state returns on a closed graph", tuple(GRAPHS), _cmd_revivals, {
        "--tol": dict(type=float, default=1e-6, help="similarity shortfall allowed"),
    }),
    "dispersion": ("band structure, front speeds, crossings", ("dispersion",), _cmd_dispersion, {}),
    "decompose": ("factor a four-mode coin into round trips", ("decompose",), _cmd_decompose, {}),
    "errorbars": ("Monte Carlo spread under element noise", ("errorbars",), _cmd_errorbars, {
        "--seed": dict(type=int, default=None, help="override sampling seed"),
    }),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on first use and then shared: each
    parse_args call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="loopwalk",
        description="simulate and analyze four-mode walks in a looped interferometer",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (blurb, _, _, flags) in _COMMANDS.items():
        p = subs.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--steps", type=int, default=None, help="override step count")
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        p.add_argument("--format", choices=("csv", "table"), default="csv")
        for flag, options in flags.items():
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, kinds, run, _ = _COMMANDS[args.command]
    try:
        cfg = parse_config(args.config)
        if cfg.kind not in kinds:
            raise ConfigError(
                f"{args.command}: config kind {cfg.kind!r} not usable here; expected one of {sorted(kinds)}"
            )
        _emit(run(cfg, args), args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: run too large for memory: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
