"""Checks of the program's CSV outputs against the reference computations.

Each check returns a list of problems, one (name, message) pair per fault,
or (name, message, size) where the fault has a size; an empty list means the
output passed. Nothing here compares with a stored
copy of earlier output: every expected value is recomputed from the inputs
by ``reference``, or follows from a property the method must have.

The walk checks evolve the walk themselves but take the coin matrices from
loopwalk's own coin program (``CoinProgram.coin_at``), so they test the walk
engine, the site mapping and the analysis on the coins the program
resolves; the coin survey builds its coins with ``reference`` instead.
"""

from __future__ import annotations

import io

import numpy as np

import reference as ref

BAND_TOL = 1e-9        # eigenphases of the same matrix from two eig calls
FRONT_TOL = 1e-6       # refined front speed against the exact group velocity
GAP_TOL = 1e-9         # the program's default crossing threshold
WALK_TOL = 1e-12       # intensities of two exact evolutions; per-step norm
REVIVAL_TOL = 1e-6     # the revivals subcommand's default --tol
BALANCED_SPEED = 1.0 / np.sqrt(2.0)
BALANCED_TOL = 1e-6    # tolerance of acceptance criterion 1
SPEED_LIMIT = 1.0 + 1e-12


def _table(text: str):
    lines = text.splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _header(problems, got, want):
    if got != want:
        problems.append(("header", f"header {got!r}, expected {want!r}"))
        return False
    return True


# --- coin survey ------------------------------------------------------------

def check_dispersion(text: str, coin: np.ndarray, n_k: int, balanced: bool) -> list:
    """Bands, fronts, speeds and crossings of one coin.

    Each refined front speed must be one of the four exact group velocities
    at its k, and every speed must have |v| <= 1; `balanced` adds the known
    speed set {-1/sqrt2, +1/sqrt2}.
    """
    problems = []
    header, rows = _table(text)
    if not _header(problems, header, "section,branch,branch_2,k,omega,v_group,speed,gap,kind"):
        return problems
    bands = [r for r in rows if r[0] == "band"]
    if len(bands) != 4 * n_k:
        return problems + [("bands", f"{len(bands)} band rows, expected {4 * n_k}")]
    k = np.array([float(r[3]) for r in bands]).reshape(4, n_k)
    omega = np.array([float(r[4]) for r in bands]).reshape(4, n_k)
    grid = -np.pi + 2.0 * np.pi * np.arange(n_k) / n_k
    if np.max(np.abs(k - grid)) > 1e-12:
        problems.append(("bands", "band rows are not on the uniform k grid"))
    own = ref.eigenphases(coin, grid)                                  # (n_k, 4)
    got = np.sort(np.angle(np.exp(1j * omega.T)), axis=1)
    # sets on the circle: sorted lists may start at different points of the seam
    dist = np.stack([ref.circle_distance(np.roll(got, r, axis=1), own).max(axis=1) for r in range(4)])
    worst = float(np.max(np.min(dist, axis=0)))
    if worst > BAND_TOL:
        problems.append(("bands", f"band omegas differ from the eigenphases of S(k)C by {worst:.3e}"))

    front_rows = [r for r in rows if r[0] == "wavefront"]
    speeds = [float(r[6]) for r in rows if r[0] == "speed"]
    for r in front_rows:
        speed = float(r[6])
        ks = grid[:: n_k // 16] if r[3] == "" else [float(r[3])]
        off = max(float(np.min(np.abs(ref.group_velocities_at(coin, kk) - speed))) for kk in ks)
        if off > FRONT_TOL:
            problems.append(("fronts", f"front speed {speed:.9f} at k={r[3] or 'all'} is {off:.3e} from every group velocity", off))
    for s in speeds + [float(r[6]) for r in front_rows]:
        if abs(s) > SPEED_LIMIT:
            problems.append(("speed_limit", f"speed {s!r} exceeds 1", abs(s) - 1.0))
    if balanced:
        want = [-BALANCED_SPEED, BALANCED_SPEED]
        if len(speeds) != 2:
            problems.append(("balanced_speeds", f"balanced coin speeds {speeds}, expected +-1/sqrt2"))
        else:
            off = max(abs(a - b) for a, b in zip(sorted(speeds), want))
            if off > BALANCED_TOL:
                problems.append(("balanced_speeds", f"balanced coin speeds {speeds} are {off:.3e} from +-1/sqrt2", off))

    for r in rows:
        if r[0] != "crossing":
            continue
        kk, gap, kind = float(r[3]), float(r[7]), r[8]
        ph = ref.eigenphases(coin, [kk])[0]
        pair = ref.circle_distance(ph[:, None], ph[None, :])[np.triu_indices(4, 1)]
        off = float(np.min(np.abs(pair - gap)))
        if off > BAND_TOL:
            problems.append(("crossings", f"no eigenphase pair at k={kk} is {gap:.3e} apart (closest off by {off:.3e})"))
        if (kind == "avoided") != (gap > GAP_TOL):
            problems.append(("crossings", f"{kind} row with gap {gap:.3e}"))
    return problems


def _blocks(rows, prefix: str) -> dict:
    out = {}
    for r in rows:
        if r[0] == "matrix" and r[1].startswith(prefix + "."):
            m = out.setdefault(r[1][len(prefix) + 1:], np.zeros((2, 2), dtype=complex))
            m[int(r[2]), int(r[3])] = float(r[4]) + 1j * float(r[5])
    return out


def _recompose(blocks: dict) -> np.ndarray:
    return ref.coin_ab(blocks["arm_a"], blocks["arm_b"]) @ ref.block_diag(blocks["loop_cw"], blocks["loop_ccw"])


def check_decompose(text: str, target: np.ndarray, one_trip: bool) -> list:
    """Two-trip factors recompose to the target; the one-trip verdict is right."""
    problems = []
    header, rows = _table(text)
    if not _header(problems, header, "section,name,row,col,re,im"):
        return problems
    scalars = {r[1]: (float(r[4]), float(r[5]) if r[5] else 0.0) for r in rows if r[0] == "scalar"}
    try:
        trips = {p: _blocks(rows, p) for p in ("trip1", "trip2", "trip1_su2", "trip2_su2")}
        plain = _recompose(trips["trip2"]) @ _recompose(trips["trip1"])
        normed = _recompose(trips["trip2_su2"]) @ _recompose(trips["trip1_su2"])
        phase = complex(*scalars["global_phase"])
        passed = scalars["one_trip_pass"][0] == 1.0
    except KeyError as exc:
        return problems + [("decompose", f"missing output entry {exc}")]
    if np.max(np.abs(plain - target)) > 1e-9:
        problems.append(("decompose", "trip2 . trip1 differs from the target"))
    if abs(abs(phase) - 1.0) > 1e-12 or np.max(np.abs(normed - phase * target)) > 1e-9:
        problems.append(("decompose", "su2 trips differ from the target times the printed global phase"))
    dets = [np.linalg.det(b) for t in ("trip1_su2", "trip2_su2") for b in trips[t].values()]
    if max(abs(d - 1.0) for d in dets) > 1e-9:
        problems.append(("decompose", "an su2 block has determinant other than 1"))
    if passed != one_trip:
        problems.append(("decompose", f"one-trip verdict {passed}, expected {one_trip}"))
    return problems


# --- walks ------------------------------------------------------------------

def _program_coins(config: dict, x_lo: int, x_hi: int) -> np.ndarray:
    from loopwalk.config import parse_config_dict

    program = parse_config_dict(config).program
    return np.stack([program.coin_at(0, x) for x in range(x_lo, x_hi + 1)])


def _graph(config: dict):
    """(nodes map, number of nodes, x_lo, x_hi) of a circle or figure-eight config."""
    if config["kind"] == "circle":
        n = config["num_sites"]
        left = config.get("left_end", 0)
        return ref.circle_nodes(n, left), n, left, left + n // 2
    left, center, right = config["left_end"], config["center"], config["right_end"]
    nodes = ref.figure_eight_nodes(left, center, right)
    return nodes, 2 * (right - left) - 1, left, right


def walk_intensities(config: dict):
    """Own evolution of a line, circle or figure-eight config.

    Returns (intensities (T+1, n_pos, 4), x_lo, x0); graph walks get a window
    one position wider than the graph on each side.
    """
    steps = config["steps"]
    x0, amp = ref.initial_amplitudes(config.get("initial"))
    if config["kind"] == "line":
        x_lo, x_hi = x0 - steps - 1, x0 + steps + 1
    else:
        _, _, left, right = _graph(config)
        x_lo, x_hi = left - 1, right + 1
    coins = _program_coins(config, x_lo, x_hi)
    return ref.dense_walk(coins, x_lo, x0, amp, steps), x_lo, x0


def _norm_and_cone(problems, t, weight, distance, steps):
    norm = np.bincount(t, weights=weight, minlength=steps + 1)
    if len(norm) != steps + 1 or np.max(np.abs(norm - 1.0)) > WALK_TOL:
        problems.append(("norm", f"step norms off by up to {np.max(np.abs(norm - 1.0)):.3e}"))
    if np.any((weight > 0.0) & (distance > t)):
        problems.append(("light_cone", "intensity outside the light cone"))


def check_simulate(text: str, config: dict) -> list:
    problems = []
    header, _ = _table(text)
    if not _header(problems, header, "step,position,intensity"):
        return problems
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    t, x, w = data[:, 0].astype(int), data[:, 1].astype(int), data[:, 2]
    steps = config["steps"]
    own, x_lo, x0 = walk_intensities(config)
    _norm_and_cone(problems, t, w, np.abs(x - x0), steps)
    inside = (x >= x_lo) & (x < x_lo + own.shape[1]) & (t >= 0) & (t <= steps)
    if not np.all(inside) or len(set(zip(t.tolist(), x.tolist()))) != len(t):
        return problems + [("rows", "rows outside the walk window or repeated")]
    got = np.zeros(own.shape[:2])
    got[t, x - x_lo] = w
    off = float(np.max(np.abs(got - own.sum(axis=-1))))
    if off > WALK_TOL:
        problems.append(("distribution", f"distribution differs from the dense evolution by {off:.3e}"))
    return problems


def _node_distance(nodes: dict, num_nodes: int, x0: int) -> np.ndarray:
    """Least line distance from x0 of each (node, subspace c|cc)."""
    dist = np.full((num_nodes, 2), 10**9)
    for (x, sub), m in nodes.items():
        j = 0 if sub == "c" else 1
        dist[m, j] = min(dist[m, j], abs(x - x0))
    return dist


def graph_intensities(config: dict) -> np.ndarray:
    nodes, num_nodes, _, _ = _graph(config)
    own, x_lo, _ = walk_intensities(config)
    return ref.map_to_nodes(own, x_lo, nodes, num_nodes)


def check_graph(text: str, config: dict) -> list:
    """circle and figure-eight: step,node,mode,intensity."""
    problems = []
    header, rows = _table(text)
    if not _header(problems, header, "step,node,mode,intensity"):
        return problems
    steps = config["steps"]
    nodes, num_nodes, _, _ = _graph(config)
    x0, _ = ref.initial_amplitudes(config.get("initial"))
    try:
        t = np.array([int(r[0]) for r in rows])
        m = np.array([int(r[1]) for r in rows])
        mode = np.array([ref.MODES.index(r[2]) for r in rows])
        w = np.array([float(r[3]) for r in rows])
    except (ValueError, IndexError) as exc:
        return problems + [("rows", f"unreadable row: {exc}")]
    if np.any((t < 0) | (t > steps) | (m < 0) | (m >= num_nodes)):
        return problems + [("rows", "step or node out of range")]
    _norm_and_cone(problems, t, w, _node_distance(nodes, num_nodes, x0)[m, mode // 2], steps)
    got = np.zeros((steps + 1, num_nodes, 4))
    got[t, m, mode] = w
    off = float(np.max(np.abs(got - graph_intensities(config))))
    if len(set(zip(t.tolist(), m.tolist(), mode.tolist()))) != len(t) or off > WALK_TOL:
        problems.append(("distribution", f"node intensities differ from the dense evolution by {off:.3e}"))
    return problems


def check_revivals(text: str, config: dict) -> list:
    problems = []
    header, rows = _table(text)
    if not _header(problems, header, "step,shift,kind"):
        return problems
    got = [(int(r[0]), int(r[1]), r[2]) for r in rows]
    want = ref.revivals(graph_intensities(config).sum(axis=-1), REVIVAL_TOL)
    if got != want:
        problems.append(("revivals", f"{len(got)} revival rows, own evolution finds {len(want)} (or they differ)"))
    return problems


def check_errorbars(text: str, config: dict) -> list:
    """Reference column from the own evolution; sigmas >= 0; similarity in [0, 1]."""
    problems = []
    base = config["base"]
    mapped = base["kind"] != "line"
    header, rows = _table(text)
    site = "node" if mapped else "position"
    if not _header(problems, header, f"step,{site},mode,reference,sigma"):
        return problems
    if mapped:
        own = graph_intensities(base)
        x_lo = 0
    else:
        own, x_lo, _ = walk_intensities(base)
    own_total = own.sum(axis=-1)
    seen = np.zeros(own_total.shape, dtype=bool)
    sim = {}
    for r in rows:
        t, ref_value, sigma = int(r[0]), float(r[3]), float(r[4])
        if not sigma >= 0.0:
            problems.append(("sigma", f"sigma {r[4]} at step {t}"))
        if r[1] == "":
            sim.setdefault(r[2], []).append((t, ref_value))
            continue
        i = int(r[1]) - x_lo
        if not 0 <= i < own.shape[1]:
            problems.append(("reference", f"{site} {r[1]} outside the walk"))
            continue
        want = own_total[t, i] if r[2] == "total" else own[t, i, ref.MODES.index(r[2])]
        seen[t, i] = True
        if abs(ref_value - want) > WALK_TOL:
            problems.append(("reference", f"reference {ref_value!r} at step {t}, {site} {r[1]}, mode {r[2]}; own evolution gives {float(want)!r}"))
    if np.any(~seen & (own_total > WALK_TOL)):
        problems.append(("reference", "rows missing for sites the walk reaches"))
    support = config.get("support")
    if support:
        p = own_total / own_total.sum(axis=1, keepdims=True)
        want_sim = np.sqrt(p[:, support] / len(support)).sum(axis=1) ** 2
        for label in ("similarity", "similarity_sampled"):
            got = sim.get(label, [])
            if [t for t, _ in got] != list(range(len(want_sim))):
                problems.append(("similarity", f"{label} rows do not cover every step"))
                continue
            values = np.array([v for _, v in got])
            if np.any((values < 0.0) | (values > 1.0)) or np.max(np.abs(values - want_sim)) > WALK_TOL:
                problems.append(("similarity", f"{label} reference outside [0, 1] or off the own evolution"))
    elif sim:
        problems.append(("similarity", "similarity rows without a support"))
    return problems


# --- dispatch ---------------------------------------------------------------

# Checks that fail on every pass on a fixed input because of a fault in the
# program, with the largest size of the fault that is excused: op kind ->
# {check name: size}. The operation counts as failed, but `correct` stays
# true while the fault is no larger than this; a larger one turns it false.
# Today's sizes: balanced 1.7e-6; near_degenerate fronts 0.297, speeds 0.027
# above 1; stencil_error fronts 1.5e-5 (see README).
KNOWN_FAULTS = {
    "coin:balanced": {"balanced_speeds": 1e-5},
    "coin:near_degenerate": {"fronts": 0.4, "speed_limit": 0.05},
    "coin:stencil_error": {"fronts": 1e-4},
}


def _known(kind: str, problem: tuple) -> bool:
    name, _, *size = problem
    bound = KNOWN_FAULTS.get(kind, {}).get(name)
    return bound is not None and bool(size) and size[0] <= bound


def check_op(op, outputs: list) -> list:
    """Problems of one operation, given the stdout of each of its calls."""
    problems = []
    for call, text in zip(op.calls, outputs):
        cfg = call.config
        if call.command == "decompose":
            problems += check_decompose(text, op.meta["coin"], op.kind != "coin:haar")
        elif call.command == "dispersion":
            problems += check_dispersion(text, op.meta["coin"], op.meta["n_k"], op.kind == "coin:balanced")
        elif call.command == "simulate":
            problems += check_simulate(text, cfg)
        elif call.command in ("circle", "figure-eight"):
            problems += check_graph(text, cfg)
        elif call.command == "revivals":
            problems += check_revivals(text, cfg)
        elif call.command == "errorbars":
            problems += check_errorbars(text, cfg)
        else:
            raise ValueError(f"no check for {call.command!r}")
    return problems


def tally(ops, record: list):
    """(failed operations, correct, notes) over a run.

    record[i] describes op i: attempts, errors (calls that raised or exited
    non-zero), mismatches (repeats whose output differs byte for byte from
    the first good one) and outputs (that first good output, or None).
    An op whose output fails a check fails on every attempt, since its
    repeats were identical to it.
    """
    failed, correct, notes = 0, True, []
    for op, rec in zip(ops, record):
        failed += rec["errors"] + rec["mismatches"]
        if rec["mismatches"]:
            correct = False
            notes.append(f"{op.kind}: {rec['mismatches']} repeat(s) differ from the first output")
        if rec["errors"]:
            notes.append(f"{op.kind}: {rec['errors']} call(s) failed: {rec.get('error', '')}")
        if rec["outputs"] is None:
            continue
        problems = check_op(op, rec["outputs"])
        if problems:
            failed += rec["attempts"] - rec["errors"] - rec["mismatches"]
            unknown = [p for p in problems if not _known(op.kind, p)]
            correct = correct and not unknown
            shown = (unknown or problems)[:3]
            notes.extend(f"{op.kind}: {p[0]}{'' if unknown else ' (known fault)'}: {p[1]}" for p in shown)
    return failed, correct, notes
