"""Seeded inputs of the benchmark's workloads.

A workload is a list of operations and the order of one pass over them; a
run is made of whole passes, so every run does the same work. Each
operation is one or more ``python -m loopwalk`` calls on configs generated
here from the seed. The program receives only those configs.

Where an operation's cost depends on its size, the sizes come from a fixed
ladder, one operation per rung, and the seed moves a size by at most
8 %. Every seed then yields the same spread of costs, so the latency
median sits on the same rung whichever seed is run, while the coins,
angles, start states, offsets, lobe splits and flavours vary with the seed.

coin_survey is the exception: its coins are one fixed pool, and the seed
only orders the pass. Its checks fail on some coins because of faults in
the program, and a fixed pool keeps the failed share the same whatever the
seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from reference import coin_from_elements, haar_unitary

WORKLOADS = ("coin_survey", "graph_walks", "error_bars")


@dataclass
class Call:
    command: str
    config: dict
    flags: tuple = ()


@dataclass
class Op:
    """One operation of a pass; `meta` is what the checks need to know."""

    kind: str
    calls: list
    meta: dict = field(default_factory=dict)


def _element(rng, kinds=("qwp", "hwp")) -> dict:
    return {"kind": str(rng.choice(kinds)), "angle_deg": round(float(rng.uniform(0.0, 180.0)), 6)}


def random_elements(rng) -> dict:
    """A one-round-trip element stack: 1-2 waveplates and a modulator per arm,
    1-2 loop elements."""

    def arm():
        return {
            "waveplates": [_element(rng) for _ in range(int(rng.integers(1, 3)))],
            "eom_phase_deg": round(float(rng.uniform(-90.0, 90.0)), 6),
        }

    return {
        "arm_a": arm(),
        "arm_b": arm(),
        "loop": [_element(rng, ("qwp", "hwp", "eom")) for _ in range(int(rng.integers(1, 3)))],
    }


def _stack(arm_plates, loop_plates) -> dict:
    arm = {"waveplates": [{"kind": "qwp", "angle_deg": a} for a in arm_plates]}
    return {"arm_a": arm, "arm_b": dict(arm), "loop": [{"kind": "hwp", "angle_deg": a} for a in loop_plates]}


# the three reference coins of docs/configs
REFERENCE_COINS = {
    "balanced": _stack([45.0], [22.5]),
    "crossing": _stack([12.0], [27.0]),
    "repulsion": _stack([27.0, 0.0], [20.0]),
}


def _matrix_payload(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _initial(rng, lo: int, hi: int) -> dict:
    """A localized start in [lo, hi]. On a closed graph it must not sit on an
    end position, where half the modes point off the graph and the program
    rightly refuses the run (exit 3)."""
    return {
        "direction": str(rng.choice(["cw", "ccw"])),
        "polarization": str(rng.choice(["H", "V", "D", "A"])),
        "position": int(rng.integers(lo, hi + 1)),
    }


def _band(rng, lo: int, hi: int) -> int:
    """A value in [lo, hi)."""
    return int(rng.integers(lo, hi))


# Two fixed element stacks whose front speeds the program gets wrong (see
# README): near the fronts of the first, two bands come within 5e-3 of each
# other and the refined speeds miss by up to 0.30, one of them at |v| = 1.027;
# on the second the stencil's speed misses the group velocity by 1.5e-5.
FRONT_FAULT_COINS = {
    "near_degenerate": {
        "arm_a": {"waveplates": [{"kind": "hwp", "angle_deg": 175.030245}], "eom_phase_deg": 71.849095},
        "arm_b": {"waveplates": [{"kind": "qwp", "angle_deg": 134.430534}], "eom_phase_deg": -85.434705},
        "loop": [{"kind": "hwp", "angle_deg": 37.726975}],
    },
    "stencil_error": {
        "arm_a": {
            "waveplates": [{"kind": "qwp", "angle_deg": 61.05566}, {"kind": "qwp", "angle_deg": 62.275462}],
            "eom_phase_deg": -40.896978,
        },
        "arm_b": {"waveplates": [{"kind": "hwp", "angle_deg": 135.438204}], "eom_phase_deg": 10.609507},
        "loop": [{"kind": "eom", "angle_deg": 134.345656}, {"kind": "eom", "angle_deg": 169.805549}],
    },
}


# --- coin_survey ------------------------------------------------------------

POOL_SEED = 1
N_HAAR = 30
N_ELEMENT = 29
N_K = 1024


def _coin_op(kind: str, matrix: np.ndarray, coin_spec: dict) -> Op:
    calls = [
        Call("decompose", {"kind": "decompose", "target": _matrix_payload(matrix)}),
        Call("dispersion", {"kind": "dispersion", "n_k": N_K, "coin": coin_spec}),
    ]
    return Op(kind, calls, {"coin": matrix, "n_k": N_K})


def coin_survey(rng) -> list:
    """The fixed pool: reference and fault coins, then random coins drawn from
    POOL_SEED. `rng` (the workload seed) is not used."""
    ops = []
    for name, elements in {**REFERENCE_COINS, **FRONT_FAULT_COINS}.items():
        ops.append(_coin_op(f"coin:{name}", coin_from_elements(elements), {"elements": elements}))
    rng = np.random.default_rng([POOL_SEED, WORKLOADS.index("coin_survey")])
    for _ in range(N_HAAR):
        m = haar_unitary(rng)
        ops.append(_coin_op("coin:haar", m, {"matrix": _matrix_payload(m)}))
    for _ in range(N_ELEMENT):
        elements = random_elements(rng)
        ops.append(_coin_op("coin:element", coin_from_elements(elements), {"elements": elements}))
    return ops


# --- graph_walks ------------------------------------------------------------

GRAPH_RUNGS = 20


def _ring(rng, num_sites: int, flavor: str) -> dict:
    left = int(rng.integers(-6, 7))
    return {
        "kind": "circle",
        "num_sites": num_sites,
        "flavor": flavor,
        "left_end": left,
        "initial": _initial(rng, left + 1, left + num_sites // 2 - 1),
    }


def graph_walks(rng) -> list:
    """One op per rung r: a line walk, then a circle, revivals and figure-eight run.

    The graph sizes climb a ladder, but revivals runs down it (rung 19 - r),
    so that every op costs about the same and the latency median has many
    close neighbours. Flavours alternate along the ladder (their costs
    differ); the seed picks which comes first.
    """
    flavors = ("hadamard_like", "non_mixing")
    phase = int(rng.integers(0, 2))
    ops = []
    for r in range(GRAPH_RUNGS):
        line = {
            "kind": "line",
            "steps": _band(rng, 200, 216),
            "coin": {"elements": random_elements(rng)},
            "initial": _initial(rng, -4, 4),
        }
        calls = [Call("simulate", line, ("--trace", "sum_all"))]
        for command, rung in (("circle", r), ("revivals", GRAPH_RUNGS - 1 - r)):
            n = 8 + 2 * rung
            cfg = _ring(rng, n, flavors[(rung + phase) % 2])
            cfg["steps"] = 4 * n
            calls.append(Call(command, cfg))
        lobes = 6 + r
        n_l = int(rng.integers(3, lobes - 2))
        center = int(rng.integers(-4, 5))
        eight = {
            "kind": "figure_eight",
            "flavor": flavors[(r + phase) % 2],
            "left_end": center - n_l,
            "center": center,
            "right_end": center + lobes - n_l,
            "steps": 6 * lobes,
            "initial": _initial(rng, center - n_l + 1, center + lobes - n_l - 1),
        }
        calls.append(Call("figure-eight", eight))
        ops.append(Op("graph", calls))
    return ops


# --- error_bars -------------------------------------------------------------

EB_RUNGS = 24


def _noise(rng, samples: int, distribution: str) -> dict:
    return {
        "kind": "errorbars",
        "n_samples": samples,
        "seed": int(rng.integers(0, 2**31 - 1)),
        "angle_err_deg": round(float(rng.uniform(0.5, 2.0)), 6),
        "eff_err": round(float(rng.uniform(0.01, 0.05)), 6),
        "distribution": distribution,
    }


def error_bars(rng) -> list:
    """One op per rung r: errorbars on a small ring with an odd-node support,
    then on a short line walk without one.

    Each of the two runs pairs a size that grows along the ladder with one
    that shrinks (ring: samples up, nodes 8 -> 6 -> 4; line: steps up,
    samples down), so that every op costs about the same, whatever the
    ratio of ring to line cost.
    """
    distributions = ("uniform", "truncated_normal")
    ops = []
    for r in range(EB_RUNGS):
        down = EB_RUNGS - 1 - r
        num_sites = (8, 6, 4)[3 * r // EB_RUNGS]
        ring = _noise(rng, _band(rng, 20 + 3 * r, 22 + 3 * r), distributions[r % 2])
        base = _ring(rng, num_sites, "hadamard_like")
        base["steps"] = num_sites + 2
        ring["support"] = list(range(1, num_sites, 2))
        ring["base"] = base
        line = _noise(rng, _band(rng, 20 + 3 * down, 22 + 3 * down), distributions[down % 2])
        line["base"] = {
            "kind": "line",
            "steps": 10 + 7 * r // (EB_RUNGS - 1),
            "coin": {"elements": random_elements(rng)},
            "initial": _initial(rng, -3, 3),
        }
        ops.append(Op("errorbars", [Call("errorbars", ring), Call("errorbars", line)]))
    return ops


_GENERATORS = {"coin_survey": coin_survey, "graph_walks": graph_walks, "error_bars": error_bars}


def generate(workload: str, seed: int):
    """(operations, pass order) of `workload`, from `seed` alone.

    The pass order lists operation indices in a seeded shuffle. error_bars
    lists each operation twice, so that every run compares a repeat of each
    seeded sampling run with its first output byte for byte.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = _GENERATORS[workload](rng)
    copies = 2 if workload == "error_bars" else 1
    return ops, [int(i) % len(ops) for i in rng.permutation(copies * len(ops))]
