"""Coin programs realizing walks on closed graphs inside the line lattice.

A circle of 2N sites is embedded between two end positions N apart: the
cc direction subspace forms the upper arc, the c subspace the lower arc,
and at the two end positions the subspaces join (reflection coins turn the
walker around without leaking past the ends).

Site numbering: going around the circle, nodes are m = 0 .. 2N-1 with

    m(x, cc) = (x - left_end + 1) mod 2N
    m(x, c)  = (left_end + 1 - x) mod 2N

so both subspaces agree at the ends (m = 1 and m = N + 1).

A figure-eight shares one center position between a left and a right
circle; the center coin couples all four modes, switching the walker
between lobes.  With arc lengths N_l and N_r there are
2 N_l + 2 N_r - 1 distinct nodes and the center is node 2 N_l - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .optics import ArmSetting, OpticalElement
from .walk_engine import CCH, CCV, CH, CV, CoinProgram, ElementCoin, IntensityRecord, RawCoin

FLAVORS = ("non_mixing", "hadamard_like")
NO_POSITION = np.iinfo(np.int64).min


def _qwp(angle):
    return OpticalElement("qwp", angle)


def _hwp(angle):
    return OpticalElement("hwp", angle)


def _eom(phase):
    return OpticalElement("eom", phase)


def _inner_coin(flavor: str) -> ElementCoin:
    # arms act as the polarization flip -iX; the loop element distinguishes
    # the two flavors (flip -> direction-preserving circulation, or the
    # balanced mixer)
    arm = ArmSetting((_qwp(45.0),), 0.0)
    if flavor == "non_mixing":
        return ElementCoin(arm, arm, (_hwp(45.0),))
    return ElementCoin(arm, arm, (_qwp(45.0),))


def _end_coin(flavor: str) -> ElementCoin:
    # modulator phase turns the arm action into 1 (non-mixing) or the
    # balanced mixer (hadamard-like); the loop pass becomes trivial up to
    # a global phase
    if flavor == "non_mixing":
        arm = ArmSetting((_qwp(45.0),), -90.0)
        return ElementCoin(arm, arm, (_hwp(45.0), _eom(-90.0)))
    arm = ArmSetting((_qwp(45.0),), -45.0)
    return ElementCoin(arm, arm, (_qwp(45.0), _eom(-45.0)))


def _center_coin(flavor: str) -> ElementCoin:
    if flavor == "non_mixing":
        arm = ArmSetting((_qwp(45.0),), -90.0)
        return ElementCoin(arm, arm, (_hwp(45.0),))
    arm = ArmSetting((_qwp(45.0),), -45.0)
    return ElementCoin(arm, arm, (_qwp(45.0),))


def _check_flavor(flavor: str):
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")


@dataclass(frozen=True)
class CircleSpec:
    """Closed walk on num_sites = 2N nodes between left_end and left_end + N."""

    num_sites: int
    left_end: int = 0
    flavor: str = "hadamard_like"

    def __post_init__(self):
        if self.num_sites < 4 or self.num_sites % 2 != 0:
            raise ValueError(f"num_sites must be even and at least 4, got {self.num_sites}")
        _check_flavor(self.flavor)

    @property
    def half(self) -> int:
        return self.num_sites // 2

    @property
    def right_end(self) -> int:
        return self.left_end + self.half


@dataclass(frozen=True)
class FigureEightSpec:
    """Two circles sharing the center position."""

    left_end: int = -4
    center: int = 0
    right_end: int = 4
    flavor: str = "non_mixing"

    def __post_init__(self):
        if not (self.left_end < self.center < self.right_end):
            raise ValueError(
                f"need left_end < center < right_end, got "
                f"{self.left_end}, {self.center}, {self.right_end}"
            )
        _check_flavor(self.flavor)

    @property
    def num_nodes(self) -> int:
        n_l = self.center - self.left_end
        n_r = self.right_end - self.center
        return 2 * n_l + 2 * n_r - 1


@dataclass(frozen=True)
class SiteMap:
    """Bijection between (line position, direction subspace) and node index.

    Keys of `mapping` are (x, 'c') or (x, 'cc'); at shared positions (ends,
    center) both keys exist and map to the same node.  `node_positions[0, m]`
    and `node_positions[1, m]` are the positions whose c and cc subspaces
    feed node m, or NO_POSITION where none does.
    """

    mapping: dict
    num_nodes: int
    description: str = ""
    node_positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        positions = np.full((2, self.num_nodes), NO_POSITION)
        for (x, subspace), m in self.mapping.items():
            positions[("c", "cc").index(subspace), m] = x
        object.__setattr__(self, "node_positions", positions)

    def node_of(self, x: int, subspace: str) -> int:
        return self.mapping[(x, subspace)]


def line_program(c_a: np.ndarray, c_b: np.ndarray, c_l: np.ndarray) -> CoinProgram:
    """Uniform program from raw 2x2 blocks (position and time independent)."""
    from .optics import full_coin

    return CoinProgram(default=RawCoin(full_coin(c_a, c_b, c_l)))


def circle_map(spec: CircleSpec) -> SiteMap:
    two_n = spec.num_sites
    mapping = {}
    for x in range(spec.left_end, spec.right_end + 1):
        mapping[(x, "cc")] = (x - spec.left_end + 1) % two_n
        mapping[(x, "c")] = (spec.left_end + 1 - x) % two_n
    return SiteMap(
        mapping=mapping,
        num_nodes=two_n,
        description=f"circle of {two_n} sites on [{spec.left_end}, {spec.right_end}]",
    )


def circle_program(spec: CircleSpec):
    """(CoinProgram, SiteMap) realizing a closed circle walk.

    End positions get the reflecting setting, everything else the inner
    setting.  The two ends share one element class (and therefore share
    perturbation draws in error sampling).
    """
    inner = _inner_coin(spec.flavor)
    end = _end_coin(spec.flavor)
    program = CoinProgram(
        default=inner,
        overrides={spec.left_end: end, spec.right_end: end},
    )
    return program, circle_map(spec)


def figure_eight_map(spec: FigureEightSpec) -> SiteMap:
    n_l = spec.center - spec.left_end
    total = spec.num_nodes
    mapping = {}
    for x in range(spec.left_end, spec.right_end + 1):
        xi = x - spec.center
        mapping[(x, "c")] = (2 * n_l - 1 + xi) % total
        if xi > 0:
            mapping[(x, "cc")] = (total - xi) % total
        elif xi < 0:
            mapping[(x, "cc")] = -1 - xi
        else:
            mapping[(x, "cc")] = 2 * n_l - 1
    return SiteMap(
        mapping=mapping,
        num_nodes=total,
        description=(
            f"figure-eight of {total} nodes on [{spec.left_end}, {spec.right_end}], "
            f"center {spec.center}"
        ),
    )


def figure_eight_program(spec: FigureEightSpec):
    """(CoinProgram, SiteMap) for two lobes joined at the center position."""
    inner = _inner_coin(spec.flavor)
    end = _end_coin(spec.flavor)
    center = _center_coin(spec.flavor)
    program = CoinProgram(
        default=inner,
        overrides={
            spec.left_end: end,
            spec.right_end: end,
            spec.center: center,
        },
    )
    return program, figure_eight_map(spec)


class MappedRecord(IntensityRecord):
    """Intensity record on the nodes 0 .. num_nodes - 1 of a closed graph.

    `leakage[t]` is the total intensity found outside the mapped support at
    step t; `flagged` is set when its maximum exceeds the mapping's
    tolerance.
    """

    def __init__(self, intensities: np.ndarray, reached: np.ndarray, leakage: np.ndarray, flagged: bool):
        super().__init__(intensities, reached)
        self.leakage = leakage
        self.flagged = flagged

    @property
    def num_nodes(self) -> int:
        return self.intensities.shape[1]

    @property
    def max_leakage(self) -> float:
        return float(self.leakage.max())


def map_sites(site_map: SiteMap, record: IntensityRecord, leak_tol: float = 1e-9) -> MappedRecord:
    """Gather a line record onto graph nodes, tracking off-graph intensity.

    Intensity in a direction subspace at a position that feeds no node
    counts as leakage; MappedRecord.max_leakage above leak_tol means the
    program failed to confine the walker (the caller decides whether that
    is fatal).
    """
    n_steps, n_sites = record.reached.shape
    intensities = np.zeros((n_steps, site_map.num_nodes, 4))
    reached = np.zeros((n_steps, site_map.num_nodes), dtype=bool)
    leakage = np.zeros(n_steps)
    for sub, modes in enumerate((slice(CH, CV + 1), slice(CCH, CCV + 1))):
        positions = site_map.node_positions[sub]
        inside = (positions >= record.offset) & (positions < record.offset + n_sites)
        rows = positions[inside] - record.offset
        intensities[:, inside, modes] = record.intensities[:, rows, modes]
        reached[:, inside] |= record.reached[:, rows]
        feeds = np.zeros(n_sites, dtype=bool)
        feeds[rows] = True
        leakage += record.intensities[:, ~feeds, modes].sum(axis=(1, 2))
    return MappedRecord(intensities, reached, leakage, flagged=float(leakage.max()) > leak_tol)
