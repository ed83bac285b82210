"""Coin programs realizing walks on chains of rings inside the line lattice.

A chain of K rings lies on the line between ascending stops
s_0 < s_1 < ... < s_K.  The ends L = s_0 and R = s_K get the end coin,
which turns the walker around without leaking past them; the K - 1
junctions s_1 .. s_{K-1} get the center coin, which couples all four
modes and switches the walker between the two rings meeting there; every
other position gets the inner coin.  Between two neighbouring stops the
c direction subspace forms one arc of a ring and the cc subspace the
other, and the two arcs meet at the stops.

Site numbering: there are M = 2(R - L) - K + 1 nodes, and

    m(x, c)  = (x - L + s_1 - L - 1) mod M          for L <= x <= R,
    m(x, cc) = m(x, c) at a stop, else
               (m(x, c) + 2(R - x) + 1 - #{stops > x}) mod M,

except that a single ring (K = 1) takes the mirror image
m -> (R - L - m) mod M.  The circle of 2N sites between L and L + N is
K = 1, with

    m(x, cc) = (x - L + 1) mod 2N,    m(x, c) = (L + 1 - x) mod 2N,

so both subspaces agree at the ends (m = 1 and m = N + 1).  The
figure-eight with center C is K = 2: 2(C - L) + 2(R - C) - 1 nodes, the
center being node 2(C - L) - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optics import ArmSetting, OpticalElement
from .walk_engine import CCH, CCV, CH, CV, CoinProgram, ElementCoin, IntensityRecord

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
    """Closed walk on num_sites = 2N nodes: the one-ring chain with stops
    left_end and left_end + N."""

    num_sites: int
    left_end: int = 0
    flavor: str = "hadamard_like"

    def __post_init__(self):
        if self.num_sites < 4 or self.num_sites % 2 != 0:
            raise ValueError(f"num_sites must be even and at least 4, got {self.num_sites}")
        _check_flavor(self.flavor)

    @property
    def stops(self) -> tuple:
        return (self.left_end, self.left_end + self.num_sites // 2)


@dataclass(frozen=True)
class FigureEightSpec:
    """Two circles sharing the center position: the two-ring chain with
    stops left_end, center and right_end."""

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
    def stops(self) -> tuple:
        return (self.left_end, self.center, self.right_end)

    @property
    def num_nodes(self) -> int:
        n_l = self.center - self.left_end
        n_r = self.right_end - self.center
        return 2 * n_l + 2 * n_r - 1


@dataclass(frozen=True, eq=False)
class SiteMap:
    """Bijection between (line position, direction subspace) and node index.

    `node_positions[0, m]` and `node_positions[1, m]` are the positions
    whose c and cc subspaces feed node m, or NO_POSITION where none does;
    at a stop both subspaces feed the same node.
    """

    node_positions: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.node_positions.shape[1]

    def node_of(self, x: int, subspace: str) -> int:
        """The node fed by subspace 'c' or 'cc' at position x."""
        (m,) = np.flatnonzero(self.node_positions[("c", "cc").index(subspace)] == x)
        return int(m)


def ring_chain(stops, flavor: str):
    """(CoinProgram, SiteMap) of the chain of rings between ascending stops.

    End coins at the first and last stop, center coins at the others, inner
    coins everywhere else; each coin class is one shared object (and
    therefore shares perturbation draws in error sampling).  Nodes are
    numbered by the rule in the module docstring.
    """
    _check_flavor(flavor)
    s = np.asarray(stops)
    if s.ndim != 1 or len(s) < 2 or s.dtype.kind not in "iu" or np.any(np.diff(s) <= 0):
        raise ValueError(f"stops must be at least two ascending integers, got {stops!r}")
    left, right, k = int(s[0]), int(s[-1]), len(s) - 1
    end, center = _end_coin(flavor), _center_coin(flavor)
    overrides = {int(x): center for x in s[1:-1]}
    overrides[left] = overrides[right] = end
    program = CoinProgram(default=_inner_coin(flavor), overrides=overrides)

    total = 2 * (right - left) - k + 1
    x = np.arange(left, right + 1)
    c = x - left + s[1] - left - 1
    later = len(s) - np.searchsorted(s, x, side="right")  # stops beyond x
    nodes = np.stack([c, np.where(np.isin(x, s), c, c + 2 * (right - x) + 1 - later)]) % total
    if k == 1:
        nodes = (right - left - nodes) % total
    positions = np.full((2, total), NO_POSITION)
    positions[0, nodes[0]] = x
    positions[1, nodes[1]] = x
    return program, SiteMap(positions)


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
