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

A chain's walk runs on the window [L, R] (SiteMap.span) with a drain site
on each side (see walk_engine); map_sites counts the drained intensity,
and any intensity in the window that feeds no node, as leakage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optics import ArmSetting, OpticalElement
from .walk_engine import CCH, CCV, CH, CV, CoinProgram, ElementCoin, IntensityRecord, addressable

FLAVORS = ("non_mixing", "hadamard_like")
NO_POSITION = np.iinfo(np.int64).min


def _coins(flavor: str) -> tuple:
    """(inner, end, center) coins of a flavor, one object each.

    The inner coin's arms act as the polarization flip -iX; the loop element
    distinguishes the two flavors (flip -> direction-preserving circulation,
    or the balanced mixer).  In the end and center coins the modulator phase
    turns the arm action into 1 (non-mixing) or the balanced mixer
    (hadamard-like); the end coin's loop modulator makes its loop pass
    trivial up to a global phase.
    """
    plate = OpticalElement("hwp" if flavor == "non_mixing" else "qwp", 45.0)
    phase = -90.0 if flavor == "non_mixing" else -45.0
    inner, arm = (ArmSetting((OpticalElement("qwp", 45.0),), eom) for eom in (0.0, phase))
    return (
        ElementCoin(inner, inner, (plate,)),
        ElementCoin(arm, arm, (plate, OpticalElement("eom", phase))),
        ElementCoin(arm, arm, (plate,)),
    )


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

    @property
    def span(self) -> tuple:
        """(L, R): the least and the greatest position feeding a node."""
        fed = self.node_positions[self.node_positions != NO_POSITION]
        return int(fed.min()), int(fed.max())


def ring_chain(stops, flavor: str):
    """(CoinProgram, SiteMap) of the chain of rings between ascending stops.

    End coins at the first and last stop, center coins at the others, inner
    coins everywhere else; each coin class is one shared object (and
    therefore shares perturbation draws in error sampling).  Nodes are
    numbered by the rule in the module docstring.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")
    s = np.asarray(stops)
    if s.ndim != 1 or len(s) < 2 or s.dtype.kind not in "iu" or np.any(np.diff(s) <= 0):
        raise ValueError(f"stops must be at least two ascending integers, got {stops!r}")
    left, right, k = int(s[0]), int(s[-1]), len(s) - 1
    inner, end, center = _coins(flavor)
    overrides = {int(x): center for x in s[1:-1]}
    overrides[left] = overrides[right] = end
    program = CoinProgram(default=inner, overrides=overrides)

    total = 2 * (right - left) - k + 1
    positions = np.full(addressable((2, total), np.int64), NO_POSITION)  # the largest array built here
    x = np.arange(left, right + 1)
    c = x - left + s[1] - left - 1
    later = len(s) - np.searchsorted(s, x, side="right")  # stops beyond x
    nodes = np.stack([c, np.where(np.isin(x, s), c, c + 2 * (right - x) + 1 - later)]) % total
    if k == 1:
        nodes = (right - left - nodes) % total
    positions[0, nodes[0]] = x
    positions[1, nodes[1]] = x
    return program, SiteMap(positions)


class MappedRecord(IntensityRecord):
    """Intensity record on the nodes 0 .. num_nodes - 1 of a closed graph.

    `leakage[t]` is the intensity that left the graph in the first t steps:
    drained off the walk's window, or found in it outside the mapped
    support at step t.
    """

    def __init__(self, intensities: np.ndarray, reached: np.ndarray, leakage: np.ndarray):
        super().__init__(intensities, reached)
        self.leakage = leakage

    @property
    def num_nodes(self) -> int:
        return self.intensities.shape[1]

    @property
    def max_leakage(self) -> float:
        return float(self.leakage.max())


def node_rows(site_map: SiteMap, offset: int, n_sites: int) -> list:
    """Per direction subspace, its modes, the mask of the nodes it feeds from
    the window offset .. offset + n_sites - 1 and those sites' indices."""
    rows = []
    for modes, positions in zip((slice(CH, CV + 1), slice(CCH, CCV + 1)), site_map.node_positions):
        inside = (positions >= offset) & (positions < offset + n_sites)
        rows.append((modes, inside, positions[inside] - offset))
    return rows


def gather_nodes(values: np.ndarray, rows: list) -> np.ndarray:
    """(..., window sites, 4) values on graph nodes, (..., num_nodes, 4):
    each subspace's modes from the site feeding it, zeros where the window
    (rows, from node_rows) holds no such site."""
    out = np.zeros((*values.shape[:-2], len(rows[0][1]), 4), dtype=values.dtype)
    for modes, inside, sites in rows:
        out[..., inside, modes] = values[..., sites, modes]
    return out


def map_sites(site_map: SiteMap, record: IntensityRecord) -> MappedRecord:
    """Gather a line record onto graph nodes, tracking off-graph intensity.

    The record's drained intensity (IntensityRecord.drained) and intensity
    in a direction subspace at a window position that feeds no node count
    as leakage (MappedRecord.leakage); the caller decides how much of it
    is fatal.
    """
    n_steps, n_sites = record.reached.shape
    rows = node_rows(site_map, record.offset, n_sites)
    reached = np.zeros((n_steps, site_map.num_nodes), dtype=bool)
    leakage = np.array(record.drained, dtype=float)
    for modes, inside, sites in rows:
        reached[:, inside] |= record.reached[:, sites]
        feeds = np.zeros(n_sites, dtype=bool)
        feeds[sites] = True
        leakage += record.intensities[:, ~feeds, modes].sum(axis=(1, 2))
    return MappedRecord(gather_nodes(record.intensities, rows), reached, leakage)
