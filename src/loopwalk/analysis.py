"""Distribution comparison, revival detection, and error sampling.

The similarity of two intensity distributions p, q is the squared
Bhattacharyya-type amplitude overlap

    S(p, q) = ( sum_k sqrt(p_k * q_k) )^2

which is 1 exactly when the normalized distributions coincide on their
common support and both carry all their weight there.  Sums over sites
(overlaps, renormalization totals, propagated variances) are added in
index order, left to right, as np.cumsum adds; np.sum pairs terms up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graph_programs import MappedRecord, SiteMap, gather_nodes, map_sites, node_rows
from .walk_engine import CoinProgram, InitialState, IntensityRecord, draw_jitter, evolve, evolve_states


# Samples times window sites walked at once: bounds the memory of a batch,
# whose coin stack takes 256 bytes per sample and coined site.
BATCH_SITES = 2**16

# A weight at or below this multiple of its step's total intensity is
# rounding noise of a zero (squared amplitude rounding errors are about
# eps^2 of the total): the propagated similarity spread leaves it out, as
# its derivative amp * sqrt(q / p) diverges there.
DUST_FLOOR = 64.0 * np.finfo(float).eps


def _overlap(p, q) -> np.ndarray:
    """sum_k sqrt(p_k * q_k) along the last axis, added in index order."""
    return np.cumsum(np.sqrt(p * q), axis=-1)[..., -1]


def similarity(p, q) -> float:
    """Amplitude overlap squared of two distributions given as arrays of the
    same shape, compared index-wise.  Negative entries are rejected."""
    pv = np.asarray(p, dtype=float)
    qv = np.asarray(q, dtype=float)
    if pv.shape != qv.shape:
        raise ValueError(f"shape mismatch {pv.shape} vs {qv.shape}")
    if np.any(pv < 0.0) or np.any(qv < 0.0):
        raise ValueError("negative intensity entry")
    amp = float(_overlap(pv.ravel(), qv.ravel()))
    return amp * amp


def _at_support(values: np.ndarray, offset: int, support) -> np.ndarray:
    """values[..., m - offset] for each support site m, 0.0 outside the window."""
    if len(support) == 0:
        raise ValueError("support must not be empty")
    i = np.asarray(support) - offset
    inside = (i >= 0) & (i < values.shape[-1])
    return np.where(inside, values[..., np.where(inside, i, 0)], 0.0)


def equidistribution_similarity(
    record: IntensityRecord, step: int, support: Sequence[int], renormalize: bool = False
) -> float:
    """Similarity of a step's site distribution to uniform on `support`.

    By default the distribution is not renormalized: weight living outside
    the support lowers the score, which is the honest reading for
    confinement checks.  renormalize=True rescales the weight restricted
    to the support to one first.
    """
    support = list(support)
    weights = _at_support(record.distribution_vector(step), record.offset, support)
    if renormalize:
        total = np.cumsum(weights)[-1]
        weights = weights * (1.0 / total if total > 0.0 else 1.0)
    amp = _overlap(weights, 1.0 / len(support))
    return float(amp * amp)


def find_revivals(record: MappedRecord, tol: float = 1e-6) -> list:
    """Steps whose node distribution matches step 0 up to a cyclic shift.

    Returns (step, shift, kind) tuples; kind is 'perfect' for shift 0 and
    'shifted' otherwise.  The shift s matches pattern-moved-by-+s, i.e.
    P_t(m) = P_0(m - s mod M).
    """
    if not isinstance(record, MappedRecord):
        raise TypeError("find_revivals expects a MappedRecord (see map_sites)")
    nodes = np.arange(record.num_nodes)
    # rolls[s] is step 0 moved by +s nodes
    rolls = record.distribution_vector(0)[(nodes[None, :] - nodes[:, None]) % record.num_nodes]
    dists = record.intensities[1:].sum(axis=2)
    hits = np.stack([_overlap(roll, dists) ** 2 >= 1.0 - tol for roll in rolls], axis=1)  # (step - 1, shift)
    return [(t + 1, s, "perfect" if s == 0 else "shifted") for t, s in np.argwhere(hits).tolist()]


@dataclass
class WalkSetup:
    """Bundle of everything needed to rerun one walk configuration."""

    program: CoinProgram
    initial: InitialState
    steps: int
    site_map: Optional[SiteMap] = None
    support: Optional[list] = None


@dataclass
class ErrorBarReport:
    """Sampling statistics of a walk under element-angle and detection noise.

    `reference` is the unperturbed record after the same distortion
    pipeline (on graph nodes when the setup has a site map).
    sigma_mode[t, i] is the per-mode root-mean-square deviation from it at
    site i of that record; sigma_position[t, i] sums modes before taking
    spreads.  Similarity fields are present when a support was configured.
    """

    reference: IntensityRecord
    sigma_mode: np.ndarray
    sigma_position: np.ndarray
    n_samples: int
    seed: int
    angle_err_deg: float
    eff_err: float
    distribution: str
    renormalize: bool
    mapped: bool
    num_nodes: Optional[int] = None
    similarity_ref: Optional[list] = None
    similarity_sigma: Optional[list] = None
    similarity_sigma_sampled: Optional[list] = None


def _detected(intensities: np.ndarray, eff: np.ndarray, renormalize: bool) -> np.ndarray:
    """(..., sites, 4) intensities, a walk's steps or one step's samples,
    times the mode efficiencies eff, each step or sample optionally
    renormalized by its running sum over the sites in position order (the
    last bits of the printed spreads depend on that order)."""
    detected = intensities * eff
    if renormalize:
        totals = np.cumsum(detected.sum(axis=-1), axis=-1)[..., -1]
        detected = detected / np.where(totals > 0.0, totals, 1.0)[..., None, None]
    return detected


def monte_carlo_error_bars(
    setup: WalkSetup,
    n_samples: int = 1000,
    eff_err: float = 0.025,
    angle_err_deg: float = 1.0,
    seed: int = 0,
    distribution: str = "uniform",
    renormalize: bool = True,
    base_record: Optional[IntensityRecord] = None,
) -> ErrorBarReport:
    """Sample the walk under perturbed element angles and mode efficiencies.

    Each sample draws, in this order from one seeded generator: a jitter for
    every element angle of the coin program (one draw per element per coin
    class, shared across positions of the class; none when angle_err_deg is
    0), then four multiplicative mode efficiencies.  All draws are taken up
    front, sample by sample, and the samples walk together in batches
    (CoinProgram.sampled) of at most BATCH_SITES // window samples: every
    step's (samples, sites, 4) intensities go through the distortion
    pipeline at once and are added into the squared deviations in sample
    order, so the result equals running the samples one at a time.
    Deviations are root-mean-square distances from the unperturbed
    reference, so a zero-error run reports exactly zero.

    Every walk runs on the light cone, also on a graph: light that a
    perturbed coin lets out of the graph walks on under the program's
    default coin, can re-enter, and counts in each step's renormalization
    total.  When the setup carries a site map, statistics are computed on
    node distributions; with a support, per-step equidistribution
    similarities and their uncertainties are included, both sampled and
    propagated to first order from the position spreads (over the support
    sites whose reference weight exceeds DUST_FLOOR times the step's total).
    base_record, when given, is the setup's unperturbed walk (on the light
    cone) evolved by the caller, used instead of evolving it again.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if angle_err_deg > 0.0 and not setup.program.has_elements:
        raise ValueError(
            "angle perturbation needs an element-level coin program "
            "(raw-matrix coins carry no angles)"
        )
    rng = np.random.default_rng(seed)

    # the reference runs through the same distortion pipeline with unit
    # efficiencies so that a zero-error sample is bitwise identical to it
    if base_record is None:
        base_record = evolve(setup.initial, setup.program, setup.steps)
    ref = IntensityRecord(
        _detected(base_record.intensities, np.ones(4), renormalize), base_record.reached, base_record.offset
    )
    if setup.site_map is not None:
        ref = map_sites(setup.site_map, ref)
    ref_dist = ref.intensities.sum(axis=2)
    # per sample: one offset per element angle (none without angle error), then four efficiencies
    n_angles = len(setup.program.angles())
    drawn = n_angles if angle_err_deg > 0.0 else 0
    draws = draw_jitter(rng, n_samples, drawn, angle_err_deg, distribution, eff_err)
    offsets = draws[:, :drawn] if drawn else np.zeros((n_samples, n_angles))
    eff = draws[:, None, drawn:]
    sq_mode = np.zeros_like(ref.intensities)
    sq_pos = np.zeros_like(ref_dist)
    if setup.support is not None:
        weights = _at_support(ref_dist, ref.offset, setup.support)
        sampled = np.zeros((len(ref), n_samples, len(setup.support)))  # per step, the samples' weights
    # the samples walk in batches of at most BATCH_SITES // window of them,
    # one step of a batch at a time, and are added in sample order
    window = base_record.intensities.shape[1]
    rows = node_rows(setup.site_map, base_record.offset, window) if setup.site_map is not None else None
    size = max(1, BATCH_SITES // window)
    for first in range(0, n_samples, size):
        batch = slice(first, first + size)
        for t, amp in enumerate(evolve_states(setup.initial, setup.program.sampled(offsets[batch]), setup.steps)):
            sample = _detected(np.abs(amp) ** 2, eff[batch], renormalize)
            sample = sample if rows is None else gather_nodes(sample, rows)
            dm = sample - ref.intensities[t]
            sq_mode[t] = np.cumsum(np.concatenate([sq_mode[t][None], dm * dm]), axis=0)[-1]
            sample_dist = sample.sum(axis=2)
            dp = sample_dist - ref_dist[t]
            sq_pos[t] = np.cumsum(np.concatenate([sq_pos[t][None], dp * dp]), axis=0)[-1]
            if setup.support is not None:
                sampled[t, batch] = _at_support(sample_dist, ref.offset, setup.support)

    report = ErrorBarReport(
        reference=ref,
        sigma_mode=np.sqrt(sq_mode / n_samples),
        sigma_position=np.sqrt(sq_pos / n_samples),
        n_samples=n_samples,
        seed=seed,
        angle_err_deg=angle_err_deg,
        eff_err=eff_err,
        distribution=distribution,
        renormalize=renormalize,
        mapped=setup.site_map is not None,
        num_nodes=setup.site_map.num_nodes if setup.site_map is not None else None,
    )
    if setup.support is not None:
        q = 1.0 / len(setup.support)  # the uniform distribution on the support
        amp = _overlap(weights, q)
        # first-order propagation over the sites holding weight: dS/dp_m =
        # amp * sqrt(q / p_m); squared with pow (x * x can differ in the last bit)
        held = weights > DUST_FLOOR * np.cumsum(ref_dist, axis=1)[:, -1:]
        dsdp = amp[:, None] * np.sqrt(q / np.where(held, weights, 1.0))
        sigma_at = _at_support(report.sigma_position, ref.offset, setup.support)
        terms = np.where(held, np.float_power(dsdp * sigma_at, 2), 0.0)
        sampled_amp = _overlap(sampled, q)  # one contiguous row of samples per step
        devs = sampled_amp * sampled_amp - (amp * amp)[:, None]
        report.similarity_ref = (amp * amp).tolist()
        report.similarity_sigma = np.sqrt(np.cumsum(terms, axis=1)[:, -1]).tolist()
        report.similarity_sigma_sampled = np.sqrt(np.mean(devs * devs, axis=1)).tolist()
    return report
