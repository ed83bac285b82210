"""Distribution comparison, revival detection, and error sampling.

The similarity of two intensity distributions p, q is the squared
Bhattacharyya-type amplitude overlap

    S(p, q) = ( sum_k sqrt(p_k * q_k) )^2

which is 1 exactly when the normalized distributions coincide on their
common support and both carry all their weight there.  Sums over sites
(overlaps, renormalization totals, propagated variances) are added in
index order, left to right, as np.cumsum adds; np.sum pairs terms up.
A cell light cannot reach holds an exact zero, which adds +0.0 to such a
sum: the error sampler's per-step passes skip those (walk_engine.reach).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graph_programs import MappedRecord, SiteMap, gather_nodes, map_sites, node_rows
from .walk_engine import CoinProgram, InitialState, IntensityRecord, draw_jitter, evolve, evolve_states, mode_sum, reach


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


def _at_support(values: np.ndarray, offset: int, support, step: int = 1) -> np.ndarray:
    """values[..., (m - offset) // step] for each support site m of the sites
    offset + step * i of a window, 0.0 for any other m."""
    if len(support) == 0:
        raise ValueError("support must not be empty")
    i, off = np.divmod(np.asarray(support) - offset, step)
    inside = (off == 0) & (i >= 0) & (i < values.shape[-1])
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
    P_t(m) = P_0(m - s mod M).  The overlaps of every step with every
    shift grow node by node, each by the term _overlap adds next, so each
    one has _overlap's bits.
    """
    if not isinstance(record, MappedRecord):
        raise TypeError("find_revivals expects a MappedRecord (see map_sites)")
    nodes = np.arange(record.num_nodes)
    # rolls[s] is step 0 moved by +s nodes
    rolls = record.distribution_vector(0)[(nodes[None, :] - nodes[:, None]) % record.num_nodes]
    dists = mode_sum(record.intensities[1:])
    amp = np.zeros((len(dists), len(rolls)))  # (step - 1, shift)
    for p, q in zip(dists.T, rolls.T):
        amp += np.sqrt(p[:, None] * q)
    return [(t + 1, s, "perfect" if s == 0 else "shifted") for t, s in np.argwhere(amp**2 >= 1.0 - tol).tolist()]


@dataclass
class ErrorBarReport:
    """Sampling statistics of a walk under element-angle and detection noise.

    `reference` is the unperturbed record after the same distortion
    pipeline (on graph nodes when the walk has a site map).
    sigma_mode[t, i] is the per-mode root-mean-square deviation from it at
    site i of that record; sigma_position[t, i] sums modes before taking
    spreads.  Similarity fields are present when a support was configured.
    """

    reference: IntensityRecord
    sigma_mode: np.ndarray
    sigma_position: np.ndarray
    n_samples: int
    similarity_ref: Optional[list] = None
    similarity_sigma: Optional[list] = None
    similarity_sigma_sampled: Optional[list] = None


def _detected(intensities: np.ndarray, eff: np.ndarray, renormalize: bool, totaled=None) -> np.ndarray:
    """(..., sites, 4) intensities, a walk's steps or one step's samples,
    times the mode efficiencies eff, each step or sample optionally
    renormalized by the running sum over the sites, in position order, of
    `totaled` (default: intensities) times eff (the last bits of the printed
    spreads depend on that order; sites left out of `totaled` hold zeros)."""
    detected = intensities * eff
    if renormalize:
        totals = np.cumsum(mode_sum(detected if totaled is None else totaled * eff), axis=-1)[..., -1]
        detected = detected / np.where(totals > 0.0, totals, 1.0)[..., None, None]
    return detected


def monte_carlo_error_bars(
    program: CoinProgram,
    initial: InitialState,
    steps: int,
    site_map: Optional[SiteMap] = None,
    support: Optional[Sequence[int]] = None,
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
    step's (samples, cells, 4) intensities go through the distortion
    pipeline at once and are added into the squared deviations in sample
    order, so the result equals running the samples one at a time.  Step t
    touches only the cells light can reach (reach); on a graph, amplitudes
    are gathered onto its nodes before they are squared.
    Deviations are root-mean-square distances from the unperturbed
    reference, so a zero-error run reports exactly zero.

    Every walk runs on the light cone, also on a graph: light that a
    perturbed coin lets out of the graph walks on under the program's
    default coin, can re-enter, and counts in each step's renormalization
    total.  With a site map, statistics are computed on node distributions;
    with a support, per-step equidistribution similarities and their
    uncertainties are included, both sampled and propagated to first order
    from the position spreads (over the support sites whose reference weight
    exceeds DUST_FLOOR times the step's total).  base_record, when given, is
    the unperturbed walk (on the light cone) evolved by the caller, used
    instead of evolving it again.  Only its offset and width are kept once
    the reference is built, so a caller that passes it without holding it
    frees its intensities before sampling.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if angle_err_deg > 0.0 and not program.has_elements:
        raise ValueError(
            "angle perturbation needs an element-level coin program "
            "(raw-matrix coins carry no angles)"
        )
    rng = np.random.default_rng(seed)

    # the reference runs through the same distortion pipeline with unit
    # efficiencies so that a zero-error sample is bitwise identical to it
    if base_record is None:
        base_record = evolve(initial, program, steps)
    ref = IntensityRecord(
        _detected(base_record.intensities, np.ones(4), renormalize), base_record.reached, base_record.offset
    )
    if site_map is not None:
        ref = map_sites(site_map, ref)
    ref_dist = mode_sum(ref.intensities)
    # per sample: one offset per element angle (none without angle error), then four efficiencies
    n_angles = len(program.angles())
    drawn = n_angles if angle_err_deg > 0.0 else 0
    draws = draw_jitter(rng, n_samples, drawn, angle_err_deg, distribution, eff_err)
    offsets = draws[:, :drawn] if drawn else np.zeros((n_samples, n_angles))
    eff = draws[:, None, drawn:]
    sq_mode = np.zeros_like(ref.intensities)
    sq_pos = np.zeros_like(ref_dist)
    if support is not None:
        weights = _at_support(ref_dist, ref.offset, support)
        sampled = np.zeros((len(ref), n_samples, len(support)))  # per step, the samples' weights
    # the samples walk in batches of at most BATCH_SITES // window of them,
    # one step of a batch at a time, and are added in sample order
    window = base_record.intensities.shape[1]
    rows = node_rows(site_map, base_record.offset, window) if site_map is not None else None
    lo, hi, step = reach(np.subtract(list(initial), base_record.offset))
    del base_record
    size = max(1, BATCH_SITES // window)
    for first in range(0, n_samples, size):
        batch = slice(first, first + size)
        for t, amp in enumerate(evolve_states(initial, program.sampled(offsets[batch]), steps)):
            cells = slice(lo - t, hi + t, step)
            if rows is None:
                sample, at = _detected(np.abs(amp[:, cells]) ** 2, eff[batch], renormalize), cells
            else:  # squared after the gather, elementwise: the same bits; the cells, which
                # only total, are freed before the kernel's next step
                on_nodes = np.abs(gather_nodes(amp, rows)) ** 2
                sample, at = _detected(on_nodes, eff[batch], renormalize, np.abs(amp[:, cells]) ** 2), slice(0, None, 1)
            dm = sample - ref.intensities[t, at]
            sq_mode[t, at] = np.cumsum(np.concatenate([sq_mode[t, at][None], dm * dm]), axis=0)[-1]
            sample_dist = mode_sum(sample)
            dp = sample_dist - ref_dist[t, at]
            sq_pos[t, at] = np.cumsum(np.concatenate([sq_pos[t, at][None], dp * dp]), axis=0)[-1]
            if support is not None:
                sampled[t, batch] = _at_support(sample_dist, ref.offset + at.start, support, at.step)

    report = ErrorBarReport(
        reference=ref,
        sigma_mode=np.sqrt(sq_mode / n_samples),
        sigma_position=np.sqrt(sq_pos / n_samples),
        n_samples=n_samples,
    )
    if support is not None:
        q = 1.0 / len(support)  # the uniform distribution on the support
        amp = _overlap(weights, q)
        # first-order propagation over the sites holding weight: dS/dp_m =
        # amp * sqrt(q / p_m); squared with pow (x * x can differ in the last bit)
        held = weights > DUST_FLOOR * np.cumsum(ref_dist, axis=1)[:, -1:]
        dsdp = amp[:, None] * np.sqrt(q / np.where(held, weights, 1.0))
        sigma_at = _at_support(report.sigma_position, ref.offset, support)
        terms = np.where(held, np.float_power(dsdp * sigma_at, 2), 0.0)
        sampled_amp = _overlap(sampled, q)  # one contiguous row of samples per step
        devs = sampled_amp * sampled_amp - (amp * amp)[:, None]
        report.similarity_ref = (amp * amp).tolist()
        report.similarity_sigma = np.sqrt(np.cumsum(terms, axis=1)[:, -1]).tolist()
        report.similarity_sigma_sampled = np.sqrt(np.mean(devs * devs, axis=1)).tolist()
    return report
