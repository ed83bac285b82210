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

from .graph_programs import MappedRecord, SiteMap, map_sites
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


@dataclass
class SimilarityReport:
    per_step: list
    mean: float
    resolved: bool


def average_similarity(per_step, t: Optional[int] = None) -> float:
    """Arithmetic mean of the first t per-step similarity values.

    `per_step` is a list of floats or of (step, value) pairs (as stored in
    a SimilarityReport); t defaults to the full length and must be positive.
    """
    vals = [v[1] if isinstance(v, tuple) else float(v) for v in per_step]
    if t is None:
        t = len(vals)
    if t <= 0 or t > len(vals):
        raise ValueError(f"need 1 <= t <= {len(vals)}, got {t}")
    return float(np.mean(vals[:t]))


def similarity_report(
    record_p: IntensityRecord, record_q: IntensityRecord, resolved: bool = False, steps=None
) -> SimilarityReport:
    """Per-step similarity of two records with their mean.

    The records' windows are aligned by position.  resolved=True compares
    mode-resolved intensities; otherwise positions.  `steps` restricts to a
    subset of step indices (default: all shared).
    """
    n = min(len(record_p), len(record_q))
    lo = min(record_p.offset, record_q.offset)
    hi = max(r.offset + r.intensities.shape[1] for r in (record_p, record_q))

    def aligned(record):
        out = np.zeros((n, hi - lo, 4))
        out[:, record.offset - lo : record.offset - lo + record.intensities.shape[1]] = record.intensities[:n]
        return out if resolved else out.sum(axis=2)

    amp = _overlap(aligned(record_p).reshape(n, -1), aligned(record_q).reshape(n, -1))
    per_step = [(t, float(amp[t] * amp[t])) for t in (range(n) if steps is None else steps)]
    mean = average_similarity(per_step) if per_step else 0.0
    return SimilarityReport(per_step=per_step, mean=mean, resolved=resolved)


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
    out = []
    for t in range(1, len(record)):
        overlap = _overlap(rolls, record.distribution_vector(t)) ** 2
        for s in np.flatnonzero(overlap >= 1.0 - tol).tolist():
            out.append((t, s, "perfect" if s == 0 else "shifted"))
    return out


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


def _observed(record: IntensityRecord, eff: np.ndarray, renormalize: bool, site_map: Optional[SiteMap]):
    """Apply per-mode detection efficiencies, optionally renormalize each
    step, then map onto the graph when there is one.  The record's leading
    axis may also be the samples of one step, with eff (samples, 1, 4).

    Step totals are running sums over the sites in position order; the
    last bits of the printed spreads depend on that order.
    """
    intensities = record.intensities * eff
    if renormalize:
        totals = np.cumsum(intensities.sum(axis=2), axis=1)[:, -1]
        intensities = intensities / np.where(totals > 0.0, totals, 1.0)[:, None, None]
    observed = IntensityRecord(intensities, record.reached, record.offset)
    return observed if site_map is None else map_sites(site_map, observed)


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
    order, so the result equals running the samples one at a time.  Deviations are root-mean-square distances from the
    unperturbed reference, so a zero-error run reports exactly zero.

    When the setup carries a site map, statistics are computed on node
    distributions; with a support, per-step equidistribution similarities
    and their uncertainties are included, both sampled and propagated to
    first order from the position spreads (over the support sites whose
    reference weight exceeds DUST_FLOOR times the step's total).
    base_record, when given, is the setup's unperturbed walk already
    evolved by the caller; it is used instead of evolving it again.
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
    ref = _observed(base_record, np.ones(4), renormalize, setup.site_map)
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
    size = max(1, BATCH_SITES // base_record.intensities.shape[1])
    for first in range(0, n_samples, size):
        batch = slice(first, first + size)
        for t, state in enumerate(evolve_states(setup.initial, setup.program.sampled(offsets[batch]), setup.steps)):
            walked = IntensityRecord(np.abs(state.amp) ** 2, state.reached, state.offset)
            sample = _observed(walked, eff[batch], renormalize, setup.site_map)
            dm = sample.intensities - ref.intensities[t]
            sq_mode[t] = np.cumsum(np.concatenate([sq_mode[t][None], dm * dm]), axis=0)[-1]
            sample_dist = sample.intensities.sum(axis=2)
            dp = sample_dist - ref_dist[t]
            sq_pos[t] = np.cumsum(np.concatenate([sq_pos[t][None], dp * dp]), axis=0)[-1]
            if setup.support is not None:
                sampled[t, batch] = _at_support(sample_dist, sample.offset, setup.support)

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
