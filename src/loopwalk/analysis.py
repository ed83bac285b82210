"""Distribution comparison, revival detection, and error sampling.

The similarity of two intensity distributions p, q is the squared
Bhattacharyya-type amplitude overlap

    S(p, q) = ( sum_k sqrt(p_k * q_k) )^2

which is 1 exactly when the normalized distributions coincide on their
common support and both carry all their weight there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graph_programs import MappedRecord, SiteMap, map_sites
from .walk_engine import CoinProgram, IntensityRecord, WalkerState, evolve


def _flatten_table(table, resolved: bool) -> dict:
    """One distribution as {key: float}; vector values keep or sum the mode axis."""
    out = {}
    for pos, val in table.items():
        arr = np.atleast_1d(np.asarray(val, dtype=float))
        if np.any(arr < 0.0):
            raise ValueError(f"negative intensity at {pos!r}")
        if resolved and arr.size > 1:
            for i, x in enumerate(arr):
                out[(pos, i)] = float(x)
        else:
            out[pos] = float(np.sum(arr))
    return out


def similarity(p, q, resolved: bool = False) -> float:
    """Amplitude overlap squared of two distributions.

    Mappings may carry scalar or per-mode vector values; resolved=True
    compares mode-resolved entries, otherwise modes are summed per key
    first.  Keys missing from either side contribute nothing.  Plain
    arrays are compared index-wise.  Negative entries are rejected.
    """
    p_is_map = hasattr(p, "items")
    q_is_map = hasattr(q, "items")
    if p_is_map != q_is_map:
        raise ValueError("cannot compare a keyed distribution with a plain sequence")
    if not p_is_map:
        pv = np.asarray(p, dtype=float)
        qv = np.asarray(q, dtype=float)
        if pv.shape != qv.shape:
            raise ValueError(f"shape mismatch {pv.shape} vs {qv.shape}")
        if np.any(pv < 0.0) or np.any(qv < 0.0):
            raise ValueError("negative intensity entry")
        amp = float(np.sum(np.sqrt(pv * qv)))
        return amp * amp
    pf = _flatten_table(p, resolved)
    qf = _flatten_table(q, resolved)
    amp = 0.0
    for k, pk in pf.items():
        qk = qf.get(k, 0.0)
        if pk > 0.0 and qk > 0.0:
            amp += float(np.sqrt(pk * qk))
    return amp * amp


@dataclass
class SimilarityReport:
    per_step: list
    mean: float
    resolved: bool


def _step_tables(record, resolved: bool):
    """Normalize the record argument to a list of per-step distributions."""
    if isinstance(record, IntensityRecord):
        tables = record.steps
    elif isinstance(record, MappedRecord):
        tables = record.steps
    else:
        tables = record
    return [_flatten_table(table, resolved) for table in tables]


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


def similarity_report(record_p, record_q, resolved: bool = False, steps=None) -> SimilarityReport:
    """Per-step similarity of two records with their mean.

    resolved=True compares mode-resolved intensities; otherwise positions.
    `steps` restricts to a subset of step indices (default: all shared).
    """
    tp = _step_tables(record_p, resolved)
    tq = _step_tables(record_q, resolved)
    n = min(len(tp), len(tq))
    idx = range(n) if steps is None else steps
    per_step = [(t, similarity(tp[t], tq[t], resolved=resolved)) for t in idx]
    mean = average_similarity(per_step) if per_step else 0.0
    return SimilarityReport(per_step=per_step, mean=mean, resolved=resolved)


def equidistribution_similarity(
    record, step: int, support: Sequence[int], renormalize: bool = False
) -> float:
    """Similarity of a step's position distribution to uniform on `support`.

    By default the distribution is not renormalized: weight living outside
    the support lowers the score, which is the honest reading for
    confinement checks.  renormalize=True rescales the weight restricted
    to the support to one first.
    """
    support = list(support)
    if not support:
        raise ValueError("support must not be empty")
    tables = _step_tables(record, resolved=False)
    p = tables[step]
    scale = 1.0
    if renormalize:
        total = sum(p.get(m, 0.0) for m in support)
        if total > 0.0:
            scale = 1.0 / total
    q = 1.0 / len(support)
    amp = sum(np.sqrt(p.get(m, 0.0) * scale * q) for m in support)
    return float(amp * amp)


def find_revivals(record: MappedRecord, tol: float = 1e-6) -> list:
    """Steps whose node distribution matches step 0 up to a cyclic shift.

    Returns (step, shift, kind) tuples; kind is 'perfect' for shift 0 and
    'shifted' otherwise.  The shift s matches pattern-moved-by-+s, i.e.
    P_t(m) = P_0(m - s mod M).
    """
    if not isinstance(record, MappedRecord):
        raise TypeError("find_revivals expects a MappedRecord (see map_sites)")
    m = record.num_nodes
    p0 = record.distribution_vector(0)
    out = []
    for t in range(1, len(record.steps)):
        pt = record.distribution_vector(t)
        for s in range(m):
            if similarity(np.roll(p0, s), pt) >= 1.0 - tol:
                out.append((t, s, "perfect" if s == 0 else "shifted"))
    return out


@dataclass
class WalkSetup:
    """Bundle of everything needed to rerun one walk configuration."""

    program: CoinProgram
    initial: WalkerState
    steps: int
    site_map: Optional[SiteMap] = None
    support: Optional[list] = None


@dataclass
class ErrorBarReport:
    """Sampling statistics of a walk under element-angle and detection noise.

    sigma_mode[t][pos] is the per-mode root-mean-square deviation from the
    unperturbed reference; sigma_position sums modes before taking spreads.
    Similarity fields are present when a support was configured.
    """

    reference: list
    sigma_mode: list
    sigma_position: list
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


def _distorted_tables(record: IntensityRecord, eff: np.ndarray, renormalize: bool):
    """Apply per-mode detection efficiencies, optionally renormalizing each step."""
    out = []
    for table in record.steps:
        row = {x: v * eff for x, v in table.items()}
        if renormalize:
            total = sum(float(np.sum(v)) for v in row.values())
            if total > 0.0:
                row = {x: v / total for x, v in row.items()}
        out.append(row)
    return out


def _mapped_tables(tables, site_map: SiteMap):
    from .walk_engine import CH, CV, CCH, CCV

    out = []
    for table in tables:
        row: dict = {}
        for x, v in table.items():
            kc = (x, "c")
            kcc = (x, "cc")
            if kc in site_map.mapping:
                vec = row.setdefault(site_map.mapping[kc], np.zeros(4))
                vec[CH] += v[CH]
                vec[CV] += v[CV]
            if kcc in site_map.mapping:
                vec = row.setdefault(site_map.mapping[kcc], np.zeros(4))
                vec[CCH] += v[CCH]
                vec[CCV] += v[CCV]
        out.append(row)
    return out


def monte_carlo_error_bars(
    setup: WalkSetup,
    n_samples: int = 1000,
    eff_err: float = 0.025,
    angle_err_deg: float = 1.0,
    seed: int = 0,
    distribution: str = "uniform",
    renormalize: bool = True,
) -> ErrorBarReport:
    """Sample the walk under perturbed element angles and mode efficiencies.

    Each sample draws, in this order from one seeded generator: a jitter for
    every element angle of the coin program (one draw per element per coin
    class, shared across positions of the class), then four multiplicative
    mode efficiencies.  Deviations are root-mean-square distances from the
    unperturbed reference, so a zero-error run reports exactly zero.

    When the setup carries a site map, statistics are computed on node
    distributions; with a support, per-step equidistribution similarities
    and their propagated uncertainties are included.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if angle_err_deg > 0.0 and not setup.program.has_elements:
        raise ValueError(
            "angle perturbation needs an element-level coin program "
            "(raw-matrix coins carry no angles)"
        )
    rng = np.random.default_rng(seed)

    ref_record = evolve(setup.initial, setup.program, setup.steps)
    # the reference runs through the same distortion pipeline with unit
    # efficiencies so that a zero-error sample is bitwise identical to it
    ref_tables = _distorted_tables(ref_record, np.ones(4), renormalize)
    if setup.site_map is not None:
        ref_tables = _mapped_tables(ref_tables, setup.site_map)
    n_steps = len(ref_tables)

    sq_mode = [dict() for _ in range(n_steps)]
    sq_pos = [dict() for _ in range(n_steps)]
    sim_samples = [[] for _ in range(n_steps)] if setup.support else None

    for _ in range(n_samples):
        if angle_err_deg > 0.0:
            prog = setup.program.perturbed(rng, angle_err_deg, distribution)
        else:
            prog = setup.program
        eff = rng.uniform(1.0 - eff_err, 1.0 + eff_err, size=4)
        rec = evolve(setup.initial, prog, setup.steps)
        tables = _distorted_tables(rec, eff, renormalize)
        if setup.site_map is not None:
            tables = _mapped_tables(tables, setup.site_map)
        for t in range(n_steps):
            sample = tables[t]
            ref = ref_tables[t]
            keys = set(sample) | set(ref)
            acc_m = sq_mode[t]
            acc_p = sq_pos[t]
            for key in keys:
                sv = sample.get(key)
                rv = ref.get(key)
                if sv is None:
                    sv = np.zeros(4)
                if rv is None:
                    rv = np.zeros(4)
                dm = sv - rv
                prev = acc_m.get(key)
                if prev is None:
                    acc_m[key] = dm * dm
                else:
                    prev += dm * dm
                dp = float(np.sum(sv) - np.sum(rv))
                acc_p[key] = acc_p.get(key, 0.0) + dp * dp
            if sim_samples is not None:
                sim_samples[t].append(
                    equidistribution_similarity([tables[t]], 0, setup.support)
                )

    sigma_mode = [
        {k: np.sqrt(v / n_samples) for k, v in sq_mode[t].items()} for t in range(n_steps)
    ]
    sigma_position = [
        {k: float(np.sqrt(v / n_samples)) for k, v in sq_pos[t].items()}
        for t in range(n_steps)
    ]

    similarity_ref = None
    similarity_sigma = None
    similarity_sigma_sampled = None
    if setup.support:
        support = list(setup.support)
        q = 1.0 / len(support)
        similarity_ref = []
        similarity_sigma = []
        similarity_sigma_sampled = []
        for t in range(n_steps):
            ref_dist = {k: float(np.sum(v)) for k, v in ref_tables[t].items()}
            amp = sum(np.sqrt(ref_dist.get(m, 0.0) * q) for m in support)
            s_ref = float(amp * amp)
            # first-order propagation: dS/dp_m = amp * sqrt(q / p_m)
            var = 0.0
            for m_node in support:
                p_m = ref_dist.get(m_node, 0.0)
                if p_m <= 0.0:
                    continue
                dsdp = amp * np.sqrt(q / p_m)
                var += (dsdp * sigma_position[t].get(m_node, 0.0)) ** 2
            similarity_ref.append(s_ref)
            similarity_sigma.append(float(np.sqrt(var)))
            devs = np.asarray(sim_samples[t]) - s_ref
            similarity_sigma_sampled.append(float(np.sqrt(np.mean(devs * devs))))

    return ErrorBarReport(
        reference=ref_tables,
        sigma_mode=sigma_mode,
        sigma_position=sigma_position,
        n_samples=n_samples,
        seed=seed,
        angle_err_deg=angle_err_deg,
        eff_err=eff_err,
        distribution=distribution,
        renormalize=renormalize,
        mapped=setup.site_map is not None,
        num_nodes=setup.site_map.num_nodes if setup.site_map is not None else None,
        similarity_ref=similarity_ref,
        similarity_sigma=similarity_sigma,
        similarity_sigma_sampled=similarity_sigma_sampled,
    )
