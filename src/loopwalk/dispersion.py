"""Momentum-space analysis of translation-invariant walks.

The walk operator at Bloch momentum k is U(k) = S(k) . C with the shift

    S(k) |cH>  = e^{-ik} |ccH>      S(k) |ccH> = e^{+ik} |cH>
    S(k) |cV>  = e^{+ik} |ccV>      S(k) |ccV> = e^{-ik} |cV>

(reading columns: the coefficient sits at row = target mode).  Bands are
eigenphases of U(k) connected across the sampled grid by maximal
eigenvector overlap, unwrapped so each branch is continuous; the exposed
values are the unwrapped phases (congruent mod 2pi to values in [-pi, pi)
at the anchor sample).

Band derivatives are analytic.  S(k) = S(0) e^{ikD} with
D = diag(-1, +1, +1, -1), so for orthonormal eigenvectors v_n of U(k) and
w_n = C v_n, eigenphase perturbation theory gives

    omega'_n  = <w_n|D|w_n>
    omega''_n = sum_m |<w_m|D|w_n>|^2 cot((omega_n - omega_m) / 2)

and |omega'| <= 1 since ||D|| = 1.  Partners whose phase lies within 1e-7
on the circle are left out of the cot sum (a band that stays degenerate has
the same derivatives in every basis of its eigenspace).

Eigenpairs come from a Hermitian solver.  A unitary U is normal, so it
shares its eigenvectors with A = (U + U^H)/2 + a (U - U^H)/(2i) for real a,
whose eigenvalues are cos(omega) + a sin(omega); eigh(A) gives orthonormal
vectors, and the eigenvalues of U are their Rayleigh quotients v^H U v.
Where two eigenvalues of A collide (omega_i + omega_j = 2 atan(a) mod 2pi)
eigh mixes their vectors, so every matrix that fails the residual gate
(its largest ||Uv - lambda v|| exceeds 3e-14, or is NaN) is solved again
by eig.  eig returns non-orthogonal vectors inside a degenerate
eigenspace, so those matrices' vectors are orthonormalised before the
derivatives are taken.

Every non-zero entry of S(k) is e^{+-ik}, so U(k + pi) = -U(k): a sample
n_k/2 after another on an even grid has its eigenvectors and negated
eigenvalues.  band_structure solves the first n_k/2 + 6 padded samples and
copies the rest from their twins, and with them the twins' other per-sample
work: the branch match between two twins is the one between their sources,
and a twin's matrix elements <w_m|D|w_n> are its source's, read in its own
branch order (a twin that fell back to eig orthonormalises its own vectors).
omega'' is still summed with each twin's own unwrapped phases.  An odd n_k
has no twins and solves every sample.

Wavefront speeds are the group velocities at inflection points of a band
(zeros of omega'').  Bands with numerically constant slope (flat or
strictly linear) have no isolated inflections and contribute their
constant velocity as a single wavefront.

Inflections and interbranch gap minima are both refined off the grid by
one lockstep Illinois root finder (regula falsi that halves the value of
an end kept twice in a row) on the analytic derivatives: inflections on
omega'', gap minima on d(gap)/dk, which needs omega' only, so their rounds
skip the cot sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg_core import wrap_phase
from .optics import certified_coin
from .walk_engine import CH, CV, CCH, CCV, addressable, mode_sum

_PAD = 3  # grid samples kept beyond each end, so searches see across the seam
_FRONT_WIDTH = 1e-8     # Illinois brackets of an inflection stop this narrow,
_MINIMUM_WIDTH = 1e-12  # those of a gap minimum this narrow
_MAX_ROUNDS = 100       # a guard; a bracket across a jump needs about 40
_LINEAR_BRANCH_TOL = 1e-9
_DEGENERATE_PHASE = 1e-7  # partners this close on the circle share an eigenspace
# At a refined inflection |omega''| is at most of order |omega'''| times
# _FRONT_WIDTH, and usually far less; a bracket that closed on a pole of the
# cot sum (a branch passing a near crossing) leaves it of order one or larger.
_INFLECTION_TOL = 1e-3
# Eigenphase noise floor.  Rayleigh quotients of residual-gated vectors (and
# eig, where the gate falls back to it) give the eigenvalues of a unitary to
# a few eps of absolute error, so every phase in [-pi, pi] carries ripple of
# order eps * pi (a constant 2.3 gap on a 4x4 coin ripples by 2.2e-15).
# Gap differences below this floor are treated as equal; the factor 64 leaves
# room for the difference of two noisy phases and for larger dimensions.
_PHASE_NOISE_FLOOR = 64.0 * np.finfo(float).eps * np.pi
# eigh mixes the vectors of eigenvalues of A that collide, and a = 0 would
# collide every +-omega pair (as in the split-step Hadamard walk) at every
# k; any fixed non-zero a leaves collisions at isolated k only
_HERMITIAN_MIX = 0.5
_RESIDUAL_GATE = 3e-14  # a matrix whose eigh residual exceeds this goes to eig

# S(k) = S(0) . exp(ikD)
_D = np.empty(4)
_D[[CH, CCV]] = -1.0
_D[[CV, CCH]] = 1.0


def shift_bloch(k) -> np.ndarray:
    """Shift operator at momentum k; k may be scalar or an array (batched)."""
    k = np.asarray(k, dtype=float)
    out = np.zeros(k.shape + (4, 4), dtype=complex)
    out[..., CCH, CH] = np.exp(-1j * k)
    out[..., CCV, CV] = np.exp(1j * k)
    out[..., CH, CCH] = np.exp(1j * k)
    out[..., CV, CCV] = np.exp(-1j * k)
    return out


def bloch_operator(coin: np.ndarray, k) -> np.ndarray:
    """U(k) = S(k) . coin for a position-independent 4x4 coin."""
    return shift_bloch(k) @ certified_coin(coin)


def _eigenpairs(u: np.ndarray):
    """Eigenvalues and eigenvectors of a batch of unitaries (n, d, d).

    Returns (w, v, redo, residual): eigenvalues (n, d), eigenvectors as
    columns (n, d, d), the matrices that failed the residual gate and were
    solved by eig (their vectors need not be orthonormal), and the largest
    residual accepted from eigh (see the module docstring).
    """
    uh = np.conj(np.swapaxes(u, 1, 2))
    _, v = np.linalg.eigh(0.5 * (u + uh) - 0.5j * _HERMITIAN_MIX * (u - uh))
    uv = u @ v
    w = np.einsum("nij,nij->nj", v.conj(), uv)
    residual = np.max(np.linalg.norm(uv - v * w[:, None, :], axis=1), axis=1)
    ok = residual <= _RESIDUAL_GATE  # a NaN residual fails too
    redo = np.flatnonzero(~ok)
    if len(redo):
        w[redo], v[redo] = np.linalg.eig(u[redo])
    return w, v, redo, float(np.max(residual, initial=0.0, where=ok))


def _grid_eigenpairs(coin: np.ndarray, k_pad: np.ndarray, n_k: int):
    """_eigenpairs of U(k) on the padded grid k_pad of n_k samples per period.

    On an even grid each sample from n_k/2 + 2 _PAD on is the twin of the
    sample n_k/2 before it, k + pi apart: it takes that sample's vectors and
    negated eigenvalues (and its place in redo) without a solve, and
    band_structure copies its branch match and matrix elements as well.  An
    odd grid has no twins.
    """
    half = 0 if n_k % 2 else n_k // 2
    solved = len(k_pad) - half
    w, v, redo, residual = _eigenpairs(shift_bloch(k_pad[:solved]) @ coin)
    twins = slice(solved - half, solved)
    redo = np.concatenate([redo, redo[redo >= solved - half] + half])
    return np.concatenate([w, -w[twins]]), np.concatenate([v, v[twins]]), redo, residual


def _derivatives(coin: np.ndarray, vecs: np.ndarray, phases: np.ndarray, redo: np.ndarray, curvature: bool = True,
                 reads: Optional[tuple] = None):
    """omega' and, with curvature, omega'' of every eigenpair, batched over samples.

    vecs: (n, d, d) eigenvectors of U(k) as columns, orthonormal except in
    the samples redo (eig's vectors); phases: (n, d) their eigenphases, or
    those of other samples when reads indexes the matrix elements onto them.
    Returns a tuple of arrays of phases' shape (see the module docstring).
    """
    w = coin @ vecs
    if len(redo):
        w[redo] = coin @ np.linalg.qr(vecs[redo])[0]  # orthonormal, column order kept
    dm = np.einsum("sin,i,sim->snm", w.conj(), _D, w)
    if reads is not None:
        dm = dm[reads]
    first = np.einsum("snn->sn", dm).real
    if not curvature:
        return (first,)
    diff = phases[:, :, None] - phases[:, None, :]
    partner = np.abs(wrap_phase(diff)) > _DEGENERATE_PHASE
    cot = np.divide(1.0, np.tan(0.5 * diff), out=np.zeros_like(diff), where=partner)
    return first, mode_sum(np.abs(dm) ** 2 * cot)  # each row holds its +0.0 diagonal term, never four -0.0s


class DispersionSpectrum:
    """Connected band structure on a uniform k grid over [-pi, pi).

    Attributes
    ----------
    k_grid : (n_k,) sample momenta
    omegas : (n_branches, n_k) unwrapped eigenphase branches
    vectors : (n_branches, n_k, dim) matching eigenvectors
    """

    def __init__(self, k_pad, omega_pad, vec_pad, n_k, coin, redo, residual, sources):
        self._k_pad = k_pad
        self._omega_pad = omega_pad
        self._vec_pad = vec_pad
        self._n_k = n_k
        self._coin = coin
        self._slopes = None
        # certificate of the grid solve: padded samples whose vectors came
        # from eig, and the largest eigh residual accepted
        self._redo = redo
        self._residual = residual
        self._sources = sources  # whose matrix elements each sample reads (see band_structure)

    @property
    def k_grid(self) -> np.ndarray:
        return self._k_pad[_PAD:_PAD + self._n_k]

    @property
    def omegas(self) -> np.ndarray:
        return self._omega_pad[:, _PAD:_PAD + self._n_k]

    @property
    def vectors(self) -> np.ndarray:
        return self._vec_pad[:, _PAD:_PAD + self._n_k, :]

    @property
    def n_branches(self) -> int:
        return self._omega_pad.shape[0]

    @property
    def spacing(self) -> float:
        return float(self._k_pad[1] - self._k_pad[0])

    def _grid_derivatives(self):
        """(omega', omega'') of every branch on the padded grid, computed once;
        matrix elements are formed only at the samples that are their own source."""
        if self._slopes is None:
            source, order = self._sources
            own = source == np.arange(source.size)
            rank = np.cumsum(own) - 1  # place of each own sample among them
            first, second = _derivatives(
                self._coin, self._vec_pad[:, own].transpose(1, 2, 0), self._omega_pad.T, rank[self._redo],
                reads=(rank[source][:, None, None], order[:, :, None], order[:, None, :]),
            )
            self._slopes = (first.T, second.T)
        return self._slopes

    def _follow(self, ks: np.ndarray, *refs: np.ndarray, curvature: bool):
        """Branches at off-grid momenta from one eigensolve.

        For each (n, d) set of reference eigenvectors, the eigenphase per k
        of the eigenpair that continues its branch (maximal overlap), that
        branch's omega' and, with curvature, its omega''.
        Inflections are refined on omega'', gap minima on omega' alone (the
        same bits, read off the same matrix elements).
        """
        w, v, redo, _ = _eigenpairs(shift_bloch(ks) @ self._coin)
        phases = np.angle(w)
        rows = np.arange(len(ks))
        per_k = (phases, *_derivatives(self._coin, v, phases, redo, curvature))
        out = []
        for ref in refs:
            col = np.argmax(np.abs(np.einsum("ni,nid->nd", ref.conj(), v)), axis=1)
            out.append(tuple(a[rows, col] for a in per_k))
        return out


def band_structure(coin, n_k: int = 1024) -> DispersionSpectrum:
    """Eigenphase branches of U(k) = S(k) . coin, for a 4x4 unitary coin, on
    n_k uniform samples of [-pi, pi).

    Branches are connected sample-to-sample by maximal eigenvector overlap
    and unwrapped to be continuous.  Extra samples beyond both ends of the
    window are computed with the same connection so that inflection and
    gap-minimum searches never hit a seam.
    """
    if n_k < 64:
        raise ValueError(f"n_k must be at least 64, got {n_k}")
    coin = certified_coin(coin)
    h = 2.0 * np.pi / n_k
    addressable((n_k + 2 * _PAD, 4, 4), complex)  # the grid's eigenvectors, its largest array
    idx = np.arange(-_PAD, n_k + _PAD)
    k_pad = -np.pi + h * idx

    w, v, redo, residual = _grid_eigenpairs(coin, k_pad, n_k)
    m, d = w.shape
    half = 0 if n_k % 2 else n_k // 2
    solved = m - half

    # greedy maximum matching of each sample's columns to the next sample's on
    # the overlap magnitudes, at once for every transition touching a solved
    # sample (one between twins repeats the one n_k/2 before it); adequate as
    # off-branch overlaps are small away from exact degeneracies, and inside a
    # degenerate cluster any assignment is equally valid
    t = min(solved, m - 1)
    ov = np.abs(np.einsum("mij,mik->mjk", v[:t].conj(), v[1:t + 1]))
    rows = np.arange(t)
    nxt = np.empty((t, d), dtype=int)
    for _ in range(d):
        i, j = np.divmod(np.argmax(ov.reshape(t, d * d), axis=1), d)
        nxt[rows, i] = j
        ov[rows, i, :] = -1.0
        ov[rows, :, j] = -1.0
    nxt = np.concatenate([nxt, nxt[solved - half:m - 1 - half]])

    # cols[s, b]: column of branch b at sample s, branches ordered by phase
    # at the first sample; the columns change only across a transition whose
    # match is not the identity, so the chain steps through those alone
    swaps = np.flatnonzero(np.any(nxt != np.arange(d), axis=1))
    perms = [np.argsort(wrap_phase(np.angle(w[0])), kind="stable").tolist()]
    for row in nxt[swaps].tolist():
        perms.append([row[c] for c in perms[-1]])
    cols = np.repeat(perms, np.diff(swaps, prepend=-1, append=m - 1), axis=0)

    ph = np.angle(np.take_along_axis(w, cols, axis=1))
    ph[0] = wrap_phase(ph[0])
    turns = np.zeros((m, d))
    turns[1:] = np.cumsum(np.round((ph[:-1] - ph[1:]) / (2.0 * np.pi)), axis=0)
    omega_pad = (ph + 2.0 * np.pi * turns).T
    vec_pad = np.take_along_axis(v, cols[:, None, :], axis=2).transpose(2, 0, 1)

    # a twin reads the matrix elements of its source, whose vectors it holds,
    # in the source's branch order (order); one that fell back to eig is its
    # own source, as eig's vectors are orthonormalised in branch order
    source = np.arange(m)
    source[solved:] -= half
    source[redo] = redo
    branch = np.empty_like(cols)  # branch[s, c]: the branch in column c at sample s
    np.put_along_axis(branch, cols, np.arange(d), axis=1)
    order = np.take_along_axis(branch[source], cols, axis=1)
    return DispersionSpectrum(k_pad, omega_pad, vec_pad, n_k, coin, redo, residual, (source, order))


def group_velocities(spec: DispersionSpectrum) -> np.ndarray:
    """d omega / d k on the main grid, analytic (see the module docstring)."""
    return spec._grid_derivatives()[0][:, _PAD:_PAD + spec._n_k]


def _illinois(evaluate, lo, hi, f_lo, f_hi, width):
    """Roots of f in sign-change brackets, all refined in lockstep.

    Each round takes the regula falsi point of every live bracket [lo, hi]
    and moves the end whose f has the same sign there; when the same end
    is kept twice in a row its f is halved (the Illinois method, Dowell and
    Jarratt, BIT 11 (1971) 168), so the iterates close in superlinearly on
    a smooth root and about as fast as bisection across a jump.  A bracket
    stops once it or its last step is narrower than width, or on f == 0; a
    zero-width bracket is evaluated once.  evaluate(ks, live) maps the
    momenta of the brackets indexed by live to a tuple of arrays, f first,
    from one eigensolve.  Returns the last iterate of every bracket and,
    stacked, the arrays evaluate returned there.
    """
    lo, hi, f_lo, f_hi = (np.array(a, dtype=float) for a in (lo, hi, f_lo, f_hi))
    roots = np.full(len(lo), np.inf)
    values = None
    kept = np.zeros(len(lo))  # end kept by the last round: +1 high, -1 low
    live = np.arange(len(lo))
    for _ in range(_MAX_ROUNDS):
        a, b, fa, fb = lo[live], hi[live], f_lo[live], f_hi[live]
        x = a + (b - a) * np.divide(fa, fa - fb, out=np.zeros_like(fa), where=fa != fb)
        got = np.array(evaluate(x, live))
        if values is None:
            values = np.empty((len(got), len(lo)))
        step = np.abs(x - roots[live])
        roots[live], values[:, live] = x, got
        f = got[0]
        low = np.sign(f) == np.sign(fa)
        stale = np.where(low, kept[live] > 0, kept[live] < 0)
        lo[live], hi[live] = np.where(low, x, a), np.where(low, b, x)
        f_lo[live] = np.where(low, f, np.where(stale, 0.5 * fa, fa))
        f_hi[live] = np.where(low, np.where(stale, 0.5 * fb, fb), f)
        kept[live] = np.where(low, 1.0, -1.0)
        live = live[(f != 0.0) & (np.minimum(hi[live] - lo[live], step) > width)]
        if not len(live):
            return roots, values
    raise RuntimeError(f"Illinois refinement left {len(live)} brackets open after {_MAX_ROUNDS} rounds")


@dataclass(frozen=True)
class Wavefront:
    branch: int
    k: Optional[float]          # None for constant-velocity branches
    speed: float


@dataclass
class WavefrontSet:
    """Distinct propagation-front speeds of a walk.

    speeds: cluster representatives, ascending; fronts: every detected
    inflection (or constant-slope branch) before merging.
    """

    speeds: np.ndarray
    fronts: list
    merge_tol: float

    def __len__(self) -> int:
        return len(self.speeds)


def wavefront_speeds(spec: DispersionSpectrum, merge_tol: float = 1e-4) -> WavefrontSet:
    """Propagation-front speeds from band inflection points.

    Sign changes of the analytic omega'' on the grid are bracketed, and all
    brackets are refined together by the Illinois method, one eigensolve per
    round, to about 1e-8; the speed is the analytic omega' at the last
    iterate.  A root where |omega''| has not fallen to noise level is a
    pole of the cot sum (a branch passing a near crossing), not an
    inflection, and is dropped.  Speeds from all branches are then
    clustered within merge_tol.
    """
    first, second = spec._grid_derivatives()
    fronts: list[Wavefront] = []

    brackets = []  # (branch, pad index of the low end, of the high end)
    for b in range(spec.n_branches):
        v_row = first[b, _PAD:_PAD + spec._n_k]
        if np.max(np.abs(v_row - np.mean(v_row))) <= _LINEAR_BRANCH_TOL:
            fronts.append(Wavefront(branch=b, k=None, speed=float(np.mean(v_row))))
            continue
        # main window plus one sample margin so seam-adjacent roots are kept;
        # an exact grid zero is a bracket of zero width
        row = second[b, _PAD - 1:_PAD + spec._n_k + 1]
        a, c = row[:-1], row[1:]
        for j in np.flatnonzero((a == 0.0) | (a * c < 0.0)) + _PAD - 1:
            brackets.append((b, j, j if second[b, j] == 0.0 else j + 1))

    if brackets:
        bs, js, hs = (np.array(col) for col in zip(*brackets))
        ref_vecs = spec._vec_pad[bs, js]

        def inflection(ks, live):
            ((_, speed, curvature),) = spec._follow(ks, ref_vecs[live], curvature=True)
            return curvature, speed

        roots, (curvature, speeds) = _illinois(
            inflection, spec._k_pad[js], spec._k_pad[hs], second[bs, js], second[bs, hs], _FRONT_WIDTH
        )
        for b, k, s, g in zip(bs, roots, speeds, curvature):
            if abs(g) <= _INFLECTION_TOL:
                fronts.append(Wavefront(branch=int(b), k=float(k), speed=float(s)))

    vals = np.sort([f.speed for f in fronts])
    clusters = np.split(vals, np.flatnonzero(np.diff(vals) > merge_tol) + 1) if fronts else []
    return WavefrontSet(speeds=np.array([float(np.mean(c)) for c in clusters]), fronts=fronts, merge_tol=merge_tol)


@dataclass(frozen=True)
class Crossing:
    k: float
    branches: tuple
    gap: float
    kind: str                 # 'crossing' or 'avoided'
    continuum: bool = False


def _gap_slope(om_i, om_j, v_i, v_j):
    """d(gap)/dk and the gap on the phase circle of two branches."""
    diff = wrap_phase(om_i - om_j)
    return np.sign(diff) * (v_i - v_j), np.abs(diff)


def _ternary_minimum(gap_at, lo, hi, sel):
    """Gap minima in the brackets [lo, hi] of the minima sel, by a lockstep
    ternary search, one eigensolve per round, down to _MINIMUM_WIDTH; returns
    the midpoints and their gaps."""
    lo, hi = lo.copy(), hi.copy()
    live = np.flatnonzero(hi - lo > _MINIMUM_WIDTH)
    while len(live):
        third = (hi[live] - lo[live]) / 3.0
        m1 = lo[live] + third
        m2 = hi[live] - third
        g = gap_at(np.concatenate([m1, m2]), np.concatenate([sel[live], sel[live]]))[-1]
        left = g[:len(live)] <= g[len(live):]
        hi[live] = np.where(left, m2, hi[live])
        lo[live] = np.where(left, lo[live], m1)
        live = live[hi[live] - lo[live] > _MINIMUM_WIDTH]
    k = 0.5 * (lo + hi)
    return k, gap_at(k, sel)[-1]


def _grid_minima(d: np.ndarray, n_k: int):
    """Row, bracket ends (pad indices lo, hi) and least gap of the grid minima
    of padded gap rows d (rows, samples), in order.  Steps within
    _PHASE_NOISE_FLOOR are level, so a minimum is a fall, level steps
    (possibly none), then a rise at samples lo+1..hi-1; only the period copy
    with lo+1 on the main grid is kept.
    """
    step = np.diff(d, axis=1)
    row, turn = np.nonzero(np.abs(step) > _PHASE_NOISE_FLOOR)
    rise = step[row, turn] > 0.0
    p, q = turn[:-1], turn[1:]
    keep = (row[:-1] == row[1:]) & ~rise[:-1] & rise[1:] & (p >= _PAD - 1) & (p < _PAD + n_k - 1)
    row, lo, hi = row[:-1][keep], p[keep], q[keep] + 1
    # the least gap lies on the level samples lo+1..hi-1, whose runs are
    # disjoint and in order over the flattened rows
    level = (row * d.shape[1] + lo + 1, row * d.shape[1] + hi)
    return row, lo, hi, np.minimum.reduceat(d.ravel(), np.ravel(level, order="F"))[::2]


def classify_crossings(spec: DispersionSpectrum, gap_tol: float = 1e-9) -> list:
    """Locate and classify interbranch gap minima.

    Local minima of the eigenphase distance (on the phase circle) of each
    branch pair are refined together as roots of the analytic
    d(gap)/dk = sign(omega_i - omega_j) (omega'_i - omega'_j) by the
    Illinois method, one eigensolve per round, to about 1e-12; the gap is
    read at the last iterate.  Minima with refined gap at most gap_tol are
    crossings, the rest avoided.  A bracket whose slope keeps its sign and
    a minimum that refined to a wider gap than the grid saw are searched on
    the gap itself by a ternary search instead.  A grid minimum must sit below both neighbours by more than
    the eigenphase noise floor (a small multiple of eps * pi); a run of
    samples equal within that floor, such as a minimum midway between two
    samples, counts as one minimum and is refined over the whole run.  Each
    minimum is reported once per 2pi period, so a pair with a constant
    non-zero gap yields no entry at all, while pairs degenerate over the
    whole grid yield a single entry flagged continuum=True.
    """
    bi, bj = np.triu_indices(spec.n_branches, 1)
    d = np.abs(wrap_phase(spec._omega_pad[bi] - spec._omega_pad[bj]))  # gaps on the phase circle
    widest = np.max(d[:, _PAD - 1:_PAD + spec._n_k + 1], axis=1)
    continuum = widest <= gap_tol
    out = [Crossing(k=float(spec.k_grid[0]), branches=(int(i), int(j)), gap=float(g), kind="crossing", continuum=True)
           for i, j, g in zip(bi[continuum], bj[continuum], widest[continuum])]
    pair, ps, qs, least = _grid_minima(d, spec._n_k)
    kept = ~continuum[pair]
    bi, bj, ps, qs, least = bi[pair[kept]], bj[pair[kept]], ps[kept], qs[kept], least[kept]

    if len(ps):
        vec_i, vec_j = spec._vec_pad[bi, ps + 1], spec._vec_pad[bj, ps + 1]

        def gap_at(ks, sel):
            # slope and gap of each selected minimum's pair
            (ph_i, v_i), (ph_j, v_j) = spec._follow(ks, vec_i[sel], vec_j[sel], curvature=False)
            return _gap_slope(ph_i, ph_j, v_i, v_j)

        k_star = spec._k_pad[ps]
        gaps = np.full(len(ps), np.inf)
        om, first = spec._omega_pad, spec._grid_derivatives()[0]
        f_lo, f_hi = (_gap_slope(om[bi, s], om[bj, s], first[bi, s], first[bj, s])[0] for s in (ps, qs))
        sel = np.flatnonzero((f_lo < 0.0) & (f_hi > 0.0))
        if len(sel):
            k_star[sel], (_, gaps[sel]) = _illinois(
                lambda ks, live: gap_at(ks, sel[live]),
                spec._k_pad[ps[sel]], spec._k_pad[qs[sel]], f_lo[sel], f_hi[sel], _MINIMUM_WIDTH,
            )
        # the ternary search on the gap itself serves a bracket whose slope
        # keeps its sign (branch tracking passed diabatically through a
        # narrower avoided crossing) and a minimum that refined to a wider
        # gap than the grid saw
        redo = np.flatnonzero(gaps > least + _PHASE_NOISE_FLOOR)
        if len(redo):
            lo, hi = spec._k_pad[ps[redo]], spec._k_pad[qs[redo]]
            k_star[redo], gaps[redo] = _ternary_minimum(gap_at, lo, hi, redo)
        for i, j, k, gap in zip(bi, bj, k_star, gaps):
            kind = "crossing" if gap <= gap_tol else "avoided"
            out.append(Crossing(k=float(k), branches=(int(i), int(j)), gap=float(gap), kind=kind))
    out.sort(key=lambda c: (c.k, c.branches))
    return out

