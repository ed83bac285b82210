"""Independent reference implementations used to pin expected values.

Everything here is deliberately built differently from the package (one
dense step matrix instead of sliced shifts of a state array, path
enumeration instead of repeated operator application, eigenvalues of m^dag m instead of an SVD call) so
that agreement between the two routes is meaningful evidence rather than
the same code tested against itself.
"""

import numpy as np

MODES = 4
CH, CV, CCH, CCV = 0, 1, 2, 3

SQ2 = np.sqrt(2.0)

# frozen by evaluating the element formulas by hand
HADAMARD_2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQ2
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
BALANCED_PHASED_2 = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / SQ2
QWP0 = np.array([[1.0 - 1.0j, 0.0], [0.0, 1.0 + 1.0j]]) / SQ2

# composing three copies of BALANCED_PHASED_2 through the two-arm assembly
# gives this full-rank four-mode coin (worked out by hand, entry by entry)
BALANCED_FOUR_MODE_COIN = 0.5 * np.array(
    [
        [1.0, -1.0j, 1.0, 1.0j],
        [-1.0j, 1.0, 1.0j, 1.0],
        [1.0, 1.0j, 1.0, -1.0j],
        [1.0j, 1.0, -1.0j, 1.0],
    ]
)

GROVER_4 = np.full((4, 4), 0.5) - np.eye(4)
FOURIER_4 = np.array(
    [[np.exp(2.0j * np.pi * j * k / 4.0) / 2.0 for k in range(4)] for j in range(4)]
)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The R diagonal phases are divided out so the distribution is exactly
    Haar rather than QR-convention dependent.
    """
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d)).conj()
    return q


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar SU(2) element [[u, v], [-conj(v), conj(u)]]."""
    g = random_unitary(2, rng)
    det = np.linalg.det(g)
    return g / np.sqrt(det)


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True when a = e^{i phi} b for some real phi, within max-abs tol."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) == 0.0:
        return bool(np.max(np.abs(a)) <= tol)
    phase = a[idx] / b[idx]
    mag = abs(phase)
    if abs(mag - 1.0) > tol:
        return False
    phase /= mag
    return bool(np.max(np.abs(a - phase * b)) <= tol)


def dense_step_matrix(coin: np.ndarray, half_width: int) -> np.ndarray:
    """One walk step (shift after coin) as a dense matrix.

    Positions run over -half_width..half_width; amplitudes that would
    leave the window are dropped, so callers must size the window larger
    than the light cone.
    """
    n_pos = 2 * half_width + 1
    dim = n_pos * MODES

    def idx(x, m):
        return (x + half_width) * MODES + m

    coin_full = np.zeros((dim, dim), dtype=complex)
    c = np.asarray(coin, dtype=complex)
    for x in range(-half_width, half_width + 1):
        base = (x + half_width) * MODES
        coin_full[base : base + 4, base : base + 4] = c

    shift = np.zeros((dim, dim), dtype=complex)
    for x in range(-half_width, half_width + 1):
        if x - 1 >= -half_width:
            shift[idx(x - 1, CCH), idx(x, CH)] = 1.0
            shift[idx(x - 1, CV), idx(x, CCV)] = 1.0
        if x + 1 <= half_width:
            shift[idx(x + 1, CCV), idx(x, CV)] = 1.0
            shift[idx(x + 1, CH), idx(x, CCH)] = 1.0
    return shift @ coin_full


def dense_evolve(initial: dict, coin: np.ndarray, steps: int) -> dict:
    """Evolve a sparse initial state with the dense step matrix.

    Returns {position: (4,) complex amplitudes}, zero rows dropped.
    """
    spread = max((abs(x) for x in initial), default=0)
    half_width = steps + spread + 1
    n_pos = 2 * half_width + 1
    vec = np.zeros(n_pos * MODES, dtype=complex)
    for x, amps in initial.items():
        vec[(x + half_width) * MODES : (x + half_width) * MODES + 4] = amps
    step = dense_step_matrix(coin, half_width)
    for _ in range(steps):
        vec = step @ vec
    out = {}
    for x in range(-half_width, half_width + 1):
        block = vec[(x + half_width) * MODES : (x + half_width) * MODES + 4]
        if np.any(np.abs(block) > 0.0):
            out[x] = block.copy()
    return out


def sitewise_evolve(initial: dict, program, steps: int, window=None) -> tuple:
    """The walk one position at a time, with a {position: amplitudes} state.

    Each position present is coined with program.coin_at(t, x) @ amplitude
    and each nonzero coined amplitude is moved on its own, so a position is
    present after a step exactly when a nonzero amplitude landed on it.
    With a window (L, R), an amplitude that lands outside it adds its
    intensity to the drained total and is dropped.  Returns, per step,
    {position: (4,) intensities} and the total drained in the steps so far.
    """
    state = {x: np.array(a, dtype=complex) for x, a in initial.items()}
    record, drained = [{x: np.abs(a) ** 2 for x, a in state.items()}], [0.0]
    moves = ((CH, -1, CCH), (CV, +1, CCV), (CCH, +1, CH), (CCV, -1, CV))
    for t in range(steps):
        new: dict = {}
        lost = drained[-1]
        for x, amp in state.items():
            coined = program.coin_at(t, x) @ amp
            for mode, dx, to in moves:
                if coined[mode] == 0.0:
                    continue
                if window is not None and not window[0] <= x + dx <= window[1]:
                    lost += abs(coined[mode]) ** 2
                else:
                    new.setdefault(x + dx, np.zeros(MODES, dtype=complex))[to] += coined[mode]
        state = new
        record.append({x: np.abs(a) ** 2 for x, a in state.items()})
        drained.append(lost)
    return record, drained


def path_enumeration_2d(initial: dict, coin2: np.ndarray, steps: int) -> dict:
    """Two-mode directed walk by explicit path summation.

    initial: {position: (amp_right, amp_left)}.  Mode 0 moves +1, mode 1
    moves -1, coin applied before each move.  Cost grows as 2**steps, so
    keep steps small.  Returns {position: (2,) float intensities}.
    """
    from itertools import product

    c = np.asarray(coin2, dtype=complex)
    amps: dict = {}
    for x0, pair in initial.items():
        for mode0, a0 in enumerate(pair):
            if a0 == 0.0:
                continue
            for path in product((0, 1), repeat=steps):
                amp = a0
                x = x0
                mode = mode0
                for nxt in path:
                    amp = amp * c[nxt, mode]
                    mode = nxt
                    x += 1 if mode == 0 else -1
                key = (x, mode)
                amps[key] = amps.get(key, 0.0) + amp
    out: dict = {}
    for (x, mode), a in amps.items():
        vec = out.setdefault(x, np.zeros(2))
        vec[mode] += float(np.abs(a) ** 2)
    return out


# effective two-mode walks use (R, L) component order
R2, L2 = 0, 1

Effective2DState = dict  # position -> complex (2,) amplitudes


def effective_2d_evolve(initial: Effective2DState, coin: np.ndarray, steps: int):
    """Reference two-mode walk: coin then shift, R moves +1 and L moves -1.

    Returns a list over steps of {position: (2,) float intensities}.
    """
    coin = np.asarray(coin, dtype=complex)
    state = {x: np.array(a, dtype=complex) for x, a in initial.items()}
    record = [{x: np.abs(a) ** 2 for x, a in state.items()}]
    for _ in range(steps):
        new: Effective2DState = {}
        for x, amp in state.items():
            c = coin @ amp
            if c[R2] != 0.0:
                vec = new.setdefault(x + 1, np.zeros(2, dtype=complex))
                vec[R2] += c[R2]
            if c[L2] != 0.0:
                vec = new.setdefault(x - 1, np.zeros(2, dtype=complex))
                vec[L2] += c[L2]
        state = new
        record.append({x: np.abs(a) ** 2 for x, a in state.items()})
    return record


def circle_nodes(num_sites: int, left_end: int) -> dict:
    """{(x, 'c'|'cc'): node} of the circle of num_sites = 2N nodes on
    [left_end, left_end + N], written out case by case."""
    out = {}
    for x in range(left_end, left_end + num_sites // 2 + 1):
        out[(x, "cc")] = (x - left_end + 1) % num_sites
        out[(x, "c")] = (left_end + 1 - x) % num_sites
    return out


def figure_eight_nodes(left_end: int, center: int, right_end: int) -> dict:
    """{(x, 'c'|'cc'): node} of two rings sharing the center position,
    written out case by case: the c subspace runs through the nodes in
    order (node 2 n_l - 1 at the center), the cc subspace comes back round
    each lobe."""
    n_l = center - left_end
    total = 2 * (right_end - left_end) - 1
    out = {}
    for x in range(left_end, right_end + 1):
        xi = x - center
        out[(x, "c")] = (2 * n_l - 1 + xi) % total
        if xi > 0:
            out[(x, "cc")] = (total - xi) % total
        elif xi < 0:
            out[(x, "cc")] = -1 - xi
        else:
            out[(x, "cc")] = 2 * n_l - 1
    return out


def rotation_circle_distribution(initial_vector: np.ndarray, t: int) -> np.ndarray:
    """Distribution after t steps of a walk that only circulates.

    When no element mixes the polarizations, every step advances each
    walker by exactly one node, so the node distribution is a cyclic
    shift of the initial one.
    """
    return np.roll(np.asarray(initial_vector, dtype=float), t)


def stepwise_revivals(record, tol: float = 1e-6) -> list:
    """Revivals of a record on graph nodes one step at a time: at each step
    t >= 1, the overlap sum_m sqrt(P_0(m - s) P_t(m)), added left to
    right, of step 0 moved by every cyclic shift s, and a (t, s, kind)
    event for each shift whose squared overlap is at least 1 - tol."""
    nodes = np.arange(record.num_nodes)
    rolls = record.distribution_vector(0)[(nodes[None, :] - nodes[:, None]) % record.num_nodes]
    out = []
    for t in range(1, len(record)):
        overlap = np.cumsum(np.sqrt(rolls * record.distribution_vector(t)), axis=-1)[:, -1] ** 2
        for s in np.flatnonzero(overlap >= 1.0 - tol).tolist():
            out.append((t, s, "perfect" if s == 0 else "shifted"))
    return out


def one_trip_test_independent(c: np.ndarray, rel_tol: float = 1e-9) -> bool:
    """One-trip realizability of a 4x4 coin when the loop blocks may differ
    per direction.

    With the arm assembly's cross-coupling signs undone (conjugation by
    diag(1, 1, -1, -1)), the 2x2 group of rows (cH, ccV) or (cV, ccH) and
    the columns of one direction is the outer product of an arm column with
    a loop-block row, so all four groups must have rank 1: a nonzero larger
    singular value and the smaller at most rel_tol times it.
    """
    sign = np.diag([1.0, 1.0, -1.0, -1.0])
    c = sign @ np.asarray(c, dtype=complex) @ sign
    for rows in ((0, 3), (1, 2)):
        for cols in ((0, 1), (2, 3)):
            s = np.linalg.svd(c[np.ix_(rows, cols)], compute_uv=False)
            if not s[0] > 0.0 or s[1] > rel_tol * s[0]:
                return False
    return True


def hadamard_line_bands(k: np.ndarray) -> np.ndarray:
    """Analytic eigenphase branches of the balanced four-mode line walk.

    The quasi-energies solve sin(w) = cos(k)/sqrt(2); each of the two
    solutions in [-pi, pi) is doubly degenerate.  Returned sorted along
    axis 0, shape (4, len(k)).
    """
    k = np.asarray(k, dtype=float)
    w1 = np.arcsin(np.cos(k) / SQ2)
    w2 = np.pi - w1
    w2 = (w2 + np.pi) % (2.0 * np.pi) - np.pi
    return np.sort(np.stack([w1, w1, w2, w2]), axis=0)


def bloch_matrix(coin: np.ndarray, k: float) -> np.ndarray:
    """U(k) = S(k) C with the shift written out entry by entry."""
    s = np.zeros((MODES, MODES), dtype=complex)
    s[CCH, CH] = np.exp(-1j * k)
    s[CCV, CV] = np.exp(1j * k)
    s[CH, CCH] = np.exp(1j * k)
    s[CV, CCV] = np.exp(-1j * k)
    return s @ np.asarray(coin, dtype=complex)


# S(k) = S(0) exp(ikD): the phase each column of the shift picks up per unit k
SHIFT_GENERATOR = np.diag([-1.0, 1.0, 1.0, -1.0])


def hellmann_feynman_velocities(coin: np.ndarray, k: float, cluster_tol: float = 1e-7):
    """Eigenphases of U(k) in (-pi, pi] and their group velocities.

    For an eigenvector v of U(k), d omega / dk = <Cv| D |Cv>.  Phases within
    cluster_tol on the circle (the seam included) form one degenerate
    eigenspace; there the velocities are the eigenvalues of C^dag D C
    restricted to an orthonormal basis of the space (from an SVD, so the
    basis does not depend on the eigenvectors eig happens to return).
    Returns (phases, velocities), sorted by phase, velocities ascending
    inside a cluster.
    """
    c = np.asarray(coin, dtype=complex)
    w, v = np.linalg.eig(bloch_matrix(c, k))
    phases = np.angle(w)
    order = np.argsort(phases)
    phases, v = phases[order], v[:, order]
    g = c.conj().T @ SHIFT_GENERATOR @ c
    n = len(phases)
    labels = list(range(n))
    for i in range(n):
        for j in range(i):
            if abs(np.angle(np.exp(1j * (phases[i] - phases[j])))) <= cluster_tol:
                labels[i] = labels[j]
                break
    velocities = np.empty(n)
    for lab in set(labels):
        cols = [i for i in range(n) if labels[i] == lab]
        basis, _, _ = np.linalg.svd(v[:, cols], full_matrices=False)
        velocities[cols] = np.linalg.eigvalsh(basis.conj().T @ g @ basis)
    return phases, velocities


def translated(coin: np.ndarray, k0: float) -> np.ndarray:
    """The coin exp(i k0 D) C, whose Bloch operator at k is that of C at
    k + k0 (S(k) = S(0) exp(ikD)): every band moves by -k0 in momentum."""
    return np.exp(1j * k0 * np.diag(SHIFT_GENERATOR))[:, None] * np.asarray(coin, dtype=complex)


# --- the split-step two-mode walk, in closed form ----------------------------


class SplitStepParams:
    """Two SU(2) coins of a split-step two-mode walk.

    The step operator is U(k) = diag(e^{ik}, 1) . coin_2 . diag(1, e^{-ik}) . coin_1
    with both coins of the form [[u, v], [-conj(v), conj(u)]].
    """

    def __init__(self, coin_1, coin_2):
        for name, c in (("coin_1", coin_1), ("coin_2", coin_2)):
            c = np.asarray(c, dtype=complex)
            if c.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2")
            if np.max(np.abs(c.conj().T @ c - np.eye(2))) > 1e-9:
                raise ValueError(f"{name} is not unitary")
            det = np.linalg.det(c)
            if abs(det - 1.0) > 1e-9:
                raise ValueError(f"{name} must have determinant 1, got {det}")
            setattr(self, name, c)


class SplitStepBands:
    """Closed-form dispersion of a split-step walk.

    cos(omega(k)) = u_tilde * cos(k + phi) - v_tilde, the positive branch in
    [0, pi] and its mirror.  Exactly two wavefront speeds, speeds = [-s, +s]
    (one speed 0 for flat bands, [-1, 1] for strictly linear ones).
    """

    def __init__(self, params: SplitStepParams):
        self.params = params
        u1, v1 = params.coin_1[0, 0], params.coin_1[0, 1]
        u2, v2 = params.coin_2[0, 0], params.coin_2[0, 1]
        prod = u1 * u2
        self.u_tilde = u_t = float(np.abs(prod))
        self.phi = float(np.angle(prod)) if u_t > 0.0 else 0.0
        self.v_tilde = v_t = float(np.real(v1 * np.conj(v2)))
        eps = 1e-12
        if u_t <= eps:
            self.speeds = np.array([0.0])
        elif u_t >= 1.0 - eps:
            self.speeds = np.array([-1.0, 1.0])
        else:
            if abs(v_t) <= eps:
                c_star = 0.0
            else:
                a = (u_t * u_t + v_t * v_t - 1.0) / (2.0 * u_t * v_t)
                root = np.sqrt(max(a * a - 1.0, 0.0))
                c_star = float(np.clip(a - root if a >= 0.0 else a + root, -1.0, 1.0))
            theta = float(np.arccos(c_star))
            cos_om = u_t * c_star - v_t
            s = float(u_t * np.sin(theta) / np.sqrt(max(1.0 - cos_om * cos_om, 0.0)))
            self.speeds = np.array([-s, s])

    def cos_omega(self, k):
        return np.clip(self.u_tilde * np.cos(np.asarray(k) + self.phi) - self.v_tilde, -1.0, 1.0)

    def omega_plus(self, k):
        return np.arccos(self.cos_omega(k))

    def omega_minus(self, k):
        return -self.omega_plus(k)

    def group_velocity_plus(self, k):
        k = np.asarray(k, dtype=float)
        s_om = np.sqrt(np.maximum(1.0 - self.cos_omega(k) ** 2, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.u_tilde * np.sin(k + self.phi) / s_om

    def bloch(self, k):
        """The step operator, batched over k: shape (len(k), 2, 2)."""
        k = np.atleast_1d(np.asarray(k, dtype=float))
        s_plus = np.zeros((len(k), 2, 2), dtype=complex)
        s_minus = np.zeros((len(k), 2, 2), dtype=complex)
        s_plus[:, 0, 0] = np.exp(1j * k)
        s_plus[:, 1, 1] = 1.0
        s_minus[:, 0, 0] = 1.0
        s_minus[:, 1, 1] = np.exp(-1j * k)
        return s_plus @ self.params.coin_2 @ s_minus @ self.params.coin_1


def split_step_coin(params: SplitStepParams) -> np.ndarray:
    """The four-mode coin diag(X coin_1, coin_2 X), blocks over (cH, cV) and
    (ccH, ccV), X the Pauli flip.  Two four-mode steps at k/2 take the c
    block to itself by the split-step operator at k, so the split-step
    eigenphases at k are 2 omega(k/2) of this coin, and the two walks have
    the same front speeds."""
    c = np.zeros((MODES, MODES), dtype=complex)
    c[np.ix_([CH, CV], [CH, CV])] = PAULI_X @ params.coin_1
    c[np.ix_([CCH, CCV], [CCH, CCV])] = params.coin_2 @ PAULI_X
    return c


def eig_unitary(u: np.ndarray, cluster_gap: float = 1e-8):
    """Eigenphases and orthonormal eigenvectors of a unitary matrix.

    Returns (phases, vectors) with phases sorted ascending in [-pi, pi) and
    vectors[:, j] the eigenvector for phases[j].  numpy's general eigensolver
    does not promise orthogonal eigenvectors inside degenerate eigenspaces, so
    runs of phases closer than cluster_gap are re-orthonormalised by QR in
    input order, and every other vector is normalised.
    """
    w, v = np.linalg.eig(np.asarray(u, dtype=complex))
    phases = np.mod(np.angle(w) + np.pi, 2.0 * np.pi) - np.pi
    order = np.argsort(phases, kind="stable")
    phases, v = phases[order], v[:, order]
    start = 0
    while start < len(phases):
        stop = start + 1
        while stop < len(phases) and phases[stop] - phases[stop - 1] <= cluster_gap:
            stop += 1
        v[:, start:stop] = np.linalg.qr(v[:, start:stop])[0]
        start = stop
    return phases, v


def sequential_branches(w: np.ndarray, v: np.ndarray):
    """Branch connection sample by sample of eigenpairs (m, d) and (m, d, d):
    greedy matching on the overlaps with the previous sample's branch
    vectors, rows in order of phase at the first sample, then unwrapping
    against the previous sample.  Returns omegas (d, m) and vectors (d, m, d).
    """
    m, d = w.shape
    omega = np.empty((d, m))
    vecs = np.empty((d, m, d), dtype=complex)
    first = np.mod(np.angle(w[0]) + np.pi, 2.0 * np.pi) - np.pi
    cols = np.argsort(first, kind="stable")
    omega[:, 0] = first[cols]
    vecs[:, 0] = v[0][:, cols].T
    for s in range(1, m):
        weights = np.abs(v[s - 1][:, cols].conj().T @ v[s])
        nxt = np.full(d, -1)
        for _ in range(d):
            i, j = np.unravel_index(np.argmax(weights), weights.shape)
            nxt[i] = j
            weights[i, :] = -1.0
            weights[:, j] = -1.0
        cols = nxt
        ph = np.angle(w[s][cols])
        omega[:, s] = ph + 2.0 * np.pi * np.round((omega[:, s - 1] - ph) / (2.0 * np.pi))
        vecs[:, s] = v[s][:, cols].T
    return omega, vecs


def grid_minima(d: np.ndarray, n_k: int, pad: int, floor: float) -> list:
    """Grid minima of a gap row padded by `pad` samples at each end, one
    sample step at a time.

    A step whose size is at most `floor` is level.  A minimum is a falling
    step at p, any number of level steps, then a rising step at q; it is
    kept when its first sample p + 1 lies on the main grid [pad, pad + n_k).
    Returns (p, q + 1, least gap over samples p..q + 1) per minimum, in order.
    """
    out = []
    fall = None  # the last non-level step, if it fell
    for s in range(len(d) - 1):
        step = d[s + 1] - d[s]
        if abs(step) <= floor:
            continue
        if step > 0.0 and fall is not None and pad <= fall + 1 < pad + n_k:
            out.append((fall, s + 1, min(d[fall:s + 2])))
        fall = s if step < 0.0 else None
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _render(header: list, rows: list, fmt: str) -> str:
    cells = [[_fmt(v) for v in row] for row in rows]
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(row) for row in cells)
        return "\n".join(lines) + "\n"
    widths = [len(h) for h in header]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))

    def line(vals):
        return "  ".join(v.ljust(w) for v, w in zip(vals, widths)).rstrip()

    out = [line(header), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out) + "\n"


def _matrix_rows(rows: list, name: str, m: np.ndarray):
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            rows.append(["matrix", name, i, j, float(m[i, j].real), float(m[i, j].imag)])


def _factor_rows(rows: list, prefix: str, factors):
    _matrix_rows(rows, f"{prefix}.arm_a", factors.c_a)
    _matrix_rows(rows, f"{prefix}.arm_b", factors.c_b)
    _matrix_rows(rows, f"{prefix}.loop_cw", factors.c_loop_cw)
    _matrix_rows(rows, f"{prefix}.loop_ccw", factors.c_loop_ccw)


def render_rows(command: str, cfg, args) -> str:
    """The command line's stdout built one row and one cell at a time.

    `cfg` is the parsed config of a run that succeeds and `args` its parsed
    arguments; each cell goes through a type dispatch of its own, the way
    the command line rendered before it built whole columns.
    """
    from loopwalk import analysis, coin_synthesis, dispersion, graph_programs, walk_engine

    mode_names = walk_engine.MODE_NAMES
    steps = cfg.steps if args.steps is None else args.steps
    if command == "simulate":
        record = walk_engine.evolve(cfg.initial, cfg.program, steps)
        traced = walk_engine.trace_intensities(record, mode=args.trace)
        step_index, site = np.nonzero(record.reached)
        cells = zip(step_index.tolist(), (record.offset + site).tolist(), traced[step_index, site].tolist())
        if args.trace == "sum_all":
            header = ["step", "position", "intensity"]
            rows = [[t, x, v] for t, x, v in cells]
        else:
            third = {"full": "mode", "sum_polarization": "subspace", "sum_direction": "polarization"}
            header = ["step", "position", third[args.trace], "intensity"]
            labels = walk_engine.TRACE_LABELS[args.trace]
            rows = [[t, x, label, v] for t, x, vals in cells for label, v in zip(labels, vals)]
    elif command in ("circle", "figure-eight", "revivals"):
        record = walk_engine.evolve(cfg.initial, cfg.program, steps, cfg.site_map.span)
        mapped = graph_programs.map_sites(cfg.site_map, record)
        if command == "revivals":
            header = ["step", "shift", "kind"]
            rows = [[t, s, kind] for t, s, kind in analysis.find_revivals(mapped, tol=args.tol)]
        else:
            header = ["step", "node", "mode", "intensity"]
            step_index, node = np.nonzero(mapped.reached)
            cells = zip(step_index.tolist(), node.tolist(), mapped.intensities[step_index, node].tolist())
            rows = [[t, m, name, v] for t, m, vals in cells for name, v in zip(mode_names, vals)]
    elif command == "dispersion":
        spec = dispersion.band_structure(cfg.coin_matrix, n_k=cfg.n_k)
        vg = dispersion.group_velocities(spec)
        fronts = dispersion.wavefront_speeds(spec, merge_tol=cfg.merge_tol)
        crossings = dispersion.classify_crossings(spec, gap_tol=cfg.gap_tol)
        header = ["section", "branch", "branch_2", "k", "omega", "v_group", "speed", "gap", "kind"]
        rows = []
        for b in range(spec.n_branches):
            for i, k in enumerate(spec.k_grid):
                rows.append(["band", b, None, k, spec.omegas[b, i], vg[b, i], None, None, None])
        for front in fronts.fronts:
            rows.append(["wavefront", front.branch, None, front.k, None, None, front.speed, None, None])
        for s in fronts.speeds:
            rows.append(["speed", None, None, None, None, None, s, None, None])
        for c in crossings:
            kind = "continuum" if c.continuum else c.kind
            rows.append(["crossing", c.branches[0], c.branches[1], c.k, None, None, None, c.gap, kind])
    elif command == "decompose":
        passed, witness = coin_synthesis.one_trip_test(cfg.target, rel_tol=cfg.rel_tol)
        fact = coin_synthesis.factor_universal(cfg.target)
        norm = coin_synthesis.su2_normalize(fact)
        phase = norm.global_phase
        header = ["section", "name", "row", "col", "re", "im"]
        rows = [
            ["scalar", "one_trip_pass", None, None, 1.0 if passed else 0.0, None],
            ["scalar", "one_trip_rank_m1", None, None, float(witness.rank_m1), None],
            ["scalar", "one_trip_rank_m2", None, None, float(witness.rank_m2), None],
            ["scalar", "residual", None, None, fact.residual, None],
            ["scalar", "residual_normalized", None, None, norm.residual, None],
            ["scalar", "global_phase", None, None, float(phase.real), float(phase.imag)],
        ]
        _factor_rows(rows, "trip1", fact.factor_1)
        _factor_rows(rows, "trip2", fact.factor_2)
        _factor_rows(rows, "trip1_su2", norm.factor_1)
        _factor_rows(rows, "trip2_su2", norm.factor_2)
    elif command == "errorbars":
        base = cfg.base
        setup = analysis.WalkSetup(
            program=base.program,
            initial=base.initial,
            steps=base.steps if args.steps is None else args.steps,
            site_map=base.site_map,
            support=cfg.support,
        )
        report = analysis.monte_carlo_error_bars(
            setup,
            n_samples=cfg.n_samples,
            eff_err=cfg.eff_err,
            angle_err_deg=cfg.angle_err_deg,
            seed=cfg.seed if args.seed is None else args.seed,
            distribution=cfg.distribution,
            renormalize=cfg.renormalize,
        )
        header = ["step", "node" if report.mapped else "position", "mode", "reference", "sigma"]
        ref = report.reference
        rows = []
        for t, i in zip(*np.nonzero(ref.reached)):
            site = ref.offset + int(i)
            for m in range(4):
                rows.append([t, site, mode_names[m], ref.intensities[t, i, m], report.sigma_mode[t, i, m]])
            rows.append([t, site, "total", np.sum(ref.intensities[t, i]), report.sigma_position[t, i]])
        if report.similarity_ref is not None:
            for t in range(len(report.similarity_ref)):
                rows.append([t, None, "similarity", report.similarity_ref[t], report.similarity_sigma[t]])
                rows.append(
                    [t, None, "similarity_sampled", report.similarity_ref[t], report.similarity_sigma_sampled[t]]
                )
    else:
        raise ValueError(f"unknown command {command!r}")
    return _render(header, rows, args.format)


def support_weights(record, step: int, support) -> list:
    """Mode-summed intensity at each support site as Python floats, 0.0
    outside the record's window, read one site at a time."""
    p = record.distribution_vector(step)
    return [float(p[m - record.offset]) if 0 <= m - record.offset < len(p) else 0.0 for m in support]


def equidistribution_similarity(record, step: int, support, renormalize: bool = False) -> float:
    """Similarity to uniform on `support`, summed site by site in Python."""
    weights = support_weights(record, step, support)
    scale = 1.0
    if renormalize:
        total = sum(weights)
        if total > 0.0:
            scale = 1.0 / total
    q = 1.0 / len(support)
    amp = sum(np.sqrt(w * scale * q) for w in weights)
    return float(amp * amp)


def with_angles(coin, vals):
    """The element coin rebuilt element by element with its angles set to
    `vals`, given in the order of coin.angles(): arm A waveplates, arm A
    modulator phase, arm B waveplates, arm B modulator phase, loop."""
    from loopwalk.optics import ArmSetting, OpticalElement
    from loopwalk.walk_engine import ElementCoin

    vals = list(vals)
    if len(vals) != len(coin.angles()):
        raise ValueError(f"expected {len(coin.angles())} angles, got {len(vals)}")
    it = iter(vals)
    arm_a, arm_b = (
        ArmSetting(tuple(OpticalElement(el.kind, next(it)) for el in arm.waveplates), next(it))
        for arm in (coin.arm_a, coin.arm_b)
    )
    loop = tuple(OpticalElement(el.kind, next(it)) for el in coin.loop)
    return ElementCoin(arm_a, arm_b, loop, coin.eom_first)


def jittered_program(program, row):
    """A new program with `row` (one offset per element angle of the entries
    of program.specs, in order) added to the angles: each element spec is
    rebuilt once through with_angles, and every rule that used it uses the
    rebuilt one; raw-matrix specs are kept."""
    from loopwalk.walk_engine import CoinProgram

    shifted, start = {}, 0
    for spec in program.specs:
        n = len(spec.angles())
        shifted[id(spec)] = with_angles(spec, np.add(spec.angles(), row[start : start + n])) if n else spec
        start += n
    return CoinProgram(
        default=shifted[id(program.default)] if program.default is not None else None,
        overrides={x: shifted[id(spec)] for x, spec in program.overrides.items()},
        time_table=[shifted[id(spec)] for spec in program.time_table] if program.time_table is not None else None,
    )


def observed(record, eff, renormalize, site_map):
    """The record's intensities times the four mode efficiencies, with
    renormalize each step divided by its positive total (added site by site
    in position order, each site's modes in mode order), in Python loops;
    then mapped onto the graph's nodes when there is one."""
    from loopwalk.graph_programs import map_sites
    from loopwalk.walk_engine import IntensityRecord

    intensities = np.empty_like(record.intensities)
    for t, step in enumerate(record.intensities):
        cells = [[p * e for p, e in zip(site, eff)] for site in step]
        total = 0.0
        for site in cells:
            total += ((site[0] + site[1]) + site[2]) + site[3]
        scale = total if renormalize and total > 0.0 else 1.0
        intensities[t] = [[c / scale for c in site] for site in cells]
    out = IntensityRecord(intensities, record.reached, record.offset)
    return out if site_map is None else map_sites(site_map, out)


def monte_carlo_error_bars(setup, n_samples, eff_err, angle_err_deg, seed, distribution, renormalize) -> dict:
    """The error-bar statistics step by step and site by site: one
    similarity call per sample and step, and the reference and first-order
    propagated similarity spreads accumulated in Python loops; the
    propagated spread sums over the support sites whose weight is above 64
    eps times the step's total.  Each sample takes a draw_jitter row of
    angle offsets (none without angle error), walks the program rebuilt from
    it by jittered_program, then draws four efficiencies."""
    from loopwalk.walk_engine import draw_jitter, evolve

    rng = np.random.default_rng(seed)
    ref = observed(evolve(setup.initial, setup.program, setup.steps), np.ones(4), renormalize, setup.site_map)
    ref_dist = ref.intensities.sum(axis=2)
    sq_mode = np.zeros_like(ref.intensities)
    sq_pos = np.zeros_like(ref_dist)
    sim_samples = []
    n_angles = len(setup.program.angles())
    for _ in range(n_samples):
        prog = setup.program
        if angle_err_deg > 0.0:
            prog = jittered_program(prog, draw_jitter(rng, 1, n_angles, angle_err_deg, distribution)[0])
        eff = rng.uniform(1.0 - eff_err, 1.0 + eff_err, size=4)
        sample = observed(evolve(setup.initial, prog, setup.steps), eff, renormalize, setup.site_map)
        dm = sample.intensities - ref.intensities
        sq_mode += dm * dm
        dp = sample.intensities.sum(axis=2) - ref_dist
        sq_pos += dp * dp
        sim_samples.append([equidistribution_similarity(sample, t, setup.support) for t in range(len(ref))])
    out = {"sigma_mode": np.sqrt(sq_mode / n_samples), "sigma_position": np.sqrt(sq_pos / n_samples)}
    q = 1.0 / len(setup.support)
    sampled = np.asarray(sim_samples)
    out.update(similarity_ref=[], similarity_sigma=[], similarity_sigma_sampled=[])
    for t in range(len(ref)):
        weights = support_weights(ref, t, setup.support)
        amp = sum(np.sqrt(p_m * q) for p_m in weights)
        s_ref = float(amp * amp)
        total = 0.0
        for p in ref_dist[t]:
            total += p
        floor = 64.0 * np.finfo(float).eps * total  # below it a weight is rounding noise of a zero
        var = 0.0
        for m_node, p_m in zip(setup.support, weights):
            if p_m > floor:
                var += (amp * np.sqrt(q / p_m) * out["sigma_position"][t, m_node - ref.offset]) ** 2
        devs = sampled[:, t] - s_ref
        out["similarity_ref"].append(s_ref)
        out["similarity_sigma"].append(float(np.sqrt(var)))
        out["similarity_sigma_sampled"].append(float(np.sqrt(np.mean(devs * devs))))
    return out
