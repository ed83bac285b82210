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


def sitewise_evolve(initial: dict, program, steps: int) -> list:
    """The walk one position at a time, with a {position: amplitudes} state.

    Each position present is coined with program.coin_at(t, x) @ amplitude
    and each nonzero coined amplitude is moved on its own, so a position is
    present after a step exactly when a nonzero amplitude landed on it.
    Returns, per step, {position: (4,) intensities}.
    """
    state = {x: np.array(a, dtype=complex) for x, a in initial.items()}
    record = [{x: np.abs(a) ** 2 for x, a in state.items()}]
    moves = ((CH, -1, CCH), (CV, +1, CCV), (CCH, +1, CH), (CCV, -1, CV))
    for t in range(steps):
        new: dict = {}
        for x, amp in state.items():
            coined = program.coin_at(t, x) @ amp
            for mode, dx, to in moves:
                if coined[mode] != 0.0:
                    new.setdefault(x + dx, np.zeros(MODES, dtype=complex))[to] += coined[mode]
        state = new
        record.append({x: np.abs(a) ** 2 for x, a in state.items()})
    return record


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


def rotation_circle_distribution(initial_vector: np.ndarray, t: int) -> np.ndarray:
    """Distribution after t steps of a walk that only circulates.

    When no element mixes the polarizations, every step advances each
    walker by exactly one node, so the node distribution is a cyclic
    shift of the initial one.
    """
    return np.roll(np.asarray(initial_vector, dtype=float), t)


def singular_values_via_gram(m: np.ndarray) -> np.ndarray:
    """Singular values from the eigenvalues of m^dag m, descending."""
    g = np.conj(m.T) @ m
    ev = np.linalg.eigvalsh(g)
    ev = np.clip(ev, 0.0, None)
    return np.sqrt(ev)[::-1]


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
