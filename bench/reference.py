"""Reference computations written apart from the loopwalk package.

They follow the conventions that loopwalk documents (mode order cH, cV,
ccH, ccV; angles in degrees; the arm/loop composition rules of
``loopwalk.optics``; the coin_ab block layout; the shift of
``loopwalk.walk_engine``; the node numbering of ``loopwalk.graph_programs``)
but share no code with it. An output that agrees with them is therefore
evidence, not the program compared with itself.

Only numpy is used here; nothing imports loopwalk.
"""

from __future__ import annotations

import numpy as np

CH, CV, CCH, CCV = 0, 1, 2, 3
MODES = ("cH", "cV", "ccH", "ccV")

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# velocity operator of the shift: S(k) = S(0) e^{ikD} with D over source modes
_D = np.diag([-1.0, 1.0, 1.0, -1.0])


# --- optics -----------------------------------------------------------------

def element_matrix(kind: str, deg: float) -> np.ndarray:
    """Jones matrix in loopwalk's convention.

    Waveplates at angle t act through the axis n = (sin 2t, 0, cos 2t):
    a quarter-wave plate is cos(pi/4) 1 - i sin(pi/4) n.sigma, a half-wave
    plate is n.sigma itself (so hwp(22.5) is the Hadamard matrix), and the
    modulator is cos(p) 1 - i sin(p) X.
    """
    r = np.deg2rad(deg)
    if kind == "eom":
        return np.cos(r) * _I2 - 1j * np.sin(r) * _X
    axis = np.cos(2.0 * r) * _Z + np.sin(2.0 * r) * _X
    if kind == "hwp":
        return axis
    if kind == "qwp":
        return (_I2 - 1j * axis) / np.sqrt(2.0)
    raise ValueError(f"unknown element kind {kind!r}")


def arm_matrix(arm: dict) -> np.ndarray:
    """Round trip through an arm: waveplates in, mirror, waveplates out, then
    the modulator as the first factor in time (rightmost)."""
    inbound = _I2
    for el in arm.get("waveplates", []):
        inbound = element_matrix(el["kind"], el["angle_deg"]) @ inbound
    outbound = _I2
    for el in reversed(arm.get("waveplates", [])):
        outbound = element_matrix(el["kind"], el["angle_deg"]) @ outbound
    return outbound @ inbound @ element_matrix("eom", arm.get("eom_phase_deg", 0.0))


def loop_matrix(elements: list) -> np.ndarray:
    out = _I2
    for el in elements:
        out = element_matrix(el["kind"], el["angle_deg"]) @ out
    return out


def coin_ab(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Arm part of the coin in the layout documented by loopwalk.optics.coin_ab."""
    c = np.zeros((4, 4), dtype=complex)
    c[CH, CH], c[CH, CCV] = a[0, 0], -a[0, 1]
    c[CCV, CH], c[CCV, CCV] = -a[1, 0], a[1, 1]
    c[CV, CV], c[CV, CCH] = b[1, 1], -b[1, 0]
    c[CCH, CV], c[CCH, CCH] = -b[0, 1], b[0, 0]
    return c


def block_diag(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    c = np.zeros((4, 4), dtype=complex)
    c[:2, :2] = top
    c[2:, 2:] = bottom
    return c


def coin_from_elements(elements: dict) -> np.ndarray:
    """Four-mode coin of one round trip: arms after a common loop block."""
    loop = loop_matrix(elements.get("loop", []))
    arms = coin_ab(arm_matrix(elements["arm_a"]), arm_matrix(elements["arm_b"]))
    return arms @ block_diag(loop, loop)


def haar_unitary(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


# --- momentum space ---------------------------------------------------------

def shift_k(ks: np.ndarray) -> np.ndarray:
    """Bloch shift: cH -> e^{-ik} ccH, cV -> e^{ik} ccV, ccH -> e^{ik} cH,
    ccV -> e^{-ik} cV (column = source mode)."""
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    s = np.zeros(ks.shape + (4, 4), dtype=complex)
    s[:, CCH, CH] = np.exp(-1j * ks)
    s[:, CCV, CV] = np.exp(1j * ks)
    s[:, CH, CCH] = np.exp(1j * ks)
    s[:, CV, CCV] = np.exp(-1j * ks)
    return s


def eigenphases(coin: np.ndarray, ks) -> np.ndarray:
    """(n_k, 4) eigenphases of S(k) C in [-pi, pi), sorted per k."""
    w = np.linalg.eigvals(shift_k(ks) @ coin)
    return np.sort(np.angle(w), axis=-1)


def circle_distance(a, b):
    return np.abs(np.angle(np.exp(1j * (np.asarray(a) - np.asarray(b)))))


def group_velocities_at(coin: np.ndarray, k: float, cluster_tol: float = 1e-7) -> np.ndarray:
    """The four group velocities at k by Hellmann-Feynman.

    For an eigenvector v of U = S(k) C, d omega / dk = <Cv| D |Cv>. Inside a
    degenerate eigenspace the velocities are the eigenvalues of C^dag D C
    restricted to it, so clustered eigenvalues are handled together.
    """
    u = shift_k([k])[0] @ coin
    w, v = np.linalg.eig(u)
    ph = np.angle(w)
    order = np.argsort(ph)
    ph, v = ph[order], v[:, order]
    g = coin.conj().T @ _D @ coin
    # group phases that lie within cluster_tol on the circle (the seam included)
    labels = list(range(4))
    for i in range(4):
        for j in range(i):
            if circle_distance(ph[i], ph[j]) <= cluster_tol:
                labels[i] = labels[j]
                break
    out = []
    for lab in sorted(set(labels)):
        cols = [i for i in range(4) if labels[i] == lab]
        q, _ = np.linalg.qr(v[:, cols])
        out.extend(np.linalg.eigvalsh(q.conj().T @ g @ q))
    return np.array(out)


# --- walks ------------------------------------------------------------------

def initial_amplitudes(initial: dict | None) -> tuple[int, np.ndarray]:
    """(position, amplitudes) of a localized start, as loopwalk's config reads it."""
    initial = initial or {}
    base = CH if initial.get("direction", "ccw") in ("cw", "c") else CCH
    pol = initial.get("polarization", "H")
    amp = np.zeros(4, dtype=complex)
    h = 1.0 / np.sqrt(2.0)
    if pol == "H":
        amp[base] = 1.0
    elif pol == "V":
        amp[base + 1] = 1.0
    elif pol == "D":
        amp[base], amp[base + 1] = h, h
    else:
        amp[base], amp[base + 1] = h, -h
    return int(initial.get("position", 0)), amp


def dense_walk(coins: np.ndarray, x_lo: int, x0: int, amp: np.ndarray, steps: int) -> np.ndarray:
    """Mode intensities (steps+1, n_pos, 4) of a walk on a fixed window.

    coins[i] is the coin at position x_lo + i. Every step applies the coin
    and then the shift cH@x -> ccH@x-1, cV@x -> ccV@x+1, ccH@x -> cH@x+1,
    ccV@x -> cV@x-1, on the whole window without skipping zeros. Amplitude
    shifted past either edge is dropped, so the window must hold the walk.
    """
    n = coins.shape[0]
    psi = np.zeros((n, 4), dtype=complex)
    psi[x0 - x_lo] = amp
    out = np.empty((steps + 1, n, 4))
    out[0] = np.abs(psi) ** 2
    for t in range(steps):
        phi = np.einsum("xij,xj->xi", coins, psi)
        psi = np.zeros_like(phi)
        psi[:-1, CCH] = phi[1:, CH]
        psi[1:, CCV] = phi[:-1, CV]
        psi[1:, CH] = phi[:-1, CCH]
        psi[:-1, CV] = phi[1:, CCV]
        out[t + 1] = np.abs(psi) ** 2
    return out


def circle_nodes(num_sites: int, left_end: int) -> dict:
    """{(x, 'c'|'cc'): node}: m(x, cc) = (x - left + 1) mod 2N and
    m(x, c) = (left + 1 - x) mod 2N on the positions left .. left + N."""
    out = {}
    for x in range(left_end, left_end + num_sites // 2 + 1):
        out[(x, "cc")] = (x - left_end + 1) % num_sites
        out[(x, "c")] = (left_end + 1 - x) % num_sites
    return out


def figure_eight_nodes(left_end: int, center: int, right_end: int) -> dict:
    """{(x, 'c'|'cc'): node} of two rings sharing the center position.

    With lobes n_l = center - left and n_r = right - center there are
    2 n_l + 2 n_r - 1 nodes; the c subspace runs through them in order
    (node 2 n_l - 1 at the center), the cc subspace comes back round each
    lobe and meets the c subspace at the ends and at the center.
    """
    n_l, n_r = center - left_end, right_end - center
    total = 2 * n_l + 2 * n_r - 1
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


def map_to_nodes(intens: np.ndarray, x_lo: int, nodes: dict, num_nodes: int) -> np.ndarray:
    """(T, n_pos, 4) line intensities -> (T, num_nodes, 4) node intensities."""
    out = np.zeros((intens.shape[0], num_nodes, 4))
    for (x, sub), m in nodes.items():
        modes = [CH, CV] if sub == "c" else [CCH, CCV]
        out[:, m, modes] += intens[:, x - x_lo, modes]
    return out


def revivals(node_dist: np.ndarray, tol: float) -> list:
    """(t, s, kind) with (sum sqrt(P_0(m - s) P_t(m)))^2 >= 1 - tol, t >= 1."""
    p0 = node_dist[0]
    m = p0.shape[0]
    rolled = np.stack([np.roll(p0, s) for s in range(m)])      # (M, M)
    amp = np.sqrt(rolled[None, :, :] * node_dist[1:, None, :]).sum(axis=-1)
    hits = np.argwhere(amp * amp >= 1.0 - tol)
    return [(int(t) + 1, int(s), "perfect" if s == 0 else "shifted") for t, s in hits]
