"""Jones matrices for the interferometer elements and coin assembly.

Conventions
-----------
- All element angles/phases are taken in degrees at the interface and
  converted to radians internally.
- Polarization basis order (H, V); four-mode basis order
  (cH, cV, ccH, ccV) where c / cc label the two propagation directions
  through the loop.
- An arm is traversed twice because of the mirror at its end: the wave
  passes the listed waveplates in order, reflects, and passes them again
  in reverse order, so the waveplate part composes as the palindrome
  e1 ... eN . eN ... e1.  For a single waveplate this is just its square.
  The phase modulator acts once per round trip; by default its matrix is
  applied first (rightmost factor).  `eom_first=True` flips it to the
  other end of the product.
- A loop element list composes as a single ordered pass: the first listed
  element acts first, i.e. matrix product reversed(list).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg_core import assert_unitary


def _two_by_two(m00, m01, m10, m11) -> np.ndarray:
    """The C-contiguous (..., 2, 2) complex stack [[m00, m01], [m10, m11]]
    of four entries of one shape."""
    out = np.empty(np.shape(m00) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = m00, m01, m10, m11
    return out


def _identity(shape: tuple) -> np.ndarray:
    return np.tile(np.eye(2, dtype=complex), (*shape, 1, 1))


def qwp_matrix(angle_deg) -> np.ndarray:
    """Quarter-wave plate with fast axis at angle_deg from horizontal.

    qwp(0) = diag(e^{-i pi/4}, e^{+i pi/4}); qwp(45) = (1/sqrt2)[[1,-i],[-i,1]].
    Like every element builder it takes an array of settings too and then
    returns a (..., 2, 2) stack.
    """
    a = 2.0 * np.deg2rad(angle_deg)
    c, s = np.cos(a), np.sin(a)
    return (-1j / np.sqrt(2.0)) * _two_by_two(c + 1j, s, s, -c + 1j)


def hwp_matrix(angle_deg) -> np.ndarray:
    """Half-wave plate at angle_deg; hwp(22.5) is the Hadamard matrix."""
    a = 2.0 * np.deg2rad(angle_deg)
    c, s = np.cos(a), np.sin(a)
    return _two_by_two(c, s, s, -c)


def eom_matrix(phase_deg) -> np.ndarray:
    """Phase modulator: rotation about the H/V-coupling axis.

    eom(0) = identity, eom(-90) = iX, eom(45) = (1/sqrt2)[[1,-i],[-i,1]].
    """
    p = np.deg2rad(phase_deg)
    c, s = np.cos(p), np.sin(p)
    return _two_by_two(c, -1j * s, -1j * s, c)


_BUILDERS = {"qwp": qwp_matrix, "hwp": hwp_matrix, "eom": eom_matrix}


@dataclass(frozen=True)
class OpticalElement:
    """One physical element: kind in {'qwp','hwp','eom'} and its setting in degrees."""

    kind: str
    parameter_deg: float

    def __post_init__(self):
        if self.kind not in _BUILDERS:
            raise ValueError(f"unknown element kind {self.kind!r}; expected one of {tuple(_BUILDERS)}")

    def matrix(self) -> np.ndarray:
        return _BUILDERS[self.kind](self.parameter_deg)


@dataclass(frozen=True)
class ArmSetting:
    """Waveplate stack of one interferometer arm plus its modulator phase.

    `waveplates` are listed in the order the light meets them on the way in.
    """

    waveplates: tuple[OpticalElement, ...] = ()
    eom_phase_deg: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "waveplates", tuple(self.waveplates))
        for el in self.waveplates:
            if el.kind == "eom":
                raise ValueError("modulators belong in eom_phase_deg, not in the waveplate stack")


def arm_stack(kinds: Sequence[str], angles, eom_first: bool = False) -> np.ndarray:
    """Round-trip operators of one arm over a stack of settings.

    `angles` (..., len(kinds) + 1) holds the angles of waveplates of the
    given kinds, in the order the light meets them, then the modulator
    phase; the result is (..., 2, 2).  The light passes the waveplates
    twice (palindrome product) and the modulator once; with the default
    placement the modulator matrix is the rightmost factor.
    """
    angles = np.asarray(angles, dtype=float)
    mats = [_BUILDERS[kind](angles[..., i]) for i, kind in enumerate(kinds)]
    wp = _identity(angles.shape[:-1])
    # palindrome: (eN ... e1) then (e1 ... eN) reading right to left in time
    for m in mats:
        wp = m @ wp
    for m in reversed(mats):
        wp = m @ wp
    eom = eom_matrix(angles[..., -1])
    return eom @ wp if eom_first else wp @ eom


def loop_stack(kinds: Sequence[str], angles) -> np.ndarray:
    """(..., 2, 2) operators of a single ordered pass through loop elements
    of the given kinds at angles (..., len(kinds)); the first acts first."""
    angles = np.asarray(angles, dtype=float)
    out = _identity(angles.shape[:-1])
    for i, kind in enumerate(kinds):
        out = _BUILDERS[kind](angles[..., i]) @ out
    return out


def coin_ll(c_l: np.ndarray) -> np.ndarray:
    """Loop contribution acting identically on both directions: diag(C_L, C_L)."""
    return coin_ll_independent(c_l, c_l)


def coin_ll_independent(c_cw: np.ndarray, c_ccw: np.ndarray) -> np.ndarray:
    """Loop contribution with independent 2x2 blocks per direction."""
    c_cw = np.asarray(c_cw, dtype=complex)
    c_ccw = np.asarray(c_ccw, dtype=complex)
    out = np.zeros(np.broadcast_shapes(c_cw.shape, c_ccw.shape)[:-2] + (4, 4), dtype=complex)
    out[..., :2, :2] = c_cw
    out[..., 2:, 2:] = c_ccw
    return out


def coin_ab(c_a: np.ndarray, c_b: np.ndarray) -> np.ndarray:
    """Arm contribution to the four-mode coin.

    Arm A couples (cH, ccV); arm B couples (cV, ccH).  With
    a = [[aHH, aHV], [aVH, aVV]] and likewise b:

        [[aHH,  0,    0,   -aHV],
         [0,    bVV, -bVH,  0  ],
         [0,   -bHV,  bHH,  0  ],
         [-aVH, 0,    0,    aVV]]

    The cross couplings carry a sign because the counter-propagating
    basis modes are taken with a flipped phase; conjugating by
    diag(1, 1, -1, -1) removes the signs, and since that conjugation
    anticommutes with the step operator it never affects intensities.
    Stacks of blocks (..., 2, 2) give a stack of coins (..., 4, 4), here
    and in the other assembly functions.
    """
    a = np.asarray(c_a, dtype=complex)
    b = np.asarray(c_b, dtype=complex)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape)[:-2] + (4, 4), dtype=complex)
    out[..., 0, 0] = a[..., 0, 0]
    out[..., 0, 3] = -a[..., 0, 1]
    out[..., 3, 0] = -a[..., 1, 0]
    out[..., 3, 3] = a[..., 1, 1]
    out[..., 1, 1] = b[..., 1, 1]
    out[..., 1, 2] = -b[..., 1, 0]
    out[..., 2, 1] = -b[..., 0, 1]
    out[..., 2, 2] = b[..., 0, 0]
    return out


def full_coin(c_a: np.ndarray, c_b: np.ndarray, c_l: np.ndarray) -> np.ndarray:
    """Composite coin of one round trip: arms after the loop, C = C_AB . C_LL."""
    return coin_ab(c_a, c_b) @ coin_ll(c_l)


def certified_coin(matrix: np.ndarray) -> np.ndarray:
    """Validate a user-supplied 4x4 coin against DEFAULT_UNITARY_TOL."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"coin must be 4x4, got {m.shape}")
    return assert_unitary(m, name="coin")
