"""Time evolution of the four-mode walk on the integer line.

State layout: a walker state is a dense (n, 4) complex array of amplitudes
over the window of positions offset .. offset + n - 1, in the fixed mode
order

    0: cH   1: cV   2: ccH   3: ccV

plus a boolean mask of the positions the walker has reached.  A walk of T
steps runs on the light-cone window [min(initial) - T, max(initial) + T],
so no amplitude can leave it.

One time step applies the position/time dependent coin first and the
flip-flop shift second.  The shift exchanges direction subspaces:

    cH @ x  -> ccH @ x-1        ccH @ x -> cH @ x+1
    cV @ x  -> ccV @ x+1        ccV @ x -> cV @ x-1

so applying it twice is the identity.  At step 0 the reached positions are
those of the initial state; after a step, a position is reached when a
nonzero coined amplitude shifts onto it.  Coins are resolved only at
reached positions, and records list only reached positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .optics import ArmSetting, OpticalElement, arm_operator, full_coin, loop_operator

CH, CV, CCH, CCV = 0, 1, 2, 3
MODE_NAMES = ("cH", "cV", "ccH", "ccV")

InitialState = dict  # position -> complex (4,) amplitudes, as make_initial builds it


class ProgramError(KeyError):
    """Raised when a coin program cannot resolve a (step, position) query."""


@dataclass(frozen=True)
class RawCoin:
    """Coin given directly as a unitary 4x4 matrix, held as a read-only copy
    (CoinProgram builds each spec's matrix once and reuses it)."""

    matrix_value: np.ndarray

    def __post_init__(self):
        frozen = np.array(self.matrix_value)
        frozen.setflags(write=False)
        object.__setattr__(self, "matrix_value", frozen)

    def matrix(self) -> np.ndarray:
        return self.matrix_value

    def perturbed(self, rng, angle_err_deg, distribution):
        raise ValueError("raw-matrix coins carry no element angles to perturb")

    @property
    def has_elements(self) -> bool:
        return False


@dataclass(frozen=True)
class ElementCoin:
    """Coin assembled from arm settings and loop elements.

    Keeping the element-level description around (instead of collapsing to
    a matrix immediately) is what makes angle-uncertainty sampling possible.
    """

    arm_a: ArmSetting
    arm_b: ArmSetting
    loop: tuple[OpticalElement, ...] = ()
    eom_first: bool = False

    def __post_init__(self):
        object.__setattr__(self, "loop", tuple(self.loop))

    def matrix(self) -> np.ndarray:
        return full_coin(
            arm_operator(self.arm_a, eom_first=self.eom_first),
            arm_operator(self.arm_b, eom_first=self.eom_first),
            loop_operator(self.loop),
        )

    def angles(self) -> list[float]:
        """All element parameters in a fixed documented order.

        Order: arm A waveplates, arm A modulator phase, arm B waveplates,
        arm B modulator phase, loop elements.
        """
        vals = [el.parameter_deg for el in self.arm_a.waveplates]
        vals.append(self.arm_a.eom_phase_deg)
        vals += [el.parameter_deg for el in self.arm_b.waveplates]
        vals.append(self.arm_b.eom_phase_deg)
        vals += [el.parameter_deg for el in self.loop]
        return vals

    def with_angles(self, vals: Sequence[float]) -> "ElementCoin":
        vals = list(vals)
        expect = len(self.angles())
        if len(vals) != expect:
            raise ValueError(f"expected {expect} angles, got {len(vals)}")
        it = iter(vals)
        wp_a = tuple(OpticalElement(el.kind, next(it)) for el in self.arm_a.waveplates)
        eom_a = next(it)
        wp_b = tuple(OpticalElement(el.kind, next(it)) for el in self.arm_b.waveplates)
        eom_b = next(it)
        loop = tuple(OpticalElement(el.kind, next(it)) for el in self.loop)
        return ElementCoin(
            ArmSetting(wp_a, eom_a), ArmSetting(wp_b, eom_b), loop, self.eom_first
        )

    def perturbed(self, rng: np.random.Generator, angle_err_deg: float, distribution: str) -> "ElementCoin":
        base = self.angles()
        if distribution == "uniform":
            jitter = rng.uniform(-angle_err_deg, angle_err_deg, size=len(base))
        elif distribution == "truncated_normal":
            # sigma = err/2, resampled into the +-err window
            jitter = np.empty(len(base))
            for i in range(len(base)):
                while True:
                    d = rng.normal(0.0, angle_err_deg / 2.0)
                    if abs(d) <= angle_err_deg:
                        jitter[i] = d
                        break
        else:
            raise ValueError(f"unknown perturbation distribution {distribution!r}")
        return self.with_angles([b + j for b, j in zip(base, jitter)])

    @property
    def has_elements(self) -> bool:
        return True


class CoinProgram:
    """Resolver from (step, position) to a 4x4 coin.

    Resolution order: an entry of `time_table` indexed by step wins when
    present (uniform over positions); otherwise `overrides` keyed by
    position; otherwise `default`.  A query that reaches no rule raises
    ProgramError naming the offending step and position.

    `specs` lists the distinct coin specs in the order default, overrides
    by ascending position, time table entries.  Every rule resolves to an
    entry of it; each entry's matrix is built once, on first use.
    """

    def __init__(
        self,
        default=None,
        overrides: Optional[Mapping[int, object]] = None,
        time_table: Optional[Sequence[object]] = None,
    ):
        self.default = default
        self.overrides = dict(overrides) if overrides else {}
        self.time_table = list(time_table) if time_table is not None else None
        positions = sorted(self.overrides)
        rules = ([default] if default is not None else []) + [self.overrides[x] for x in positions]
        rules += self.time_table or []
        self.specs = list({id(spec): spec for spec in rules}.values())  # each object once, where first seen
        entry = {id(spec): i for i, spec in enumerate(self.specs)}
        self._override_entries = {x: entry[id(self.overrides[x])] for x in positions}
        self._time_entries = [entry[id(spec)] for spec in self.time_table or ()]
        self._matrices = [None] * len(self.specs)
        self._overrides = None  # (override positions ascending, coin per slot), on first use

    def _entry(self, t: int, x: int) -> int:
        if 0 <= t < len(self._time_entries):
            return self._time_entries[t]
        if x in self._override_entries:
            return self._override_entries[x]
        if self.default is not None:
            return 0
        raise ProgramError(f"no coin rule for step {t} at position {x}")

    def _matrix(self, i: int) -> np.ndarray:
        if self._matrices[i] is None:
            self._matrices[i] = np.asarray(self.specs[i].matrix(), dtype=complex)
        return self._matrices[i]

    def spec_at(self, t: int, x: int):
        return self.specs[self._entry(t, x)]

    def coin_at(self, t: int, x: int) -> np.ndarray:
        return self._matrix(self._entry(t, x))

    def coin_stack(self, t: int, positions: np.ndarray) -> np.ndarray:
        """Coins for step t at a nonempty array of positions.

        Shape (1, 4, 4) when one rule covers every position, else
        (len(positions), 4, 4), gathered from the override coins, which
        are resolved once; a position without a rule raises ProgramError.
        """
        if 0 <= t < len(self._time_entries) or not self._override_entries:
            return self.coin_at(t, int(positions[0]))[None]
        if self._overrides is None:
            # a slot per override position, then the default's
            slots = [*self._override_entries.values(), *([0] if self.default is not None else [])]
            self._overrides = np.array(list(self._override_entries)), np.array([self._matrix(i) for i in slots])
        keys, coins = self._overrides
        slot = np.searchsorted(keys, positions)
        missing = keys[np.minimum(slot, len(keys) - 1)] != positions
        if self.default is None and missing.any():
            self._entry(t, int(positions[missing][0]))  # raises, naming step and position
        slot[missing] = len(keys)
        return coins[slot]

    def perturbed(self, rng: np.random.Generator, angle_err_deg: float, distribution: str = "uniform") -> "CoinProgram":
        """New program with every element angle independently jittered.

        One draw per entry of `specs`, in that order, reused wherever the
        spec appeared, so a shared position class shares its draw.
        """
        drawn = [spec.perturbed(rng, angle_err_deg, distribution) for spec in self.specs]
        return CoinProgram(
            default=drawn[0] if self.default is not None else None,
            overrides={x: drawn[i] for x, i in self._override_entries.items()},
            time_table=[drawn[i] for i in self._time_entries] if self.time_table is not None else None,
        )

    @property
    def has_elements(self) -> bool:
        return all(spec.has_elements for spec in self.specs)


def constant_program(coin_matrix: np.ndarray) -> CoinProgram:
    return CoinProgram(default=RawCoin(np.asarray(coin_matrix, dtype=complex)))


class IntensityRecord:
    """Per-step mode intensities of one walk run over a window of sites.

    `intensities[t, i]` holds the four mode intensities of site offset + i
    after t steps (index 0 is the initial state) and `reached[t, i]` marks
    the sites reached at step t; every other site holds zeros.  The sites
    of a line walk are positions; a MappedRecord uses the same layout for
    graph nodes.
    """

    def __init__(self, intensities: np.ndarray, reached: np.ndarray, offset: int = 0):
        self.intensities = intensities
        self.reached = reached
        self.offset = offset

    def __len__(self) -> int:
        return len(self.intensities)

    @property
    def num_steps(self) -> int:
        return len(self) - 1

    @property
    def steps(self) -> list:
        """Per step, the (k, 4) intensities of the k reached sites."""
        return [self.intensity(t) for t in range(len(self))]

    def positions(self, t: int) -> np.ndarray:
        """Reached sites at step t, ascending."""
        return self.offset + np.flatnonzero(self.reached[t])

    def intensity(self, t: int) -> np.ndarray:
        """(k, 4) mode intensities at positions(t)."""
        return self.intensities[t][self.reached[t]]

    def total(self, t: int) -> float:
        return float(self.intensities[t].sum())

    def position_distribution(self, t: int) -> np.ndarray:
        """Mode-summed intensity at positions(t)."""
        return self.intensity(t).sum(axis=1)

    def distribution_vector(self, t: int) -> np.ndarray:
        """Mode-summed intensity at every site of the window."""
        return self.intensities[t].sum(axis=1)


@dataclass
class WalkerState:
    """Amplitudes `amp` (n, 4) on the positions offset .. offset + n - 1,
    with `reached` (n,) marking the positions the walker has reached."""

    amp: np.ndarray
    reached: np.ndarray
    offset: int

    @classmethod
    def light_cone(cls, initial: InitialState, steps: int) -> "WalkerState":
        """`initial` placed on the window that `steps` steps cannot leave."""
        if not initial:
            raise ValueError("initial state has no positions")
        lo = min(initial) - steps
        n = max(initial) + steps - lo + 1
        amp = np.zeros((n, 4), dtype=complex)
        reached = np.zeros(n, dtype=bool)
        for x, a in initial.items():
            amp[x - lo] = a
            reached[x - lo] = True
        return cls(amp, reached, int(lo))

    def positions(self) -> np.ndarray:
        return self.offset + np.flatnonzero(self.reached)


def make_initial(direction: str, polarization: str, position: int = 0) -> InitialState:
    """Localized initial state at `position`.

    direction: 'cw'/'c' or 'ccw'/'cc'; polarization: H, V, D, A with
    D = (H+V)/sqrt2 and A = (H-V)/sqrt2.
    """
    d = direction.lower()
    if d in ("cw", "c"):
        base = CH
    elif d in ("ccw", "cc"):
        base = CCH
    else:
        raise ValueError(f"unknown direction {direction!r}")
    amp = np.zeros(4, dtype=complex)
    p = polarization.upper()
    if p == "H":
        amp[base] = 1.0
    elif p == "V":
        amp[base + 1] = 1.0
    elif p == "D":
        amp[base] = 1.0 / np.sqrt(2.0)
        amp[base + 1] = 1.0 / np.sqrt(2.0)
    elif p == "A":
        amp[base] = 1.0 / np.sqrt(2.0)
        amp[base + 1] = -1.0 / np.sqrt(2.0)
    else:
        raise ValueError(f"unknown polarization {polarization!r}")
    return {int(position): amp}


def apply_coin(state: WalkerState, program: CoinProgram, t: int) -> WalkerState:
    rows = np.flatnonzero(state.reached)
    amp = state.amp.copy()
    if rows.size:
        coins = program.coin_stack(t, state.offset + rows)
        amp[rows] = np.matmul(coins, amp[rows][:, :, None])[:, :, 0]
    return WalkerState(amp, state.reached, state.offset)


def apply_step(state: WalkerState) -> WalkerState:
    a = state.amp
    if a[0, CH] or a[0, CCV] or a[-1, CV] or a[-1, CCH]:
        raise ValueError("amplitude would leave the window; size it with WalkerState.light_cone")
    out = np.zeros_like(a)
    out[:-1, CCH] = a[1:, CH]
    out[:-1, CV] = a[1:, CCV]
    out[1:, CH] = a[:-1, CCH]
    out[1:, CCV] = a[:-1, CV]
    return WalkerState(out, np.any(out != 0.0, axis=1), state.offset)


def evolve_states(initial: InitialState, program: CoinProgram, steps: int):
    """Yield the state after 0, 1, ..., steps time steps."""
    state = WalkerState.light_cone(initial, steps)
    yield state
    for t in range(steps):
        state = apply_step(apply_coin(state, program, t))
        yield state


def evolve(initial: InitialState, program: CoinProgram, steps: int) -> IntensityRecord:
    intensities, reached = [], []
    for state in evolve_states(initial, program, steps):
        intensities.append(np.abs(state.amp) ** 2)
        reached.append(state.reached)
    return IntensityRecord(np.array(intensities), np.array(reached), state.offset)


def final_state(initial: InitialState, program: CoinProgram, steps: int) -> WalkerState:
    for state in evolve_states(initial, program, steps):
        pass
    return state


TRACE_LABELS = {
    "full": MODE_NAMES,
    "sum_polarization": ("c", "cc"),
    "sum_direction": ("H", "V"),
}
_TRACE_MODES = (*TRACE_LABELS, "sum_all")


def trace_intensities(record: IntensityRecord, mode: str = "full") -> np.ndarray:
    """Collapse the mode axis of a record's (T+1, n, 4) intensities.

    full, sum_polarization and sum_direction give (T+1, n, L) over the
    labels TRACE_LABELS[mode]; sum_all gives (T+1, n).  Sites and the
    reached mask are the record's.
    """
    if mode not in _TRACE_MODES:
        raise ValueError(f"unknown trace mode {mode!r}; expected one of {_TRACE_MODES}")
    v = record.intensities
    if mode == "full":
        return v.copy()
    if mode == "sum_polarization":
        return np.stack([v[..., CH] + v[..., CV], v[..., CCH] + v[..., CCV]], axis=-1)
    if mode == "sum_direction":
        return np.stack([v[..., CH] + v[..., CCH], v[..., CV] + v[..., CCV]], axis=-1)
    return v.sum(axis=-1)
