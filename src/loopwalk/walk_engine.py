"""Time evolution of the four-mode walk on the integer line.

State layout: a walker state is a dense (n, 4) complex array of amplitudes
over the window of positions offset .. offset + n - 1, in the fixed mode
order

    0: cH   1: cV   2: ccH   3: ccV

plus a boolean mask of the positions the walker has reached.  A walk runs
on a window [L, R] with one drain site on each side, L - 1 and R + 1.  A
drain site is never coined or shifted: light that a shift lands on it
stays there until the next step, and a record, which covers the window
alone, adds it to its drained totals (per sample in a batch).  A
closed graph's window is its positions; a line's is the light cone
[min(initial) - T, max(initial) + T] of T steps, whose drains nothing
reaches.  Each step coins and shifts only the span of the reached
positions, and records are filled over that span, so a graph walk costs
O(T (R - L)) whatever the light cone.

One time step applies the position/time dependent coin first and the
flip-flop shift second.  The shift exchanges direction subspaces:

    cH @ x  -> ccH @ x-1        ccH @ x -> cH @ x+1
    cV @ x  -> ccV @ x+1        ccV @ x -> cV @ x-1

so applying it twice is the identity, and it flips each position's
parity: when the reached positions share one, the span is every second
position.  At step 0 the reached positions are those of the initial
state; after a step, a position is reached when a nonzero coined amplitude
shifts onto it.  Only reached positions need a coin rule, and records list
only reached positions.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .optics import ArmSetting, OpticalElement, arm_stack, full_coin, loop_stack

CH, CV, CCH, CCV = 0, 1, 2, 3
MODE_NAMES = ("cH", "cV", "ccH", "ccV")

InitialState = dict  # position -> complex (4,) amplitudes, as make_initial builds it


class ProgramError(KeyError):
    """Raised when a coin program cannot resolve a (step, position) query."""


def _no_rule(t: int, x: int) -> str:
    return f"no coin rule for step {t} at position {x}"


def draw_jitter(
    rng: np.random.Generator, n_samples: int, n_angles: int, angle_err_deg: float, distribution: str, eff_err=None
) -> np.ndarray:
    """Random draws for n_samples samples, one row each, taken from rng row
    by row: n_angles angle offsets within +-angle_err_deg, then, with
    eff_err, four detection efficiencies uniform on [1 - eff_err, 1 + eff_err].

    Uniform draws are low + (high - low) * U over one rng.random block, as
    Generator.uniform computes them.  truncated_normal offsets are drawn
    from N(0, (angle_err_deg / 2)^2) one at a time, each redrawn until it
    lies inside the window.
    """
    bounds = [(-angle_err_deg, angle_err_deg)] * n_angles
    if eff_err is not None:
        bounds += [(1.0 - eff_err, 1.0 + eff_err)] * 4
    low, high = np.array(bounds, dtype=float).reshape(-1, 2).T
    span = high - low
    if distribution == "uniform":
        return low + span * rng.random((n_samples, len(bounds)))
    if distribution != "truncated_normal":
        raise ValueError(f"unknown perturbation distribution {distribution!r}")
    out = np.empty((n_samples, len(bounds)))
    for row in out:
        for i in range(n_angles):
            while abs(d := rng.normal(0.0, angle_err_deg / 2.0)) > angle_err_deg:
                pass
            row[i] = d
        row[n_angles:] = low[n_angles:] + span[n_angles:] * rng.random(len(bounds) - n_angles)
    return out


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

    def angles(self) -> list:
        return []

    def matrices(self, angles) -> np.ndarray:
        """The matrix once per row of an (..., 0) angle array, as a contiguous stack."""
        return np.tile(self.matrix_value, (*np.shape(angles)[:-1], 1, 1))

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
        return self.matrices(self.angles())

    def matrices(self, angles) -> np.ndarray:
        """Coins at element angles (..., n) given in the order of angles():
        a (..., 4, 4) stack, one coin per row; matrix() is the row of the
        coin's own angles."""
        angles = np.asarray(angles, dtype=float)
        a = len(self.arm_a.waveplates) + 1
        b = a + len(self.arm_b.waveplates) + 1
        return full_coin(
            arm_stack([el.kind for el in self.arm_a.waveplates], angles[..., :a], self.eom_first),
            arm_stack([el.kind for el in self.arm_b.waveplates], angles[..., a:b], self.eom_first),
            loop_stack([el.kind for el in self.loop], angles[..., b:]),
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
    entry of it; `table` holds the entries' matrices, all built once on
    first use.
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
        self._table = None  # on first use
        self._overrides = None  # (override positions ascending, entry per slot), on first use

    def _entry(self, t: int, x: int) -> int:
        if 0 <= t < len(self._time_entries):
            return self._time_entries[t]
        if x in self._override_entries:
            return self._override_entries[x]
        if self.default is not None:
            return 0
        raise ProgramError(_no_rule(t, x))

    @property
    def table(self) -> np.ndarray:
        """The read-only matrices of `specs`, (len(specs), 4, 4), built once
        on first use; a sampled program's has a leading sample axis."""
        if self._table is None:
            self._table = np.array([spec.matrix() for spec in self.specs], dtype=complex)
            self._table.setflags(write=False)
        return self._table

    def coin_at(self, t: int, x: int) -> np.ndarray:
        return self.table[..., self._entry(t, x), :, :]

    def entries(self, t: int, positions: np.ndarray):
        """The entries of `specs` serving a nonempty array of positions at
        step t, one per position, or a single one when one rule covers them
        all; and the mask of the positions no rule covers, None when there
        is none (their entry is arbitrary).  The override positions are
        resolved once and looked up with one searchsorted.
        """
        if 0 <= t < len(self._time_entries):
            return np.array(self._time_entries[t : t + 1]), None
        if not self._override_entries:
            uncovered = None if self.default is not None else np.ones(len(positions), dtype=bool)
            return np.zeros(1, dtype=int), uncovered
        if self._overrides is None:
            # a slot per override position, then the default's (entry 0, unused without a default)
            slots = [*self._override_entries.values(), 0]
            self._overrides = np.array(list(self._override_entries)), np.array(slots)
        keys, slots = self._overrides
        slot = np.searchsorted(keys, positions)
        missing = keys[np.minimum(slot, len(keys) - 1)] != positions
        slot[missing] = len(keys)
        return slots[slot], missing if self.default is None and missing.any() else None

    def sampled(self, offsets: np.ndarray) -> "CoinProgram":
        """This program's rules over a table with the leading axes of `offsets`.

        Each row of `offsets` (..., A) shifts every element angle of the
        entries of `specs` in order (A = len(angles())), so offsets (S, A)
        give a (S, len(specs), 4, 4) table, one sample per row, and a single
        row (A,) a plain (len(specs), 4, 4) one; the table is contiguous.
        Raw-matrix entries have no angles and keep their matrix.
        """
        split = np.cumsum([len(spec.angles()) for spec in self.specs])[:-1]
        shifts = np.split(offsets, split, axis=-1)
        stacks = [spec.matrices(np.add(spec.angles(), d)) for spec, d in zip(self.specs, shifts)]
        table = np.stack(stacks, axis=-3) if stacks else np.empty((*offsets.shape[:-1], 0, 4, 4), dtype=complex)
        table.setflags(write=False)
        out = copy.copy(self)
        out._table = table
        return out

    def angles(self) -> list:
        """Every element angle of the entries of `specs`, in order."""
        return [angle for spec in self.specs for angle in spec.angles()]

    def perturbed(self, rng: np.random.Generator, angle_err_deg: float, distribution: str = "uniform") -> "CoinProgram":
        """This program under one row of draw_jitter, through sampled(): each
        entry of `specs` takes its draws in order, so a shared position class
        shares them.  bench/tracing.py wraps this method to time a
        perturbation; error sampling draws its rows and calls sampled() itself."""
        if not self.has_elements:
            raise ValueError("raw-matrix coins carry no element angles to perturb")
        return self.sampled(draw_jitter(rng, 1, len(self.angles()), angle_err_deg, distribution)[0])

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
    graph nodes.  `drained[t]` is the intensity the walk lost through its
    drain sites in its first t steps (zeros when not given).
    """

    def __init__(self, intensities: np.ndarray, reached: np.ndarray, offset: int = 0, drained=None):
        self.intensities = intensities
        self.reached = reached
        self.offset = offset
        self.drained = np.zeros(len(intensities)) if drained is None else drained

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
    with `reached` (n,) marking the positions the walker has reached.

    A batch has a leading sample axis, amp (S, n, 4) and reached (S, n),
    for the samples of a sampled program (CoinProgram.sampled), each walked
    on its own; `failed` is then the (sample, message) of the lowest-index
    sample that reached a position without a coin rule, at the first step
    it did (see _coin).
    """

    amp: np.ndarray
    reached: np.ndarray
    offset: int
    failed: Optional[tuple] = None

    @classmethod
    def on(cls, initial: InitialState, lo: int, hi: int, samples: tuple = ()) -> "WalkerState":
        """`initial` placed on the window of positions lo .. hi, once per
        sample when `samples` is (S,)."""
        if not initial:
            raise ValueError("initial state has no positions")
        amp = _zeros((*samples, hi - lo + 1, 4), complex)
        reached = _zeros((*samples, hi - lo + 1), bool)
        for x, a in initial.items():
            amp[..., x - lo, :] = a
            reached[..., x - lo] = True
        return cls(amp, reached, int(lo))

    def positions(self) -> np.ndarray:
        """Positions reached by any sample, ascending."""
        return self.offset + np.flatnonzero(self.reached if self.reached.ndim == 1 else self.reached.any(axis=0))


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


def _zeros(shape: tuple, dtype) -> np.ndarray:
    """np.zeros(shape, dtype), raising MemoryError, as for any size that
    cannot be allocated, when the byte count, counted in Python ints, passes
    the largest array numpy can address (numpy raises ValueError there)."""
    nbytes = math.prod(int(n) for n in shape) * np.dtype(dtype).itemsize
    if nbytes > np.iinfo(np.intp).max:
        raise MemoryError(f"Unable to allocate {nbytes} bytes for an array with shape {shape}")
    return np.zeros(shape, dtype)


def _span(reached: np.ndarray, start: int = 0, step: int = 1) -> tuple:
    """[lo, hi) of the indices start, start + step, ... any sample reached in `reached`; (start, start) if none."""
    hit = np.flatnonzero(reached if reached.ndim == 1 else reached.any(axis=0))
    return (start + step * int(hit[0]), start + step * int(hit[-1]) + 1) if hit.size else (start, start)


def _coin(state: WalkerState, program: CoinProgram, t: int, entries, uncovered, lo: int, hi: int, step: int = 1):
    """Coined amplitudes (..., k, 4) of the k positions lo:hi:step at step t, with (entries, uncovered)
    the program.entries(t, ...) of the window, and the failure of a reached position.

    A batch state (S, n, 4) takes a program whose table is (S, len(specs), 4, 4), and each sample is
    coined from its own row; a position reached by any sample is coined in every sample (zero
    amplitudes stay zero).  A reached position without a rule raises ProgramError naming the step
    and the lowest such position.  In a batch the failure is kept in `failed` instead, for the
    lowest-index failing sample at its first failing step, and _walk raises it after the last step:
    the error running the samples one by one would raise."""
    failed = state.failed
    if uncovered is not None:
        bad = np.atleast_2d(state.reached[..., lo:hi:step] & uncovered[lo:hi:step])  # a row per sample
        failing = np.flatnonzero(bad.any(axis=1))
        if failing.size and (failed is None or failing[0] < failed[0]):
            failed = (int(failing[0]), _no_rule(t, state.offset + lo + step * int(np.argmax(bad[failing[0]]))))
            if state.reached.ndim == 1:
                raise ProgramError(failed[1])
    coins = program.table.take(entries if len(entries) == 1 else entries[lo:hi:step], axis=-3)
    return np.matmul(coins, state.amp[..., lo:hi:step, :, None])[..., 0], failed


def _shift(coined: np.ndarray, out: WalkerState, lo: int, hi: int, step: int = 1) -> tuple:
    """Shift the coined span lo:hi:step, which holds neither window end, into
    `out`, zero from a site below it to a site above it; mark the positions
    reached there, return their span."""
    amp = out.amp
    amp[..., lo - 1 : hi - 1 : step, CCH] = coined[..., CH]
    amp[..., lo - 1 : hi - 1 : step, CV] = coined[..., CCV]
    amp[..., lo + 1 : hi + 1 : step, CH] = coined[..., CCH]
    amp[..., lo + 1 : hi + 1 : step, CCV] = coined[..., CV]
    reached = out.reached[..., lo - 1 : hi + 1 : step] = amp[..., lo - 1 : hi + 1 : step, :].any(axis=-1)
    return _span(reached, lo - 1, step)


def _walk(state: WalkerState, program: CoinProgram, steps: int):
    """The stepping kernel: yield (state, lo, hi, step) after 0, 1, ...,
    steps steps, with lo:hi:step the span of the positions any sample
    reached and of the drain sites, the window's ends, that light landed on
    (see the module docstring).  The states take turns in two buffers, each
    zeroed on its span once coined, so a yielded state lasts until the next
    is made.  Coins after the time table are resolved once, over the window."""
    n = state.reached.shape[-1]
    spare = WalkerState(np.zeros_like(state.amp), np.zeros_like(state.reached), state.offset)
    window, timed = state.offset + np.arange(n), len(program._time_entries)
    resolved = [program.entries(t, window) for t in range(min(steps, timed + 1))]  # the last serves every later step
    lo, hi = _span(state.reached)
    step = 2 if np.all(np.diff(state.positions()) % 2 == 0) else 1
    yield state, lo, hi, step
    for t in range(steps):
        a = lo + step * (lo == 0)  # the span without its drain sites
        b = max(a, hi - step * (hi == n))
        coined, spare.failed = _coin(state, program, t, *resolved[min(t, timed)], a, b, step)
        state.amp[..., lo:hi:step, :], state.reached[..., lo:hi:step] = 0.0, False
        lo, hi = _shift(coined, spare, a, b, step)
        state, spare = spare, state
        yield state, lo, hi, step
    if state.failed is not None:
        raise ProgramError(state.failed[1])


def evolve_states(initial: InitialState, program: CoinProgram, steps: int):
    """Yield the state after 0, 1, ..., steps time steps on the light cone,
    each a fresh WalkerState, a batch when program.table has a sample axis.
    A batch in which a sample reached a position without a coin rule raises
    that ProgramError after its last state (see _coin)."""
    left, right = min(initial, default=0) - steps - 1, max(initial, default=0) + steps + 1  # the cone's drain sites
    for state, *_ in _walk(WalkerState.on(initial, left, right, program.table.shape[:-3]), program, steps):
        yield WalkerState(state.amp[..., 1:-1, :].copy(), state.reached[..., 1:-1].copy(), state.offset + 1, state.failed)


def evolve(initial: InitialState, program: CoinProgram, steps: int, window=None) -> IntensityRecord:
    """The walk's record on `window` = (L, R), a closed graph's positions,
    walked with a drain site on each side: (steps + 1, R - L + 1, 4)
    intensities and the drained totals.  The default window is the light
    cone."""
    left, right = window or (min(initial, default=0) - steps, max(initial, default=0) + steps)
    if initial and not left <= min(initial) <= max(initial) <= right:
        raise ValueError(f"initial state outside the window [{left}, {right}]")
    state = WalkerState.on(initial, left - 1, right + 1, program.table.shape[:-3])
    intensities, reached = _zeros((steps + 1, *state.amp.shape), float), _zeros((steps + 1, *state.reached.shape), bool)
    for t, (state, lo, hi, step) in enumerate(_walk(state, program, steps)):  # the record, filled over each span
        intensities[t, ..., lo:hi:step, :] = np.abs(state.amp[..., lo:hi:step, :]) ** 2
        reached[t, ..., lo:hi:step] = state.reached[..., lo:hi:step]
    drained = np.cumsum(intensities[..., :: intensities.shape[-2] - 1, :].sum(axis=(-2, -1)), axis=0)
    return IntensityRecord(intensities[..., 1:-1, :], reached[..., 1:-1], state.offset + 1, drained)


TRACE_LABELS = {
    "full": MODE_NAMES,
    "sum_polarization": ("c", "cc"),
    "sum_direction": ("H", "V"),
}
_TRACE_MODES = (*TRACE_LABELS, "sum_all")


def trace_intensities(record, mode: str = "full") -> np.ndarray:
    """Collapse the mode axis of a record's (T+1, n, 4) intensities, or of
    an (..., 4) array of intensities such as a record's reached cells.

    full, sum_polarization and sum_direction give (T+1, n, L) over the
    labels TRACE_LABELS[mode]; sum_all gives (T+1, n).  Sites and the
    reached mask are the record's.
    """
    if mode not in _TRACE_MODES:
        raise ValueError(f"unknown trace mode {mode!r}; expected one of {_TRACE_MODES}")
    v = record.intensities if isinstance(record, IntensityRecord) else record
    if mode == "full":
        return v.copy()
    if mode == "sum_polarization":
        return np.stack([v[..., CH] + v[..., CV], v[..., CCH] + v[..., CCV]], axis=-1)
    if mode == "sum_direction":
        return np.stack([v[..., CH] + v[..., CCH], v[..., CV] + v[..., CCV]], axis=-1)
    return v.sum(axis=-1)
