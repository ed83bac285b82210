"""Time evolution of the four-mode walk on the integer line.

State layout: a walker state is a dense (n, 4) complex array of amplitudes
over the window of positions offset .. offset + n - 1, in the fixed mode
order

    0: cH   1: cV   2: ccH   3: ccV

A walk runs on a window [L, R] with one drain site on each side, L - 1
and R + 1.  A drain site is never coined or shifted: light that a shift
lands on it stays there for one step, and a record, which covers the
window alone, adds it to its drained totals (per sample in a batch).  A
closed graph's window is its positions; a line's is the light cone
[min(initial) - T, max(initial) + T] of T steps, whose drains nothing
reaches.

One time step applies the position/time dependent coin first and the
flip-flop shift second.  The shift exchanges direction subspaces:

    cH @ x  -> ccH @ x-1        ccH @ x -> cH @ x+1
    cV @ x  -> ccV @ x+1        ccV @ x -> cV @ x-1

so applying it twice is the identity, and it flips each position's
parity.  A step coins and shifts a span of the window, computed and never
searched: at step 0 from the lowest to the highest initial position, then
[a - 1, b + 1) of the coined span [a, b), which leaves out the drain sites;
every second position when the initial positions share a parity.  A graph
walk thus costs O(T (R - L)) whatever the light cone.  Coining a position
of zero amplitude gives zeros, so the span may hold unreached positions.

At step 0 the reached positions are those the initial state lists; after
a step, a position is reached when it holds a nonzero amplitude (not
intensity, which underflows to zero below about 1e-162), that is when a
nonzero coined amplitude shifted onto it.  Only reached positions need a
coin rule, and records list only reached positions.  Every sum over the
mode axis alone is mode_sum, which adds the four modes in index order.
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
_SHIFT_ORDER = [CCH, CCV, CH, CV]  # coin rows as the kernel stores them
BLOCK_BYTES = 2**17  # bound of one block of the kernel's amplitude rows

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
    Generator.uniform computes them.  truncated_normal offsets are draws
    from N(0, (angle_err_deg / 2)^2) inside the window, a row at a time as
    vectors: as many as the row misses, those inside filling it in order,
    until it is full.  The stream is that of one offset at a time, each
    redrawn until it lies inside, and ends where that one does.
    """
    bounds = [(-angle_err_deg, angle_err_deg)] * n_angles
    if eff_err is not None:
        bounds += [(1.0 - eff_err, 1.0 + eff_err)] * 4
    low, high = np.array(bounds, dtype=float).reshape(-1, 2).T
    span = high - low
    shape = addressable((n_samples, len(bounds)), float)
    if distribution == "uniform":
        return low + span * rng.random(shape)
    if distribution != "truncated_normal":
        raise ValueError(f"unknown perturbation distribution {distribution!r}")
    out = np.empty(shape)
    for row in out:
        got = 0
        while got < n_angles:
            d = rng.normal(0.0, angle_err_deg / 2.0, n_angles - got)
            d = d[~(np.abs(d) > angle_err_deg)]
            row[got : got + len(d)] = d
            got += len(d)
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

    @property
    def table(self) -> np.ndarray:
        """The read-only matrices of `specs`, (len(specs), 4, 4), built once
        on first use; a sampled program's has a leading sample axis."""
        if self._table is None:
            self._table = np.array([spec.matrix() for spec in self.specs], dtype=complex)
            self._table.setflags(write=False)
        return self._table

    def coin_at(self, t: int, x: int) -> np.ndarray:
        (entry,), uncovered = self.entries(t, np.array([x]))
        if uncovered is not None:
            raise ProgramError(_no_rule(t, x))
        return self.table[..., entry, :, :]

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


def mode_sum(v: np.ndarray) -> np.ndarray:
    """(..., 4) v summed over its mode axis, or any last axis of length 4, as
    ((v0 + v1) + v2) + v3, v.sum(axis=-1)'s order (from +0.0), in fewer passes:
    the same bits but for four -0.0s, which add up to -0.0, and a sum of two NaNs."""
    return ((v[..., 0] + v[..., 1]) + v[..., 2]) + v[..., 3]


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
        return mode_sum(self.intensity(t))

    def distribution_vector(self, t: int) -> np.ndarray:
        """Mode-summed intensity at every site of the window."""
        return mode_sum(self.intensities[t])


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


def addressable(shape: tuple, dtype) -> tuple:
    """shape, raising MemoryError, as for any size that cannot be allocated,
    when its byte count in dtype, counted in Python ints, passes the largest
    array numpy can address (where numpy raises ValueError or OverflowError)."""
    nbytes = math.prod(int(n) for n in shape) * np.dtype(dtype).itemsize
    if nbytes > np.iinfo(np.intp).max:
        raise MemoryError(f"Unable to allocate {nbytes} bytes for an array with shape {shape}")
    return shape


def _zeros(shape: tuple, dtype) -> np.ndarray:
    return np.zeros(addressable(shape, dtype), dtype)


def _start(initial: InitialState, lo: int, hi: int, samples: tuple) -> tuple:
    """`initial` placed on the positions lo .. hi, (..., hi - lo + 1, 4),
    once per sample when `samples` is (S,), and the indices it lists."""
    if not initial:
        raise ValueError("initial state has no positions")
    amp = _zeros((*samples, hi - lo + 1, 4), complex)
    for x, a in initial.items():
        amp[..., x - lo, :] = a
    return amp, np.subtract(list(initial), lo)


def reach(listed: np.ndarray) -> tuple:
    """(lo, hi, step) of a start on the window indices `listed`, the kernel's
    span and parity rule: after t steps light sits only on slice(lo - t, hi + t,
    step) of an unclipped window; step is 1 unless the indices share a parity."""
    return int(listed.min()), int(listed.max()) + 1, 2 if np.ptp(listed % 2) == 0 else 1


def _walk(start: np.ndarray, listed: np.ndarray, program: CoinProgram, lo: int, steps: int):
    """The stepping kernel: walk `start`, listing `listed` (see _start), on
    the positions lo, lo + 1, ... whose first and last are drain sites, and
    yield the states after 0, 1, ..., steps steps as blocks (rows, ..., n, 4)
    of amplitude rows, a sample axis after the row axis for a batch: `start`
    alone, then blocks of at most BLOCK_BYTES (one row when a row is
    larger), none used again once yielded.

    A step coins the span (see the module docstring) with one matmul, every
    sample at every position (zero amplitudes stay zero), and writes the
    shifted amplitudes into a zeroed row with two strided copies: the coins,
    resolved once over the window for each time table entry and the rule
    after it, hold their rows in the order [ccH, ccV, cH, cV], so modes 1:3
    move a site down and ::3 a site up.

    A reached position without a coin rule raises ProgramError naming the
    step and the lowest such position; a batch keeps the error of the
    lowest-index failing sample at its first failing step and raises it
    after the last block, as running the samples one by one would."""
    samples, n = program.table.shape[:-3], start.shape[-2]
    rows = max(1, BLOCK_BYTES // start.nbytes)
    block, r = start[None], 0
    a, b, step = reach(listed)
    timed = len(program._time_entries)
    interior = np.arange(lo + 1, lo + n - 1)  # the hole check runs only if one of these has no rule
    rules = [program.entries(t, interior) for t in range(min(steps, timed + 1))]  # the last serves every later step
    coins, failed = [], None
    for t in range(steps):
        entries, uncovered = rules[min(t, timed)]
        a, b = a + step * (a == 0), b - step * (b == n)
        if uncovered is not None:
            held = np.isin(np.arange(a, b, step), listed) if t == 0 else block[r, ..., a:b:step, :].any(axis=-1)
            bad = np.atleast_2d(held & uncovered[a - 1 : b - 1 : step])  # a row per sample
            failing = np.flatnonzero(bad.any(axis=1))
            if failing.size and (failed is None or failing[0] < failed[0]):
                failed = (int(failing[0]), _no_rule(t, lo + a + step * int(np.argmax(bad[failing[0]]))))
                if not samples:
                    raise ProgramError(failed[1])
        if t < len(rules):
            coins.append(program.table[..., entries[:, None], _SHIFT_ORDER, :])
        coin = coins[min(t, timed)]
        coin = coin if len(entries) == 1 else coin[..., a - 1 : b - 1 : step, :, :]
        coined = np.matmul(coin, block[r, ..., a:b:step, :, None])
        r += 1
        if r == len(block):
            yield block
            block, r = _zeros((min(rows, steps - t), *start.shape), complex), 0
        block[r, ..., a - 1 : b - 1 : step, 1:3] = coined[..., 1:3, 0]
        block[r, ..., a + 1 : b + 1 : step, ::3] = coined[..., ::3, 0]
        a, b = a - 1, b + 1
    yield block
    if failed is not None:
        raise ProgramError(failed[1])


def evolve_states(initial: InitialState, program: CoinProgram, steps: int):
    """Yield the amplitudes after 0, 1, ..., steps time steps on the light
    cone [min(initial) - steps, max(initial) + steps], (..., n, 4) rows of
    the kernel's blocks with a leading sample axis when program.table has
    one.  A batch in which a sample reached a position without a coin rule
    raises that ProgramError after its last state (see _walk)."""
    left, right = min(initial, default=0) - steps, max(initial, default=0) + steps
    start, listed = _start(initial, left - 1, right + 1, program.table.shape[:-3])
    for block in _walk(start, listed, program, left - 1, steps):
        yield from block[..., 1:-1, :]


def evolve(initial: InitialState, program: CoinProgram, steps: int, window=None) -> IntensityRecord:
    """The walk's record on `window` = (L, R), a closed graph's positions,
    walked with a drain site on each side: (steps + 1, R - L + 1, 4)
    intensities and the drained totals.  The default window is the light
    cone.  Each block of the kernel fills intensities and reached masks only
    where light can reach by its last step t, [min(listed) - t, max(listed)
    + t] (reach's span rule), reading a site's four bools as a uint32."""
    left, right = window or (min(initial, default=0) - steps, max(initial, default=0) + steps)
    if initial and not left <= min(initial) <= max(initial) <= right:
        raise ValueError(f"initial state outside the window [{left}, {right}]")
    start, listed = _start(initial, left - 1, right + 1, program.table.shape[:-3])
    intensities, reached = _zeros((steps + 1, *start.shape), float), _zeros((steps + 1, *start.shape[:-1]), bool)
    t, (a, b, _) = 0, reach(listed)
    for block in _walk(start, listed, program, left - 1, steps):
        rows, lo, hi = slice(t, t + len(block)), max(a - t - len(block) + 1, 0), b + t + len(block) - 1
        part, cells = block[..., lo:hi, :], intensities[rows, ..., lo:hi, :]
        np.square(np.abs(part, out=cells), out=cells)
        reached[rows, ..., lo:hi] = (part != 0).view(np.uint32)[..., 0] != 0
        t += len(block)
    reached[0, ..., listed] = True
    drained = np.cumsum(intensities[..., :: start.shape[-2] - 1, :].sum(axis=(-2, -1)), axis=0)
    return IntensityRecord(intensities[..., 1:-1, :], reached[..., 1:-1], left, drained)


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
    return mode_sum(v)
