"""Simulation and synthesis toolkit for four-mode walks in a looped
two-arm interferometer.

The walker carries a traveling direction (clockwise or counterclockwise
through the loop) and a polarization (H or V); walks on the line and on
chains of rings (one ring, two rings sharing a node, or more) are all
driven by programmable coins built from waveplate and modulator settings
or given directly as four-by-four unitaries.
"""

from .analysis import (
    ErrorBarReport,
    WalkSetup,
    equidistribution_similarity,
    find_revivals,
    monte_carlo_error_bars,
    similarity,
)
from .coin_synthesis import (
    OneTripFactors,
    OneTripWitness,
    UniversalFactorization,
    factor_universal,
    one_trip_reconstruct,
    one_trip_test,
    su2_normalize,
    three_step_schedule,
)
from .config import ConfigError, RunConfig, parse_config, parse_config_dict
from .dispersion import (
    Crossing,
    DispersionSpectrum,
    Wavefront,
    WavefrontSet,
    band_structure,
    bloch_operator,
    classify_crossings,
    group_velocities,
    shift_bloch,
    wavefront_speeds,
)
from .graph_programs import MappedRecord, SiteMap, map_sites, ring_chain
from .linalg_core import (
    assert_unitary,
    unitarity_defect,
    wrap_phase,
)
from .optics import (
    ArmSetting,
    OpticalElement,
    certified_coin,
    coin_ab,
    coin_ll,
    coin_ll_independent,
    eom_matrix,
    full_coin,
    hwp_matrix,
    qwp_matrix,
)
from .walk_engine import (
    CH,
    CCH,
    CCV,
    CV,
    MODE_NAMES,
    CoinProgram,
    ElementCoin,
    IntensityRecord,
    ProgramError,
    RawCoin,
    constant_program,
    evolve,
    evolve_states,
    make_initial,
    trace_intensities,
)

__version__ = "0.1.0"

__all__ = [
    "ArmSetting",
    "CH",
    "CCH",
    "CCV",
    "CV",
    "CoinProgram",
    "ConfigError",
    "Crossing",
    "DispersionSpectrum",
    "ElementCoin",
    "ErrorBarReport",
    "IntensityRecord",
    "MODE_NAMES",
    "MappedRecord",
    "OneTripFactors",
    "OpticalElement",
    "ProgramError",
    "RawCoin",
    "RunConfig",
    "SiteMap",
    "OneTripWitness",
    "UniversalFactorization",
    "WalkSetup",
    "Wavefront",
    "WavefrontSet",
    "assert_unitary",
    "band_structure",
    "bloch_operator",
    "certified_coin",
    "classify_crossings",
    "coin_ab",
    "coin_ll",
    "coin_ll_independent",
    "constant_program",
    "eom_matrix",
    "equidistribution_similarity",
    "evolve",
    "evolve_states",
    "factor_universal",
    "find_revivals",
    "full_coin",
    "group_velocities",
    "hwp_matrix",
    "make_initial",
    "map_sites",
    "monte_carlo_error_bars",
    "one_trip_reconstruct",
    "one_trip_test",
    "parse_config",
    "parse_config_dict",
    "qwp_matrix",
    "ring_chain",
    "shift_bloch",
    "similarity",
    "su2_normalize",
    "three_step_schedule",
    "trace_intensities",
    "unitarity_defect",
    "wavefront_speeds",
    "wrap_phase",
]
