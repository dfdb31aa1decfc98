"""Frequency-bin entanglement simulator and estimation toolkit.

Models a microring-resonator frequency comb, programmable spectral
filtering, Hong-Ou-Mandel interference of frequency-bin photon pairs,
Poisson photon counting, and the estimation pipeline (fringe fits, balance,
restricted density matrix, fidelity) on top of the simulated data.
"""

__version__ = "0.1.0"

from .comb import (
    CombLine,
    FrequencyPair,
    ResonatorModel,
    pair_for_index,
    q_factor,
    resonance_lines,
    transmission,
)
from .counting import (
    DetectorModel,
    FringeDataset,
    ScanConfig,
    accidental_rate,
    computational_basis_counts,
    load_dataset,
    simulate_fringe,
)
from .errors import (
    ConfigurationError,
    DomainError,
    FitError,
    FreqbinError,
    NonPhysicalStateError,
    PhaseGateError,
    ReconstructionError,
)
from .fit import (
    FitResult,
    ReconstructionResult,
    estimate_balance,
    fit_envelope,
    fit_fringe,
    reconstruct,
)
from .hom import (
    Envelope,
    FringeModel,
    central_dip_fwhm,
    envelope_value,
    hom_multi,
    revival_period,
)
from .states import (
    RestrictedDensityMatrix,
    WaveplateStack,
    compose_waveplates,
    density_report,
    fidelity,
    hwp_angle_for_phase,
    phase_from_stack,
    restricted_density,
    stack_for_phase,
)
from .wss import (
    FilterProgram,
    Passband,
    captured_fraction,
    route_lines,
    select_pairs,
    singles_spectrum_scan,
)
