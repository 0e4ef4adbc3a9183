"""Deterministic simulator and analysis toolkit for CTFM and
dual-demodulator CTFM sonar receiver processing.

The package synthesizes repeating linear FM sweeps, their echoes, and the
dual-channel mixer/low-pass receiver chain, then quantifies the phase
discontinuity left at every channel handoff and the spectral artifacts it
creates.
"""

from .config import SimConfig, derive, load_config, parse_config, serialize_config
from .demod import (
    DemodOutput,
    LowpassSpec,
    ctfm_demodulate,
    demodulate,
    design_lowpass,
    feasible_cutoff_interval,
    frequency_response,
    lowpass_filter,
    mix,
)
from .errors import (
    ConfigLoadError,
    ConfigurationError,
    CtfmLabError,
    DomainError,
    NoPeakError,
    ShapeError,
    UnsupportedRangeError,
)
from .phase_analysis import (
    PhaseLedgerEntry,
    PhaseReport,
    boundary_jump,
    boundary_jump_closed_form,
    channel1_phase,
    channel2_phase,
    phase_table,
    wrap_phase,
)
from .scene import (
    Echo,
    Scene,
    beat_frequency,
    ctfm_resolution,
    delay_to_range,
    synthesize_received,
)
from .spectrum import (
    PeakEstimate,
    Sidelobe,
    Spectrum,
    SpectrumReport,
    dft_magnitude,
    find_peak,
    sidelobe_report,
)
from .waveform import (
    ChirpSpec,
    LocalOscSpec,
    SampledSignal,
    SweepSchedule,
    cycle_split,
    instantaneous_frequency,
    lo_phase,
    make_schedule,
    phase_continuous_extension,
    sweep_rate,
    synthesize_lo,
    synthesize_transmit,
    time_slice,
    tx_phase,
)

__version__ = "0.1.0"
