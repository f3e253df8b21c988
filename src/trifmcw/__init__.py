"""Triangle-FMCW beat-signal processing and simulation.

Synthesizes FMCW waveform variants, passes them through multi-tap delay
channels, derives conjugate-mixed beat signals, and turns the real part of
the beat spectrum into range profiles whose bin pitch is half the
conventional single-chirp limit.
"""

from .beat import (
    BeatSegments,
    PhaseConsistency,
    Segment,
    analytic_beat,
    beat_segments,
    mix,
    phase_consistency,
    reference_beat,
    wrap_to_pi,
)
from .channel import ChannelModel, ChannelTap, apply_channel, rayleigh_taps
from .errors import ConfigError, GridAlignmentError
from .spectrum import (
    Peak,
    PeakSet,
    RangeMapping,
    RangeProfile,
    detect_peaks,
    energy_dominance,
    range_profile,
    real_part_spectrum,
    sntr,
)
from .waveform import ComplexSignal, WaveformKind, WaveformSpec, generate, spectrogram

__version__ = "0.1.0"

__all__ = [
    "WaveformKind",
    "WaveformSpec",
    "ComplexSignal",
    "generate",
    "spectrogram",
    "ChannelTap",
    "ChannelModel",
    "apply_channel",
    "rayleigh_taps",
    "Segment",
    "BeatSegments",
    "PhaseConsistency",
    "beat_segments",
    "mix",
    "analytic_beat",
    "reference_beat",
    "phase_consistency",
    "wrap_to_pi",
    "RangeMapping",
    "RangeProfile",
    "Peak",
    "PeakSet",
    "real_part_spectrum",
    "range_profile",
    "detect_peaks",
    "energy_dominance",
    "sntr",
    "ConfigError",
    "GridAlignmentError",
]
