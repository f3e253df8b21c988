"""Triangle-FMCW beat-signal processing and simulation.

Synthesizes FMCW waveform variants, passes them through multi-tap delay
channels, derives conjugate-mixed beat signals, and turns the real part of
the beat spectrum into range profiles whose bin pitch is half the
conventional single-chirp limit.
"""

from .beat import analytic_beat, mix, phase_consistency
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
    "mix",
    "analytic_beat",
    "phase_consistency",
    "RangeMapping",
    "RangeProfile",
    "Peak",
    "PeakSet",
    "range_profile",
    "detect_peaks",
    "energy_dominance",
    "sntr",
    "ConfigError",
    "GridAlignmentError",
]
