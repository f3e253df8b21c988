"""Beat spectra, range profiles, peak detection and the spectrum metrics.

The range profile is the squared-magnitude DFT of the *real part* of the
beat signal, kept over the non-negative-frequency half (the Hermitian
mirror is redundant). No window is applied before the DFT: the coherence of
the real-part beat across the symbol is the anti-leakage mechanism under
test, and a window would mask it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .waveform import ComplexSignal, WaveformSpec

__all__ = [
    "RangeMapping",
    "RangeProfile",
    "Peak",
    "PeakSet",
    "range_profile",
    "detect_peaks",
    "energy_dominance",
    "sntr",
]

SPEED_OF_SOUND_MPS = 343.0

DEFAULT_THRESHOLD_DB = -12.0
DEFAULT_TWIN_OUTER_DB = -14.0
GUARD_BINS = 2


@dataclass(frozen=True)
class RangeMapping:
    """Frequency-to-range scaling, round trip: range = c*tau/2.

    The path goes out and back, as in the simulated acoustic scenarios. For
    one-way geometry, give twice the propagation speed.
    """

    propagation_speed_mps: float = SPEED_OF_SOUND_MPS

    def __post_init__(self):
        if not 0 < self.propagation_speed_mps < math.inf:
            raise ValueError(
                f"propagation speed must be finite and > 0, "
                f"got {self.propagation_speed_mps}"
            )

    def delay_to_range(self, tau: float) -> float:
        """Range in meters of a path delayed by `tau` seconds; ValueError unless finite."""
        range_m = self.propagation_speed_mps * tau / 2.0
        if not range_m < math.inf:
            raise ValueError(f"tap range must be finite: c*tau overflows for a delay of {tau!r} "
                             f"s at speed {self.propagation_speed_mps} m/s")
        return range_m

    def range_to_delay(self, range_m: float) -> float:
        """Delay in seconds of a path at `range_m` meters."""
        return 2.0 * range_m / self.propagation_speed_mps

    def bin_spacing_m(self, spec: WaveformSpec) -> float:
        """Range step of the profile bins of a beat on ``spec``'s grid, c/(slope*duration)/2.

        That is c/(4B) on a triangle, half the single-chirp c/(2B).
        ValueError unless the last bin, N//2 steps out, has a finite range.
        """
        duration = spec.num_samples / spec.sample_rate_hz
        spacing = self.propagation_speed_mps / (spec.effective_slope * duration) / 2.0
        if not spacing * (spec.num_samples // 2) < math.inf:  # inf * 0 is nan, which fails too
            raise ValueError(
                f"profile ranges must be finite, up to bin {spec.num_samples // 2} at "
                f"{spacing:.6g} m per bin (speed {self.propagation_speed_mps} m/s, "
                f"bandwidth {spec.bandwidth_hz} Hz)"
            )
        return spacing


@dataclass(frozen=True)
class RangeProfile:
    """Power per range bin, derived from the real-part beat spectrum.

    bin p holds |DFT(Re(beat))[p]|^2, at range p * bin_spacing_m (see
    :meth:`RangeMapping.bin_spacing_m`).
    """

    bin_power: np.ndarray
    bin_spacing_m: float

    def __post_init__(self):
        arr = np.asarray(self.bin_power, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("profile must hold at least one bin")
        if not (arr.min() >= 0 and arr.max() < math.inf):  # nan fails this test too
            raise ValueError("bin powers must be finite and non-negative")
        object.__setattr__(self, "bin_power", arr)

    @property
    def num_bins(self) -> int:
        return self.bin_power.size


@dataclass(frozen=True)
class Peak:
    bin_p: int
    range_m: float
    power: float


@dataclass(frozen=True)
class PeakSet:
    """Detected profile peaks, sorted by range."""

    peaks: tuple[Peak, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "peaks", tuple(sorted(self.peaks, key=lambda p: p.range_m))
        )

    def __len__(self) -> int:
        return len(self.peaks)

    def __iter__(self):
        return iter(self.peaks)

    @property
    def bins(self) -> tuple[int, ...]:
        return tuple(p.bin_p for p in self.peaks)


def check_beat_magnitude(num_samples: int, peak: float) -> None:
    """Raise ValueError unless ``num_samples`` samples up to ``peak`` give a finite profile.

    No bin amplitude exceeds the sum of the sample magnitudes,
    ``num_samples * peak``; below 2^512 its square is finite, and the FFT
    cannot overflow on the way. ``peak`` is a Python float, so an overflowing
    product is a silent inf, which fails the test like nan.
    """
    if not num_samples * peak < 2.0**512:
        raise ValueError(
            f"beat is too large for a finite profile: {num_samples} samples of magnitude "
            f"up to {peak:.6g} can sum past 2^512, where a bin power overflows"
        )


def range_profile(
    beat: ComplexSignal, mapping: RangeMapping = RangeMapping()
) -> RangeProfile:
    """Power-vs-range profile over the non-negative-frequency bins.

    The real-input FFT of Re(beat) yields the n//2 + 1 bins directly; the
    rest of the full DFT is their Hermitian mirror; the magnitudes are
    squared in place, the same bits as ``np.abs(rfft) ** 2``. A beat whose
    bin powers could overflow float64, or whose ranges could, raises
    ValueError before the FFT.
    """
    if len(beat) < 2:
        raise ValueError("beat must hold at least two samples")
    real = np.real(beat.samples)
    check_beat_magnitude(len(real), float(np.abs(real).max()))
    spacing = mapping.bin_spacing_m(beat.spec)
    power = np.abs(np.fft.rfft(real))
    return RangeProfile(np.square(power, out=power), spacing)


def check_threshold_db(rel_threshold_db: float) -> float:
    """Return the peak threshold, or raise ValueError unless it is finite and <= 0."""
    if not -math.inf < rel_threshold_db <= 0:  # nan fails this test too
        raise ValueError(f"rel_threshold_db must be finite and <= 0, got {rel_threshold_db}")
    return rel_threshold_db


def detect_peaks(
    profile: RangeProfile, rel_threshold_db: float = DEFAULT_THRESHOLD_DB
) -> PeakSet:
    """Find profile peaks above a threshold relative to the strongest bin.

    A peak is a strict local maximum among bins at or above
    ``max_power * 10^(rel_threshold_db/10)`` (boundary bins compare against
    their single neighbor; ties are never peaks), found in one vectorized
    pass. A twin pass then visits only the neighbors of those maxima: a bin
    adjacent to a local maximum counts as a peak of its own when both bins
    flanking the pair sit below ``max(pair) * 10^(DEFAULT_TWIN_OUTER_DB/10)``,
    14 dB down. Two targets on consecutive exact bins leave the flanking bins
    near the leakage floor (measured 20 dB or more down), whereas the skirt
    of a single target straddling a bin boundary only drops about 9 dB at
    the flanks. Twins are not themselves visited, and could seed no twin
    anyway: their local maximum would flank the pair and outweigh both bins.
    """
    check_threshold_db(rel_threshold_db)
    power = profile.bin_power
    n = power.size
    peak_max = float(power.max())
    if peak_max <= 0.0:
        return PeakSet(())
    threshold = peak_max * 10.0 ** (rel_threshold_db / 10.0)

    candidate = power >= threshold
    local_max = candidate.copy()
    local_max[1:] &= power[:-1] < power[1:]
    local_max[:-1] &= power[1:] < power[:-1]
    maxima = np.flatnonzero(local_max).tolist()

    found = set(maxima)
    twin_floor_scale = 10.0 ** (DEFAULT_TWIN_OUTER_DB / 10.0)
    for i in maxima:
        for j in (i - 1, i + 1):
            if j < 0 or j >= n or j in found or not candidate[j]:
                continue
            floor = max(power[i], power[j]) * twin_floor_scale
            outer_lo = min(i, j) - 1
            outer_hi = max(i, j) + 1
            lo_ok = outer_lo < 0 or power[outer_lo] < floor
            hi_ok = outer_hi >= n or power[outer_hi] < floor
            if lo_ok and hi_ok:
                found.add(j)

    peaks = tuple(
        Peak(i, i * profile.bin_spacing_m, float(power[i])) for i in sorted(found)
    )
    return PeakSet(peaks)


def _check_bin(p: int, top: int) -> int:
    """`p` as an int, or ValueError unless it is an integer bin in 0..top."""
    try:
        k = operator.index(p)
    except TypeError:
        raise ValueError(f"bin {p!r} is not an integer") from None
    if not 0 <= k <= top:
        raise ValueError(f"bin {k} outside the profile range 0..{top}")
    return k


def energy_dominance(beat: ComplexSignal, p: int) -> float:
    """Fraction of the real-part signal energy held by the +/-p bin pair.

    Computed as (|Y(p)|^2 + |Y(-p)|^2) / (N * sum(Re(beat)^2)); the
    denominator equals the total spectral energy by Parseval, so the ratio
    lies in [0, 1] and approaches 1 as the delay becomes a vanishing
    fraction of the chirp. Re(beat) is real, so |Y(-p)| = |Y(p)| and the
    pair is read from the real-input FFT; the DC and Nyquist bins are their
    own mirror and are counted once.
    """
    real = np.real(beat.samples)
    n = real.size
    p = _check_bin(p, n // 2)
    total = n * float(np.sum(real**2))
    if total == 0.0:
        return 0.0
    pair = float(np.abs(np.fft.rfft(real)[p]) ** 2)
    if p != 0 and 2 * p != n:
        pair *= 2.0
    return pair / total


def sntr(profile: RangeProfile, true_p: int) -> float:
    """Signal-to-transition-noise ratio in dB.

    Ratio of the power at the true bin to the strongest bin outside the
    guard band [true_p - GUARD_BINS, true_p + GUARD_BINS]. Returns +inf when
    every off-peak bin is exactly zero.
    """
    power = profile.bin_power
    true_p = _check_bin(true_p, power.size - 1)
    mask = np.ones(power.size, dtype=bool)
    mask[max(0, true_p - GUARD_BINS) : true_p + GUARD_BINS + 1] = False
    if not mask.any():
        raise ValueError("guard band covers the entire profile")
    off_peak = float(power[mask].max())
    if off_peak == 0.0:
        return math.inf
    signal = float(power[true_p])
    if signal == 0.0:
        return -math.inf
    return 10.0 * math.log10(signal / off_peak)
