"""FMCW waveform synthesis at complex baseband.

Five waveform variants are supported, all with unit amplitude:

* ``TRIANGLE`` -- an up-chirp of slope ``alpha = B/Tc`` followed by its
  phase-continuous mirrored down-chirp, spanning one symbol ``Ts = 2*Tc``.
  The down ramp sweeps the instantaneous frequency from ``B`` back to 0;
  it equals the conjugated time-reverse of the up ramp up to a constant
  phase.
* ``SAWTOOTH`` -- two identical up-chirps of slope ``alpha`` back to back
  over ``Ts``; the second chirp restarts at phase zero.
* ``GENTLE``   -- a single up-chirp of slope ``alpha/2`` over ``Ts``
  (sweeps ``B`` in total).
* ``EXTENDED`` -- a single up-chirp of slope ``alpha`` over ``Ts``
  (sweeps ``2B`` in total); used as the doubled-resolution oracle.
* ``LINEAR``   -- the conventional single up-chirp over ``Tc``.

The sample grid is left-closed: sample ``n`` represents ``t = n/fs``, so the
sample at ``t = Tc`` belongs to the second half of a two-part waveform.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError

__all__ = [
    "WaveformKind",
    "WaveformSpec",
    "ComplexSignal",
    "generate",
    "spectrogram",
]

# Relative slack for "fs*Tc must be an integer" style checks.
_GRID_TOL = 1e-9
# Bytes of the largest array numpy can index, and of one complex sample.
_MAX_BYTES = int(np.iinfo(np.intp).max)
_SAMPLE_BYTES = np.dtype(np.complex128).itemsize


class WaveformKind(str, Enum):
    TRIANGLE = "triangle"
    SAWTOOTH = "sawtooth"
    GENTLE = "gentle"
    EXTENDED = "extended"
    LINEAR = "linear"


def check_positive(field: str, value: float) -> float:
    """Return ``value``, or raise ConfigError naming ``field`` unless it is > 0."""
    if not value > 0:
        raise ConfigError(f"{field} must be > 0, got {value}")
    return value


def check_chirp_rate(bandwidth_hz: float, chirp_duration_s: float) -> None:
    """Raise ConfigError unless synthesis and the range axis hold the chirp of B over Tc.

    Synthesis scales t^2 by pi*alpha (alpha = B/Tc), and range bins divide by
    the gentle ramp's alpha/2. Its phase terms t^2, pi*alpha*t^2 and 2*pi*B*t
    grow with t, so their values at t = Ts = 2*Tc bound every sample's.
    """
    rate = bandwidth_hz / chirp_duration_s
    ts = 2.0 * chirp_duration_s
    terms = (ts * ts, math.pi * rate * (ts * ts), 2.0 * math.pi * bandwidth_hz * ts)
    if not math.pi * rate < math.inf:  # an inf there turns t = 0 into nan
        bound = f"be below {sys.float_info.max / math.pi:.6g} Hz/s, got {rate}"
    elif not all(term < math.inf for term in terms):  # inf * 0 is nan, which fails too
        bound = "keep each phase t^2, pi*(B/Tc)*t^2 and 2*pi*B*t finite up to t = 2*Tc"
    elif not rate / 2.0 > 0.0:
        bound = f"be at least {2.0 * math.ulp(0.0):.6g} Hz/s, got {rate}"
    else:
        return
    raise ConfigError(f"chirp rate B/Tc must {bound} (B={bandwidth_hz}, Tc={chirp_duration_s})")


@dataclass(frozen=True)
class WaveformSpec:
    """Parameters of one FMCW waveform.

    Attributes:
        kind: waveform variant
        bandwidth_hz: swept bandwidth B of a single chirp, Hz
        chirp_duration_s: single-chirp duration Tc, seconds
        sample_rate_hz: fs; defaults to twice the swept bandwidth, 2B (4B for
            EXTENDED), so delay grids ``p/(2B)`` fall on whole samples
    """

    kind: WaveformKind
    bandwidth_hz: float
    chirp_duration_s: float
    sample_rate_hz: float | None = None

    def __post_init__(self):
        kind = WaveformKind(self.kind)
        object.__setattr__(self, "kind", kind)
        for name in ("bandwidth_hz", "chirp_duration_s", "sample_rate_hz"):
            value = getattr(self, name)
            if value is None:
                continue
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            # Equal specs share one cached waveform, so they must not differ
            # in type either: an int B writes "bandwidth=8000" into a beat
            # CSV, an equal float B "bandwidth=8000.0".
            object.__setattr__(self, name, float(value))
        check_positive("bandwidth", self.bandwidth_hz)
        check_positive("chirp duration", self.chirp_duration_s)
        check_chirp_rate(self.bandwidth_hz, self.chirp_duration_s)
        if self.sample_rate_hz is None:
            object.__setattr__(self, "sample_rate_hz", 2.0 * self.swept_bandwidth_hz)
        fs = self.sample_rate_hz
        min_fs = 2.0 * self.swept_bandwidth_hz
        if fs < min_fs * (1.0 - _GRID_TOL):
            raise ConfigError(
                f"fs={fs} Hz is below the complex-baseband bound {min_fs} Hz "
                f"(2x the {self.swept_bandwidth_hz} Hz swept by a {kind.value} "
                f"waveform); below it the sweep wraps around"
            )
        n = fs * self.chirp_duration_s
        if not 1.0 - _GRID_TOL <= n < math.inf:
            raise ConfigError(
                f"fs*Tc must be at least one sample per chirp, got {n!r} "
                f"(fs={fs}, Tc={self.chirp_duration_s})"
            )
        if abs(n - round(n)) > _GRID_TOL * max(1.0, n):
            raise ConfigError(
                f"fs*Tc must be an integer sample count, got {n!r} "
                f"(fs={fs}, Tc={self.chirp_duration_s})"
            )
        size = self.num_samples * _SAMPLE_BYTES
        if size > _MAX_BYTES:
            raise ConfigError(
                f"fs*Tc={n:.6g} gives {self.num_samples:.6g} complex samples, "
                f"{size:.6g} bytes, past the {_MAX_BYTES:.6g} bytes numpy can index "
                f"(fs={fs}, Tc={self.chirp_duration_s})"
            )

    @property
    def slope(self) -> float:
        """Chirp rate alpha = B / Tc in Hz/s."""
        return self.bandwidth_hz / self.chirp_duration_s

    @property
    def effective_slope(self) -> float:
        """Ramp chirp rate and beat-to-range slope: alpha/2 for GENTLE, else alpha."""
        if self.kind is WaveformKind.GENTLE:
            return self.slope / 2.0
        return self.slope

    @property
    def swept_bandwidth_hz(self) -> float:
        """Total frequency excursion of the waveform (2B for EXTENDED)."""
        if self.kind is WaveformKind.EXTENDED:
            return 2.0 * self.bandwidth_hz
        return self.bandwidth_hz

    @property
    def samples_per_chirp(self) -> int:
        return int(round(self.sample_rate_hz * self.chirp_duration_s))

    @property
    def num_samples(self) -> int:
        """Samples emitted by :func:`generate`: Ns = 2*Nc, or Nc for LINEAR."""
        if self.kind is WaveformKind.LINEAR:
            return self.samples_per_chirp
        return 2 * self.samples_per_chirp


@dataclass(frozen=True)
class ComplexSignal:
    """Complex baseband samples on the grid of the spec they belong to.

    Attributes:
        samples: one complex sample per grid point, ``spec.num_samples`` in
            all; sample ``n`` is at ``t = n/fs``
        spec: the waveform spec that owns the grid (fs, length) and the
            chirp rate; carried through channel application and mixing so
            the beat stage can recover slope and duration.
    """

    samples: np.ndarray
    spec: WaveformSpec

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.shape != (self.spec.num_samples,):
            raise ValueError(
                f"signal shape {arr.shape} does not match the spec's grid of "
                f"{self.spec.num_samples} samples"
            )
        # A sum is finite only if every term is; a finite sum clears the array
        # in one pass. An overflowing sum of finite samples is told apart by
        # the elementwise test.
        with np.errstate(over="ignore", invalid="ignore"):
            total = arr.sum()
        if not (cmath.isfinite(total) or np.isfinite(arr).all()):
            raise ValueError("signal samples must be finite")
        object.__setattr__(self, "samples", arr)

    @property
    def sample_rate_hz(self) -> float:
        return self.spec.sample_rate_hz

    def __len__(self) -> int:
        return self.samples.size


# Bytes of samples generate() keeps. One waveform takes 51 KB at desk scale
# (N = 3,200) and 3 MB at N = 192,000. The four built-in scenarios use 10
# specs, 2.0 MB in all; a two-method .scn run at N = 192,000 uses 6.1 MB.
_CACHE_BYTES = 32 * 2**20
_cache: dict[WaveformSpec, ComplexSignal] = {}


def generate(spec: WaveformSpec) -> ComplexSignal:
    """The unit-amplitude baseband waveform described by `spec`.

    Each waveform is synthesized once per process: calls with equal specs
    return the same shared signal, whose samples are read-only, so a caller
    that writes to them gets a ValueError instead of changing what later
    callers receive. Up to ``_CACHE_BYTES`` of samples are kept; a waveform
    that would overflow that budget empties the cache first, and one larger
    than the whole budget is returned uncached (still read-only).
    """
    sig = _cache.get(spec)
    if sig is None:
        sig = ComplexSignal(_synthesize(spec), spec)
        sig.samples.flags.writeable = False
        size = sig.samples.nbytes
        if size <= _CACHE_BYTES:
            if size + sum(s.samples.nbytes for s in _cache.values()) > _CACHE_BYTES:
                _cache.clear()
            _cache[spec] = sig
    return sig


def phase_pieces(spec: WaveformSpec) -> tuple[tuple[int, int, float, float, float, float], ...]:
    """The transmit phase of `spec` as pieces ``(start, stop, s, c2, c1, c0)``.

    On samples ``start <= n < stop`` the phase is ``c2*u^2 + c1*u + c0`` at
    ``u = t - s``, ``t = n/fs``. The second chirp of a two-part waveform runs
    on local time ``t - Tc``: the sawtooth restarts at phase zero, and the
    triangle's down ramp continues from the up ramp's phase pi*alpha*Tc^2
    while its frequency mirrors from B back to 0. This is the one statement
    of each kind's phase: synthesis and ``beat.analytic_beat`` both read it.
    """
    rate = np.pi * spec.effective_slope
    up = (0, spec.samples_per_chirp, 0.0, rate, 0.0, 0.0)
    if spec.kind is WaveformKind.TRIANGLE:
        second = (-rate, 2.0 * np.pi * spec.bandwidth_hz, rate * spec.chirp_duration_s**2)
    elif spec.kind is WaveformKind.SAWTOOTH:
        second = (rate, 0.0, 0.0)
    else:
        return ((0, spec.num_samples, 0.0, rate, 0.0, 0.0),)
    return (up, (spec.samples_per_chirp, spec.num_samples, spec.chirp_duration_s, *second))


def _synthesize(spec: WaveformSpec) -> np.ndarray:
    """Fresh samples of the waveform :func:`generate` describes."""
    t = np.arange(spec.num_samples, dtype=np.float64) / spec.sample_rate_hz
    phase = np.empty(spec.num_samples, dtype=np.float64)
    for start, stop, s, c2, c1, c0 in phase_pieces(spec):
        # In place on u = t - s, as (u*c1 + c0) + c2*(u*u): the sha256 pins
        # of the outputs hold this float order.
        u, piece = t[start:stop], phase[start:stop]
        u -= s
        np.square(u, out=piece)
        piece *= c2
        u *= c1
        u += c0
        piece += u
    # cos and sin written straight into one complex array give the bits of
    # np.exp(1j * phase) without its complex temporaries.
    samples = np.empty(spec.num_samples, dtype=np.complex128)
    np.cos(phase, out=samples.real)
    np.sin(phase, out=samples.imag)
    return samples


def spectrogram(sig: ComplexSignal) -> tuple[np.ndarray, np.ndarray]:
    """Hann-windowed power spectrogram, one row per frame.

    The window is Nc/16 samples and the hop half a window, each at least one
    sample; the window never exceeds the signal, which holds at least Nc
    samples. Frame ``i`` covers samples ``[i*hop, i*hop + window_len)``.
    Plotting aid only; no quantitative path uses it.

    Returns:
        (times, matrix): each frame's start time ``i*hop/fs`` in seconds, and
        the (num_frames, window_len) array of squared-magnitude DFT values.
    """
    window_len = max(1, sig.spec.samples_per_chirp // 16)
    hop = max(1, window_len // 2)
    win = np.hanning(window_len)
    frames = (len(sig) - window_len) // hop + 1
    out = np.empty((frames, window_len), dtype=np.float64)
    for i in range(frames):
        frame = sig.samples[i * hop : i * hop + window_len] * win
        out[i] = np.abs(np.fft.fft(frame)) ** 2
    return np.arange(frames) * hop / sig.sample_rate_hz, out
