"""Multi-tap delay channel: y[n] = sum_i g_i * x[n - d_i], zero-filled.

Tap delays land on the sample grid (integer d = tau*fs; no interpolation)
inside the signal, or the triangle's up ramp; taps at one delay add up. The
output keeps the input length: beat processing uses one symbol window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, GridAlignmentError
from .waveform import ComplexSignal, WaveformKind, WaveformSpec

__all__ = ["ChannelTap", "ChannelModel", "apply_channel", "rayleigh_taps"]

_BLOCK = 1 << 15  # output samples per scaled-copy block in apply_channel


@dataclass(frozen=True)
class ChannelTap:
    """One propagation path: a finite delay >= 0 in seconds and a finite complex gain."""

    delay_s: float
    gain: complex

    def __post_init__(self):
        if not math.isfinite(self.delay_s) or self.delay_s < 0:
            raise ValueError(f"tap delay must be finite and >= 0, got {self.delay_s}")
        if not (math.isfinite(self.gain.real) and math.isfinite(self.gain.imag)):
            raise ValueError(f"tap gain must be finite, got {self.gain}")


@dataclass(frozen=True)
class ChannelModel:
    """Ordered tap list, sorted by increasing delay on construction; taps at one delay add up."""

    taps: tuple[ChannelTap, ...]

    def __post_init__(self):
        object.__setattr__(self, "taps", tuple(sorted(self.taps, key=lambda tap: tap.delay_s)))

    def __len__(self) -> int:
        return len(self.taps)


def delay_in_samples(delay_s: float, spec: WaveformSpec, tap_index: int = 0) -> int:
    """Offset of a delay in whole samples of ``spec``, or ConfigError off its grid or window.

    The window is the signal, or the triangle's up ramp, below Tc: its
    three-segment beat assumes the echo of the up ramp ends inside the symbol,
    and a longer delay aliases to a wrong range. The grid comes first, so an
    offset that rounds to the window's end fails too.
    """
    d = delay_s * spec.sample_rate_hz
    samples = round(d) if math.isfinite(d) else d  # inf passes the grid, not the window
    if abs(d - samples) > 1e-9:
        raise GridAlignmentError(
            f"tap {tap_index} delay {delay_s!r} s is {d!r} samples at fs="
            f"{spec.sample_rate_hz} Hz, {abs(d - samples):.3g} samples off the grid; "
            f"set fs so that delay*fs is an integer"
        )
    triangle = spec.kind is WaveformKind.TRIANGLE
    bound = spec.samples_per_chirp if triangle else spec.num_samples
    if not 0 <= samples < bound:
        window = (
            f"the triangle up ramp of {bound} samples (Tc={spec.chirp_duration_s} s)"
            if triangle else f"the {spec.kind.value} signal length {bound}"
        )
        raise ConfigError(
            f"tap {tap_index} delay {delay_s!r} s is {samples} samples, beyond {window}"
        )
    return samples


def apply_channel(sig: ComplexSignal, channel: ChannelModel) -> ComplexSignal:
    """Superimpose delayed, scaled copies of `sig`, one per tap.

    Samples that would come from before the start of the input contribute
    zero, and the tail shifted past the input length is dropped. Each tap is
    added over blocks of ``_BLOCK`` output samples, so the scaled copy it
    makes stays small whatever the signal length.
    """
    n = len(sig)
    x = sig.samples
    # Accumulated onto zeros, never assigned: a first tap written straight
    # into `out` would keep the -0.0 parts that adding to +0.0 clears.
    out = np.zeros(n, dtype=np.complex128)
    for i, tap in enumerate(channel.taps):
        d = delay_in_samples(tap.delay_s, sig.spec, i)
        for a in range(d, n, _BLOCK):
            b = min(a + _BLOCK, n)
            out[a:b] += tap.gain * x[a - d : b - d]
    return ComplexSignal(out, sig.spec)


class _SplitMix64:
    """SplitMix64 bit generator (Steele, Lea & Flood's mixing constants).

    Chosen over a library generator so that a channel drawn from a seed can
    be reproduced byte-for-byte by any implementation of this one-page
    algorithm. State update: s += 0x9E3779B97F4A7C15; output: xor-shift
    multiply as below.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = check_seed(seed)

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """Uniform double in (0, 1]: (top 53 bits + 1) / 2^53."""
        return ((self.next_u64() >> 11) + 1) * 2.0**-53


def check_seed(seed: int) -> int:
    """Return `seed`, or raise ValueError naming it when outside [0, 2^64).

    That range is the SplitMix64 state; a seed outside it would alias to the
    state of a seed inside it.
    """
    if not 0 <= seed <= _SplitMix64._MASK:
        raise ValueError(f"seed must be non-negative and below 2^64, got {seed}")
    return seed


def _standard_normal_pair(rng: _SplitMix64) -> tuple[float, float]:
    """Box-Muller transform of two uniforms from the bit generator."""
    u1 = rng.next_unit()
    u2 = rng.next_unit()
    r = math.sqrt(-2.0 * math.log(u1))
    return r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)


def rayleigh_taps(delays: Sequence[float], seed: int) -> ChannelModel:
    """Channel with Rayleigh-distributed gain magnitudes, E|g|^2 = 1.

    Each gain is (z_re + j*z_im)/sqrt(2) with independent standard normals
    drawn by Box-Muller from a SplitMix64 stream seeded with `seed`; one
    normal pair per tap, in order of increasing delay. Gains are not
    renormalized across taps. Same seed, same delays => identical model.
    """
    rng = _SplitMix64(seed)
    taps = []
    for delay in sorted(delays):
        z_re, z_im = _standard_normal_pair(rng)
        taps.append(ChannelTap(delay, complex(z_re, z_im) / math.sqrt(2.0)))
    return ChannelModel(tuple(taps))
