"""Multi-tap delay channel: y[n] = sum_i g_i * x[n - d_i], zero-filled.

Tap delays must land on the sample grid (integer d = tau*fs); no fractional
delay interpolation is performed. Output is truncated to the input length,
since beat processing consumes exactly one symbol window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GridAlignmentError
from .waveform import ComplexSignal

__all__ = ["ChannelTap", "ChannelModel", "apply_channel", "rayleigh_taps"]

_BLOCK = 1 << 15  # output samples per scaled-copy block in apply_channel


@dataclass(frozen=True)
class ChannelTap:
    """One propagation path: delay in seconds and a complex gain."""

    delay_s: float
    gain: complex

    def __post_init__(self):
        if not math.isfinite(self.delay_s) or self.delay_s < 0:
            raise ValueError(f"tap delay must be finite and >= 0, got {self.delay_s}")


@dataclass(frozen=True)
class ChannelModel:
    """Ordered tap list; taps are sorted by increasing delay on construction."""

    taps: tuple[ChannelTap, ...]

    def __post_init__(self):
        taps = tuple(sorted(self.taps, key=lambda tap: tap.delay_s))
        delays = [tap.delay_s for tap in taps]
        if len(set(delays)) != len(delays):
            raise ValueError(f"tap delays must be distinct, got {delays}")
        object.__setattr__(self, "taps", taps)

    def __len__(self) -> int:
        return len(self.taps)


def delay_in_samples(delay_s: float, sample_rate_hz: float, tap_index: int = 0) -> int:
    """Integer sample count for a delay, or GridAlignmentError when off-grid."""
    d = delay_s * sample_rate_hz
    if abs(d - round(d)) > 1e-9:
        raise GridAlignmentError(
            f"tap {tap_index} delay {delay_s!r} s is {d!r} samples at fs="
            f"{sample_rate_hz} Hz, {abs(d - round(d)):.3g} samples off the grid; "
            f"override fs so that delay*fs is an integer"
        )
    return int(round(d))


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
        d = delay_in_samples(tap.delay_s, sig.sample_rate_hz, i)
        if d >= n:
            raise ValueError(
                f"tap {i} delay {tap.delay_s} s is {d} samples, beyond the "
                f"signal length {n}"
            )
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
