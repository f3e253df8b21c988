"""Beat-signal derivation, the closed-form three-segment oracle, and the
phase-consistency check for the triangle waveform.

Mixing the received signal against the conjugate transmit produces, for a
triangle waveform and a single path delay tau, three segments:

    (tau,      Tc]      exp(j*pi*(-2*a*tau*t + a*tau^2))
    (Tc,       Tc+tau]  exp(j*pi*(2*a*t^2 - (4B + 2*a*tau)*t + a*tau^2 + 2*B*Tc))
    (Tc+tau,   Ts]      exp(j*pi*(2*a*tau*t - 4*B*tau - a*tau^2))

with a = B/Tc. The transition-segment constant ``+2*B*Tc`` follows from
multiplying the conjugate phase-continuous down ramp with the delayed up
ramp; the oracle-equivalence tests pin it against the mixed product.

The first and third segments hold constant frequencies -a*tau and +a*tau.
When tau = p/(2B) with integer p, the third segment is the conjugate of the
first segment's extension, so the real part of the beat runs phase-coherent
across the whole symbol: that is what doubles the usable measurement span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import delay_in_samples
from .waveform import ComplexSignal, WaveformKind, WaveformSpec

__all__ = ["mix", "analytic_beat", "phase_consistency"]

# Largest phase mismatch, in radians, that still counts as consistent.
_PHASE_TOL = 1e-6
# Slack, in ulps of p, for the rounding of a tau computed as p/(2B).
_P_ULPS = 4


def mix(tx: ComplexSignal, rx: ComplexSignal) -> ComplexSignal:
    """Beat signal conj(tx[n]) * rx[n] on the transmit grid; no normalization."""
    if tx.spec != rx.spec:
        raise ValueError(f"spec mismatch: tx {tx.spec}, rx {rx.spec}")
    # In place: one N-sized array instead of conj(tx) plus the product.
    beat = np.conj(tx.samples)
    beat *= rx.samples
    return ComplexSignal(beat, tx.spec)


def _require_triangle(spec: WaveformSpec) -> None:
    if spec.kind is not WaveformKind.TRIANGLE:
        raise ValueError(f"oracle requires a triangle spec, got {spec.kind.value}")


def analytic_beat(spec: WaveformSpec, tau: float) -> ComplexSignal:
    """Closed-form triangle beat for a unit-gain path at delay `tau`.

    Evaluates the three-segment expression on the sample grid, zero before
    the echo arrives at sample m. `tau` is a tap delay as ``apply_channel``
    takes it: ``channel.delay_in_samples`` gives m, or refuses a delay off
    the grid or beyond the up ramp. The segments start at m, Nc and Nc+m,
    and the beat matches ``mix(generate(spec), apply_channel(...))``
    samplewise.
    """
    _require_triangle(spec)
    m = delay_in_samples(tau, spec)
    n_c = spec.samples_per_chirp
    a = spec.slope
    B = spec.bandwidth_hz
    tc = spec.chirp_duration_s
    t = np.arange(spec.num_samples) / spec.sample_rate_hz

    phase = np.zeros(t.size, dtype=np.float64)
    s1 = slice(m, n_c)
    s2 = slice(n_c, n_c + m)
    s3 = slice(n_c + m, None)
    phase[s1] = np.pi * (-2.0 * a * tau * t[s1] + a * tau**2)
    phase[s2] = np.pi * (
        2.0 * a * t[s2] ** 2
        - (4.0 * B + 2.0 * a * tau) * t[s2]
        + a * tau**2
        + 2.0 * B * tc
    )
    phase[s3] = np.pi * (2.0 * a * tau * t[s3] - 4.0 * B * tau - a * tau**2)

    out = np.exp(1j * phase)
    out[:m] = 0.0
    return ComplexSignal(out, spec)


@dataclass(frozen=True)
class PhaseConsistency:
    """Outcome of the segment-three phase alignment check."""

    mismatch: float
    consistent: bool


def phase_consistency(spec: WaveformSpec, tau: float) -> PhaseConsistency:
    """Whether p = 2*B*tau is an integer: seg3 then continues seg1's tone.

    The beat phase just after Tc+tau, pi*(a*tau^2 - 2*B*tau), and the phase
    the first segment's tone would have there, pi*(-a*tau^2 - 2*B*tau), sum
    to -2*pi*p: the a*tau^2 terms cancel, so the real parts line up exactly
    when p is an integer. The mismatch is that sum wrapped to (-pi, pi],
    2*pi*(round(p) - p), so a half offset is +pi. Read from p itself rather
    than from two phases of size pi*a*tau^2, it stays exact at any B*Tc; p
    counts as an integer within _PHASE_TOL rad or a few ulps of p, the
    rounding of tau = p/(2B). tau need not be on the sample grid.
    """
    _require_triangle(spec)
    if not 0.0 <= tau < spec.chirp_duration_s:
        raise ValueError(
            f"tau must satisfy 0 <= tau < Tc={spec.chirp_duration_s}, got {tau}"
        )
    p = 2.0 * spec.bandwidth_hz * tau
    offset = round(p) - p
    mismatch = np.pi if offset == -0.5 else 2.0 * np.pi * offset
    slack = max(_PHASE_TOL / (2.0 * np.pi), _P_ULPS * math.ulp(p))
    return PhaseConsistency(mismatch, abs(offset) <= slack)
