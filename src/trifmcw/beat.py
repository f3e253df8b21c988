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

from dataclasses import dataclass

import numpy as np

from .waveform import ComplexSignal, WaveformKind, WaveformSpec

__all__ = ["mix", "analytic_beat", "phase_consistency"]

# Slack, in samples, when assigning grid points to segment boundaries.
_EDGE_TOL = 1e-9
# Largest wrapped phase mismatch, in radians, that still counts as consistent.
_PHASE_TOL = 1e-6


def _wrap_to_pi(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = float(np.mod(angle, 2.0 * np.pi))
    return w - 2.0 * np.pi if w > np.pi else w


def _segment_edges(spec: WaveformSpec, tau: float) -> tuple[int, int, int]:
    """Grid indices where the first, transition and mirrored segments start.

    The mirrored segment runs to the end of the symbol. A sample exactly on
    a boundary belongs to the later segment's closed start; the comparison
    carries a small slack so delays specified as rational numbers of
    seconds hit the intended bin.
    """
    n_c = spec.samples_per_chirp
    start1 = int(np.ceil(tau * spec.sample_rate_hz - _EDGE_TOL))
    return start1, n_c, n_c + start1


def mix(tx: ComplexSignal, rx: ComplexSignal) -> ComplexSignal:
    """Beat signal conj(tx[n]) * rx[n] on the transmit grid; no normalization."""
    if tx.spec != rx.spec:
        raise ValueError(f"spec mismatch: tx {tx.spec}, rx {rx.spec}")
    # In place: one N-sized array instead of conj(tx) plus the product.
    beat = np.conj(tx.samples)
    beat *= rx.samples
    return ComplexSignal(beat, tx.spec)


def _check_triangle_oracle_args(spec, tau):
    if spec.kind is not WaveformKind.TRIANGLE:
        raise ValueError(f"oracle requires a triangle spec, got {spec.kind.value}")
    if not 0.0 <= tau < spec.chirp_duration_s:
        raise ValueError(
            f"tau must satisfy 0 <= tau < Tc={spec.chirp_duration_s}, got {tau}"
        )


def analytic_beat(spec: WaveformSpec, tau: float) -> ComplexSignal:
    """Closed-form triangle beat for a unit-gain path at delay `tau`.

    Evaluates the three-segment expression on the sample grid, zero before
    the echo arrives. Matches ``mix(generate(spec), apply_channel(...))``
    samplewise for grid-aligned tau.
    """
    _check_triangle_oracle_args(spec, tau)
    a = spec.slope
    B = spec.bandwidth_hz
    tc = spec.chirp_duration_s
    n = np.arange(spec.num_samples)
    t = n / spec.sample_rate_hz
    start1, start2, start3 = _segment_edges(spec, tau)

    phase = np.zeros(n.size, dtype=np.float64)
    s1 = slice(start1, start2)
    s2 = slice(start2, start3)
    s3 = slice(start3, None)
    phase[s1] = np.pi * (-2.0 * a * tau * t[s1] + a * tau**2)
    phase[s2] = np.pi * (
        2.0 * a * t[s2] ** 2
        - (4.0 * B + 2.0 * a * tau) * t[s2]
        + a * tau**2
        + 2.0 * B * tc
    )
    phase[s3] = np.pi * (2.0 * a * tau * t[s3] - 4.0 * B * tau - a * tau**2)

    out = np.exp(1j * phase)
    out[:start1] = 0.0
    return ComplexSignal(out, spec)


@dataclass(frozen=True)
class PhaseConsistency:
    """Outcome of the segment-three phase alignment check."""

    mismatch: float
    consistent: bool


def phase_consistency(spec: WaveformSpec, tau: float) -> PhaseConsistency:
    """Compare the third segment's start phase against the extended tone.

    phi_seg3_start = pi*(a*tau^2 - 2*B*tau) is the beat phase just after
    Tc+tau; phi_extended = pi*(-a*tau^2 - 2*B*tau) is where the first
    segment's tone would have arrived at the same instant. The real parts
    line up when the two are negatives of each other, i.e. when the wrapped
    sum is zero -- which happens exactly at tau = p/(2B) with integer p.
    """
    _check_triangle_oracle_args(spec, tau)
    a = spec.slope
    B = spec.bandwidth_hz
    phi_seg3 = _wrap_to_pi(np.pi * (a * tau**2 - 2.0 * B * tau))
    phi_ext = _wrap_to_pi(np.pi * (-a * tau**2 - 2.0 * B * tau))
    mismatch = _wrap_to_pi(phi_seg3 + phi_ext)
    return PhaseConsistency(mismatch, abs(mismatch) < _PHASE_TOL)
