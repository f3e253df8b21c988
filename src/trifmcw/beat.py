"""Beat-signal derivation, the closed-form oracle for every waveform kind,
and the phase-consistency check for the triangle waveform.

Mixing the received signal against the conjugate transmit gives, for a
single path delay tau, one segment per pair of an echo piece i and a
transmit piece j of ``waveform.phase_pieces``: where the echo of piece i,
tau late, overlaps piece j, the beat is exp(j*(phi_i(t - tau) - phi_j(t))).
Before the echo arrives it is zero.

The triangle's pieces are the up ramp and its phase-continuous mirrored
down ramp. Three pairs overlap: the up echo against the up ramp, the up
echo against the down ramp, and the down echo against the down ramp:

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

from .channel import ChannelModel, _echo_blocks, delay_in_samples
from .waveform import ComplexSignal, WaveformKind, WaveformSpec, phase_pieces

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


def channel_beat(tx: ComplexSignal, channel: ChannelModel) -> ComplexSignal:
    """``mix(tx, apply_channel(tx, channel))``, bit for bit, with no received signal held.

    Works through the blocks of ``channel._echo_blocks``: each block of the
    beat is ``conj(tx)`` written in place, then multiplied by that block's
    echo, with the operands in ``mix``'s order.
    """
    beat = np.empty(len(tx), dtype=np.complex128)
    for a, b, echo in _echo_blocks(tx, channel):
        block = np.conj(tx.samples[a:b], out=beat[a:b])
        block *= echo
    return ComplexSignal(beat, tx.spec)


def analytic_beat(spec: WaveformSpec, tau: float) -> ComplexSignal:
    """Closed-form beat of any kind for a unit-gain path at delay `tau`.

    Evaluates one segment per pair of (echo piece i, transmit piece j) of
    :func:`waveform.phase_pieces` on the sample grid, zero before the echo
    arrives at sample m. `tau` is a tap delay as ``apply_channel`` takes it:
    ``channel.delay_in_samples`` gives m, or refuses a delay off the grid or
    beyond its window. The beat matches ``mix(generate(spec),
    apply_channel(...))`` samplewise.
    """
    m = delay_in_samples(tau, spec)
    t = np.arange(spec.num_samples) / spec.sample_rate_hz
    phase = np.zeros(t.size, dtype=np.float64)
    pieces = phase_pieces(spec)
    for start_i, stop_i, s_i, a2, a1, a0 in pieces:
        d = tau + s_i
        for start_j, stop_j, s_j, b2, b1, b0 in pieces:
            # phi_i(t - tau) - phi_j(t), expanded in t so that no two large
            # phases cancel as they do in mix
            q2 = a2 - b2
            q1 = -2.0 * a2 * d + a1 + 2.0 * b2 * s_j - b1
            q0 = a2 * d**2 - a1 * d + a0 - b2 * s_j**2 + b1 * s_j - b0
            seg = slice(max(start_i + m, start_j), min(stop_i + m, stop_j))
            phase[seg] = (q2 * t[seg] + q1) * t[seg] + q0
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
    if spec.kind is not WaveformKind.TRIANGLE:
        raise ValueError(f"phase_consistency requires a triangle spec, got {spec.kind.value}")
    if not 0.0 <= tau < spec.chirp_duration_s:
        raise ValueError(
            f"tau must satisfy 0 <= tau < Tc={spec.chirp_duration_s}, got {tau}"
        )
    p = 2.0 * spec.bandwidth_hz * tau
    offset = round(p) - p
    mismatch = np.pi if offset == -0.5 else 2.0 * np.pi * offset
    slack = max(_PHASE_TOL / (2.0 * np.pi), _P_ULPS * math.ulp(p))
    return PhaseConsistency(mismatch, abs(offset) <= slack)
