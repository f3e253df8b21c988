import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trifmcw import (
    ChannelModel,
    ChannelTap,
    ComplexSignal,
    ConfigError,
    GridAlignmentError,
    WaveformKind,
    WaveformSpec,
    apply_channel,
    generate,
    rayleigh_taps,
)

FS = 1000.0


def sig_of(values):
    values = np.asarray(values, dtype=complex)
    spec = WaveformSpec(WaveformKind.LINEAR, FS / 2, values.size / FS, sample_rate_hz=FS)
    return ComplexSignal(values, spec)


def test_identity_tap():
    x = sig_of([1, 2j, -3, 4 + 1j])
    y = apply_channel(x, ChannelModel((ChannelTap(0.0, 1.0),)))
    np.testing.assert_array_equal(y.samples, x.samples)


def test_pure_shift_zero_fill():
    x = sig_of(np.arange(1, 9))
    y = apply_channel(x, ChannelModel((ChannelTap(3 / FS, 1.0),)))
    np.testing.assert_array_equal(y.samples, [0, 0, 0, 1, 2, 3, 4, 5])


def test_two_tap_superposition():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(8, 40))
        x = sig_of(rng.normal(size=n) + 1j * rng.normal(size=n))
        d1, d2 = sorted(rng.choice(n - 1, size=2, replace=False))
        g1 = complex(rng.normal(), rng.normal())
        g2 = complex(rng.normal(), rng.normal())
        both = apply_channel(
            x, ChannelModel((ChannelTap(d1 / FS, g1), ChannelTap(d2 / FS, g2)))
        )
        lone1 = apply_channel(x, ChannelModel((ChannelTap(d1 / FS, 1.0),)))
        lone2 = apply_channel(x, ChannelModel((ChannelTap(d2 / FS, 1.0),)))
        np.testing.assert_allclose(
            both.samples, g1 * lone1.samples + g2 * lone2.samples, atol=1e-12
        )


def test_time_invariance_on_the_grid():
    rng = np.random.default_rng(11)
    x = rng.normal(size=32) + 1j * rng.normal(size=32)
    ch = ChannelModel((ChannelTap(5 / FS, 0.3 - 0.4j),))
    shift = 4
    shifted_in = np.concatenate([np.zeros(shift, complex), x[:-shift]])
    out_then_shift = apply_channel(sig_of(x), ch).samples
    out_then_shift = np.concatenate([np.zeros(shift, complex), out_then_shift[:-shift]])
    shift_then_out = apply_channel(sig_of(shifted_in), ch).samples
    np.testing.assert_allclose(shift_then_out, out_then_shift, atol=1e-12)


def test_single_tap_energy_clips_tail():
    rng = np.random.default_rng(3)
    x = rng.normal(size=64) + 1j * rng.normal(size=64)
    d = 10
    y = apply_channel(sig_of(x), ChannelModel((ChannelTap(d / FS, 1.0),)))
    e_in = np.sum(np.abs(x) ** 2)
    e_out = np.sum(np.abs(y.samples) ** 2)
    e_tail = np.sum(np.abs(x[-d:]) ** 2)
    assert abs(e_out - (e_in - e_tail)) < 1e-9


def test_off_grid_delay_names_the_tap():
    x = sig_of(np.ones(16))
    ch = ChannelModel((ChannelTap(0.0, 1.0), ChannelTap(2.5 / FS, 1.0)))
    with pytest.raises(GridAlignmentError, match="tap 1 .*set fs so that"):
        apply_channel(x, ch)


def test_delay_beyond_signal_rejected():
    x = sig_of(np.ones(8))
    with pytest.raises(ValueError, match="beyond the linear signal length 8"):
        apply_channel(x, ChannelModel((ChannelTap(8 / FS, 1.0),)))


def test_taps_sorted_by_delay():
    ch = ChannelModel((ChannelTap(0.02, 1.0), ChannelTap(0.01, 2.0)))
    assert [t.delay_s for t in ch.taps] == [0.01, 0.02]


@pytest.mark.parametrize("kind", list(WaveformKind))
def test_taps_on_one_delay_superpose(kind):
    # 0 + x + x equals 0 + 2x bit for bit: two paths on one sample are one of gain 2.
    tx = generate(WaveformSpec(kind, 8000.0, 0.1))
    delay = 48 / tx.sample_rate_hz
    two = apply_channel(tx, ChannelModel((ChannelTap(delay, 1.0), ChannelTap(delay, 1.0))))
    one = apply_channel(tx, ChannelModel((ChannelTap(delay, 2.0),)))
    assert np.array_equal(two.samples.view(np.uint64), one.samples.view(np.uint64))


# The triangle's three-segment beat holds while the echo of its up ramp ends
# inside the symbol, tau < Tc; the other two-chirp kinds hold any delay in the signal.
@pytest.mark.parametrize("kind", ["triangle", "sawtooth", "gentle", "extended"])
def test_a_tap_window_is_the_triangle_up_ramp_or_the_signal(kind):
    tx = generate(WaveformSpec(kind, 8000.0, 0.1))
    n_c = tx.spec.samples_per_chirp

    def channel(samples):
        return ChannelModel((ChannelTap(0.0, 1.0), ChannelTap(samples / tx.sample_rate_hz, 1.0)))

    apply_channel(tx, channel(n_c - 1))
    if kind == "triangle":
        with pytest.raises(ConfigError, match=r"^tap 1 delay 0.1 s is 1600 samples, beyond "
                                              r"the triangle up ramp of 1600 samples \(Tc=0.1 s\)$"):
            apply_channel(tx, channel(n_c))
    else:
        assert apply_channel(tx, channel(n_c)).samples[n_c] == 1 + tx.samples[n_c]


def test_rayleigh_taps_deterministic():
    delays = [0.001, 0.002, 0.003, 0.004]
    a = rayleigh_taps(delays, seed=42)
    b = rayleigh_taps(delays, seed=42)
    assert a.taps == b.taps
    assert len(a) == 4
    assert [t.delay_s for t in a.taps] == sorted(delays)
    c = rayleigh_taps(delays, seed=43)
    assert c.taps != a.taps


def test_rayleigh_seed_range_is_zero_to_two_to_the_64():
    # outside [0, 2^64) a seed would alias to one inside it, e.g. -1 to 2^64 - 1
    for seed in (0, 2**64 - 1):
        assert len(rayleigh_taps([0.001], seed=seed)) == 1
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=f"got {seed}"):
            rayleigh_taps([0.001], seed=seed)


def test_rayleigh_gain_second_moment():
    # E|g|^2 = 1 for (z_re + j z_im)/sqrt(2) with standard normal parts
    delays = [i * 1e-6 for i in range(100_000)]
    model = rayleigh_taps(delays, seed=2024)
    mean_sq = np.mean([abs(t.gain) ** 2 for t in model.taps])
    assert 0.99 <= mean_sq <= 1.01


def test_splitmix64_known_answer():
    # First outputs of the reference splitmix64.c seeded with 0.
    from trifmcw.channel import _SplitMix64

    rng = _SplitMix64(0)
    assert [rng.next_u64() for _ in range(4)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]


def test_rayleigh_taps_known_answer():
    # Gains are drawn in delay order, whatever order the delays are given in.
    model = rayleigh_taps([0.003, 0.001, 0.002], 42)
    assert [(t.delay_s, t.gain.real.hex(), t.gain.imag.hex()) for t in model.taps] == [
        (0.001, "0x1.2c4a0765a459ep-2", "0x1.d89778b80070bp-2"),
        (0.002, "-0x1.42e5b5796b222p-1", "0x1.e05d74a34d89cp-1"),
        (0.003, "0x1.3916fca0d22dep+0", "-0x1.54ef52c18fa67p+0"),
    ]


@pytest.mark.parametrize("delay", [float("nan"), float("inf")])
def test_non_finite_tap_delay_rejected(delay):
    with pytest.raises(ValueError, match="finite"):
        ChannelTap(delay, 1.0)


@pytest.mark.parametrize(
    "gain", [complex("nan"), complex("inf"), complex(0, float("inf")), complex(float("nan"), 0)],
    ids=["nan", "inf", "inf_imag", "nan_real"],
)
def test_non_finite_tap_gain_rejected(gain):
    with pytest.raises(ValueError, match=r"tap gain must be finite, got"):
        ChannelTap(0.003, gain)


def _full_slice_apply_channel(x, delays, gains):
    """Each tap added as one full-length scaled slice, in order of delay."""
    out = np.zeros(x.size, dtype=np.complex128)
    for d, g in sorted(zip(delays, gains), key=lambda tap: tap[0]):
        if d == 0:
            out += g * x
        else:
            out[d:] += g * x[:-d]
    return out


_GAINS = st.one_of(
    st.sampled_from([1.0 + 0.0j, complex(-1.25, -0.0), complex(0.0, -0.0), 0.3 - 0.4j]),
    st.builds(complex, st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0])),
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _channel_cases(draw):
    # Half the cases span more than one accumulation block of 2**15 samples.
    n = draw(st.one_of(st.integers(1, 2**15), st.integers(2**15 + 1, 70_000)))
    delays = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)
    )
    gains = draw(st.lists(_GAINS, min_size=len(delays), max_size=len(delays)))
    return n, delays, gains, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=_channel_cases())
@example(case=(70_000, [0, 69_999], [complex(0.5, -0.0), complex(-1.25, 0.0)], 1))
@example(case=(2**15 + 1, [2**15, 1, 0], [complex(1.0, -0.0), 0.3 - 0.4j, -1.0], 2))
@example(case=(40_000, [0], [complex(-1.25, -0.0)], 3))
@example(case=(1, [0], [complex(0.0, -0.0)], 4))
def test_apply_channel_equals_the_full_slice_loop_bitwise(case):
    n, delays, gains, seed = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    # Signed zeros, where the sign of a sum depends on the order of addition.
    x.real[rng.random(n) < 0.1] = -0.0
    x.imag[rng.random(n) < 0.1] = 0.0
    channel = ChannelModel(
        tuple(ChannelTap(d / FS, g) for d, g in zip(delays, gains))
    )
    got = apply_channel(sig_of(x), channel).samples
    want = _full_slice_apply_channel(x, delays, gains)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
