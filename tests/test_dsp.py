import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.signal import lfilter

from spatsim.dsp import delay_signal, fractional_delay_fir, one_pole_smooth
from spatsim.stft import StftProcessor

from conftest import float_bits


def _recurrence(x, alpha):
    """y[t] = alpha y[t-1] + (1 - alpha) x[t] along axis 0, from rest."""
    out = np.empty_like(x)
    acc = np.zeros_like(x[0])
    for t in range(x.shape[0]):
        acc = alpha * acc + (1.0 - alpha) * x[t]
        out[t] = acc
    return out


def test_one_pole_smooth_matches_recurrence():
    tau, rate = 0.02, 187.5
    alpha = np.exp(-1.0 / (tau * rate))
    rng = np.random.default_rng(4)
    real = rng.standard_normal((400, 257))
    for x in (real, real + 1j * rng.standard_normal((400, 257))):
        expected = _recurrence(x, alpha)
        assert np.array_equal(one_pole_smooth(x, tau, rate, axis=0), expected)
        assert np.array_equal(one_pole_smooth(x.T, tau, rate, axis=-1),
                              expected.T)


def test_one_pole_smooth_equals_lfilter_bit_for_bit():
    """The `sosfilt` section gives the bits of the first-order `lfilter`,
    signed zeros included, along either axis. A complex part differs only
    before its first nonzero input sample: there both outputs are exact
    zeros, and for a -0 input the two set their signs differently."""
    tau, rate = 0.005, 48000
    alpha = float(np.exp(-1.0 / (tau * rate)))
    rng = np.random.default_rng(5)

    def with_signed_zeros(shape):
        x = rng.standard_normal(shape)
        x[:3] = -0.0
        x[rng.uniform(size=shape) < 0.2] = 0.0
        x[rng.uniform(size=shape) < 0.2] = -0.0
        return x

    real = with_signed_zeros((300, 7))
    cplx = real.astype(complex)
    cplx.imag = with_signed_zeros(real.shape)
    for axis in (0, -1):
        want = lfilter([1.0 - alpha], [1.0, -alpha], real, axis=axis)
        got = one_pole_smooth(real, tau, rate, axis=axis)
        assert got.dtype == want.dtype
        assert np.array_equal(float_bits(got), float_bits(want))

        want = lfilter([1.0 - alpha], [1.0, -alpha], cplx, axis=axis)
        got = one_pole_smooth(cplx, tau, rate, axis=axis)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        for part in (np.real, np.imag):
            onset = np.cumsum(part(cplx) != 0.0, axis=axis) > 0
            assert np.array_equal(part(got).view(np.uint64)[onset],
                                  part(want).view(np.uint64)[onset])


def _overlap_add_loop(stft, spec, n_samples):
    """StftProcessor.synthesize written as a loop over frames."""
    seg = np.fft.irfft(spec, n=stft.window_size, axis=-1) * stft.window
    ch, frames, _ = seg.shape
    out = np.zeros((ch, stft.window_size + stft.hop * (frames - 1)))
    for t in range(frames):
        out[:, t * stft.hop:t * stft.hop + stft.window_size] += seg[:, t]
    out /= stft._cola
    return out[:, stft.window_size:stft.window_size + n_samples]


def test_synthesize_matches_frame_loop():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 101380))
    for hop in (256, 128):
        stft = StftProcessor(window_size=512, hop=hop)
        spec = stft.analyze(x)
        # A modified spectrum, so that frames no longer overlap consistently.
        spec = spec * rng.uniform(0.1, 1.0, spec.shape[1:])
        assert np.array_equal(stft.synthesize(spec, x.shape[1]),
                              _overlap_add_loop(stft, spec, x.shape[1]))


def _gather_frames(stft, x):
    """StftProcessor.analyze framed by a fancy-index gather of each frame."""
    xp = np.pad(np.atleast_2d(x), ((0, 0), (stft.window_size,) * 2))
    frames = 1 + (xp.shape[1] - stft.window_size) // stft.hop
    idx = (np.arange(stft.window_size)[None, :]
           + stft.hop * np.arange(frames)[:, None])
    return np.fft.rfft(xp[:, idx] * stft.window, axis=-1)


def test_analyze_matches_gather_framing():
    rng = np.random.default_rng(13)
    for shape, hop in (((6, 53380), 256), ((7, 101380), 256),
                       ((2, 101380), 128), ((1, 700), 256)):
        stft = StftProcessor(window_size=512, hop=hop)
        x = rng.standard_normal(shape)
        assert np.array_equal(stft.analyze(x), _gather_frames(stft, x))
    x = rng.standard_normal(3000)
    assert np.array_equal(StftProcessor().analyze(x),
                          _gather_frames(StftProcessor(), x))


def test_delay_signal_rows_match_per_row_calls():
    rng = np.random.default_rng(14)
    for shape in ((8, 4800), (6, 5381), (2, 3, 700)):
        x = rng.standard_normal(shape)
        for delay in (-2.5, 0.0, 3.0, 7.3, 140.6):
            for out_len in (None, shape[-1] + 200):
                rows = x.reshape(-1, shape[-1])
                expected = np.stack([delay_signal(r, delay, out_len=out_len)
                                     for r in rows])
                got = delay_signal(x, delay, out_len=out_len)
                assert got.shape == x.shape[:-1] + expected.shape[-1:]
                assert np.array_equal(got.reshape(expected.shape), expected)


def _delay_direct(row, delay, out_len):
    """One row delayed by direct convolution with the delay filter."""
    n0, h = fractional_delay_fir(delay)
    y = np.convolve(row, h)
    out = np.zeros(out_len)
    for i, v in enumerate(y):
        if 0 <= n0 + i < out_len:
            out[n0 + i] = v
    return out


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(1, 3), min_size=0, max_size=2),
       n=st.integers(1, 300),
       delay=st.one_of(st.integers(-40, 40).map(float),
                       st.floats(-40.0, 40.0, allow_nan=False)),
       out_len=st.one_of(st.none(), st.integers(1, 400)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_delay_signal_nd_property(shape, n, delay, out_len, seed):
    x = np.random.default_rng(seed).standard_normal(tuple(shape) + (n,))
    got = delay_signal(x, delay, out_len=out_len)
    length = n + max(0, int(np.ceil(delay))) if out_len is None else out_len
    assert got.shape == x.shape[:-1] + (length,)
    rows = x.reshape(-1, n)
    per_row = np.stack([delay_signal(r, delay, out_len=out_len)
                        for r in rows])
    assert np.array_equal(got.reshape(per_row.shape), per_row)
    direct = np.stack([_delay_direct(r, delay, length) for r in rows])
    assert np.allclose(per_row, direct, rtol=0.0, atol=1e-12 * n)
    if delay == int(delay):
        # An integer delay is an exact shift.
        shifted = np.zeros_like(direct)
        for t in range(length):
            if 0 <= t - int(delay) < n:
                shifted[:, t] = rows[:, t - int(delay)]
        assert np.allclose(per_row, shifted, rtol=0.0, atol=1e-12 * n)
