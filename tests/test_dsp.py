import numpy as np

from spatsim.dsp import one_pole_smooth
from spatsim.stft import StftProcessor


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
