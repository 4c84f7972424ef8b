import numpy as np

from spatsim.dsp import one_pole_smooth


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
