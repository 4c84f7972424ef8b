import functools

import numpy as np
import pytest

from spatsim.binsim import (VirtualSource, render_reference,
                            render_scene_stems, render_source)
from spatsim.geometry import Position2D
from spatsim.haalgo import design_mvdr
from spatsim.hrir import synth_sphere_hrir
from spatsim.metrics import (BEAM_PATTERN_FLOOR_DB, PATTERN_AZIMUTHS,
                             make_third_octave_grid, third_octave_analyze)
from spatsim.signals import white_noise


@pytest.fixture(scope="session")
def hrir_set():
    return synth_sphere_hrir()


@pytest.fixture(scope="session")
def mvdr_design(hrir_set):
    return design_mvdr(hrir_set)


@pytest.fixture(scope="session")
def band_grid():
    return make_third_octave_grid()


def free_field_stems(scene, hrir_set, channels):
    """`render_scene_stems` in free field at the array centre: each source
    through `render_reference`."""
    return render_scene_stems(scene, functools.partial(
        render_reference, hrir_set=hrir_set, listener=Position2D(0.0, 0.0),
        channels=channels), channels)


def beam_pattern_per_azimuth(algorithm, method, bank, hrir_set, pose, grid,
                             probe_duration):
    """Oracle of `metrics.beam_pattern`: render the probe at every pattern
    azimuth, process each render and analyse its input and output bands.
    `method=None` renders free field at the HRIR distance with
    `render_reference`; otherwise the probes go through `bank` at its
    array radius."""
    probe = white_noise(probe_duration, hrir_set.sample_rate, seed=0)
    distance = hrir_set.distance if method is None else bank.array.radius
    if method is not None:
        bank = bank.select(algorithm.channels)
    ref_idx = list(algorithm.reference_channel_indices)
    gains = np.empty((len(PATTERN_AZIMUTHS), len(grid)))
    for i, az in enumerate(PATTERN_AZIMUTHS):
        src = VirtualSource(probe, Position2D.from_polar(az, distance))
        if method is None:
            rendered = render_reference(src, hrir_set, pose,
                                        algorithm.channels)
        else:
            rendered = render_source(method, bank, src)
        out = algorithm.process(rendered)
        rate = rendered.sample_rate
        p_in = third_octave_analyze(rendered.samples[ref_idx], rate,
                                    grid).sum(axis=0)
        p_out = third_octave_analyze(out.samples, rate, grid).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = 10.0 * np.log10(p_out / p_in)
        g[~np.isfinite(g)] = BEAM_PATTERN_FLOOR_DB
        gains[i] = np.maximum(g, BEAM_PATTERN_FLOOR_DB)
    return gains
