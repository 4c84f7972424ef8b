import functools
import os
import pickle
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
import yaml

import spatsim.cli as cli
from spatsim.cli import main
from spatsim.haalgo import DesignError
import spatsim.harness as harness
import spatsim.localization as localization
import spatsim.signals as signals
from spatsim.harness import (ErrorSurface, PleCell, SweepConfig, SweepResult,
                             aliasing_overlay, contour_extract, criterion,
                             load_surfaces_csv, report, run_sweep,
                             usable_bandwidth, write_manifest,
                             write_surfaces_csv)
from spatsim.binsim import (CALIBRATION_CHANNEL, ReceiverBank,
                            VirtualSource, render_source)
from spatsim.geometry import Position2D
from spatsim.hrir import (CHANNELS, CHANNELS_BEAMFORMER,
                          CHANNELS_LOCALIZATION, HrirLoadError, HrirSet,
                          save_hrir_set, synth_sphere_hrir)
from spatsim.metrics import make_third_octave_grid

from conftest import spectral_distance_of_pair


# ---------------------------------------------------------------------------
# Configuration


def test_config_yaml_round_trip(tmp_path):
    config = SweepConfig.desk_scale(seed=5, scene_duration=1.0)
    path = tmp_path / "cfg.yaml"
    path.write_text(config.to_yaml())
    again = SweepConfig.from_yaml(path)
    assert again == config
    assert again.config_hash() == config.config_hash()


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("speaker_counts: [8]\nbogus_key: 1\n")
    with pytest.raises(ValueError, match="bogus_key"):
        SweepConfig.from_yaml(path)
    # Unknown names in the known keys are rejected too, not run silently.
    for key, name in (("metrics", "specral"), ("algorithms", "beamformr"),
                      ("methods", "wfs")):
        path.write_text(f"{key}: [{name}]\n")
        with pytest.raises(ValueError, match=f"unknown {key}.*{name}"):
            SweepConfig.from_yaml(path)


@pytest.mark.parametrize("key", harness._GRID_FIELDS)
def test_config_rejects_empty_or_repeated_grid_entries(tmp_path, key):
    """An empty list would run a sweep that measures nothing and exit 0;
    a repeated entry would measure the same cells twice."""
    entry = getattr(SweepConfig(), key)[0]
    path = tmp_path / "cfg.yaml"
    for values in ([], [entry, entry]):
        path.write_text(yaml.safe_dump({key: values}))
        with pytest.raises(ValueError, match=f"{key} must list distinct"):
            SweepConfig.from_yaml(path)
    path.write_text(yaml.safe_dump({key: [entry]}))
    assert getattr(SweepConfig.from_yaml(path), key) == (entry,)


def test_config_stores_grid_numbers_as_floats(tmp_path):
    """A config written with integer offsets, SNRs or scalar lengths is the
    float config of the presets, and hashes alike."""
    path = tmp_path / "cfg.yaml"
    for numbers in ({"scene_duration": 8.0, "pose_offsets": [0, 0.1, 0.5],
                     "input_snrs": list(range(-20, 21, 5))},
                    {"scene_duration": 8},
                    {"scene_duration": 8.0, "array_radius": 3,
                     "pattern_probe_duration": 1, "band_min": 100,
                     "band_max": 8000}):
        path.write_text(yaml.safe_dump({"preset": "desk", **numbers}))
        config = SweepConfig.from_yaml(path)
        assert all(type(v) is float
                   for v in config.pose_offsets + config.input_snrs)
        assert all(type(getattr(config, key)) is float for key in (
            "array_radius", "scene_duration", "pattern_probe_duration",
            "band_min", "band_max", "head_radius")), numbers
        preset = SweepConfig.desk_scale(scene_duration=8.0)
        assert config.to_yaml() == preset.to_yaml()
        assert config.config_hash() == preset.config_hash()


def test_config_rejects_non_integer_speaker_counts(tmp_path):
    """Every cell of a 4.0-speaker grid would fail, and its CSV could not
    be read back; a 48000.0 Hz rate or a boolean seed would hash apart
    from the integer config it equals."""
    path = tmp_path / "cfg.yaml"
    for key, value in (("speaker_counts", "[4.0]"),
                       ("speaker_counts", "[true]"),
                       ("sample_rate", "48000.0"), ("sample_rate", "true"),
                       ("n_noise_sources", "20.0"), ("seed", "1.5"),
                       ("seed", "false")):
        path.write_text(f"{key}: {value}\n")
        with pytest.raises(ValueError, match=f"{key} must be.* integer"):
            SweepConfig.from_yaml(path)


@pytest.mark.parametrize("fields", [
    # Bands above the Nyquist frequency have no bins, and their errors
    # would read 0 dB, a pass.
    {"sample_rate": 8000},
    # An empty grid, on which band_grid() raised an IndexError.
    {"band_min": 9000.0},
    {"band_min": 1000.0, "band_max": 1000.0},
    {"sample_rate": 16000, "band_max": 8001.0},
])
def test_config_rejects_bands_the_rate_cannot_measure(fields):
    with pytest.raises(ValueError, match="band_min < band_max <= "
                                         "sample_rate / 2"):
        SweepConfig.desk_scale(**fields)


@pytest.mark.parametrize("band_min, band_max", [
    (1010.0, 1200.0), (101.0, 120.0), (17000.0, 19000.0)])
def test_config_rejects_a_band_range_without_a_centre(band_min, band_max):
    """A range that holds no third-octave centre fails when the config is
    made, naming both bounds, not in `band_grid()` with an IndexError."""
    message = f"no third-octave centre in {band_min:g}-{band_max:g} Hz"
    with pytest.raises(ValueError, match=message):
        make_third_octave_grid(band_min, band_max)
    with pytest.raises(ValueError, match=message):
        SweepConfig.desk_scale(band_min=band_min, band_max=band_max)


@pytest.mark.parametrize("key, value, message", [
    # No noise stem to calibrate the SNR against, or an IndexError at -1.
    ("n_noise_sources", 0, "n_noise_sources must be at least 1, not 0"),
    ("n_noise_sources", -1, "n_noise_sources must be at least 1, not -1"),
    # An FFT of 0 points, or of none.
    ("scene_duration", 0.0, "scene_duration must be positive, not 0"),
    ("scene_duration", -2.0, "scene_duration must be positive, not -2"),
    ("scene_duration", float("nan"), "scene_duration must be positive"),
    # An empty probe, whose band span raised an IndexError.
    ("pattern_probe_duration", 0.0,
     "pattern_probe_duration must be positive, not 0"),
    ("pattern_probe_duration", -0.5,
     "pattern_probe_duration must be positive, not -0.5"),
])
def test_config_rejects_what_only_a_worker_would_fail_on(key, value,
                                                         message):
    """A value that can only fail deep inside a unit fails when the config
    is made, naming the field."""
    with pytest.raises(ValueError, match=message):
        SweepConfig.desk_scale(**{key: value})


def test_config_poses_are_lateral_offsets():
    assert SweepConfig(pose_offsets=(0.0, 0.5)).poses() == [
        Position2D(0.0, 0.0), Position2D(0.0, 0.5)]


def test_saved_hrir_set_at_another_rate_rejected(tmp_path):
    """A 16 kHz set would be rendered as a 16 kHz buffer under signals
    generated at the sweep's 48 kHz."""
    save_hrir_set(synth_sphere_hrir(azimuth_grid=np.arange(0.0, 360.0, 90.0),
                                    sample_rate=16000, ir_length=256),
                  tmp_path / "set")
    config = SweepConfig.desk_scale(hrir_source=str(tmp_path / "set"))
    with pytest.raises(ValueError, match="16000 Hz, sweep at 48000 Hz"):
        run_sweep(config, workers=1)
    config = SweepConfig.desk_scale(hrir_source=str(tmp_path / "set"),
                                    sample_rate=16000)
    assert harness._load_hrirs(config).sample_rate == 16000


def test_config_presets(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("preset: desk\nseed: 9\n")
    config = SweepConfig.from_yaml(path)
    assert config.speaker_counts == (4, 8, 12, 24)
    assert config.scene_duration == 2.0
    assert config.seed == 9
    path.write_text("preset: nope\n")
    with pytest.raises(ValueError, match="preset"):
        SweepConfig.from_yaml(path)


def test_config_hash_sensitivity():
    a = SweepConfig()
    b = SweepConfig(seed=a.seed + 1)
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() == SweepConfig().config_hash()
    assert len(a.config_hash()) == 16
    # Where a sweep is written is not part of what it computes.
    moved = SweepConfig(output_dir="elsewhere")
    assert moved.config_hash() == a.config_hash()
    assert (SweepConfig(output_dir="elsewhere", seed=a.seed + 1).config_hash()
            == b.config_hash())
    assert "output_dir: elsewhere" in moved.to_yaml()


def test_criterion_table_defaults():
    assert criterion("beam") == 5.7
    assert criterion("snr", "beamformer") == 0.75
    assert criterion("snr", "adm") == 0.42
    assert criterion("snr", "coherence_nr") == 0.42
    assert criterion("snr", "single_nr") == 0.65
    with pytest.raises(KeyError):
        criterion("ple")
    with pytest.raises(KeyError):
        criterion("spectral")


def test_algorithm_and_criterion_tables_name_the_same_algorithms():
    """Each algorithm is registered under the name its class declares, and
    SNR has a criterion for exactly the registered algorithms."""
    assert set(harness.SNR_CRITERION_DB) == set(harness.ALGORITHM_NAMES)
    for name, cls in harness.ALGORITHMS.items():
        assert cls.name == name


# ---------------------------------------------------------------------------
# Contours, bandwidth, aliasing


def _surface(values, counts=(4, 8), metric="beam"):
    values = np.asarray(values, dtype=float)
    grid = make_third_octave_grid(100.0, 8000.0)
    centers = grid.centers[:values.shape[1]]
    return ErrorSurface(metric=metric, method="nsp", pose_offset=0.0,
                        algorithm=None, speaker_counts=tuple(counts),
                        band_centers=centers, values=values)


def test_aliasing_overlay_examples():
    config = SweepConfig.desk_scale()
    f_center = aliasing_overlay(config, 0.0)
    # f = c (N-1) / (4 pi r) with the head radius as listening radius.
    assert f_center[-1] == pytest.approx(343.0 * 23 / (4 * np.pi * 0.0875),
                                         rel=1e-9)
    assert np.all(np.diff(f_center) > 0)
    f_off = aliasing_overlay(config, 0.5)
    assert np.all(f_off < f_center)
    assert f_off[-1] == pytest.approx(343.0 * 23 / (4 * np.pi * 0.5875),
                                      rel=1e-9)


def test_contour_extract_log_interpolation():
    surf = _surface(np.array([[0.0, 0.0, 10.0, 10.0],
                              [0.0, 0.0, 0.0, 0.0]]))
    pts = contour_extract(surf, 5.0)
    # Only the first count crosses; halfway in value = geometric mean in f.
    assert len(pts) == 1
    count, f = pts[0]
    assert count == 4
    assert f == pytest.approx(np.sqrt(surf.band_centers[1]
                                      * surf.band_centers[2]), rel=1e-9)


def test_contour_extract_edge_cases():
    surf = _surface(np.array([[10.0, 0.0], [0.0, 0.0]]))
    pts = contour_extract(surf, 5.0)
    assert pts == [(4, pytest.approx(surf.band_centers[0]))]
    assert contour_extract(_surface(np.zeros((2, 4))), 5.0) == []
    scalar = ErrorSurface(metric="ple", method="nsp", pose_offset=0.0,
                          algorithm=None, speaker_counts=(4,),
                          band_centers=None, values=np.array([1.0]))
    with pytest.raises(ValueError):
        contour_extract(scalar, 5.0)


def test_usable_bandwidth():
    surf = _surface(np.array([[1.0, 1.0, 9.0, 1.0],
                              [9.0, 9.0, 9.0, 9.0],
                              [1.0, 1.0, 1.0, 1.0],
                              [np.nan] * 4]), counts=(4, 8, 12, 24))
    bw = usable_bandwidth(surf, 5.0)
    assert bw[4] == pytest.approx(surf.band_centers[1])
    assert bw[8] == 0.0
    assert bw[12] == pytest.approx(surf.band_centers[-1])
    # A row with no finite value was not measured; it has no bandwidth.
    assert np.isnan(bw[24])


def criterion_match_count(surface, threshold):
    return int(np.sum((surface.values <= threshold)
                      & np.isfinite(surface.values)))


def calibrate_threshold(surface, aliasing_fmax):
    """Threshold whose criterion-match count equals the number of grid
    points below the aliasing limit (the threshold-setting rule used for
    the published criteria)."""
    below = np.sum(surface.band_centers[None, :] <= aliasing_fmax[:, None])
    vals = np.sort(surface.values[np.isfinite(surface.values)].ravel())
    if below <= 0:
        return float(vals[0]) - 1.0 if len(vals) else 0.0
    below = min(int(below), len(vals))
    return float(vals[below - 1])


def test_criterion_match_count_and_calibration():
    rng = np.random.default_rng(3)
    surf = _surface(rng.uniform(0.0, 10.0, size=(2, 20)))
    fmax = np.array([300.0, 1000.0])
    below = int(np.sum(surf.band_centers[None, :] <= fmax[:, None]))
    thr = calibrate_threshold(surf, fmax)
    # The calibrated threshold admits exactly the below-aliasing point count
    # (values are continuous, so ties have probability zero).
    assert criterion_match_count(surf, thr) == below


# ---------------------------------------------------------------------------
# Sweep execution, serialization, reporting


QUICK = SweepConfig.desk_scale(
    speaker_counts=(8,), pose_offsets=(0.0,), methods=("nsp",),
    algorithms=("single_nr",), metrics=("snr",), input_snrs=(0.0,),
    scene_duration=0.5, n_noise_sources=3)


@pytest.fixture(scope="module")
def quick_result(hrir_set):
    return run_sweep(QUICK, hrir_set=hrir_set)


def test_run_sweep_quick_cell(quick_result):
    assert quick_result.failures == []
    assert quick_result.config_hash == QUICK.config_hash()
    surf = quick_result.surface("snr", "nsp", 0.0, "single_nr")
    assert surf.values.shape == (1, 20)
    assert np.isfinite(surf.values).any()
    with pytest.raises(KeyError):
        quick_result.surface("beam", "nsp", 0.0)


def test_csv_round_trip(quick_result, tmp_path):
    path = tmp_path / "surfaces.csv"
    write_surfaces_csv(quick_result, path)
    loaded = load_surfaces_csv(path)
    assert loaded.config_hash == quick_result.config_hash
    orig = quick_result.surface("snr", "nsp", 0.0, "single_nr")
    back = loaded.surface("snr", "nsp", 0.0, "single_nr")
    assert back.speaker_counts == orig.speaker_counts
    assert np.allclose(back.band_centers, orig.band_centers, rtol=1e-5)
    assert np.allclose(back.values, orig.values, rtol=1e-9, equal_nan=True)


def test_load_rejects_foreign_csv(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_surfaces_csv(path)


def test_manifest(quick_result, tmp_path):
    path = tmp_path / "manifest.yaml"
    write_manifest(quick_result, path)
    data = yaml.safe_load(path.read_text())
    assert data["config_hash"] == quick_result.config_hash
    assert data["config"]["speaker_counts"] == [8]
    assert data["failures"] == []
    assert data["ple_cells"] == []


def test_report_contents(quick_result):
    text = report(quick_result)
    assert quick_result.config_hash in text
    assert "snr/single_nr nsp" in text
    assert "N=  8" in text
    # A failed cell's all-NaN row reads apart from a row that fails the
    # criterion from its lowest band on.
    surf = _surface([[9.0, 9.0], [np.nan, np.nan]])
    lines = report(SweepResult(config=None, surfaces=[surf], failures=[],
                               config_hash="deadbeef")).splitlines()
    assert lines[-2:] == ["  N=  4: usable to none", "  N=  8: not measured"]


def test_report_empty():
    empty = SweepResult(config=None, surfaces=[], failures=[],
                        config_hash="deadbeef")
    assert "no surfaces computed" in report(empty)


def _small_ple(monkeypatch):
    """Three PLE targets and a short-probe cue lookup from -60 to 60
    degrees; returns the targets."""
    targets = np.array([-30.0, 0.0, 30.0])
    monkeypatch.setattr(harness, "PLE_TARGET_AZIMUTHS", targets)
    real_lookup = harness.build_cue_lookup
    monkeypatch.setattr(
        harness, "build_cue_lookup",
        lambda hs, seed, map: real_lookup(
            hs, probe_duration=0.2, seed=seed,
            azimuths=np.arange(-60.0, 61.0, 15.0), map=map))
    return targets


def _measure(sweep, method, count, pose):
    """The units of every metric group of one cell (`method=None`: of the
    pose's reference), merged as `run_sweep` merges them."""
    out = {}
    for group in sweep.group_channels:
        out.update(sweep.unit(group, method, count, pose))
    return out


# One PLE cell at the centre; with _small_ple, a quick PLE sweep.
PLE_QUICK = SweepConfig.desk_scale(
    speaker_counts=(8,), pose_offsets=(0.0,), methods=("nsp",),
    metrics=("ple",))


def test_ple_cells_recorded_per_direction(hrir_set, monkeypatch):
    targets = _small_ple(monkeypatch)
    result = run_sweep(PLE_QUICK, hrir_set=hrir_set)
    assert result.failures == []
    ple = result.ple_cells[("nsp", 8, 0.0)]
    assert ple.errors.shape == targets.shape
    good = ple.errors[np.isfinite(ple.errors)]
    assert result.surface("ple", "nsp", 0.0).values[0] == pytest.approx(
        np.sqrt(np.mean(good ** 2)))


def test_missing_estimate_drops_its_direction(hrir_set, monkeypatch):
    """A target whose test rendering gives no estimate is a NaN error: the
    cell counts it as dropped and its PLE is the RMS of the others."""
    targets = _small_ple(monkeypatch)
    real_localize = harness.localize
    calls = []

    def localize_missing_the_last_test(buf, lookup):
        calls.append(None)
        # The reference unit localizes the targets first, then the cell.
        if len(calls) == 2 * len(targets):
            return localization.LocalizationEstimate(None, 0)
        return real_localize(buf, lookup)

    monkeypatch.setattr(harness, "localize", localize_missing_the_last_test)
    result = run_sweep(PLE_QUICK, hrir_set=hrir_set, workers=1)
    assert result.failures == []
    ple = result.ple_cells[("nsp", 8, 0.0)]
    assert ple.dropped == 1
    assert np.isnan(ple.errors[-1])
    others = ple.errors[:-1]
    assert np.all(np.isfinite(others))
    assert result.surface("ple", "nsp", 0.0).values[0] == pytest.approx(
        np.sqrt(np.mean(others ** 2)))


def test_algorithms_run_at_the_sweep_sample_rate():
    config = SweepConfig.desk_scale(sample_rate=16000, metrics=("beam", "snr"),
                                    scene_duration=0.5, n_noise_sources=3)
    hrir_set = harness._load_hrirs(config)
    assert hrir_set.sample_rate == 16000
    sweep = harness._Sweep(config, hrir_set)
    assert sweep.failures == []
    assert set(sweep.algorithms) == set(harness.ALGORITHM_NAMES)
    for algorithm in (*sweep.algorithms.values(), sweep.pattern_algorithm):
        assert algorithm.stft.sample_rate == 16000


def test_one_bank_per_cell_equals_a_bank_per_metric(hrir_set, monkeypatch):
    """Each metric group's unit of a cell renders through one bank over the
    group's channels; its raw measurements equal those of banks built for
    each metric's own channels. The reference's units equal those measured
    directly in free field: the probe ring's pattern, the SNR of
    `render_reference` stems and the localization and excitation patterns
    of the free-field probe renders."""
    _small_ple(monkeypatch)
    config = SweepConfig.desk_scale(
        speaker_counts=(6,), pose_offsets=(0.5,), methods=("vbap",),
        algorithms=("adm", "single_nr"), input_snrs=(-5.0, 5.0),
        scene_duration=0.5, n_noise_sources=3, pattern_probe_duration=0.1)
    pose = config.poses()[0]
    grid = config.band_grid()
    sweep = harness._Sweep(config, hrir_set)
    core = sweep.pattern_algorithm
    ref = _measure(sweep, None, None, 0.5)
    built = []
    real_init = harness.ReceiverBank.__init__

    def counting_init(self, array, hs, ps, channels):
        built.append(tuple(channels))
        real_init(self, array, hs, ps, channels)

    with monkeypatch.context() as patch:
        patch.setattr(harness.ReceiverBank, "__init__", counting_init)
        test = _measure(sweep, "vbap", 6, 0.5)
    assert list(sweep.group_channels) == ["snr", "beam", "probes"]
    assert built == list(sweep.group_channels.values())
    assert set(test) == set(ref) == set(harness._surface_keys(config))

    method = harness.ReproductionMethod.VBAP
    array = harness.build_array(6, radius=config.array_radius)
    pattern = harness.beam_pattern(
        core, method, ReceiverBank(array, hrir_set, pose, core.channels),
        grid, probe_duration=config.pattern_probe_duration, seed=config.seed)
    assert np.array_equal(test["beam", None], pattern)
    ring = harness.build_array(len(harness.PATTERN_AZIMUTHS),
                               radius=hrir_set.distance)
    free_field = harness.beam_pattern(
        core, harness.ReproductionMethod.NSP,
        ReceiverBank(ring, hrir_set, pose, core.channels), grid,
        probe_duration=config.pattern_probe_duration, seed=config.seed)
    assert np.array_equal(ref["beam", None], free_field)
    # The stems hold the channels of the ADM and the single-channel NR and
    # the calibration channel, in set order.
    snr_channels = (CALIBRATION_CHANNEL, "ha_L_front", "ha_L_rear")
    assert sweep.group_channels["snr"] == snr_channels
    snr_bank = ReceiverBank(array, hrir_set, pose, snr_channels)
    renders = {
        "cell": (test, functools.partial(render_source, method, snr_bank)),
        "reference": (ref, functools.partial(
            harness.render_reference, hrir_set=hrir_set, listener=pose,
            channels=snr_channels)),
    }
    for unit, (measured, render) in renders.items():
        stems = harness.render_scene_stems(sweep.scene, render, snr_channels)
        for name, alg in sweep.algorithms.items():
            delta = harness.snr_improvement(alg, stems, grid,
                                            input_snrs=config.input_snrs)
            assert np.array_equal(measured["snr", name], delta,
                                  equal_nan=True), (unit, name)
    ear_bank = ReceiverBank(array, hrir_set, pose, CHANNELS_LOCALIZATION)
    azimuths = {"cell": [], "reference": []}
    patterns = {"cell": [], "reference": []}
    for az in harness.PLE_TARGET_AZIMUTHS:
        src = VirtualSource(sweep.probe,
                            Position2D.from_polar(az, config.array_radius))
        ref_buf = harness.render_reference(src, hrir_set, pose,
                                           CHANNELS_LOCALIZATION)
        buf = render_source(method, ear_bank, src)
        for unit, rendered in (("cell", buf), ("reference", ref_buf)):
            azimuths[unit].append(
                harness.localize(rendered, sweep.lookup).fine_azimuth)
            patterns[unit].append(harness.excitation_pattern(
                rendered.samples[0], rendered.sample_rate))
    for unit, (measured, _) in renders.items():
        assert np.array_equal(measured["ple", None],
                              np.array(azimuths[unit], dtype=float),
                              equal_nan=True), unit
        assert np.array_equal(measured["spectral", None],
                              np.array(patterns[unit])), unit


BTE = CHANNELS_BEAMFORMER


@pytest.mark.parametrize("metric, algorithms, channels", [
    ("beam", harness.ALGORITHM_NAMES, BTE),
    ("snr", harness.ALGORITHM_NAMES, ("in_ear_L",) + BTE),
    ("snr", ("adm",), ("in_ear_L", "ha_L_front", "ha_L_rear")),
    ("snr", ("coherence_nr",), ("in_ear_L", "ha_L_front", "ha_R_front")),
    ("snr", ("single_nr",), ("in_ear_L", "ha_L_front")),
    ("ple", harness.ALGORITHM_NAMES, CHANNELS_LOCALIZATION),
    ("spectral", harness.ALGORITHM_NAMES, ("in_ear_L",)),
])
def test_receiver_channels_per_metric(metric, algorithms, channels):
    config = SweepConfig(metrics=(metric,), algorithms=algorithms)
    assert harness.receiver_channels(config) == channels


def test_receiver_channels_of_a_metric_mix():
    """The union of the metrics' channels, in set order; the algorithms
    count only where SNR is measured."""
    mixed = SweepConfig(metrics=("beam", "snr", "spectral"))
    assert harness.receiver_channels(mixed) == ("in_ear_L",) + BTE
    ear = SweepConfig(metrics=("ple", "spectral"), algorithms=("adm",))
    assert harness.receiver_channels(ear) == CHANNELS_LOCALIZATION
    assert harness.receiver_channels(SweepConfig()) == CHANNELS


@pytest.mark.parametrize("metrics, groups", [
    (("beam",), {"beam": BTE}),
    (("snr",), {"snr": ("in_ear_L",) + BTE}),
    (("ple",), {"probes": CHANNELS_LOCALIZATION}),
    (("spectral",), {"probes": ("in_ear_L",)}),
    (("ple", "spectral"), {"probes": CHANNELS_LOCALIZATION}),
    (("beam", "snr", "spectral"), {"snr": ("in_ear_L",) + BTE, "beam": BTE,
                                   "probes": ("in_ear_L",)}),
    (("spectral", "snr", "beam"), {"snr": ("in_ear_L",) + BTE, "beam": BTE,
                                   "probes": ("in_ear_L",)}),
])
def test_group_channels_follow_the_metric_table(hrir_set, mvdr_design,
                                                monkeypatch, metrics, groups):
    """A sweep's metric groups and the channels each renders, in the order
    their units are handed out (SNR, beam, probes) whatever the order of
    the configured metrics."""
    monkeypatch.setattr(harness, "design_mvdr", lambda hs: mvdr_design)
    monkeypatch.setattr(harness, "build_cue_lookup",
                        lambda hs, seed, map: object())
    monkeypatch.setattr(harness, "make_default_scene",
                        lambda *args, **kwargs: object())
    sweep = harness._Sweep(SweepConfig.desk_scale(metrics=metrics), hrir_set)
    assert list(sweep.group_channels.items()) == list(groups.items())


@pytest.mark.parametrize("metrics", [("beam",), ("snr", "spectral"),
                                     ("ple", "spectral")])
def test_restricted_set_measures_like_the_full_set(hrir_set, monkeypatch,
                                                   metrics):
    """A sweep's HRIR set holds only the channels its metrics read; each
    unit's raw measurements equal those from the full 8-channel set, a
    free-field probe render over the restricted set's probe channels
    equals the rows of a render over both ears, and spectral distance
    reads `in_ear_L` whatever else is rendered."""
    _small_ple(monkeypatch)
    config = SweepConfig.desk_scale(
        speaker_counts=(6,), pose_offsets=(0.5,), methods=("vbap",),
        algorithms=("adm", "single_nr"), metrics=metrics,
        input_snrs=(-5.0, 5.0), scene_duration=0.5, n_noise_sources=3,
        pattern_probe_duration=0.1)
    restricted = hrir_set.select(harness.receiver_channels(config))
    assert len(restricted.channels) < len(hrir_set.channels)
    full, sweep = (harness._Sweep(config, hs) for hs in (hrir_set, restricted))
    for unit in ((None, None, 0.5), ("vbap", 6, 0.5)):
        want, got = _measure(full, *unit), _measure(sweep, *unit)
        assert list(got) == list(want) != []
        for key, value in want.items():
            assert np.array_equal(got[key], value, equal_nan=True), key
    pose = config.poses()[0]
    left = ReceiverBank(harness.build_array(6, radius=config.array_radius),
                        hrir_set, pose, ("in_ear_L",))
    probe_channels = sweep.group_channels.get("probes", ())
    rows = [CHANNELS_LOCALIZATION.index(c) for c in probe_channels]
    patterns = []
    for az in harness.PLE_TARGET_AZIMUTHS if probe_channels else ():
        src = VirtualSource(sweep.probe,
                            Position2D.from_polar(az, config.array_radius))
        ref = harness.render_reference(src, restricted, pose,
                                       probe_channels)
        ears = harness.render_reference(src, hrir_set, pose,
                                        CHANNELS_LOCALIZATION)
        assert np.array_equal(ref.samples, ears.samples[rows])
        test = render_source(harness.ReproductionMethod.VBAP, left, src)
        patterns.append(harness.excitation_pattern(test.samples[0],
                                                   config.sample_rate))
    if "spectral" in metrics:
        assert np.array_equal(got["spectral", None], np.array(patterns))


@pytest.mark.parametrize("metrics", [
    ("beam",), ("snr",), ("ple",), ("spectral",), ("ple", "spectral"),
    ("beam", "snr", "spectral")])
def test_load_hrirs_makes_no_set_beyond_the_read_channels(monkeypatch,
                                                          metrics):
    """A sphere-model sweep that reads fewer than eight channels never
    holds an 8-channel set: the only set made is over its read channels."""
    made = []
    real_post_init = HrirSet.__post_init__

    def recording_post_init(self):
        made.append((self.channels, self.irs.shape[1]))
        real_post_init(self)

    monkeypatch.setattr(HrirSet, "__post_init__", recording_post_init)
    config = SweepConfig.desk_scale(metrics=metrics)
    channels = harness.receiver_channels(config)
    assert len(channels) < len(CHANNELS)
    assert harness._load_hrirs(config).channels == channels
    assert made == [(channels, len(channels))]


def test_saved_set_without_a_read_channel_fails_at_load(tmp_path):
    """A saved set must hold every channel the configured metrics read;
    one that lacks some fails at load, naming them and the directory."""
    path = tmp_path / "in_ear_only"
    save_hrir_set(synth_sphere_hrir(azimuth_grid=np.arange(0.0, 360.0, 90.0),
                                    ir_length=256)
                  .select(CHANNELS_LOCALIZATION), path)
    config = SweepConfig.desk_scale(hrir_source=str(path), metrics=("beam",))
    with pytest.raises(HrirLoadError) as raised:
        run_sweep(config, workers=1)
    message = str(raised.value)
    assert str(list(BTE)) in message and str(path) in message
    ple = SweepConfig.desk_scale(hrir_source=str(path), metrics=("ple",))
    assert harness._load_hrirs(ple).channels == CHANNELS_LOCALIZATION


def test_building_a_sweep_renders_no_free_field(hrir_set, monkeypatch):
    """The set-up holds no rendered audio: building a sweep of every
    metric over two poses renders no free-field probe."""
    _small_ple(monkeypatch)
    calls = []
    monkeypatch.setattr(harness, "render_reference",
                        lambda *args, **kwargs: calls.append(args))
    sweep = harness._Sweep(POOL_GRID, hrir_set)
    assert calls == []
    assert sweep.lookup is not None and sweep.scene is not None


@pytest.mark.parametrize("metrics, reference, cell", [
    (("ple", "spectral"), [CHANNELS_LOCALIZATION], []),
    (("ple",), [CHANNELS_LOCALIZATION], []),
    (("spectral",), [("in_ear_L",)], []),
])
def test_units_render_their_free_field_probes(hrir_set, monkeypatch,
                                              metrics, reference, cell):
    """The reference renders each target's free-field probe once, over the
    channels PLE and spectral distance read (`probe_channels`), as a cell
    renders its test probes; a cell renders no free field."""
    targets = _small_ple(monkeypatch)
    real_render = harness.render_reference
    rendered = []

    def recording_render(source, hrir_set, listener, channels):
        rendered.append(tuple(channels))
        return real_render(source, hrir_set, listener, channels)

    monkeypatch.setattr(harness, "render_reference", recording_render)
    config = SweepConfig.desk_scale(
        speaker_counts=(6,), pose_offsets=(0.5,), methods=("vbap",),
        metrics=metrics)
    sweep = harness._Sweep(config, hrir_set.select(
        harness.receiver_channels(config)))
    assert [sweep.group_channels.get("probes", ())] == reference
    for unit, channels in (((None, None, 0.5), reference),
                           (("vbap", 6, 0.5), cell)):
        rendered.clear()
        _measure(sweep, *unit)
        assert rendered == channels * len(targets), unit


@pytest.mark.parametrize("pose_offset", [0.0, 0.5])
def test_spectral_distance_equals_the_level_matched_pair_formula(
        hrir_set, monkeypatch, pose_offset):
    """The distance the parent forms from the units' excitation patterns
    is the mean over targets of the formula that compared each target's
    free-field and test renders as a pair (cut to their common length, the
    test level-matched to the free field, one joint excitation), to 1e-12
    relative, for every method on and off centre. No target lies on a
    speaker, where NSP's distance is round-off."""
    targets = np.array([-35.0, 10.0, 55.0])
    monkeypatch.setattr(harness, "PLE_TARGET_AZIMUTHS", targets)
    config = SweepConfig.desk_scale(
        speaker_counts=(12,), pose_offsets=(pose_offset,),
        metrics=("spectral",))
    sweep = harness._Sweep(config, hrir_set.select(
        harness.receiver_channels(config)))
    pose = config.poses()[0]
    left = ReceiverBank(harness.build_array(12, radius=config.array_radius),
                        hrir_set, pose, ("in_ear_L",))
    ref = sweep.unit("probes", None, None, pose_offset)["spectral", None]
    assert ref.shape[0] == len(targets)
    for method in config.methods:
        test = sweep.unit("probes", method, 12, pose_offset)["spectral", None]
        distances = []
        for az in targets:
            src = VirtualSource(sweep.probe,
                                Position2D.from_polar(az, config.array_radius))
            free = harness.render_reference(src, hrir_set, pose,
                                            ("in_ear_L",))
            cell = render_source(harness.ReproductionMethod(method), left,
                                 src)
            distances.append(spectral_distance_of_pair(
                free.samples[0], cell.samples[0], config.sample_rate))
        want = float(np.mean(distances))
        assert want > 1e-4
        assert harness._METRICS["spectral"].error(ref, test) == pytest.approx(
            want, rel=1e-12, abs=0.0), method


def test_design_error_is_recorded_not_fatal(hrir_set, monkeypatch):
    def ill_conditioned(hs):
        raise DesignError("diffuse covariance ill-conditioned: max cond 1e+20")

    monkeypatch.setattr(harness, "design_mvdr", ill_conditioned)
    config = SweepConfig.desk_scale(
        speaker_counts=(8,), pose_offsets=(0.0,), methods=("nsp",),
        algorithms=("beamformer", "single_nr"), metrics=("beam", "snr"),
        input_snrs=(0.0,), scene_duration=0.5, n_noise_sources=3)
    result = run_sweep(config, hrir_set=hrir_set)
    assert len(result.failures) == 1
    cell, msg = result.failures[0]
    assert "ill-conditioned" in msg.splitlines()[-1]
    assert "ill-conditioned" in report(result)
    assert np.isfinite(
        result.surface("snr", "nsp", 0.0, "single_nr").values).any()
    assert np.isnan(result.surface("snr", "nsp", 0.0, "beamformer").values).all()
    assert np.isnan(result.surface("beam", "nsp", 0.0).values).all()


def test_surfaces_are_fixed_by_the_config(hrir_set, monkeypatch):
    """Which surfaces a sweep gives depends on its config alone: when every
    cell fails, each surface is still there and reads NaN."""
    _small_ple(monkeypatch)

    def no_array(count, radius):
        raise RuntimeError("no array")

    monkeypatch.setattr(harness, "build_array", no_array)
    config = SweepConfig.desk_scale(
        speaker_counts=(4, 8), pose_offsets=(0.0,), methods=("nsp", "hoa"),
        algorithms=("adm", "single_nr"), metrics=("snr", "ple", "spectral"),
        input_snrs=(0.0,), scene_duration=0.5, n_noise_sources=3)
    result = run_sweep(config, hrir_set=hrir_set, workers=1)
    assert [cell for cell, _ in result.failures] == [
        (method, count, 0.0) for method in config.methods
        for count in config.speaker_counts]
    keys = harness._surface_keys(config)
    assert keys == [("snr", "adm"), ("snr", "single_nr"), ("ple", None),
                    ("spectral", None)]
    assert len(result.surfaces) == len(keys) * len(config.methods)
    for method in config.methods:
        for metric, algorithm in keys:
            values = result.surface(metric, method, 0.0, algorithm).values
            assert len(values) == len(config.speaker_counts)
            assert np.isnan(values).all()
    assert result.ple_cells == {}


def test_sweep_without_a_beamformer_designs_none(hrir_set, monkeypatch):
    def no_design(hs):
        raise DesignError("designed for nothing")

    monkeypatch.setattr(harness, "design_mvdr", no_design)
    _small_ple(monkeypatch)
    config = SweepConfig.desk_scale(
        speaker_counts=(8,), pose_offsets=(0.0,), methods=("nsp",),
        metrics=("ple", "spectral"))
    result = run_sweep(config, hrir_set=hrir_set, workers=1)
    assert result.failures == []
    assert np.isfinite(result.surface("spectral", "nsp", 0.0).values).all()


# Two poses x two methods x two counts, every metric, short scenes.
POOL_GRID = SweepConfig.desk_scale(
    speaker_counts=(4, 8), pose_offsets=(0.0, 0.5), methods=("nsp", "hoa"),
    algorithms=("adm", "single_nr"), metrics=harness.METRIC_NAMES,
    input_snrs=(-5.0, 5.0), scene_duration=0.5, n_noise_sources=3,
    pattern_probe_duration=0.1)


@pytest.fixture(scope="module")
def pool_runs(hrir_set, tmp_path_factory):
    """POOL_GRID in this process and on two and three workers: the result,
    the surfaces.csv bytes and the cells passed to `progress`, by worker
    count."""
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        _small_ple(mp)
        for workers in (1, 2, 3):
            cells = []
            result = run_sweep(POOL_GRID, hrir_set=hrir_set,
                               progress=cells.append, workers=workers)
            path = tmp_path_factory.mktemp(f"workers{workers}") / "out.csv"
            write_surfaces_csv(result, path)
            runs[workers] = (result, path.read_bytes(), cells)
    return runs


def test_pool_gives_the_surfaces_of_one_process(pool_runs):
    (serial, serial_csv, _), (pooled, pooled_csv, _) = (pool_runs[1],
                                                        pool_runs[2])
    assert serial.failures == [] and pooled.failures == []
    assert pooled_csv == serial_csv
    assert pool_runs[3][0].failures == [] and pool_runs[3][1] == serial_csv
    for metric in harness.METRIC_NAMES:
        assert np.isfinite(serial.surface(metric, "hoa", 0.5, None if metric
                                          != "snr" else "adm").values).any()
    assert serial.ple_cells.keys() == pooled.ple_cells.keys()
    assert len(serial.ple_cells) == 8
    for cell, ple in serial.ple_cells.items():
        assert np.array_equal(ple.errors, pooled.ple_cells[cell].errors,
                              equal_nan=True)


def test_progress_once_per_cell_in_grid_order(pool_runs):
    grid_order = [(method, count, pose)
                  for pose in POOL_GRID.pose_offsets
                  for method in POOL_GRID.methods
                  for count in POOL_GRID.speaker_counts]
    assert pool_runs[1][2] == grid_order
    assert pool_runs[2][2] == grid_order


def test_reference_and_cells_measure_the_same_keys(hrir_set, monkeypatch):
    """Every metric is a raw measurement of one metric group: each group's
    unit of the reference of each pose and of every cell returns the same
    (metric, algorithm) keys, and the union over a unit's groups is the
    keys of the surfaces, each from one group."""
    _small_ple(monkeypatch)
    sweep = harness._Sweep(POOL_GRID, hrir_set)
    keys = harness._surface_keys(POOL_GRID)
    assert ("spectral", None) in keys
    for pose in POOL_GRID.pose_offsets:
        ref = [list(sweep.unit(group, None, None, pose))
               for group in sweep.group_channels]
        merged = [key for group_keys in ref for key in group_keys]
        assert len(merged) == len(keys) and set(merged) == set(keys), pose
        for method in POOL_GRID.methods:
            for count in POOL_GRID.speaker_counts:
                assert [list(sweep.unit(group, method, count, pose))
                        for group in sweep.group_channels] == ref


def test_cell_failure_in_a_worker_is_recorded(hrir_set, monkeypatch):
    targets = _small_ple(monkeypatch)
    real_build_array = harness.build_array

    def failing_build_array(count, radius):
        if count == 8:
            raise RuntimeError(f"no array in process {os.getpid()}")
        return real_build_array(count, radius=radius)

    monkeypatch.setattr(harness, "build_array", failing_build_array)
    config = SweepConfig.desk_scale(
        speaker_counts=(4, 8, 12), pose_offsets=(0.0,), methods=("nsp",),
        metrics=("spectral",))
    result = run_sweep(config, hrir_set=hrir_set, workers=2)
    assert [cell for cell, _ in result.failures] == [("nsp", 8, 0.0)]
    message = result.failures[0][1].splitlines()[-1]
    assert message.startswith("RuntimeError: no array in process ")
    assert int(message.split()[-1]) != os.getpid()
    values = result.surface("spectral", "nsp", 0.0).values
    assert len(targets) == 3
    assert np.isfinite(values[[0, 2]]).all() and np.isnan(values[1])


@pytest.mark.parametrize("group, channels", [
    ("snr", (CALIBRATION_CHANNEL, "ha_L_front", "ha_L_rear")),
    ("beam", BTE),
    ("probes", CHANNELS_LOCALIZATION),
])
def test_cell_failing_in_one_group_fails_all_its_surfaces(
        hrir_set, monkeypatch, group, channels):
    """A cell whose unit of one metric group raises in a worker is recorded
    once in `failures`, and every surface of it stays NaN, also those of
    its groups that measured; the other cell measures all of them."""
    _small_ple(monkeypatch)
    real_bank = harness.ReceiverBank

    def failing_bank(array, hs, listener, bank_channels):
        if array.count == 8 and tuple(bank_channels) == channels:
            raise RuntimeError(f"no {group} bank in process {os.getpid()}")
        return real_bank(array, hs, listener, bank_channels)

    monkeypatch.setattr(harness, "ReceiverBank", failing_bank)
    config = SweepConfig.desk_scale(
        speaker_counts=(4, 8), pose_offsets=(0.5,), methods=("nsp",),
        algorithms=("adm", "single_nr"), metrics=harness.METRIC_NAMES,
        input_snrs=(-5.0, 5.0), scene_duration=0.5, n_noise_sources=3,
        pattern_probe_duration=0.1)
    result = run_sweep(config, hrir_set=hrir_set, workers=2)
    assert [cell for cell, _ in result.failures] == [("nsp", 8, 0.5)]
    message = result.failures[0][1].splitlines()[-1]
    assert message.startswith(f"RuntimeError: no {group} bank in process ")
    assert int(message.split()[-1]) != os.getpid()
    assert len(result.surfaces) == len(harness._surface_keys(config))
    for surface in result.surfaces:
        assert np.isnan(surface.values[1]).all(), surface.key()
        assert np.isfinite(surface.values[0]).any(), surface.key()
    assert list(result.ple_cells) == [("nsp", 4, 0.5)]


# One spectral cell at the centre, no cue lookup: only the reference
# renders free field, its probes.
SPECTRAL_QUICK = SweepConfig.desk_scale(
    speaker_counts=(4,), pose_offsets=(0.0,), methods=("nsp",),
    metrics=("spectral",))


def _setup_calls(monkeypatch, stage, call):
    """With `_small_ple`, makes every call of one stage call `call()`
    first: of the parallel set-up, each cue-lookup probe render or each
    noise synthesis of the scene; in a unit, each free-field probe render
    of the reference of a spectral sweep. Returns a sweep's config that
    runs the stage."""
    _small_ple(monkeypatch)
    owner, name, config = {
        "lookup": (localization, "render_reference", PLE_QUICK),
        "scene": (signals, "cafeteria_noise", QUICK),
        "probes": (harness, "render_reference", SPECTRAL_QUICK),
    }[stage]
    real = getattr(owner, name)

    def stage_call(*args, **kwargs):
        call()
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, stage_call)
    return config


@pytest.mark.parametrize("stage", ["reference", "lookup", "scene", "probes"])
def test_reference_failure_aborts_the_sweep(hrir_set, monkeypatch, stage):
    def failing_setup(*args, **kwargs):
        raise RuntimeError(f"no {stage} in process {os.getpid()}")

    if stage == "reference":
        # An SNR-only sweep renders free field only in its reference unit.
        config = QUICK
        monkeypatch.setattr(harness, "render_reference", failing_setup)
    else:
        config = _setup_calls(monkeypatch, stage, failing_setup)
    with pytest.raises(RuntimeError, match=f"no {stage} in process") as raised:
        run_sweep(config, hrir_set=hrir_set, workers=2)
    assert int(str(raised.value).split()[-1]) != os.getpid()
    assert harness._WORKER_CALL is None


@pytest.mark.parametrize("stage", ["unit", "lookup", "scene", "probes"])
def test_dead_worker_fails_the_sweep(hrir_set, monkeypatch, stage):
    parent = os.getpid()
    real_build_array = harness.build_array

    def die_in_worker():
        if os.getpid() != parent:
            os._exit(1)

    def dying_build_array(count, radius):
        die_in_worker()
        return real_build_array(count, radius=radius)

    if stage == "unit":
        config = QUICK
        monkeypatch.setattr(harness, "build_array", dying_build_array)
    else:
        config = _setup_calls(monkeypatch, stage, die_in_worker)
    with pytest.raises(BrokenProcessPool):
        run_sweep(config, hrir_set=hrir_set, workers=2)
    assert harness._WORKER_CALL is None


def test_scene_on_a_pool_equals_the_serial_scene():
    serial = signals.make_default_scene(0.25, 48000, seed=5)
    pooled = signals.make_default_scene(
        0.25, 48000, seed=5,
        map=functools.partial(harness._pool_map, workers=2))
    sources = [(serial.target, pooled.target),
               *zip(serial.noises, pooled.noises)]
    assert len(sources) == 21 and len(pooled.noises) == 20
    for a, b in sources:
        assert np.array_equal(a.signal, b.signal)
        assert a.position == b.position


def test_ple_sweep_pickles_no_hrir_set(hrir_set, monkeypatch):
    """The pools' workers inherit the HRIR set by fork: a 2-worker PLE
    sweep runs although the set cannot be pickled."""
    _small_ple(monkeypatch)

    def unpicklable(self, protocol):
        raise TypeError("HrirSet pickled")

    monkeypatch.setattr(HrirSet, "__reduce_ex__", unpicklable)
    with pytest.raises(TypeError, match="HrirSet pickled"):
        pickle.dumps(hrir_set)
    result = run_sweep(PLE_QUICK, hrir_set=hrir_set, workers=2)
    assert result.failures == []
    assert np.isfinite(result.surface("ple", "nsp", 0.0).values).all()


def test_workers_below_one_rejected(hrir_set):
    with pytest.raises(ValueError, match="workers"):
        run_sweep(QUICK, hrir_set=hrir_set, workers=0)


def test_default_workers_without_sched_getaffinity(monkeypatch):
    monkeypatch.setattr(harness.multiprocessing, "get_all_start_methods",
                        lambda: ["fork", "spawn"])
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    assert harness._default_workers() == 3
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert harness._default_workers() == 1


def test_default_workers_without_fork(monkeypatch):
    monkeypatch.setattr(harness.multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    assert harness._default_workers() == 1


def test_manifest_records_ple_cells(tmp_path):
    ple = PleCell(errors=np.array([1.5, np.nan, -2.0]))
    result = SweepResult(config=QUICK, surfaces=[], failures=[],
                         config_hash=QUICK.config_hash(),
                         ple_cells={("vbap", 12, 0.5): ple})
    path = tmp_path / "manifest.yaml"
    write_manifest(result, path)
    data = yaml.safe_load(path.read_text())
    assert len(data["ple_target_azimuths_deg"]) == 31
    assert data["ple_cells"] == [{
        "cell": ["vbap", 12, 0.5], "dropped_directions": 1,
        "direction_errors_deg": [1.5, None, -2.0]}]


# ---------------------------------------------------------------------------
# Command line


def test_cli_sweep_contour_report(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "speaker_counts": [8], "pose_offsets": [0.0], "methods": ["nsp"],
        "algorithms": ["single_nr"], "metrics": ["snr"], "input_snrs": [0.0],
        "scene_duration": 0.5, "n_noise_sources": 3,
        "output_dir": str(tmp_path / "out")}))
    assert main(["sweep", "--config", str(cfg), "--quiet"]) == 0
    csv_path = tmp_path / "out" / "surfaces.csv"
    assert csv_path.exists()
    assert (tmp_path / "out" / "manifest.yaml").exists()

    assert main(["contour", str(csv_path), "--metric", "snr",
                 "--algorithm", "single_nr", "--method", "nsp"]) == 0
    out = capsys.readouterr().out
    assert "speaker_count,frequency_hz" in out

    assert main(["report", str(csv_path)]) == 0
    assert "usable to" in capsys.readouterr().out


def test_cli_synth_hrir(tmp_path):
    out = tmp_path / "hrirs"
    assert main(["synth-hrir", str(out), "--step", "90"]) == 0
    from spatsim.hrir import load_hrir_set

    hs = load_hrir_set(out)
    assert len(hs.azimuths) == 4


def test_cli_render(tmp_path):
    wav = tmp_path / "out.wav"
    assert main(["render", str(wav), "--method", "reference",
                 "--duration", "0.2"]) == 0
    from scipy.io import wavfile

    rate, data = wavfile.read(wav)
    assert rate == 48000
    assert data.shape[1] == 2


@pytest.mark.parametrize("args, channels", [
    (["--method", "reference"], CHANNELS_LOCALIZATION),
    (["--method", "vbap", "--count", "12", "--azimuth", "30",
      "--algorithm", "adm"], ("ha_L_front", "ha_L_rear")),
])
def test_cli_render_synthesizes_only_the_rendered_channels(
        tmp_path, monkeypatch, args, channels):
    """`spatsim render` synthesizes only the channels it renders (with an
    algorithm, the algorithm's), and its WAV equals, byte for byte, the one
    rendered from the full 8-channel set."""
    real_synth = cli.synth_sphere_hrir
    synthesized = []

    def recording_synth(**kwargs):
        synthesized.append(tuple(kwargs["channels"]))
        return real_synth(**kwargs)

    wavs = {}
    for name, synth in (("read", recording_synth), ("full", lambda **kwargs:
                        real_synth(distance=kwargs["distance"]))):
        monkeypatch.setattr(cli, "synth_sphere_hrir", synth)
        wavs[name] = tmp_path / f"{name}.wav"
        assert main(["render", str(wavs[name]), "--duration", "0.2",
                     *args]) == 0
    assert synthesized == [channels]
    assert wavs["read"].read_bytes() == wavs["full"].read_bytes()


def test_cli_bad_input_exits_nonzero(tmp_path):
    assert main(["report", str(tmp_path / "missing.csv")]) == 1
    # A misspelt metric is an error, not a sweep with no surfaces.
    bad = tmp_path / "bad.yaml"
    bad.write_text("metrics: [specral]\n")
    assert main(["sweep", "--config", str(bad), "--quiet"]) == 1
    # A config file and a preset are two sources for one configuration.
    with pytest.raises(SystemExit):
        main(["sweep", "--config", str(tmp_path / "grid.yaml"),
              "--preset", "desk"])
