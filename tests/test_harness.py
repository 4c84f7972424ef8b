import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
import yaml

from spatsim.cli import main
from spatsim.haalgo import DesignError
import spatsim.harness as harness
from spatsim.harness import (CriterionTable, ErrorSurface, PleCell,
                             SweepConfig, SweepResult, aliasing_overlay,
                             contour_extract, load_surfaces_csv, report,
                             run_sweep, usable_bandwidth, write_manifest,
                             write_surfaces_csv)
from spatsim.binsim import (CALIBRATION_CHANNEL, ReceiverBank,
                            VirtualSource, render_source)
from spatsim.geometry import Position2D
from spatsim.hrir import CHANNELS_LOCALIZATION
from spatsim.metrics import make_third_octave_grid


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
    t = CriterionTable()
    assert t.threshold("beam") == 5.7
    assert t.threshold("snr", "beamformer") == 0.75
    assert t.threshold("snr", "adm") == 0.42
    assert t.threshold("snr", "coherence_nr") == 0.42
    assert t.threshold("snr", "single_nr") == 0.65
    with pytest.raises(KeyError):
        t.threshold("ple")


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
                              [1.0, 1.0, 1.0, 1.0]]), counts=(4, 8, 12))
    bw = usable_bandwidth(surf, 5.0)
    assert bw[4] == pytest.approx(surf.band_centers[1])
    assert bw[8] == 0.0
    assert bw[12] == pytest.approx(surf.band_centers[-1])


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
        lambda hs, seed: real_lookup(hs, probe_duration=0.2, seed=seed,
                                     azimuths=np.arange(-60.0, 61.0, 15.0)))
    return targets


def test_ple_cells_recorded_per_direction(hrir_set, monkeypatch):
    targets = _small_ple(monkeypatch)
    config = SweepConfig.desk_scale(
        speaker_counts=(8,), pose_offsets=(0.0,), methods=("nsp",),
        metrics=("ple",))
    result = run_sweep(config, hrir_set=hrir_set)
    assert result.failures == []
    ple = result.ple_cells[("nsp", 8, 0.0)]
    assert ple.errors.shape == targets.shape
    good = ple.errors[np.isfinite(ple.errors)]
    assert result.surface("ple", "nsp", 0.0).values[0] == pytest.approx(
        np.sqrt(np.mean(good ** 2)))


def test_algorithms_run_at_the_sweep_sample_rate():
    config = SweepConfig.desk_scale(sample_rate=16000)
    hrir_set = harness._load_hrirs(config)
    assert hrir_set.sample_rate == 16000
    names = harness.ALGORITHM_NAMES + ("beamformer_core",)
    algorithms = harness._make_algorithms(hrir_set, names)
    assert set(algorithms) == set(names)
    for algorithm in algorithms.values():
        assert algorithm.stft.sample_rate == 16000


def test_one_bank_per_cell_equals_a_bank_per_metric(hrir_set, mvdr_design,
                                                    monkeypatch):
    """A cell's unit renders every metric through one bank; its values
    equal those of banks built for each metric's own channels."""
    config = SweepConfig.desk_scale(
        speaker_counts=(6,), pose_offsets=(0.5,), methods=("vbap",),
        algorithms=("adm", "single_nr"), metrics=("beam", "snr", "spectral"),
        input_snrs=(-5.0, 5.0), scene_duration=0.5, n_noise_sources=3,
        pattern_probe_duration=0.1)
    pose = config.poses()[0]
    grid = config.band_grid()
    algorithms = harness._make_algorithms(hrir_set, config.algorithms)
    core = harness.MvdrCoreBeamformer(mvdr_design)
    sweep = harness._Sweep(config, hrir_set, algorithms, core, None)
    ref = sweep.unit(None, None, 0.5)
    built = []
    real_init = harness.ReceiverBank.__init__

    def counting_init(self, array, hs, ps, channels):
        built.append(tuple(channels))
        real_init(self, array, hs, ps, channels)

    monkeypatch.setattr(harness.ReceiverBank, "__init__", counting_init)
    values, ple = sweep.errors(ref, sweep.unit("vbap", 6, 0.5))
    assert ple is None
    assert built == [hrir_set.channels]
    monkeypatch.undo()

    method = harness.ReproductionMethod.VBAP
    array = harness.build_array(6, radius=config.array_radius)
    pattern = harness.beam_pattern(
        core, method, ReceiverBank(array, hrir_set, pose, core.channels),
        hrir_set, pose, grid, probe_duration=config.pattern_probe_duration,
        seed=config.seed)
    assert np.array_equal(values["beam"], harness.beam_error(
        ref.pattern, pattern, normalized=False))
    snr_channels = harness._UNION_CHANNELS + (CALIBRATION_CHANNEL,)
    stems = harness.render_scene_stems(
        sweep.scene, method, ReceiverBank(array, hrir_set, pose, snr_channels),
        hrir_set, pose, harness._UNION_CHANNELS)
    for name, alg in algorithms.items():
        snr_sweep = harness.snr_improvement(
            alg, harness.select_channels(stems, alg.channels), grid,
            input_snrs=config.input_snrs)
        assert np.array_equal(values[("snr", name)],
                              harness.snr_error(ref.sweeps[name], snr_sweep),
                              equal_nan=True)
    ear_bank = ReceiverBank(array, hrir_set, pose, CHANNELS_LOCALIZATION)
    distances = []
    for az, ref_buf in zip(harness.PLE_TARGET_AZIMUTHS,
                           sweep.ref_renders[0.5]):
        src = VirtualSource(sweep.probe,
                            Position2D.from_polar(az, config.array_radius))
        buf = render_source(method, ear_bank, src)
        distances.append(harness.spectral_distance(
            ref_buf.samples[0], buf.samples[0], buf.sample_rate))
    assert values["spectral"] == float(np.mean(distances))


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


# Two poses x two methods x two counts, every metric, short scenes.
POOL_GRID = SweepConfig.desk_scale(
    speaker_counts=(4, 8), pose_offsets=(0.0, 0.5), methods=("nsp", "hoa"),
    algorithms=("adm", "single_nr"), metrics=harness.METRIC_NAMES,
    input_snrs=(-5.0, 5.0), scene_duration=0.5, n_noise_sources=3,
    pattern_probe_duration=0.1)


@pytest.fixture(scope="module")
def pool_runs(hrir_set, tmp_path_factory):
    """POOL_GRID in this process and on two workers: the result, the
    surfaces.csv bytes and the cells passed to `progress`, by worker
    count."""
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        _small_ple(mp)
        for workers in (1, 2):
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


def test_reference_failure_aborts_the_sweep(hrir_set, monkeypatch):
    real_stems = harness.render_scene_stems

    def failing_stems(scene, method, *args):
        if method is None:
            raise RuntimeError("no free-field stems")
        return real_stems(scene, method, *args)

    monkeypatch.setattr(harness, "render_scene_stems", failing_stems)
    with pytest.raises(RuntimeError, match="no free-field stems"):
        run_sweep(QUICK, hrir_set=hrir_set, workers=2)
    assert harness._WORKER_SWEEP is None


def test_dead_worker_fails_the_sweep(hrir_set, monkeypatch):
    parent = os.getpid()
    real_build_array = harness.build_array

    def dying_build_array(count, radius):
        if os.getpid() != parent:
            os._exit(1)
        return real_build_array(count, radius=radius)

    monkeypatch.setattr(harness, "build_array", dying_build_array)
    with pytest.raises(BrokenProcessPool):
        run_sweep(QUICK, hrir_set=hrir_set, workers=2)


def test_workers_below_one_rejected(hrir_set):
    with pytest.raises(ValueError, match="workers"):
        run_sweep(QUICK, hrir_set=hrir_set, workers=0)


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


def test_cli_bad_input_exits_nonzero(tmp_path):
    assert main(["report", str(tmp_path / "missing.csv")]) == 1
