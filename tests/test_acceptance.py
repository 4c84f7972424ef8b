"""End-to-end acceptance checks.

Each test prints a one-line PASS/FAIL verdict for its criterion (bypassing
output capture) and then asserts it, so a full run always shows the verdict
of every criterion.
"""

import functools
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from spatsim.binsim import (CALIBRATION_CHANNEL, AudioBuffer, ReceiverBank,
                            RenderOutput, VirtualSource, SceneSpec,
                            noise_scale, render_reference, render_scene_stems,
                            render_source)
from spatsim.geometry import Position2D, build_array
from spatsim.haalgo import MvdrCoreBeamformer
from spatsim.harness import (ALGORITHM_NAMES, BEAM_CRITERION_DB, PleCell,
                             SweepConfig, _make_algorithms, aliasing_overlay,
                             run_sweep, write_surfaces_csv)
from spatsim.hrir import CHANNELS_BEAMFORMER, CHANNELS_LOCALIZATION
from spatsim.localization import (PLE_TARGET_AZIMUTHS, build_cue_lookup,
                                  localize)
from spatsim.metrics import (beam_error, beam_pattern, make_third_octave_grid,
                             snr_error, snr_improvement, spectral_distance)
from spatsim.panner import (ReproductionMethod, aliasing_limit, hoa_kernel,
                            hoa_weights, vbap_weights)
from spatsim.signals import make_default_scene, speech_shaped_noise

from conftest import beam_pattern_per_azimuth, free_field_stems

RATE = 48000
CENTER = Position2D(0.0, 0.0)
GRID = make_third_octave_grid(100.0, 8000.0)


_CAPTURE_MANAGER = None


@pytest.fixture(scope="module", autouse=True)
def _grab_capture_manager(pytestconfig):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = pytestconfig.pluginmanager.getplugin("capturemanager")


def _report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"\n[criterion {criterion}] {verdict}: {detail}"
    # Emit the verdict even under output capture, so every run shows one
    # line per criterion.
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def _unit(az_deg):
    rad = np.radians(az_deg)
    return np.array([np.cos(rad), np.sin(rad)])


# ---------------------------------------------------------------------------
# Criterion 1: identity case


@pytest.fixture(scope="module")
def lookup(hrir_set):
    return build_cue_lookup(hrir_set, probe_duration=0.4)


@pytest.fixture(scope="module")
def identity_data(hrir_set, mvdr_design, lookup):
    """A 72-speaker array puts a loudspeaker on every 5-degree azimuth, so
    every probe and scene source sits exactly on a speaker and the NSP
    rendering must coincide with the free-field reference."""
    t0 = time.time()
    array = build_array(72, 3.0)
    bank = ReceiverBank(array, hrir_set, CENTER, hrir_set.channels)
    core = MvdrCoreBeamformer(mvdr_design)

    ref_pat = beam_pattern_per_azimuth(core, None, None, hrir_set, CENTER,
                                       GRID, 0.5)
    nsp_pat = beam_pattern(core, ReproductionMethod.NSP, bank, GRID,
                           probe_duration=0.5)
    beam_err = float(beam_error(ref_pat, nsp_pat).max())

    # Scene with every source on the 5-degree grid at the array radius.
    target = VirtualSource(speech_shaped_noise(1.0, RATE, seed=50),
                           Position2D.from_polar(0.0, 3.0))
    noises = tuple(
        VirtualSource(speech_shaped_noise(1.0, RATE, seed=51 + i),
                      Position2D.from_polar(az, 3.0))
        for i, az in enumerate((40.0, 115.0, 220.0, 305.0)))
    scene = SceneSpec(target=target, noises=noises)
    channels = CHANNELS_BEAMFORMER + (CALIBRATION_CHANNEL,)
    stems_ref = free_field_stems(scene, hrir_set, channels)
    stems_nsp = render_scene_stems(scene, functools.partial(
        render_source, ReproductionMethod.NSP, bank.select(channels)),
        channels)
    snr_err = 0.0
    for name, alg in _make_algorithms(hrir_set, ALGORITHM_NAMES).items():
        ref = snr_improvement(alg, stems_ref, GRID, input_snrs=(0.0,))
        test = snr_improvement(alg, stems_nsp, GRID, input_snrs=(0.0,))
        snr_err = max(snr_err, float(np.nanmax(snr_error(ref, test))))

    probe = speech_shaped_noise(0.5, RATE, seed=60)
    ear_bank = bank.select(CHANNELS_LOCALIZATION)
    ref_doas = []
    nsp_doas = []
    distances = []
    for az in PLE_TARGET_AZIMUTHS:
        src = VirtualSource(probe, Position2D.from_polar(az, 3.0))
        ref_buf = render_reference(src, hrir_set, CENTER,
                                   CHANNELS_LOCALIZATION)
        nsp_buf = render_source(ReproductionMethod.NSP, ear_bank, src)
        ref_doas.append(localize(ref_buf, lookup).fine_azimuth)
        nsp_doas.append(localize(nsp_buf, lookup).fine_azimuth)
        distances.append(spectral_distance(ref_buf.samples[0],
                                           nsp_buf.samples[0], RATE))
    return {"beam": beam_err, "snr": snr_err,
            "ple": PleCell(np.array(nsp_doas, dtype=float)
                           - np.array(ref_doas, dtype=float)).value,
            "spectral": float(np.mean(distances)),
            "elapsed": time.time() - t0}


def test_criterion_1_identity_case(identity_data):
    d = identity_data
    ok = (d["beam"] < 0.1 and d["snr"] < 0.05 and d["ple"] < 1.0
          and d["spectral"] < 0.01)
    _report(1, ok, f"beam={d['beam']:.4g} dB, snr={d['snr']:.4g} dB, "
                   f"ple={d['ple']:.4g} deg, spectral={d['spectral']:.4g} "
                   f"({d['elapsed']:.0f} s)")
    assert d["beam"] < 0.1
    assert d["snr"] < 0.05
    assert d["ple"] < 1.0
    assert d["spectral"] < 0.01


# ---------------------------------------------------------------------------
# Criterion 2: panner math


def test_criterion_2_panner_math():
    t0 = time.time()
    rng = np.random.default_rng(2015)
    azimuths = rng.uniform(0.0, 360.0, size=10000)
    worst_recon = 0.0
    worst_sum = 0.0
    ok = True
    for count in (4, 6, 8, 12, 18, 24, 36, 72):
        arr = build_array(count, 3.0)
        for az in azimuths:
            pos = Position2D.from_polar(az, 3.0)
            w = vbap_weights(arr, pos)
            recon = sum(w[k] * _unit(arr.azimuth_of(k))
                        for k in np.flatnonzero(w))
            worst_recon = max(worst_recon,
                              float(np.abs(recon - _unit(az)).max()))
            s = hoa_weights(arr, pos).sum()
            worst_sum = max(worst_sum, abs(s - 1.0))
        limit = hoa_kernel(0.0, count)[0]
        ok = ok and abs(limit - (count - 1) / count) < 1e-12
    ok = ok and worst_recon < 1e-9 and worst_sum < 1e-9
    _report(2, ok, f"vbap recon err={worst_recon:.2g}, "
                   f"hoa sum err={worst_sum:.2g} ({time.time() - t0:.0f} s)")
    assert worst_recon < 1e-9
    assert worst_sum < 1e-9
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: aliasing predictor


def test_criterion_3_aliasing_predictor():
    rng = np.random.default_rng(7)
    counts = rng.integers(2, 100, size=20)
    radii = rng.uniform(0.05, 3.0, size=20)
    worst = 0.0
    for n, r in zip(counts, radii):
        expected = 343.0 * (int(n) - 1) / (4.0 * np.pi * r)
        got = aliasing_limit(int(n), float(r))
        worst = max(worst, abs(got - expected) / expected)
    _report(3, worst < 1e-9, f"max relative error {worst:.2g} over 20 pairs")
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# Criteria 4 and 9 share one sweep (PLE + spectral distance, center pose)


@pytest.fixture(scope="module")
def ple_sweep(hrir_set):
    config = SweepConfig.desk_scale(
        metrics=("ple", "spectral"), pose_offsets=(0.0,),
        speaker_counts=(4, 8, 12, 24))
    return run_sweep(config, hrir_set=hrir_set)


def _nearest_speaker_errors(count):
    """Direction error of nearest-speaker panning on a regular array with a
    speaker at 0 deg: the nearest speaker azimuth minus the target azimuth,
    for every PLE target direction."""
    spacing = 360.0 / count
    az = np.asarray(PLE_TARGET_AZIMUTHS, dtype=float)
    return spacing * np.round(az / spacing) - az


def test_criterion_4_nsp_half_spacing_law(ple_sweep):
    """NSP moves every source onto its nearest speaker, so the perceived
    direction error of a target is its distance to that speaker: at most
    half the speaker spacing.

    The PLE surface is the RMS of the per-direction errors over
    PLE_TARGET_AZIMUTHS, not their maximum; half the spacing bounds the
    largest error, and the RMS of the nearest-speaker error over evenly
    spread targets is near spacing/sqrt(12). So the surface is compared
    with the RMS of the geometric nearest-speaker error on the same target
    grid (+/- 25%), and the half-spacing law itself is checked direction by
    direction on the sweep's per-direction errors, with criterion 1's 1 deg
    PLE tolerance, after checking that no direction was dropped from the
    RMS for want of an estimate.
    """
    assert ple_sweep.failures == []
    surf = ple_sweep.surface("ple", "nsp", 0.0)
    checks = []
    parts = []
    for count, value in zip(surf.speaker_counts, surf.values):
        if count not in (8, 12, 24):
            continue
        expected = float(np.sqrt(np.mean(_nearest_speaker_errors(count) ** 2)))
        ple = ple_sweep.ple_cells[("nsp", count, 0.0)]
        worst = float(np.nanmax(np.abs(ple.errors)))
        bound = (360.0 / count) / 2.0 + 1.0
        checks.append((count, value, expected, ple.dropped, worst, bound))
        parts.append(f"N={count}: rms {value:.2f} deg (expect {expected:.2f} "
                     f"+/- 25%), max {worst:.2f} deg (<= {bound:.2f}), "
                     f"dropped {ple.dropped}")
    ok = all(abs(value - expected) <= 0.25 * expected and dropped == 0
             and worst <= bound
             for _, value, expected, dropped, worst, bound in checks)
    _report(4, ok, "; ".join(parts))
    assert [c[0] for c in checks] == [8, 12, 24]
    for count, value, expected, dropped, worst, bound in checks:
        assert dropped == 0, f"N={count}: {dropped} directions dropped"
        assert abs(value - expected) <= 0.25 * expected, \
            f"N={count}: PLE {value:.2f} outside {expected:.2f} +/- 25%"
        assert worst <= bound, \
            f"N={count}: direction error {worst:.2f} above {bound:.2f}"


def test_criterion_9_spectral_distance_bound(ple_sweep, identity_data):
    worst = 0.0
    for method in ("nsp", "vbap", "hoa"):
        surf = ple_sweep.surface("spectral", method, 0.0)
        worst = max(worst, float(np.nanmax(surf.values)))
    ident = identity_data["spectral"]
    ok = worst < 0.35 and ident < 0.01
    _report(9, ok, f"sweep max={worst:.3f} (< 0.35), "
                   f"identity={ident:.4g} (< 0.01)")
    assert worst < 0.35
    assert ident < 0.01


# ---------------------------------------------------------------------------
# Criterion 5: ordering claims at desk scale


@pytest.fixture(scope="module")
def beam_center(hrir_set):
    config = SweepConfig.desk_scale(metrics=("beam",), pose_offsets=(0.0,))
    return run_sweep(config, hrir_set=hrir_set)


@pytest.fixture(scope="module")
def beam_off(hrir_set):
    config = SweepConfig.desk_scale(metrics=("beam",), pose_offsets=(0.5,),
                                    methods=("vbap", "hoa"))
    return run_sweep(config, hrir_set=hrir_set)


# Criterion 5(b) is decided on the per-band mean over these sweep seeds: the
# ADM SNR error of one band moves by up to 1.7 dB from seed to seed, more
# than any fixed tie tolerance, so a single seed cannot order the methods.
ADM_SEEDS = (20150842, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def adm_sweeps(hrir_set):
    base = SweepConfig.desk_scale(metrics=("snr",), algorithms=("adm",),
                                  pose_offsets=(0.0,),
                                  input_snrs=(-10.0, 0.0, 10.0))
    return [run_sweep(replace(base, seed=seed), hrir_set=hrir_set)
            for seed in ADM_SEEDS]


def _adm_errors(sweeps, method):
    """ADM SNR error of one method as (seed, N, band), bands up to 4 kHz,
    and the centres of those bands."""
    surfs = [s.surface("snr", method, 0.0, "adm") for s in sweeps]
    low = surfs[0].band_centers <= 4000.0
    return (np.stack([s.values[:, low] for s in surfs]),
            surfs[0].band_centers[low])


def _ordered(lower, upper):
    """Per (N, band): the seed mean of `lower` is at most that of `upper`,
    ties allowed within one standard error of the mean paired difference
    (both methods render the same scene at each seed)."""
    diff = lower - upper
    sem = diff.std(axis=0, ddof=1) / np.sqrt(len(diff))
    return diff.mean(axis=0) <= sem


def _percent(mask):
    return f"{np.mean(mask):.0%}" if mask.size else "-"


def _usable(surface, threshold):
    low = surface.band_centers <= 4000.0
    return (surface.values[:, low] <= threshold), surface.band_centers[low]


def test_criterion_5_ordering_claims(beam_center, beam_off, adm_sweeps):
    """Each ordering inequality holds in at least 80% of the (N, band)
    points up to 4 kHz. (b) is still open: below its aliasing limit HOA
    reproduces the field near exactly, so VBAP <= HOA fails there; the
    verdict line splits (b) per N below and above that limit."""
    assert beam_center.failures == []
    assert beam_off.failures == []
    assert all(sweep.failures == [] for sweep in adm_sweeps)
    thr = BEAM_CRITERION_DB

    # (a) Per band below 4 kHz, a band usable with NSP is usable with VBAP,
    # and a band usable with VBAP is usable with HOA.
    nsp, _ = _usable(beam_center.surface("beam", "nsp", 0.0), thr)
    vbap, _ = _usable(beam_center.surface("beam", "vbap", 0.0), thr)
    hoa, _ = _usable(beam_center.surface("beam", "hoa", 0.0), thr)
    frac_a1 = float(np.mean(~nsp | vbap))
    frac_a2 = float(np.mean(~vbap | hoa))

    # (b) The ADM SNR error is ordered NSP <= VBAP <= HOA per band, on the
    # mean over ADM_SEEDS.
    e_nsp, bands = _adm_errors(adm_sweeps, "nsp")
    e_vbap, _ = _adm_errors(adm_sweeps, "vbap")
    e_hoa, _ = _adm_errors(adm_sweeps, "hoa")
    b1 = _ordered(e_nsp, e_vbap)
    b2 = _ordered(e_vbap, e_hoa)
    frac_b1 = float(np.mean(b1))
    frac_b2 = float(np.mean(b2))
    # Per N, below and above the HOA aliasing limit at the ear.
    config = adm_sweeps[0].config
    split = []
    for i, (count, f_alias) in enumerate(
            zip(config.speaker_counts, aliasing_overlay(config, 0.0))):
        below = bands <= f_alias
        split.append(f"N={count} ({f_alias:.0f} Hz) "
                     f"{_percent(b1[i, below])}|{_percent(b1[i, ~below])}, "
                     f"{_percent(b2[i, below])}|{_percent(b2[i, ~below])}")
    seed_sd = max(float(e.std(axis=0, ddof=1).max())
                  for e in (e_nsp, e_vbap, e_hoa))

    # (c) Moving 0.5 m off center never makes a band usable that was not
    # usable at the center (the off-center bandwidth does not exceed the
    # center bandwidth).
    fracs_c = []
    for method in ("vbap", "hoa"):
        ctr, _ = _usable(beam_center.surface("beam", method, 0.0), thr)
        off, _ = _usable(beam_off.surface("beam", method, 0.5), thr)
        fracs_c.append(float(np.mean(~off | ctr)))

    fracs = {"a:nsp->vbap": frac_a1, "a:vbap->hoa": frac_a2,
             "b:nsp<=vbap": frac_b1, "b:vbap<=hoa": frac_b2,
             "c:vbap": fracs_c[0], "c:hoa": fracs_c[1]}
    ok = all(f >= 0.8 for f in fracs.values())
    _report(5, ok, ", ".join(f"{k}={v:.0%}" for k, v in fracs.items())
            + "; b below|above f_alias (nsp<=vbap, vbap<=hoa): "
            + "; ".join(split)
            + f"; {len(ADM_SEEDS)} seeds, per-band seed SD up to "
              f"{seed_sd:.2f} dB")
    for name, frac in fracs.items():
        assert frac >= 0.8, f"inequality {name} holds in only {frac:.0%}"


# ---------------------------------------------------------------------------
# Criterion 6: free-field algorithm benefit ranges


@pytest.fixture(scope="module")
def freefield_stems(hrir_set):
    scene = make_default_scene(8.0, RATE)
    return free_field_stems(scene, hrir_set,
                            CHANNELS_BEAMFORMER + (CALIBRATION_CHANNEL,))


def test_criterion_6_freefield_benefits(hrir_set, mvdr_design,
                                        freefield_stems):
    t0 = time.time()
    algos = _make_algorithms(hrir_set, ("adm", "coherence_nr", "single_nr"))
    algos["mvdr_core"] = MvdrCoreBeamformer(mvdr_design)

    def improvement(name, snr):
        return snr_improvement(algos[name], freefield_stems, GRID,
                               input_snrs=(snr,))[0]

    mvdr = improvement("mvdr_core", 0.0)
    mvdr_lo, mvdr_hi = float(np.nanmin(mvdr)), float(np.nanmax(mvdr))
    adm = float(np.nanmean(improvement("adm", 0.0)))
    coh_bands = improvement("coherence_nr", 0.0)
    coh = float(np.nanmean(coh_bands[GRID.centers > 1000.0]))
    scnr = float(np.nanmean(improvement("single_nr", -20.0)))

    ok = (4.0 <= mvdr_lo and mvdr_hi <= 16.0 and 2.0 <= adm <= 8.0
          and 2.0 <= coh <= 6.0 and scnr >= 7.0)
    _report(6, ok, f"mvdr=[{mvdr_lo:.1f},{mvdr_hi:.1f}] dB, adm={adm:.1f} dB, "
                   f"coherence>{1:d}kHz={coh:.1f} dB, scnr@-20={scnr:.1f} dB "
                   f"({time.time() - t0:.0f} s)")
    assert 4.0 <= mvdr_lo and mvdr_hi <= 16.0
    assert 2.0 <= adm <= 8.0
    assert 2.0 <= coh <= 6.0
    assert scnr >= 7.0


# ---------------------------------------------------------------------------
# Criterion 7: shadow-filtering additivity


def test_criterion_7_shadow_additivity(hrir_set):
    scene = make_default_scene(1.0, RATE, n_noise=4, seed=77)
    stems = free_field_stems(scene, hrir_set,
                             CHANNELS_BEAMFORMER + (CALIBRATION_CHANNEL,))
    worst = 0.0
    # Stems at 0 dB input SNR: the noise stem rescaled.
    noise = stems.noise_only.samples * noise_scale(stems, 0.0)
    stems = RenderOutput(target_only=stems.target_only,
                         noise_only=AudioBuffer(RATE, noise),
                         channels=stems.channels)
    for name, alg in _make_algorithms(hrir_set, ALGORITHM_NAMES).items():
        mixture, target, noise = (b.samples for b in alg.shadow(stems))
        resid = mixture - (target + noise)
        scale = max(float(np.abs(mixture).max()), 1e-30)
        worst = max(worst, float(np.abs(resid).max()) / scale)
    _report(7, worst < 1e-6, f"max relative residual {worst:.2g}")
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# Criterion 8: determinism and error-measure axioms


def test_criterion_8_determinism_and_axioms(tmp_path):
    t0 = time.time()
    config = SweepConfig.desk_scale(
        speaker_counts=(8,), pose_offsets=(0.0,), methods=("nsp",),
        algorithms=("single_nr",), metrics=("snr",), input_snrs=(0.0,),
        scene_duration=0.5, n_noise_sources=3)
    paths = []
    for run in range(2):
        result = run_sweep(config)
        path = tmp_path / f"run{run}.csv"
        write_surfaces_csv(result, path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()

    rng = np.random.default_rng(11)
    sub = make_third_octave_grid(100.0, 8000.0)

    g = rng.normal(size=(72, len(sub)))
    h = rng.normal(size=(72, len(sub)))
    axioms = True
    axioms &= bool(np.all(beam_error(g, g) == 0.0))
    axioms &= bool(np.all(beam_error(g, h) >= 0.0))

    d = rng.normal(size=(3, len(sub)))
    e = rng.normal(size=(3, len(sub)))
    axioms &= bool(np.all(snr_error(d, d) == 0.0))
    axioms &= bool(np.all(snr_error(d, e) >= 0.0))

    ok = identical and axioms
    _report(8, ok, f"repeat run byte-identical={identical}, "
                   f"axioms hold={axioms} ({time.time() - t0:.0f} s)")
    assert identical
    assert axioms
