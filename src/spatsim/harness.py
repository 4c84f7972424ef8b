"""Sweep driver: evaluates every (method, speaker count, pose) condition of
the parameter grid against the free-field reference, applies the error
criteria, extracts threshold contours, and writes CSV/report outputs."""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import math
import multiprocessing
import os
import traceback
from concurrent.futures import (FIRST_COMPLETED, Future, ProcessPoolExecutor,
                                wait)
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from .binsim import (CALIBRATION_CHANNEL, ReceiverBank, VirtualSource,
                     render_reference, render_scene_stems, render_source)
from .geometry import Position2D, build_array
from .haalgo import (ALGORITHM_NAMES, ALGORITHMS, DesignError, MvdrBeamformer,
                     MvdrCoreBeamformer, design_mvdr)
from .hrir import (CHANNELS, CHANNELS_LOCALIZATION, DEFAULT_HEAD_RADIUS,
                   HrirSet, load_hrir_set, synth_sphere_hrir)
from .localization import PLE_TARGET_AZIMUTHS, build_cue_lookup, localize
from .metrics import (BandGrid, NOMINAL_INPUT_SNRS, PATTERN_AZIMUTHS,
                      beam_error, beam_pattern, excitation_pattern,
                      make_third_octave_grid, snr_error, snr_improvement,
                      spectral_distance)
from .panner import ReproductionMethod, aliasing_limit
from .signals import make_default_scene, speech_shaped_noise
from .stft import StftProcessor

PAPER_SPEAKER_COUNTS = (4, 6, 8, 12, 18, 24, 36, 72)
DESK_SPEAKER_COUNTS = (4, 8, 12, 24)
POSE_OFFSETS = (0.0, 0.1, 0.5)
# The config fields that list the grid's entries.
_GRID_FIELDS = ("speaker_counts", "pose_offsets", "methods", "algorithms",
                "metrics", "input_snrs")
SCHEMA_VERSION = 1

# The published error thresholds of the banded metrics, in dB.
BEAM_CRITERION_DB = 5.7
SNR_CRITERION_DB = {"beamformer": 0.75, "adm": 0.42, "coherence_nr": 0.42,
                    "single_nr": 0.65}
# The receiver channel that spectral distance compares.
SPECTRAL_CHANNEL = "in_ear_L"


@dataclass(frozen=True)
class _Metric:
    """What the sweep knows of one metric: the unit group that measures it
    (`_Sweep.group_channels`), the receiver channels it reads, its error
    from a reference's raw measurement and a cell's, and its criterion,
    None for a scalar metric and per algorithm for SNR."""

    group: str
    channels: tuple
    error: Callable
    criterion: float | dict | None


# SNR also reads each configured algorithm's channels (`ALGORITHMS`), and
# calibrates its input SNRs on the calibration channel; beam reads the MVDR
# core's. Spectral distance is the mean over the PLE targets.
_METRICS = {
    "beam": _Metric("beam", MvdrCoreBeamformer.channels, beam_error,
                    BEAM_CRITERION_DB),
    "snr": _Metric("snr", (CALIBRATION_CHANNEL,), snr_error,
                   SNR_CRITERION_DB),
    "ple": _Metric("probes", CHANNELS_LOCALIZATION,
                   lambda ref, test: PleCell(test - ref), None),
    "spectral": _Metric("probes", (SPECTRAL_CHANNEL,),
                        lambda ref, test: float(np.mean(
                            [spectral_distance(r, t)
                             for r, t in zip(ref, test)])), None),
}
METRIC_NAMES = tuple(_METRICS)
# The metrics with a criterion, whose surfaces are over (N, band).
BANDED_METRICS = tuple(name for name, metric in _METRICS.items()
                       if metric.criterion is not None)


@dataclass(frozen=True)
class SweepConfig:
    speaker_counts: tuple = PAPER_SPEAKER_COUNTS
    pose_offsets: tuple = POSE_OFFSETS
    methods: tuple = ("nsp", "vbap", "hoa")
    algorithms: tuple = ALGORITHM_NAMES
    metrics: tuple = METRIC_NAMES
    array_radius: float = 3.0
    sample_rate: int = 48000
    scene_duration: float = 8.0
    n_noise_sources: int = 20
    input_snrs: tuple = NOMINAL_INPUT_SNRS
    pattern_probe_duration: float = 1.0
    band_min: float = 100.0
    band_max: float = 8000.0
    seed: int = 20150842
    hrir_source: str = "sphere"         # "sphere" or a saved-set directory
    head_radius: float = DEFAULT_HEAD_RADIUS
    output_dir: str = "sweep_out"

    def __post_init__(self):
        for key in _GRID_FIELDS:
            values = getattr(self, key)
            if not values or len(set(values)) != len(values):
                raise ValueError(f"{key} must list distinct entries, not "
                                 f"{list(values)}")
        for key, known in (
                ("metrics", METRIC_NAMES), ("algorithms", ALGORITHM_NAMES),
                ("methods", [method.value for method in ReproductionMethod])):
            unknown = [name for name in getattr(self, key) if name not in known]
            if unknown:
                raise ValueError(f"unknown {key}: {unknown}; known: "
                                 f"{list(known)}")
        if not all(type(n) is int for n in self.speaker_counts):
            raise ValueError(f"speaker_counts must be integers, not "
                             f"{list(self.speaker_counts)}")
        # One type per number, so that equal configs hash alike: the grid's
        # offsets and SNRs are floats, a scalar has its declared type.
        for key in ("pose_offsets", "input_snrs"):
            object.__setattr__(self, key,
                               tuple(float(v) for v in getattr(self, key)))
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float":
                object.__setattr__(self, f.name, float(value))
            elif f.type == "int" and type(value) is not int:
                raise ValueError(f"{f.name} must be an integer, not {value!r}")
        if self.n_noise_sources < 1:
            raise ValueError(f"n_noise_sources must be at least 1, not "
                             f"{self.n_noise_sources}")
        for key in ("scene_duration", "pattern_probe_duration"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive, not "
                                 f"{getattr(self, key):g}")
        # A band above the Nyquist frequency has no bins: its error reads 0.
        if not self.band_min < self.band_max <= self.sample_rate / 2:
            raise ValueError(f"need band_min < band_max <= sample_rate / 2, "
                             f"not {self.band_min:g}, {self.band_max:g}, "
                             f"{self.sample_rate}")
        # A range that holds no third-octave centre has no band.
        self.band_grid()

    @classmethod
    def desk_scale(cls, **overrides) -> "SweepConfig":
        """Reduced grid that completes in minutes on a workstation."""
        base = dict(speaker_counts=DESK_SPEAKER_COUNTS, scene_duration=2.0)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def from_yaml(cls, path) -> "SweepConfig":
        with open(path) as f:
            data = yaml.safe_load(f) or {}
        preset = data.pop("preset", None)
        known = {k: v for k, v in data.items() if k in cls.__annotations__}
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key in _GRID_FIELDS:
            if key in known:
                known[key] = tuple(known[key])
        if preset == "desk":
            return cls.desk_scale(**known)
        if preset not in (None, "full"):
            raise ValueError(f"unknown preset {preset!r}")
        return cls(**known)

    def _fields(self) -> dict:
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in asdict(self).items()}

    def to_yaml(self) -> str:
        return yaml.safe_dump(self._fields(), sort_keys=True)

    def config_hash(self) -> str:
        """Hash of the fields that decide the results. The output directory
        only says where they are written, so the same sweep written to two
        places gets one hash."""
        data = self._fields()
        del data["output_dir"]
        text = yaml.safe_dump(data, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def band_grid(self) -> BandGrid:
        return make_third_octave_grid(self.band_min, self.band_max)

    def poses(self) -> list:
        """Listener offsets from the array center, to the side (+y, left)."""
        return [Position2D(0.0, off) for off in self.pose_offsets]


def criterion(metric: str, algorithm: str | None = None) -> float:
    """The error threshold of a banded metric, per algorithm for SNR."""
    threshold = _METRICS[metric].criterion
    if threshold is None:
        raise KeyError(f"no criterion for metric {metric!r}")
    return threshold[algorithm] if isinstance(threshold, dict) else threshold


@dataclass
class ErrorSurface:
    """Metric values over (speaker count, band) for one condition."""

    metric: str
    method: str
    pose_offset: float
    algorithm: str | None
    speaker_counts: tuple
    band_centers: np.ndarray | None     # None for scalar metrics (ple, …)
    values: np.ndarray                  # (n_counts, n_bands) or (n_counts,)

    def key(self) -> tuple:
        return (self.metric, self.method, self.pose_offset, self.algorithm)


@dataclass
class PleCell:
    """Perceived location error (PLE) of one (method, N, pose) cell.

    `errors` holds one entry per target direction: the test rendering's
    fine-structure azimuth estimate minus the free-field rendering's, in
    degrees, NaN where either rendering gave no estimate. The PLE is the
    RMS over the finite entries (`value`); `dropped` counts the NaN entries
    it leaves out.
    """

    errors: np.ndarray

    @property
    def dropped(self) -> int:
        return int(np.sum(~np.isfinite(self.errors)))

    @property
    def value(self) -> float:
        good = np.isfinite(self.errors)
        if not good.any():
            return float("nan")
        return float(np.sqrt(np.mean(np.square(self.errors[good]))))


@dataclass
class SweepResult:
    config: SweepConfig | None
    surfaces: list
    failures: list                      # (cell descriptor, message)
    config_hash: str = ""
    ple_cells: dict = field(default_factory=dict)   # cell -> PleCell

    def surface(self, metric, method, pose_offset, algorithm=None):
        for s in self.surfaces:
            if s.key() == (metric, method, pose_offset, algorithm):
                return s
        raise KeyError((metric, method, pose_offset, algorithm))


def _channels_read(metrics, algorithms) -> tuple:
    """The receiver channels that `metrics` read (`_METRICS`), with
    `algorithms`' channels where SNR is among them, in `CHANNELS` order."""
    used = set().union(*(_METRICS[m].channels for m in metrics),
                       *(ALGORITHMS[a].channels for a in algorithms
                         if "snr" in metrics))
    return tuple(c for c in CHANNELS if c in used)


def receiver_channels(config: SweepConfig) -> tuple:
    """The receiver channels the configured metrics read, in `CHANNELS`
    order, as `_METRICS` and `ALGORITHMS` declare them."""
    return _channels_read(config.metrics, config.algorithms)


def _load_hrirs(config: SweepConfig) -> HrirSet:
    """The sweep's HRIR set over only `receiver_channels(config)`, which the
    sphere model synthesizes and a saved set is read over alone."""
    channels = receiver_channels(config)
    if config.hrir_source == "sphere":
        return synth_sphere_hrir(
            sample_rate=config.sample_rate, head_radius=config.head_radius,
            distance=config.array_radius, channels=channels)
    hrir_set = load_hrir_set(config.hrir_source, channels)
    if hrir_set.sample_rate != config.sample_rate:
        raise ValueError(f"HRIR set at {hrir_set.sample_rate} Hz, sweep at "
                         f"{config.sample_rate} Hz: {config.hrir_source}")
    return hrir_set


def _make_algorithms(hrir_set: HrirSet, names, design=None) -> dict:
    """Algorithms by name, on an STFT at the HRIR set's sample rate; the
    beamformer uses `design`, or designs its own when none is given."""
    stft = StftProcessor(sample_rate=hrir_set.sample_rate)
    algos = {}
    for name in names:
        if name == "beamformer":
            if design is None:
                design = design_mvdr(hrir_set, stft=stft)
            algos[name] = MvdrBeamformer(design, stft=stft)
        else:
            algos[name] = ALGORITHMS[name](stft=stft)
    return algos


def _surface_keys(config: SweepConfig) -> list:
    """The (metric, algorithm) of each surface a sweep gives per (method,
    pose), in METRIC_NAMES order; SNR has one per configured algorithm."""
    return [(metric, algorithm) for metric in METRIC_NAMES
            if metric in config.metrics
            for algorithm in (config.algorithms if metric == "snr"
                              else (None,))]


class _Sweep:
    """Everything the units of a sweep share, built once before the workers
    fork, and only what the configured metrics use: the MVDR design, the
    algorithms, the cue lookup, the scene and the PLE probe signal, but no
    rendered audio. `unit` measures one metric group of a pose's
    free-field reference or of a cell, by one body per group.

    Each group renders over its own channels (`group_channels`): those
    that its metrics read, as `_METRICS` declares them, and for SNR the
    algorithms' channels too.

    `map(call, args)` runs the set-up's parallel parts in argument order:
    the cue lookup's columns and the scene's source signals. A pool's map
    may run them in other processes, forked with this object's state; only
    the arguments and the results cross the pipe.

    A failed MVDR design is recorded in `failures`; the surfaces that need
    it then stay NaN.
    """

    def __init__(self, config: SweepConfig, hrir_set: HrirSet, map=map):
        self.config = config
        self.hrir_set = hrir_set
        self.grid = config.band_grid()
        self.poses = dict(zip(config.pose_offsets, config.poses()))
        self.failures = []
        metrics = config.metrics
        snr_names = config.algorithms if "snr" in metrics else ()
        design = None
        if "beam" in metrics or "beamformer" in snr_names:
            try:
                design = design_mvdr(hrir_set)
            except DesignError:
                self.failures.append((("design_mvdr",),
                                      traceback.format_exc(limit=3)))
        self.algorithms = _make_algorithms(
            hrir_set, [name for name in snr_names
                       if design is not None or name != "beamformer"], design)
        # The beam pattern uses the linear beamformer core; the time-variant
        # post filter would dominate the pattern differences at all
        # frequencies.
        self.pattern_algorithm = None
        if "beam" in metrics and design is not None:
            self.pattern_algorithm = MvdrCoreBeamformer(
                design, stft=StftProcessor(sample_rate=hrir_set.sample_rate))
        self.lookup = None
        if "ple" in metrics:
            self.lookup = build_cue_lookup(hrir_set, seed=config.seed + 2,
                                           map=map)
        self.scene = None
        if "snr" in metrics:
            self.scene = make_default_scene(
                config.scene_duration, config.sample_rate,
                n_noise=config.n_noise_sources, seed=config.seed, map=map)
        # The metric groups to measure, in the order their units are handed
        # out, and the receiver channels each renders; beam needs the design.
        measurable = [m for m in metrics if m != "beam" or design is not None]
        self.group_channels = {}
        for group in ("snr", "beam", "probes"):
            members = [m for m in measurable if _METRICS[m].group == group]
            if members:
                self.group_channels[group] = _channels_read(members,
                                                            self.algorithms)
        if "probes" in self.group_channels:
            self.probe = speech_shaped_noise(1.0, config.sample_rate,
                                             seed=config.seed + 1)

    def unit(self, group: str, method_name: str | None, count: int | None,
             pose_offset: float) -> dict:
        """The raw measurements of one metric group (a key of
        `group_channels`) of a cell, or with `method_name=None` of the
        free-field reference at the pose, by (metric, algorithm), in plain
        numpy values: "snr" the SNR improvement per algorithm, "beam" the
        beam pattern, "probes" the fine azimuth per PLE target (NaN for
        none) and the excitation pattern of each target's probe for
        spectral distance.

        The unit renders over its group's channels alone
        (`group_channels`): a cell through one bank over them, the
        reference in free field, whose beam pattern is the NSP pattern of a
        ring with a speaker on every probe azimuth. Each probe is rendered
        when the loop reaches it."""
        config, hrir_set = self.config, self.hrir_set
        listener = self.poses[pose_offset]
        channels = self.group_channels[group]
        method, array = ReproductionMethod.NSP, None
        if method_name is not None:
            method = ReproductionMethod(method_name)
            array = build_array(count, radius=config.array_radius)
        elif group == "beam":
            array = build_array(len(PATTERN_AZIMUTHS), radius=hrir_set.distance)
        if array is None:
            render = functools.partial(render_reference, hrir_set=hrir_set,
                                       listener=listener, channels=channels)
        else:
            bank = ReceiverBank(array, hrir_set, listener, channels)
            render = functools.partial(render_source, method, bank)
        if group == "beam":
            return {("beam", None): beam_pattern(
                self.pattern_algorithm, method, bank, self.grid,
                probe_duration=config.pattern_probe_duration,
                seed=config.seed)}
        if group == "snr":
            stems = render_scene_stems(self.scene, render, channels)
            return {("snr", name): snr_improvement(
                alg, stems, self.grid, input_snrs=config.input_snrs)
                for name, alg in self.algorithms.items()}
        row = (channels.index(SPECTRAL_CHANNEL)
               if "spectral" in config.metrics else None)
        azimuths, patterns = [], []
        for azimuth in PLE_TARGET_AZIMUTHS:
            buf = render(VirtualSource(self.probe, Position2D.from_polar(
                azimuth, config.array_radius)))
            if self.lookup is not None:
                azimuths.append(localize(buf, self.lookup).fine_azimuth)
            if row is not None:
                patterns.append(excitation_pattern(buf.samples[row],
                                                   buf.sample_rate))
        out = {}
        if self.lookup is not None:
            out["ple", None] = np.array(azimuths, dtype=float)
        if row is not None:
            out["spectral", None] = np.array(patterns)
        return out


# In a fork worker, the callable its pool runs; set by _start_worker.
_WORKER_CALL = None


def _start_worker(call) -> None:
    global _WORKER_CALL
    _WORKER_CALL = call


def _call_in_worker(arg):
    return _WORKER_CALL(arg)


def _pool_map(call, args, workers: int, handed_out=None) -> list:
    """`[call(arg) for arg in args]`, with at most `workers` calls in
    flight: on a fork pool of that many processes, capped at the number of
    calls, or in this process when the cap is 1. `handed_out(arg)` is
    called here as each call is handed out. A call that raises raises here;
    a worker that dies breaks the pool, and this raises `BrokenProcessPool`
    instead of waiting."""
    workers = min(workers, len(args))
    if workers <= 1:
        pool = contextlib.nullcontext()
    else:
        # Forked workers share the set-up copy-on-write; `call` and what it
        # references reach them without being pickled, only each argument
        # and result is.
        pool = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(call,))
    futures = []
    pending = set()
    with pool:
        for arg in args:
            if len(pending) == workers:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    future.result()
            if handed_out is not None:
                handed_out(arg)
            if workers <= 1:
                future = Future()
                future.set_result(call(arg))
            else:
                future = pool.submit(_call_in_worker, arg)
            futures.append(future)
            pending.add(future)
        return [future.result() for future in futures]


def _run_unit(sweep: _Sweep, unit: tuple) -> tuple:
    """(measurements, None), or (None, traceback) for a cell's unit that
    raised. A failed reference unit raises: no cell of its pose can be
    compared against it."""
    try:
        return sweep.unit(*unit), None
    except Exception:
        if unit[1] is None:
            raise
        return None, traceback.format_exc(limit=3)


def _default_workers() -> int:
    """The CPUs this process may run on, or 1 where the platform has no
    `fork` start method, which a pool of several workers needs."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(config: SweepConfig, hrir_set: HrirSet | None = None,
              progress=None, workers: int | None = None) -> SweepResult:
    """Evaluate the whole (method x N x pose) grid.

    The HRIR set (`hrir_set`, or the one `config.hrir_source` names, which
    the sphere model synthesizes over these channels alone) is restricted
    to `receiver_channels(config)`, the channels that `_METRICS` and
    `ALGORITHMS` declare for the configured metrics and algorithms. A saved
    set is read over only these channels, and one that lacks some of them
    fails at load, naming the channels and the directory.

    A unit of work is one metric group (SNR; beam; the probes of PLE and
    spectral distance) of a pose's free-field reference or of a cell; it
    renders its own probes over its group's channels, and the reference's
    units return the same measurements as the cells'. `workers` processes
    (default: `_default_workers()`) measure them, forked after the shared
    set-up, group by group, each pose's reference before its cells. Here
    the units of each reference and each cell are merged and the errors
    formed in grid order. `progress(cell)` is called as a cell's first unit
    is handed out, once per cell, in grid order. The set-up's parallel
    parts (`_Sweep`: the cue lookup's columns and the scene's source
    signals) run on such pools too, one per part, before the units. Every
    pool returns its results in argument order, so the result does not
    depend on `workers`.

    Deterministic for a given config, which alone decides the surfaces
    (`_surface_keys` per method and pose). A cell whose unit fails is
    recorded once in `failures` and leaves NaNs in all its surfaces instead
    of aborting the run; a failed reference unit aborts it. A failed MVDR
    design leaves NaNs in the beamformer's SNR surfaces and the beam
    surfaces.
    """
    if workers is None:
        workers = _default_workers()
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")
    # The sweep holds only the channels its metrics read.
    if hrir_set is None:
        hrir_set = _load_hrirs(config)
    else:
        hrir_set = hrir_set.select(receiver_channels(config))
    sweep = _Sweep(config, hrir_set,
                   functools.partial(_pool_map, workers=workers))
    # Group by group, the longest first (SNR, beam, probes), each pose's
    # reference and then its cells in grid order.
    units = [(group, method_name, count, offset)
             for group in sweep.group_channels
             for offset in config.pose_offsets
             for method_name, count in [(None, None)] + [
                 (method_name, count) for method_name in config.methods
                 for count in config.speaker_counts]]

    def handed_out(unit):
        # A cell's first unit is in the first group.
        if progress is not None and unit[1] is not None and (
                unit[0] == units[0][0]):
            progress(unit[1:])

    # Each reference's and each cell's measurements, merged over its
    # groups; a cell keeps the first error of its units.
    measured, errors = {}, {}
    for unit, (values, error) in zip(units, _pool_map(
            functools.partial(_run_unit, sweep), units, workers, handed_out)):
        measured.setdefault(unit[1:], {}).update(values or {})
        if error is not None:
            errors.setdefault(unit[1:], error)

    n_counts = len(config.speaker_counts)
    n_bands = len(sweep.grid)
    surfaces = []
    failures = list(sweep.failures)
    ple_cells = {}
    for pose_offset in config.pose_offsets:
        ref = measured.get((None, None, pose_offset), {})
        for method_name in config.methods:
            row = {}
            for metric, algorithm in _surface_keys(config):
                banded = metric in BANDED_METRICS
                row[metric, algorithm] = ErrorSurface(
                    metric=metric, method=method_name,
                    pose_offset=pose_offset, algorithm=algorithm,
                    speaker_counts=config.speaker_counts,
                    band_centers=sweep.grid.centers.copy() if banded else None,
                    values=np.full((n_counts, n_bands) if banded else n_counts,
                                   np.nan))
            for i, count in enumerate(config.speaker_counts):
                cell = (method_name, count, pose_offset)
                if cell in errors:
                    failures.append((cell, errors[cell]))
                    continue
                for key, test in measured.get(cell, {}).items():
                    value = _METRICS[key[0]].error(ref[key], test)
                    if isinstance(value, PleCell):
                        ple_cells[cell] = value
                        value = value.value
                    row[key].values[i] = value
            surfaces += row.values()
    return SweepResult(config=config, surfaces=surfaces, failures=failures,
                       config_hash=config.config_hash(), ple_cells=ple_cells)


# ---------------------------------------------------------------------------
# Contours, aliasing overlay, usable bandwidth


def aliasing_overlay(config: SweepConfig, pose_offset: float) -> np.ndarray:
    """f_max per configured N; the listening radius is the distance of the
    far ear from the array center."""
    r = abs(pose_offset) + config.head_radius
    return np.array([aliasing_limit(n, r) for n in config.speaker_counts])


def contour_extract(surface: ErrorSurface, threshold: float) -> list:
    """Criterion contour as (N, f) points: per speaker count, the lowest
    crossing of the threshold, interpolated in log frequency.

    Returns an empty list when the surface never crosses the threshold.
    """
    if surface.band_centers is None:
        raise ValueError("contours require a banded surface")
    points = []
    freqs = surface.band_centers
    for i, count in enumerate(surface.speaker_counts):
        row = surface.values[i]
        good = np.isfinite(row)
        if not good.any():
            continue
        above = row > threshold
        if not above[good].any():
            continue
        j = int(np.argmax(above & good))
        if j == 0 or not good[j - 1]:
            points.append((count, float(freqs[j])))
            continue
        f0, f1 = np.log(freqs[j - 1]), np.log(freqs[j])
        v0, v1 = row[j - 1], row[j]
        t = (threshold - v0) / (v1 - v0) if v1 != v0 else 1.0
        points.append((count, float(np.exp(f0 + t * (f1 - f0)))))
    return points


def usable_bandwidth(surface: ErrorSurface, threshold: float) -> dict:
    """Largest frequency up to which all lower bands meet the criterion,
    per speaker count; 0.0 when even the lowest band fails, NaN for a row
    with no finite value (a cell that was not measured)."""
    out = {}
    freqs = surface.band_centers
    for i, count in enumerate(surface.speaker_counts):
        row = surface.values[i]
        ok = (row <= threshold) & np.isfinite(row)
        j = int(np.argmin(ok)) if not ok.all() else len(ok)
        out[count] = (math.nan if not np.isfinite(row).any()
                      else float(freqs[j - 1]) if j > 0 else 0.0)
    return out


# ---------------------------------------------------------------------------
# Serialization and reporting


def write_surfaces_csv(result: SweepResult, path) -> None:
    """Long-format CSV: one row per (surface, N, band)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["schema_version", SCHEMA_VERSION,
                     "config_hash", result.config_hash])
    writer.writerow(["metric", "algorithm", "method", "pose_offset",
                     "speaker_count", "band_hz", "value"])
    for surf in sorted(result.surfaces, key=lambda s: str(s.key())):
        for i, count in enumerate(surf.speaker_counts):
            if surf.band_centers is None:
                writer.writerow([surf.metric, surf.algorithm or "",
                                 surf.method, f"{surf.pose_offset:g}",
                                 count, "", _fmt(surf.values[i])])
            else:
                for b, fc in enumerate(surf.band_centers):
                    writer.writerow([surf.metric, surf.algorithm or "",
                                     surf.method, f"{surf.pose_offset:g}",
                                     count, f"{fc:.6g}",
                                     _fmt(surf.values[i, b])])
    Path(path).write_text(buf.getvalue())


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    return f"{float(value):.10g}"


def load_surfaces_csv(path) -> SweepResult:
    """Rebuild surfaces from a CSV written by write_surfaces_csv."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0][0] != "schema_version":
        raise ValueError(f"{path}: not a sweep surface CSV")
    config_hash = rows[0][3]
    cells = {}
    for metric, algorithm, method, pose, count, band, value in rows[2:]:
        key = (metric, method, float(pose), algorithm or None)
        cells.setdefault(key, []).append(
            (int(count), float(band) if band else None, float(value)))
    surfaces = []
    for (metric, method, pose, algorithm), entries in cells.items():
        counts = tuple(sorted({c for c, _, _ in entries}))
        bands = sorted({b for _, b, _ in entries if b is not None})
        if bands:
            values = np.full((len(counts), len(bands)), np.nan)
            for c, b, v in entries:
                values[counts.index(c), bands.index(b)] = v
            band_centers = np.asarray(bands)
        else:
            values = np.full(len(counts), np.nan)
            for c, _, v in entries:
                values[counts.index(c)] = v
            band_centers = None
        surfaces.append(ErrorSurface(
            metric=metric, method=method, pose_offset=pose,
            algorithm=algorithm, speaker_counts=counts,
            band_centers=band_centers, values=values))
    return SweepResult(config=None, surfaces=surfaces, failures=[],
                       config_hash=config_hash)


def write_manifest(result: SweepResult, path) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": result.config_hash,
        "config": yaml.safe_load(result.config.to_yaml()),
        "n_surfaces": len(result.surfaces),
        "failures": [{"cell": list(cell), "error": msg.splitlines()[-1]}
                     for cell, msg in result.failures],
        "ple_target_azimuths_deg": [float(az) for az in PLE_TARGET_AZIMUTHS],
        "ple_cells": [
            {"cell": list(cell), "dropped_directions": ple.dropped,
             "direction_errors_deg": [float(e) if np.isfinite(e) else None
                                      for e in ple.errors]}
            for cell, ple in result.ple_cells.items()],
    }
    Path(path).write_text(yaml.safe_dump(manifest, sort_keys=True))


def report(result: SweepResult) -> str:
    """Human-readable usable-bandwidth summary for every criterion metric,
    at the published criteria."""
    lines = [f"sweep report (config {result.config_hash})", ""]
    if not result.surfaces:
        return "\n".join(lines + ["no surfaces computed"])
    for surf in sorted(result.surfaces, key=lambda s: str(s.key())):
        if surf.band_centers is None:
            continue
        thr = criterion(surf.metric, surf.algorithm)
        bw = usable_bandwidth(surf, thr)
        name = surf.metric + (f"/{surf.algorithm}" if surf.algorithm else "")
        lines.append(f"{name} {surf.method} pose={surf.pose_offset:g} m "
                     f"(criterion {thr:g} dB)")
        for count, f in bw.items():
            label = ("not measured" if math.isnan(f) else
                     f"usable to {f:.0f} Hz" if f > 0 else "usable to none")
            lines.append(f"  N={count:3d}: {label}")
    scalar = [s for s in result.surfaces if s.band_centers is None]
    if scalar:
        lines.append("")
        for surf in sorted(scalar, key=lambda s: str(s.key())):
            vals = ", ".join(f"N={c}: {_fmt(v)}" for c, v in
                             zip(surf.speaker_counts, surf.values))
            lines.append(f"{surf.metric} {surf.method} "
                         f"pose={surf.pose_offset:g} m: {vals}")
    if result.failures:
        lines.append("")
        lines.append(f"{len(result.failures)} failure(s):")
        for cell, msg in result.failures:
            lines.append(f"  {cell}: {msg.splitlines()[-1]}")
    return "\n".join(lines)
