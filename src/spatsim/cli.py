"""Command line interface.

Exit codes: 0 success, 2 sweep completed with failed cells, 1 fatal error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .binsim import ReceiverBank, VirtualSource, render_reference, render_source
from .geometry import Position2D, build_array
from .haalgo import ALGORITHMS
from .harness import (BANDED_METRICS, SweepConfig, contour_extract, criterion,
                      load_surfaces_csv, report, run_sweep, write_manifest,
                      write_surfaces_csv, _make_algorithms)
from .hrir import (CHANNELS, DEFAULT_HEAD_RADIUS, DEFAULT_SAMPLE_RATE,
                   save_hrir_set, synth_sphere_hrir)
from .panner import ReproductionMethod
from .signals import DEFAULT_SEED, synthetic_speech


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatsim",
        description="Loudspeaker-reproduction simulation workbench for "
                    "multi-microphone hearing aid processing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run the evaluation grid")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--config", help="YAML sweep configuration")
    source.add_argument("--preset", choices=["full", "desk"], default=None,
                        help="built-in configuration preset")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None, help="output directory")
    p.add_argument("--workers", type=int, default=None,
                   help="processes that calibrate the cue lookup, "
                        "synthesize the scene and measure the units "
                        "(default: the CPUs available, or 1 without the "
                        "fork start method); 1 runs them in this process")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("contour", help="extract a criterion contour from a "
                                       "sweep CSV")
    p.add_argument("csv")
    p.add_argument("--metric", default="beam", choices=BANDED_METRICS)
    p.add_argument("--algorithm", default=None)
    p.add_argument("--method", required=True)
    p.add_argument("--pose", type=float, default=0.0)
    p.add_argument("--threshold", type=float, default=None,
                   help="default: the published criterion for the metric")

    p = sub.add_parser("report", help="usable-bandwidth report from a sweep CSV")
    p.add_argument("csv")

    p = sub.add_parser("synth-hrir", help="synthesize and save a sphere-model "
                                          "HRIR set")
    p.add_argument("output", help="output directory")
    p.add_argument("--step", type=float, default=5.0,
                   help="azimuth grid step in degrees")
    p.add_argument("--head-radius", type=float, default=DEFAULT_HEAD_RADIUS)
    p.add_argument("--distance", type=float, default=3.0)
    p.add_argument("--sample-rate", type=int, default=DEFAULT_SAMPLE_RATE)

    p = sub.add_parser("render", help="render one condition to a WAV file "
                                      "for audition")
    p.add_argument("output", help="output WAV path")
    p.add_argument("--method", choices=["nsp", "vbap", "hoa", "reference"],
                   default="reference")
    p.add_argument("--count", type=int, default=24, help="speaker count")
    p.add_argument("--azimuth", type=float, default=0.0)
    p.add_argument("--distance", type=float, default=3.0)
    p.add_argument("--pose", type=float, default=0.0,
                   help="lateral listener offset in meters")
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--algorithm", default=None,
                   choices=[name for name, cls in ALGORITHMS.items()
                            if not cls.oracle],
                   help="process the rendering with a hearing aid algorithm")
    p.add_argument("--channels", nargs="+", default=["in_ear_L", "in_ear_R"],
                   choices=list(CHANNELS))
    return parser


def _cmd_sweep(args) -> int:
    if args.config:
        config = SweepConfig.from_yaml(args.config)
    elif args.preset == "desk":
        config = SweepConfig.desk_scale()
    else:
        config = SweepConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.output is not None:
        overrides["output_dir"] = args.output
    if overrides:
        from dataclasses import replace
        config = replace(config, **overrides)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.time()

    def progress(cell):
        if not args.quiet:
            method, count, pose = cell
            print(f"[{time.time() - t0:7.1f}s] {method} N={count} "
                  f"pose={pose:g} m", flush=True)

    result = run_sweep(config, progress=progress, workers=args.workers)
    write_surfaces_csv(result, out_dir / "surfaces.csv")
    write_manifest(result, out_dir / "manifest.yaml")
    (out_dir / "report.txt").write_text(report(result) + "\n")
    if not args.quiet:
        print(f"wrote {out_dir}/surfaces.csv ({len(result.surfaces)} surfaces)")
    if result.failures:
        print(f"{len(result.failures)} failure(s); see manifest",
              file=sys.stderr)
        return 2
    return 0


def _cmd_contour(args) -> int:
    result = load_surfaces_csv(args.csv)
    algorithm = args.algorithm
    if args.metric == "snr" and algorithm is None:
        raise SystemExit("--algorithm is required for the snr metric")
    surface = result.surface(args.metric, args.method, args.pose, algorithm)
    threshold = args.threshold
    if threshold is None:
        threshold = criterion(args.metric, algorithm)
    points = contour_extract(surface, threshold)
    if not points:
        print("no contour: surface never crosses the threshold")
        return 0
    print("speaker_count,frequency_hz")
    for count, freq in points:
        print(f"{count},{freq:.6g}")
    return 0


def _cmd_report(args) -> int:
    result = load_surfaces_csv(args.csv)
    text = report(result)
    print(text)
    return 1 if not result.surfaces else 0


def _cmd_synth_hrir(args) -> int:
    grid = np.arange(0.0, 360.0, args.step)
    hrir_set = synth_sphere_hrir(azimuth_grid=grid,
                                 sample_rate=args.sample_rate,
                                 head_radius=args.head_radius,
                                 distance=args.distance)
    save_hrir_set(hrir_set, args.output)
    print(f"wrote {len(grid)}-direction set to {args.output}")
    return 0


def _cmd_render(args) -> int:
    from scipy.io import wavfile

    # Only the rendered channels are synthesized: the algorithm's, if any.
    channels = (ALGORITHMS[args.algorithm].channels if args.algorithm
                else tuple(args.channels))
    hrir_set = synth_sphere_hrir(distance=args.distance, channels=channels)
    listener = Position2D(0.0, args.pose)
    signal = synthetic_speech(args.duration, hrir_set.sample_rate,
                              seed=args.seed)
    source = VirtualSource(signal, Position2D.from_polar(args.azimuth,
                                                         args.distance))
    if args.method == "reference":
        buf = render_reference(source, hrir_set, listener, channels)
    else:
        array = build_array(args.count, radius=args.distance)
        bank = ReceiverBank(array, hrir_set, listener, channels)
        buf = render_source(ReproductionMethod(args.method), bank, source)
    names = [args.algorithm] if args.algorithm is not None else []
    for algorithm in _make_algorithms(hrir_set, names).values():
        buf = algorithm.process(buf)
    peak = np.abs(buf.samples).max()
    scale = 0.9 / peak if peak > 0 else 1.0
    wavfile.write(args.output, buf.sample_rate,
                  (buf.samples.T * scale).astype(np.float32))
    print(f"wrote {buf.channels}-channel WAV to {args.output}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"sweep": _cmd_sweep, "contour": _cmd_contour,
                "report": _cmd_report, "synth-hrir": _cmd_synth_hrir,
                "render": _cmd_render}
    try:
        return handlers[args.command](args)
    except SystemExit:
        raise
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
