"""One benchmark sweep in this process, the way `spatsim sweep` runs it.

    python3 perfbench/sweep.py --workload ple-center --seed 0 --out DIR [--trace]

Writes surfaces.csv, manifest.yaml and report.txt to DIR, then result.json
with the timings, the surfaces and (with --trace) the per-layer metrics, and
spans.json with every span. run.py starts one such process per sweep.
"""

import time

T0 = time.perf_counter()        # process start, before spatsim is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, config_seed, sweep_config  # noqa: E402

def _surfaces(result) -> dict:
    """Surface values by key, one row per speaker count, NaN as None."""
    out = {}
    for surf in result.surfaces:
        metric, method, pose, algorithm = surf.key()
        values = surf.values.astype(object)
        values[surf.values != surf.values] = None
        out[f"{metric}|{algorithm or ''}|{method}|{pose:g}"] = values.tolist()
    return out


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get("blas", {}).get(k)
                     for k in ("name", "version")}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    import spatsim.harness as harness
    t_import = time.perf_counter()

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    config = sweep_config(harness.SweepConfig, args.workload, args.seed)
    cells = []

    def progress(cell):
        cells.append(time.perf_counter())

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    try:
        t_run = time.perf_counter()
        with span("harness.run_sweep"):
            result = harness.run_sweep(config, progress=progress)
        t_swept = time.perf_counter()
        with span("harness.write_outputs"):
            harness.write_surfaces_csv(result, out / "surfaces.csv")
            harness.write_manifest(result, out / "manifest.yaml")
            (out / "report.txt").write_text(harness.report(result) + "\n")
        t_end = time.perf_counter()
    finally:
        if tracer:
            tracer.uninstall()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": config_seed(args.seed),
        "traced": bool(tracer),
        "cells": len(cells),
        "failures": [[list(cell), msg.splitlines()[-1]]
                     for cell, msg in result.failures],
        "import_s": t_import - T0,
        "setup_s": cells[0] - T0,
        "cell_s": (t_swept - cells[0]) / len(cells),
        "total_s": t_end - T0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "surfaces_sha256": hashlib.sha256(
            (out / "surfaces.csv").read_bytes()).hexdigest(),
        "surfaces": _surfaces(result),
        "versions": _versions(),
    }
    if tracer:
        record["layers"] = tracer.layer_metrics(cells[0], t_run)
        residual, smallest = tracer.self_check(record["total_s"])
        record["self_check"] = {"residual_s": residual,
                                "smallest_self_s": smallest}
        record["trace_overhead_s"] = tracer.overhead_s
        (out / "spans.json").write_text(json.dumps(
            [[name, start - T0, end - T0, parent]
             for name, start, end, parent in tracer.spans]))
    (out / "result.json").write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
