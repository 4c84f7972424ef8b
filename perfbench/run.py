"""Sweep benchmark for spatsim.

    python3 perfbench/run.py --workload ple-center --seed 0 --seconds 60 --trace 0

Runs one workload (a slice of the desk sweep, see workloads.py) as a
single-client closed loop: one sweep at a time, each in a fresh process with
BLAS/OpenMP threads pinned to 1, while another sweep still ends within
--seconds (at least one sweep). Every sweep's surfaces are checked against the values recorded in
reference/. The last line of standard output is one JSON object; with
--trace 0 it holds the end-to-end metrics (medians over the sweeps), with
--trace 1 the per-layer metrics of two traced sweeps, whose counts must agree.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, config_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".bench_out"
THREAD_PINS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}
# A run must end within this many seconds; no sweep starts after the budget
# for one more is gone.
RUN_LIMIT_S = 170.0
# Surface values are dB or degrees; reordered floating-point sums move them
# by far less than this, an algorithm change by more.
SURFACE_TOL = 1e-6

END_TO_END_UNITS = {"total_s": "s", "setup_s": "s", "cell_s": "s",
                    "peak_rss_mb": "MB"}
COUNT_SUFFIXES = (".calls", ".frames", ".samples", ".fine_glimpses")


def run_sweep(workload: str, seed: int, out: Path, trace: bool,
              timeout: float) -> dict:
    """One sweep in a fresh process; returns its result.json."""
    if out.exists():
        shutil.rmtree(out)
    cmd = [sys.executable, str(HERE / "sweep.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, **THREAD_PINS)
    subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, check=True,
                   timeout=timeout)
    return json.loads((out / "result.json").read_text())


def warm_up() -> None:
    """Import spatsim once in a throwaway process, so that no timed sweep
    pays for compiling the package's bytecode or reading it from a cold
    file cache."""
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, 'src'); "
                    "import spatsim.harness"],
                   env=dict(os.environ, **THREAD_PINS), cwd=ROOT,
                   stdout=sys.stderr, check=True, timeout=60)


def load_reference(workload: str) -> dict:
    path = HERE / "reference" / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def check_surfaces(sweep: dict, reference: dict) -> tuple:
    """(largest |value - reference|, cells that failed or whose NaN pattern
    differs from the reference). A cell is a (method, N, pose) triple."""
    ref = reference.get(str(sweep["config_seed"]))
    bad = {tuple(cell) for cell, _ in sweep["failures"]}
    if ref is None:
        return math.inf, bad | {("no reference",)}
    max_dev = 0.0
    for key in set(ref["surfaces"]) | set(sweep["surfaces"]):
        metric, algorithm, method, pose = key.split("|")
        want = ref["surfaces"].get(key)
        got = sweep["surfaces"].get(key)
        if want is None or got is None or np.shape(want) != np.shape(got):
            bad.add((method, "all", float(pose)))
            continue
        want = np.array(want, dtype=float)
        got = np.array(got, dtype=float)
        same_nan = np.isnan(want) == np.isnan(got)
        counts = WORKLOADS[sweep["workload"]]["speaker_counts"]
        for i, count in enumerate(counts):
            if not np.all(same_nan[i]):
                bad.add((method, count, float(pose)))
        both = ~np.isnan(want) & ~np.isnan(got)
        if both.any():
            max_dev = max(max_dev, float(np.max(np.abs(want - got)[both])))
    return max_dev, bad


def run_record(sweeps: list, reference: dict) -> dict:
    """Machine, versions and provenance of this run."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src" / "spatsim").glob("*.py"))
    first = sweeps[0]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "versions": first["versions"],
        "thread_pins": THREAD_PINS,
        "git_commit": commit,
        "src_spatsim_lines": src_lines,
        "sweeps": [{k: s[k] for k in ("traced", "setup_s", "cell_s",
                                      "total_s", "cpu_s", "peak_rss_mb",
                                      "surfaces_sha256")}
                   for s in sweeps],
        "reference_sha256": reference.get(
            str(first["config_seed"]), {}).get("surfaces_sha256"),
    }


def check_trace(sweeps: list) -> bool:
    """Flag counts that differ between the two traced sweeps and broken span
    accounting (self times plus untraced remainder != total_s)."""
    ok = True
    a, b = (s["layers"] for s in sweeps)
    for name in a:
        if name.endswith(COUNT_SUFFIXES) and a[name] != b[name]:
            print(f"  FLAG: {name} differs between traced sweeps: "
                  f"{a[name]} vs {b[name]}")
            ok = False
    for s in sweeps:
        check = s["self_check"]
        if (abs(check["residual_s"]) > 1e-6
                or check["smallest_self_s"] < -1e-9):
            print(f"  FLAG: span accounting broken: {check}")
            ok = False
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "spatsim" / "__init__.py").is_file():
        print(f"error: no spatsim sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    reference = load_reference(args.workload)
    out = OUT_ROOT / args.workload / f"seed{args.seed}"

    start = time.perf_counter()
    sweeps = []

    def sweep(trace):
        remaining = RUN_LIMIT_S - (time.perf_counter() - start)
        sweeps.append(run_sweep(args.workload, args.seed,
                                out / f"sweep{len(sweeps)}", trace, remaining))
        return sweeps[-1]

    warm_up()
    measure_start = time.perf_counter()
    if args.trace:
        sweep(True)
        sweep(True)
    else:
        # Sweeps follow one another while the next one, as long as the
        # longest so far, still ends within --seconds; at least one runs.
        longest = 0.0
        while True:
            longest = max(longest, sweep(False)["total_s"])
            now = time.perf_counter()
            if (now - measure_start + longest > args.seconds
                    or now - start + 1.5 * longest > RUN_LIMIT_S):
                break

    failed = 0
    max_dev = 0.0
    attempted = 0
    for s in sweeps:
        dev, bad = check_surfaces(s, reference)
        max_dev = max(max_dev, dev)
        failed += len(bad)
        attempted += s["cells"]
    correct = failed == 0 and max_dev <= SURFACE_TOL

    record = run_record(sweeps, reference)
    print(f"{args.workload} seed {args.seed} (sweep seed "
          f"{config_seed(args.seed)}): {len(sweeps)} "
          f"{'traced ' if args.trace else ''}sweep(s), {attempted} cell(s)")
    metrics = {name: {"value": statistics.median(s[name] for s in sweeps),
                      "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        print(f"  {name:16s} {m['value']:.6g} {m['unit']}")
    print(f"  {'surface_max_dev':16s} {max_dev:.6g} dB or deg")
    print(f"  {'cell_fail_ratio':16s} {failed / attempted:.6g} ratio")
    if args.trace:
        correct = check_trace(sweeps) and correct
        a, b = (s["layers"] for s in sweeps)
        metrics = {name: {"value": statistics.median([a[name], b[name]])
                          if name.endswith(".s") else a[name],
                          "unit": "s" if name.endswith(".s") else
                          "ratio" if name.endswith("_ratio") else "count"}
                   for name in a}
        overhead = statistics.median(
            s["total_s"] / (s["total_s"] - s["trace_overhead_s"])
            for s in sweeps)
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        print(f"  tracing overhead: total_s / (total_s - time in the tracer) "
              f"= {overhead:.5f}")
    print(f"  surfaces.csv sha256 {sweeps[0]['surfaces_sha256'][:12]} "
          f"(reference {str(record['reference_sha256'])[:12]})")
    print(f"  run record: {json.dumps(record, sort_keys=True)}")
    (out / "run.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
