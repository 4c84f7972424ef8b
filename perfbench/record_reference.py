"""Record the reference surfaces that run.py checks every sweep against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload once per sweep seed of the pool (workloads.SEED_POOL) and
writes reference/<workload>.json. Run it only when a change to the program is
meant to change the surfaces, and say why in the change.
"""

import json
import sys
from pathlib import Path

from run import OUT_ROOT, RUN_LIMIT_S, run_sweep
from workloads import SEED_POOL, WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    names = sys.argv[1:] or sorted(WORKLOADS)
    for workload in names:
        reference = {}
        for seed in range(SEED_POOL):
            result = run_sweep(workload, seed,
                               OUT_ROOT / "reference" / workload / str(seed),
                               False, RUN_LIMIT_S)
            if result["failures"]:
                print(f"{workload} seed {seed}: failed cells "
                      f"{result['failures']}", file=sys.stderr)
                return 1
            reference[str(result["config_seed"])] = {
                "surfaces": result["surfaces"],
                "surfaces_sha256": result["surfaces_sha256"]}
            print(f"{workload} seed {seed}: {result['total_s']:.1f} s, "
                  f"sha256 {result['surfaces_sha256'][:12]}", flush=True)
        (HERE / "reference" / f"{workload}.json").write_text(
            json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
