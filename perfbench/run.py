"""cycletrim benchmark: command-line entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mine_ref --seed 1 --seconds 30 --trace 0

It imports cycletrim from ``src/`` of the same checkout and refuses to run
without it. Output: one line per metric (name, value, unit), one JSON line of
details (input fingerprint, status counts, counters, finish and optimum
rates, error rate, report digest), then the result line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, measured with tracing off and rescaled to
the reference machine's speed (the values as measured are in the details); with
``--trace 1`` they are the per-layer ones from a separate traced execution,
plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"  # campaign reports; removed when the run ends


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cycletrim" / "__init__.py").is_file():
        print(f"perfbench: no cycletrim sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    start = perf_counter()
    import workloads  # imports cycletrim

    import_s = perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    try:
        if args.trace:
            tally, metrics, detail = workloads.measure_layers(args.workload, args.seed, args.seconds, OUT)
            names = workloads.PER_LAYER_METRICS
        else:
            tally, metrics, detail = workloads.measure(args.workload, args.seed, args.seconds, import_s, OUT)
            names = workloads.END_TO_END_METRICS
    finally:
        shutil.rmtree(OUT, ignore_errors=True)

    shown = {**metrics, **{k: detail[k] for k in workloads.DETAIL_METRICS if k in detail}}
    for name, value in shown.items():
        print(f"{name:<40} {value:>16.6f} {workloads.unit_of(name)}")
    for problem in tally.problems[:10]:
        print(f"FAILED {problem}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds, **detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": workloads.unit_of(name)} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
