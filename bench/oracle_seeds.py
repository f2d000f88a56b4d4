"""Per-seed ``min_tour`` and ``compare_graph`` time on a benchmark workload's inputs.

Run from the root of a checkout:

    python3 bench/oracle_seeds.py --workload large_dense --seeds 1 12 [--seconds 30]

For each seed from the first to the last of ``--seeds``, the inputs are
those ``perfbench/run.py`` draws for the same workload, seed and
``--seconds``: the Hamiltonian graphs that ``workloads.set_up`` keeps. One
pass calls ``min_tour`` on every input, another calls
``harness.compare_graph`` (the solver and the oracle) on every input; each
is timed in process time, and the smaller of two passes is kept. One line
per seed gives the inputs, both times and both throughputs (inputs per
second). Then the median and the quartiles of each column across seeds
(``statistics.quantiles``, inclusive method), and the interquartile range
as a share of the median. Stdlib only; it imports cycletrim from ``src/``
and the workloads from ``perfbench/`` of the checkout it lives in.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from cycletrim import harness, min_tour  # noqa: E402

PASSES = 2
COLUMNS = ("min_tour_s", "min_tour_per_s", "compare_s", "compare_per_s")


def timed(graphs: list, run) -> float:
    """Least process time of ``PASSES`` passes of ``run`` over ``graphs``."""
    best = float("inf")
    for _ in range(PASSES):
        start = process_time()
        for index, graph in enumerate(graphs):
            run(index, graph)
        best = min(best, process_time() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"))
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    first, last = args.seeds
    if last - first < 1:
        parser.error("--seeds needs at least two seeds for quartiles")
    size = workloads.input_size(args.workload, args.seconds)
    print(f"{args.workload} seeds {first}-{last} seconds {args.seconds}: process time, "
          f"least of {PASSES} passes")
    print(f"{'seed':>6} {'inputs':>6} " + " ".join(f"{c:>15}" for c in COLUMNS))
    rows = []
    for seed in range(first, last + 1):
        graphs = workloads.set_up(args.workload, seed, size).kept
        oracle_s = timed(graphs, lambda index, graph: min_tour(graph))
        compare_s = timed(graphs, lambda index, graph: harness.compare_graph(
            graph, instance_id=f"bench-{index:04d}", seed=seed))
        row = (oracle_s, len(graphs) / oracle_s, compare_s, len(graphs) / compare_s)
        rows.append(row)
        print(f"{seed:>6} {len(graphs):>6} " + " ".join(f"{v:>15.3f}" for v in row), flush=True)
    columns = list(zip(*rows))
    medians = [statistics.median(c) for c in columns]
    quartiles = [statistics.quantiles(c, n=4, method="inclusive") for c in columns]
    print(f"{'median':>13} " + " ".join(f"{m:>15.3f}" for m in medians))
    print(f"{'q1':>13} " + " ".join(f"{q[0]:>15.3f}" for q in quartiles))
    print(f"{'q3':>13} " + " ".join(f"{q[2]:>15.3f}" for q in quartiles))
    print(f"{'iqr/median':>13} " + " ".join(
        f"{(q[2] - q[0]) / m:>15.1%}" for q, m in zip(quartiles, medians)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
