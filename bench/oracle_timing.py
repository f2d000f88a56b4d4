"""Median time of one ``min_tour`` call on random Hamiltonian graphs.

Run from the root of a checkout:

    python3 bench/oracle_timing.py [--sizes 12 14 16 18 20 22 24]

For each edge probability (0.2 with 9 draws, 0.5 with 5) and each size, the
draws come from ``random.Random(1)``: ``random_connected_graph`` with
weights 1-100, keeping the Hamiltonian ones. Each call runs in a fresh
process, which prints its time, the peak resident size and whether it
finished; a call that raises ``TooLarge`` is timed until it raises. One
line per cell, then one line per draw that raised. After the table, one
line per ``hubbed_cliques(k)`` for k = 5, 6 and 7: three K_k whose vertices
are all joined to the same two hubs, which has no Hamilton cycle, so the
front gate's search gives up and the DP without a first tour decides.
Stdlib only; it imports cycletrim from ``src/`` of the checkout it lives
in.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cycletrim import Graph, is_hamiltonian, random_connected_graph, serialize_graph  # noqa: E402

CELLS = ((0.2, 9), (0.5, 5))

CHILD = """
import json, resource, sys
from time import perf_counter
from cycletrim import TooLarge, min_tour, parse_graph
graph = parse_graph(sys.stdin.read())
start = perf_counter()
try:
    min_tour(graph)
    finished = True
except TooLarge:
    finished = False
print(json.dumps({"s": perf_counter() - start, "finished": finished,
                  "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def draws(n: int, p: float, count: int) -> list:
    rng = random.Random(1)
    kept = []
    while len(kept) < count:
        graph = random_connected_graph(rng, n, p, 1, 100)
        if is_hamiltonian(graph):
            kept.append(graph)
    return kept


def hubbed_cliques(k: int) -> Graph:
    """Three K_k, every vertex of which is joined to the same two hubs,
    numbered last; unit weights."""
    n = 3 * k + 2
    cliques = [(c * k + i, c * k + j, 1) for c in range(3) for i in range(k) for j in range(i + 1, k)]
    return Graph(n, tuple(cliques + [(x, hub, 1) for x in range(3 * k) for hub in (n - 2, n - 1)]))


def timed(graph) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", CHILD], input=serialize_graph(graph), capture_output=True,
        text=True, check=True, env={"PYTHONPATH": str(ROOT / "src")},
    )
    return json.loads(out.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[12, 14, 16, 18, 20, 22, 24])
    args = parser.parse_args()
    for p, count in CELLS:
        for n in args.sizes:
            runs = [timed(graph) for graph in draws(n, p, count)]
            median = statistics.median(run["s"] for run in runs)
            done = sum(run["finished"] for run in runs)
            print(f"p {p} n {n}: median {median:.4f} s, {done}/{count} finished, "
                  f"max {max(run['s'] for run in runs):.2f} s, "
                  f"peak RSS up to {max(run['rss_mib'] for run in runs):.0f} MiB", flush=True)
            for index, run in enumerate(runs):
                if not run["finished"]:
                    print(f"  draw {index} raised TooLarge after {run['s']:.2f} s "
                          f"({run['rss_mib']:.0f} MiB)", flush=True)
    for k in (5, 6, 7):
        run = timed(hubbed_cliques(k))
        outcome = "finished" if run["finished"] else "raised TooLarge"
        print(f"hubbed_cliques({k}): {run['s']:.2f} s, peak RSS {run['rss_mib']:.0f} MiB, "
              f"{outcome}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
