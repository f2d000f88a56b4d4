"""One sha256 over the oracle's answers on a benchmark workload's inputs.

Run from the root of a checkout:

    python3 bench/oracle_digest.py --seed 1 [--seconds 30] [--workload large_dense ...]

The inputs are those ``perfbench/run.py`` draws for the same workload, seed
and ``--seconds``: the Hamiltonian graphs that ``workloads.set_up`` keeps.
For each input, and then for a copy of it whose weights are mapped to
``1 + w % 2`` so that equal-weight paths and tours are common, the digest
takes ``repr(min_tour(graph))``: weight and tour. Two checkouts whose
digests agree give the same answers and tours on every input. Stdlib only;
it imports cycletrim from ``src/`` and the workloads from ``perfbench/`` of
the checkout it lives in.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from cycletrim import Graph, min_tour  # noqa: E402


def tied(graph: Graph) -> Graph:
    return Graph(graph.vertex_count, tuple((u, v, 1 + w % 2) for u, v, w in graph.edges))


def digest(workload: str, seed: int, seconds: int) -> tuple[int, str, float]:
    """(inputs, sha256 over both passes, seconds spent in ``min_tour``)."""
    graphs = workloads.set_up(workload, seed, workloads.input_size(workload, seconds)).kept
    sha = hashlib.sha256()
    spent = 0.0
    for graph in graphs + [tied(g) for g in graphs]:
        start = perf_counter()
        answer = min_tour(graph)
        spent += perf_counter() - start
        sha.update(repr(answer).encode() + b"\n")
    return len(graphs), sha.hexdigest(), spent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    for workload in args.workload or workloads.WORKLOADS:
        count, hexdigest, spent = digest(workload, args.seed, args.seconds)
        print(f"{workload} seed {args.seed} seconds {args.seconds}: {count} inputs x 2, "
              f"sha256 {hexdigest} ({spent:.2f} s in min_tour)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
