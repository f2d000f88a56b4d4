"""One sha256 over the oracle's answers on a benchmark workload's inputs.

Run from the root of a checkout:

    python3 bench/oracle_digest.py --seed 1 [--seconds 30] [--workload large_dense ...]

The inputs are those ``perfbench/run.py`` draws for the same workload, seed
and ``--seconds``: the Hamiltonian graphs that ``workloads.set_up`` keeps.
For each input, and then for a copy of it whose weights are mapped to
``1 + w % 2`` so that equal-weight paths and tours are common, the digest
takes ``repr(min_tour(graph))``: weight and tour. A second line does the
same for copies whose weights are mapped to -1, 0 and 1/2 by ``w % 3``, so
that negative and fractional weights are covered too. Two checkouts whose
digests agree give the same answers and tours on every input. A third
line per workload digests the ``is_hamiltonian`` verdict on every graph
``set_up`` draws, the gated-out ones included. A fourth digests the cycle,
or None, that the gate's checks and whole search return on every drawn
graph: it is the first in the search's order, so prunes that cut only
paths no Hamilton cycle extends leave it as it is. A fifth repeats the
first with ``is_hamiltonian`` run on each graph just before ``min_tour``,
the order ``compare_graph`` takes, in which ``min_tour`` reads the gate's
memo; its sha256 must equal the first's. Stdlib only; it imports
cycletrim from ``src/`` and the workloads from ``perfbench/`` of the
checkout it lives in.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from cycletrim import Graph, is_hamiltonian, min_tour, oracle  # noqa: E402
from cycletrim.graphs import mask_neighbours  # noqa: E402


def tied(graph: Graph) -> Graph:
    return Graph(graph.vertex_count, tuple((u, v, 1 + w % 2) for u, v, w in graph.edges))


SIGNED = (-1, 0, Fraction(1, 2))


def signed(graph: Graph) -> Graph:
    return Graph(graph.vertex_count, tuple((u, v, SIGNED[w % 3]) for u, v, w in graph.edges))


def digest(graphs: list[Graph], oracle) -> tuple[str, float]:
    """(sha256 over ``repr(oracle(graph))`` per graph, seconds spent in ``oracle``)."""
    sha = hashlib.sha256()
    spent = 0.0
    for graph in graphs:
        start = perf_counter()
        answer = oracle(graph)
        spent += perf_counter() - start
        sha.update(repr(answer).encode() + b"\n")
    return sha.hexdigest(), spent


def whole_search(graph: Graph):
    """The gate's up-front checks and search without a budget: some Hamilton
    cycle, or None when ``graph`` has none."""
    nbrs = mask_neighbours(graph, (1 << graph.edge_count) - 1)
    if oracle._no_tour_up_front(graph, nbrs):
        return None
    return oracle._search_cycle(graph, nbrs, None)


def gated_min_tour(graph: Graph):
    is_hamiltonian(graph)
    return min_tour(graph)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    for workload in args.workload or workloads.WORKLOADS:
        inputs = workloads.set_up(workload, args.seed, workloads.input_size(workload, args.seconds))
        graphs = inputs.kept
        hexdigest, spent = digest(graphs + [tied(g) for g in graphs], min_tour)
        print(f"{workload} seed {args.seed} seconds {args.seconds}: {len(graphs)} inputs x 2, "
              f"sha256 {hexdigest} ({spent:.2f} s in min_tour)")
        hexdigest, spent = digest([signed(g) for g in graphs], min_tour)
        print(f"{workload} seed {args.seed} seconds {args.seconds}: {len(graphs)} inputs "
              f"reweighted to -1, 0, 1/2, sha256 {hexdigest} ({spent:.2f} s in min_tour)")
        hexdigest, spent = digest(inputs.drawn, is_hamiltonian)
        print(f"{workload} seed {args.seed} seconds {args.seconds}: {len(inputs.drawn)} drawn, "
              f"is_hamiltonian sha256 {hexdigest} ({spent:.2f} s in is_hamiltonian)")
        hexdigest, spent = digest(inputs.drawn, whole_search)
        print(f"{workload} seed {args.seed} seconds {args.seconds}: {len(inputs.drawn)} drawn, "
              f"gate cycle sha256 {hexdigest} ({spent:.2f} s in the search)")
        hexdigest, spent = digest(graphs + [tied(g) for g in graphs], gated_min_tour)
        print(f"{workload} seed {args.seed} seconds {args.seconds}: {len(graphs)} inputs x 2, "
              f"gated first, sha256 {hexdigest} ({spent:.2f} s in is_hamiltonian and min_tour)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
