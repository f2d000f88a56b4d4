"""One sha256 over the solver's results on a benchmark workload's inputs.

Run from the root of a checkout:

    python3 bench/solver_digest.py --seed 1 [--seconds 30] [--workload mine_ref ...]

The inputs are those ``perfbench/run.py`` draws for the same workload, seed
and ``--seconds``: the Hamiltonian graphs that ``workloads.set_up`` keeps.
For each input the digest takes ``cli._result_json(solve(graph))`` (status,
tour, weight, counters and trace) together with the one counter it leaves
out, ``row_ops``. Two checkouts whose digests agree give the same results,
traces and counters on every input.
A second, outcome sha256 takes status, tour, weight, trace, ``solvable``,
``deletions``, ``comparisons`` and ``reduce_calls``. It leaves out the
counts of partitions tried and candidates tested, which a solve that stops
early lowers without changing its answer. All but ``reduce_calls`` are
fixed by the answer and the deletion path; ``reduce_calls`` can also rise
by the cluster reductions of the start verdicts that a stopping solve asks
of its first partition's solution cycles, so its equality across two
checkouts is measured on the inputs hashed, not guaranteed.
Each line also counts, over all inputs, the deletions applied, the distinct
(input, retained set) pairs the solver's states reach (the start set
included: the entries of the basis' table of retained sets), and the
verdicts evaluated (the sum of those entries' verdicts). Stdlib
only; it imports cycletrim from ``src/`` and the workloads from
``perfbench/`` of the checkout it lives in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from time import process_time

#: the ``cli._result_json`` fields the outcome sha256 takes
OUTCOME_FIELDS = (
    "status", "tour", "weight", "trace", "solvable", "deletions", "comparisons", "reduce_calls",
)

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from cycletrim import cli, solve  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()

    for workload in args.workload or workloads.WORKLOADS:
        inputs = workloads.set_up(workload, args.seed, workloads.input_size(workload, args.seconds))
        sha = hashlib.sha256()
        outcome = hashlib.sha256()
        deletions = retained_sets = evaluations = 0
        spent = 0.0
        for graph in inputs.kept:
            start = process_time()
            result = solve(graph)
            spent += process_time() - start
            counters = result.counters
            answer = {
                **cli._result_json(result),
                "row_ops": counters.row_ops,
            }
            sha.update(json.dumps(answer, sort_keys=True).encode() + b"\n")
            fixed = {name: answer[name] for name in OUTCOME_FIELDS}
            outcome.update(json.dumps(fixed, sort_keys=True).encode() + b"\n")
            deletions += counters.deletions
            if result.final_state is not None:
                table = result.final_state.basis._retained_sets
                retained_sets += len(table)
                evaluations += sum(len(entry.verdicts) for entry in table.values())
        print(f"{workload} seed {args.seed} seconds {args.seconds}: {len(inputs.kept)} inputs, "
              f"sha256 {sha.hexdigest()}, outcome sha256 {outcome.hexdigest()}; {deletions} deletions, {retained_sets} retained sets, "
              f"{evaluations} evaluations ({spent:.2f} s in solve)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
