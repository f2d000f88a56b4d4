"""Command-line surface.

Commands::

    cycletrim solve <file> [--json]
    cycletrim oracle <file>
    cycletrim compare <file> [--json]
    cycletrim mine --count K --n-min A --n-max B --edge-prob P \
                   --weights uniform:LO:HI --seed S --report PATH

Exit codes: 0 success, 1 usage, 2 parse failure, 3 input not Hamiltonian,
4 solver could not finish (stuck or no solution).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path

from .graphs import GraphError, Graph, format_weight, iter_bits, parse_graph
from .harness import (
    FRONT_GATE,
    CampaignConfig,
    CampaignError,
    compare_graph,
    run_campaign,
)
from .oracle import TooLarge, min_tour
from .solver import STATUS_NOT_HAMILTONIAN, STATUS_OK, TourResult, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NOT_HAMILTONIAN = 3
EXIT_UNFINISHED = 4

# bounds are ASCII integers of at most 18 digits, far inside what int() converts
_WEIGHT_MODEL_RE = re.compile(r"uniform:(-?[0-9]{1,18}):(-?[0-9]{1,18})")


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the contract wants 1
    def error(self, message: str):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _status_exit(status: str) -> int:
    if status == STATUS_OK:
        return EXIT_OK
    if status == STATUS_NOT_HAMILTONIAN:
        return EXIT_NOT_HAMILTONIAN
    return EXIT_UNFINISHED


def _load_graph(path: str) -> Graph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc
    return parse_graph(text)


def _render_tour(tour: tuple[int, ...]) -> str:
    return " -> ".join(str(v) for v in tour + (tour[0],))


def _weight_text(w) -> str:
    return format_weight(w) if w is not None else "-"


def _result_json(result: TourResult) -> dict:
    return {
        "status": result.status,
        "tour": list(result.tour) if result.tour is not None else None,
        "weight": _weight_text(result.weight) if result.weight is not None else None,
        "solvable": result.solvable,
        "solutions_tried": result.solutions_tried,
        "deletions": result.counters.deletions,
        "candidates_tested": result.counters.candidates_tested,
        "reduce_calls": result.counters.reduce_calls,
        "comparisons": result.counters.comparisons,
        "trace": [
            {
                "cycle": rec.cycle,
                "removed_edge": rec.removed_edge,
                "newly_boundary": list(iter_bits(rec.newly_boundary)),
                "added_weight": _weight_text(rec.added_weight),
            }
            for rec in result.trace
        ],
        "front_gate": FRONT_GATE,
    }


def _cmd_solve(args: argparse.Namespace) -> int:
    graph = _load_graph(args.file)
    result = solve(graph)
    if args.json:
        print(json.dumps(_result_json(result)))
    else:
        print(f"front gate: {FRONT_GATE}")
        print(f"status: {result.status}")
        if result.tour is not None:
            print(f"tour: {_render_tour(result.tour)}")
            print(f"weight: {_weight_text(result.weight)}")
        print(
            f"deletions: {result.counters.deletions}"
            f"  candidates tested: {result.counters.candidates_tested}"
            f"  cluster reductions: {result.counters.reduce_calls}"
            f"  comparisons: {result.counters.comparisons}"
        )
        print(f"solutions tried: {result.solutions_tried}")
    return _status_exit(result.status)


def _cmd_oracle(args: argparse.Namespace) -> int:
    graph = _load_graph(args.file)
    answer = min_tour(graph)
    if not answer.hamiltonian:
        print("hamiltonian: no")
        return EXIT_NOT_HAMILTONIAN
    print("hamiltonian: yes")
    assert answer.optimum_tour is not None and answer.optimum_weight is not None
    print(f"optimum tour: {_render_tour(answer.optimum_tour)}")
    print(f"optimum weight: {format_weight(answer.optimum_weight)}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    graph = _load_graph(args.file)
    outcome = compare_graph(
        graph, instance_id=Path(args.file).stem, seed=0, measure_time=True
    )
    report = outcome.report
    if args.json:
        print(json.dumps(report.to_json_obj()))
    else:
        print(f"front gate: {FRONT_GATE}")
        print(f"instance: {report.instance_id}  n={report.n} m={report.m}")
        print(f"solver:   status={report.status}  weight={_weight_text(report.algo_weight)}")
        print(f"oracle:   optimum={_weight_text(report.opt_weight)}")
        print(f"match:    {report.match}")
        print(f"elapsed:  {report.elapsed_ms} ms")
    return _status_exit(report.status)


def _cmd_mine(args: argparse.Namespace) -> int:
    m = _WEIGHT_MODEL_RE.fullmatch(args.weights)
    if not m:
        raise _UsageError(
            "--weights must look like uniform:LO:HI with integers of at most 18 digits,"
            f" got {args.weights[:40]!r}"
        )
    config = CampaignConfig(
        count=args.count,
        n_min=args.n_min,
        n_max=args.n_max,
        edge_probability=args.edge_prob,
        weight_lo=int(m.group(1)),
        weight_hi=int(m.group(2)),
        seed=args.seed,
        report_path=Path(args.report),
    )
    started = time.perf_counter()
    result = run_campaign(config)
    elapsed = time.perf_counter() - started
    summary = result.summary
    print(f"report: {result.report_path}")
    print(
        f"generated: {summary['generated']}"
        f"  compared: {summary['compared']}"
        f"  skipped (not Hamiltonian): {summary['skipped_non_hamiltonian']}"
    )
    print(f"match rate: {summary['match_rate']}")
    print(f"statuses: {summary['status_counts']}")
    for path in result.mismatch_paths:
        print(f"mismatch dumped: {path}")
    print(f"wall time: {elapsed:.2f} s (not part of the report)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cycletrim")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the deletion solver on an edge-list file")
    p_solve.add_argument("file")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="exact optimum for an edge-list file")
    p_oracle.add_argument("file")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_compare = sub.add_parser("compare", help="solver vs oracle on one instance")
    p_compare.add_argument("file")
    p_compare.add_argument("--json", action="store_true")
    p_compare.set_defaults(func=_cmd_compare)

    p_mine = sub.add_parser("mine", help="seeded random-instance campaign")
    p_mine.add_argument("--count", type=int, default=100)
    p_mine.add_argument("--n-min", type=int, default=5)
    p_mine.add_argument("--n-max", type=int, default=9)
    p_mine.add_argument("--edge-prob", type=float, default=0.5)
    p_mine.add_argument("--weights", default="uniform:1:100")
    p_mine.add_argument("--seed", type=int, default=0)
    p_mine.add_argument("--report", required=True)
    p_mine.set_defaults(func=_cmd_mine)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CampaignError as exc:
        print(f"invalid campaign config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TooLarge as exc:
        print(f"instance too large: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
