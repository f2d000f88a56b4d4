"""Instance comparison and seeded mining campaigns.

A campaign generates connected random graphs, keeps the Hamiltonian ones,
runs the solver and the exact oracle on each, and writes one JSON line per
instance plus a final summary object. Reports are byte-identical for
identical (config, seed): generation is sequential from a single RNG and the
per-instance ``elapsed_ms`` field is fixed to 0 in campaign records (wall
time is not deterministic; single-instance comparisons report it instead).
Any instance where the solver's tour weight differs from the optimum is
dumped as a replayable edge-list file next to the report.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .cycle_space import fundamental_basis
from .graphs import Graph, Weight, format_weight, is_connected, serialize_graph
from .oracle import OracleAnswer, is_hamiltonian, min_tour
from .solvability import is_solvable
from .solver import STATUS_NOT_HAMILTONIAN, TourResult, solve

#: how the Hamiltonicity front gate is implemented in this artifact
FRONT_GATE = "exhaustive_backtracking"

REPORT_FIELDS = (
    "instance_id",
    "seed",
    "n",
    "m",
    "status",
    "algo_weight",
    "opt_weight",
    "match",
    "deletions",
    "candidates_tested",
    "reduce_calls",
    "comparisons",
    "elapsed_ms",
    "solvable",
    "solutions_tried",
)


class CampaignError(ValueError):
    pass


def _weight_json(w: Weight | None):
    if w is None:
        return None
    if w.denominator == 1:
        return w.numerator
    return format_weight(w)


@dataclass(frozen=True)
class ComparisonReport:
    """One solver-vs-oracle record; field order matches the JSONL schema."""

    instance_id: str
    seed: int
    n: int
    m: int
    status: str
    algo_weight: Weight | None
    opt_weight: Weight | None
    match: bool | None
    deletions: int
    candidates_tested: int
    reduce_calls: int
    comparisons: int
    elapsed_ms: int
    solvable: bool
    solutions_tried: int

    def __post_init__(self) -> None:
        if self.algo_weight is not None and self.opt_weight is not None:
            if self.match != (self.algo_weight == self.opt_weight):
                raise ValueError("match must equal (algo_weight == opt_weight)")
            if self.algo_weight < self.opt_weight:
                raise ValueError("solver reported a weight below the exact optimum")

    def to_json_obj(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "seed": self.seed,
            "n": self.n,
            "m": self.m,
            "status": self.status,
            "algo_weight": _weight_json(self.algo_weight),
            "opt_weight": _weight_json(self.opt_weight),
            "match": self.match,
            "deletions": self.deletions,
            "candidates_tested": self.candidates_tested,
            "reduce_calls": self.reduce_calls,
            "comparisons": self.comparisons,
            "elapsed_ms": self.elapsed_ms,
            "solvable": self.solvable,
            "solutions_tried": self.solutions_tried,
        }


@dataclass(frozen=True)
class CompareOutcome:
    report: ComparisonReport
    result: TourResult
    answer: OracleAnswer


@dataclass(frozen=True)
class CampaignConfig:
    count: int
    n_min: int
    n_max: int
    edge_probability: float
    weight_lo: int
    weight_hi: int
    seed: int
    report_path: Path

    def validate(self) -> None:
        if self.count < 1:
            raise CampaignError("count must be at least 1")
        if not (3 <= self.n_min <= self.n_max <= 12):
            raise CampaignError("need 3 <= n_min <= n_max <= 12 for mining")
        if not (0 < self.edge_probability <= 1):
            raise CampaignError("edge probability must be in (0, 1]")
        if self.weight_lo > self.weight_hi:
            raise CampaignError("weight range is empty")


@dataclass(frozen=True)
class CampaignResult:
    reports: tuple[ComparisonReport, ...]
    summary: dict
    report_path: Path
    mismatch_paths: tuple[Path, ...]


def compare_graph(
    graph: Graph, *, instance_id: str, seed: int, measure_time: bool = False
) -> CompareOutcome:
    """Run the solver and the exact oracle on one instance."""
    started = time.perf_counter()
    result = solve(graph)
    answer = min_tour(graph)
    elapsed_ms = int((time.perf_counter() - started) * 1000) if measure_time else 0
    algo = result.weight
    opt = answer.optimum_weight
    match = (algo == opt) if algo is not None and opt is not None else None
    if result.status == STATUS_NOT_HAMILTONIAN:
        solvable = is_solvable(fundamental_basis(graph))
    else:
        solvable = result.solvable
    report = ComparisonReport(
        instance_id=instance_id,
        seed=seed,
        n=graph.vertex_count,
        m=graph.edge_count,
        status=result.status,
        algo_weight=algo,
        opt_weight=opt,
        match=match,
        deletions=result.counters.deletions,
        candidates_tested=result.counters.candidates_tested,
        reduce_calls=result.counters.reduce_calls,
        comparisons=result.counters.comparisons,
        elapsed_ms=elapsed_ms,
        solvable=solvable,
        solutions_tried=result.solutions_tried,
    )
    return CompareOutcome(report, result, answer)


def random_connected_graph(
    rng: random.Random,
    n: int,
    edge_probability: float,
    weight_lo: int,
    weight_hi: int,
    *,
    max_attempts: int = 10_000,
) -> Graph:
    """Erdos-Renyi draw, rejected until connected; integer weights."""
    for _ in range(max_attempts):
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < edge_probability
        ]
        if not pairs:
            continue
        if is_connected(n, pairs):
            return Graph(
                n,
                tuple(
                    (u, v, Fraction(rng.randint(weight_lo, weight_hi)))
                    for u, v in pairs
                ),
            )
    raise CampaignError(
        f"no connected graph on {n} vertices after {max_attempts} draws at p={edge_probability}"
    )


def report_line(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _bucket_means(rows: list[tuple], value_index: int) -> dict[str, float]:
    sums: dict[str, list] = {}
    for row in rows:
        key = row[0]
        sums.setdefault(key, []).append(row[value_index])
    return {
        key: round(sum(vals) / len(vals), 3) for key, vals in sorted(sums.items())
    }


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Mine random instances and write the JSONL report.

    The report gets one line per compared (Hamiltonian) instance and a final
    ``{"kind":"summary",...}`` object; mismatches are additionally written
    as edge-list files named by instance id in the report's directory.
    """
    config.validate()
    rng = random.Random(config.seed)
    reports: list[ComparisonReport] = []
    row_ops_rows: list[tuple] = []   # (m-bucket, row_ops)
    counter_rows: list[tuple] = []   # (nm-bucket, cand, reduce, cmp, del)
    mismatch_paths: list[Path] = []
    skipped = 0

    report_path = Path(config.report_path)
    report_path.parent.mkdir(parents=True, exist_ok=True)

    lines: list[str] = []
    for idx in range(config.count):
        n = rng.randint(config.n_min, config.n_max)
        graph = random_connected_graph(
            rng, n, config.edge_probability, config.weight_lo, config.weight_hi
        )
        if not is_hamiltonian(graph):
            skipped += 1
            continue
        instance_id = f"mine-s{config.seed}-{idx:04d}"
        outcome = compare_graph(graph, instance_id=instance_id, seed=config.seed)
        reports.append(outcome.report)
        lines.append(report_line(outcome.report.to_json_obj()))
        counters = outcome.result.counters
        row_ops_rows.append((str(graph.edge_count), counters.row_ops))
        counter_rows.append(
            (
                f"n={graph.vertex_count},m={graph.edge_count}",
                counters.candidates_tested,
                counters.reduce_calls,
                counters.comparisons,
                counters.deletions,
            )
        )
        if outcome.report.match is False:
            dump = report_path.parent / f"{instance_id}.edges"
            dump.write_text(
                f"# instance {instance_id}\n"
                f"# algo_weight {_weight_json(outcome.report.algo_weight)}"
                f" opt_weight {_weight_json(outcome.report.opt_weight)}\n"
                + serialize_graph(graph),
                encoding="utf-8",
            )
            mismatch_paths.append(dump)

    compared = len(reports)
    matches = sum(1 for r in reports if r.match is True)
    decided = sum(1 for r in reports if r.match is not None)
    status_counts: dict[str, int] = {}
    for r in reports:
        status_counts[r.status] = status_counts.get(r.status, 0) + 1

    summary = {
        "kind": "summary",
        "front_gate": FRONT_GATE,
        "config": {
            "count": config.count,
            "n_min": config.n_min,
            "n_max": config.n_max,
            "edge_prob": config.edge_probability,
            "weights": f"uniform:{config.weight_lo}:{config.weight_hi}",
            "seed": config.seed,
        },
        "generated": config.count,
        "compared": compared,
        "skipped_non_hamiltonian": skipped,
        "match_rate": round(matches / decided, 6) if decided else None,
        "status_counts": dict(sorted(status_counts.items())),
        "mismatches": [p.stem for p in mismatch_paths],
        "mean_counters_by_nm": {
            key: {
                "candidates_tested": round(
                    sum(r[1] for r in rows) / len(rows), 3
                ),
                "reduce_calls": round(sum(r[2] for r in rows) / len(rows), 3),
                "comparisons": round(sum(r[3] for r in rows) / len(rows), 3),
                "deletions": round(sum(r[4] for r in rows) / len(rows), 3),
            }
            for key, rows in sorted(_group(counter_rows).items())
        },
        "mean_row_ops_by_m": _bucket_means(row_ops_rows, 1),
    }
    lines.append(report_line(summary))
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return CampaignResult(tuple(reports), summary, report_path, tuple(mismatch_paths))


def _group(rows: list[tuple]) -> dict[str, list[tuple]]:
    grouped: dict[str, list[tuple]] = {}
    for row in rows:
        grouped.setdefault(row[0], []).append(row)
    return grouped
