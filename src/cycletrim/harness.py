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
from dataclasses import dataclass, fields
from pathlib import Path

from .graphs import Graph, Weight, format_weight, is_connected, serialize_graph
from .oracle import OracleAnswer, is_hamiltonian, min_tour
from .solver import STATUS_NOT_HAMILTONIAN, TourResult, solve

#: how the Hamiltonicity front gate is implemented in this artifact: the name
#: covers its backtracking search, behind which the Held-Karp DP decides
#: whenever the search spends its node budget
FRONT_GATE = "exhaustive_backtracking"

#: edge-set draws random_connected_graph makes before it gives up
MAX_DRAW_ATTEMPTS = 10_000


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
        obj = {name: getattr(self, name) for name in REPORT_FIELDS}
        obj["algo_weight"] = _weight_json(self.algo_weight)
        obj["opt_weight"] = _weight_json(self.opt_weight)
        return obj


#: JSONL record keys, in order
REPORT_FIELDS = tuple(f.name for f in fields(ComparisonReport))


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
    """Run the solver and the exact oracle on one instance. The oracle skips an
    input the front gate rejects, since the gate's verdict is exact."""
    started = time.perf_counter()
    result = solve(graph)
    rejected = result.status == STATUS_NOT_HAMILTONIAN
    answer = OracleAnswer(None, None) if rejected else min_tour(graph)
    elapsed_ms = int((time.perf_counter() - started) * 1000) if measure_time else 0
    algo = result.weight
    opt = answer.optimum_weight
    match = (algo == opt) if algo is not None and opt is not None else None
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
        solvable=result.solvable,
        solutions_tried=result.solutions_tried,
    )
    return CompareOutcome(report, result, answer)


def random_connected_graph(
    rng: random.Random,
    n: int,
    edge_probability: float,
    weight_lo: int,
    weight_hi: int,
) -> Graph:
    """Erdos-Renyi draw, rejected until connected; integer weights."""
    for _ in range(MAX_DRAW_ATTEMPTS):
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
                n, tuple((u, v, rng.randint(weight_lo, weight_hi)) for u, v in pairs)
            )
    raise CampaignError(
        f"no connected graph on {n} vertices after {MAX_DRAW_ATTEMPTS} draws at p={edge_probability}"
    )


def report_line(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


#: per-instance counters averaged by (n, m) in the campaign summary
MEAN_COUNTERS = ("candidates_tested", "reduce_calls", "comparisons", "deletions")


def _means_by_key(rows: list[tuple[str, tuple[int, ...]]]) -> dict[str, tuple[float, ...]]:
    # per key, in key order: the mean of each value column to 3 places
    grouped: dict[str, list[tuple[int, ...]]] = {}
    for key, values in rows:
        grouped.setdefault(key, []).append(values)
    return {
        key: tuple(round(sum(col) / len(col), 3) for col in zip(*vals))
        for key, vals in sorted(grouped.items())
    }


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Mine random instances and write the JSONL report.

    The report gets one line per compared (Hamiltonian) instance and a final
    ``{"kind":"summary",...}`` object; mismatches are additionally written
    as edge-list files named by instance id in the report's directory. The
    report is opened before the first draw, so a path that cannot be
    written raises :class:`CampaignError` before any work is done.
    """
    config.validate()
    rng = random.Random(config.seed)
    reports: list[ComparisonReport] = []
    row_ops_rows: list[tuple] = []   # (m-bucket, (row_ops,))
    counter_rows: list[tuple] = []   # (nm-bucket, MEAN_COUNTERS values)
    mismatch_paths: list[Path] = []
    skipped = 0

    report_path = Path(config.report_path)
    try:
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report = report_path.open("w", encoding="utf-8")
    except OSError as exc:
        raise CampaignError(f"cannot write the report to {report_path}: {exc}") from None

    with report:
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
            report.write(report_line(outcome.report.to_json_obj()) + "\n")
            counters = outcome.result.counters
            row_ops_rows.append((str(graph.edge_count), (counters.row_ops,)))
            counter_rows.append(
                (
                    f"n={graph.vertex_count},m={graph.edge_count}",
                    tuple(getattr(counters, name) for name in MEAN_COUNTERS),
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
                key: dict(zip(MEAN_COUNTERS, means))
                for key, means in _means_by_key(counter_rows).items()
            },
            "mean_row_ops_by_m": {
                key: mean for key, (mean,) in _means_by_key(row_ops_rows).items()
            },
        }
        report.write(report_line(summary) + "\n")
    return CampaignResult(tuple(reports), summary, report_path, tuple(mismatch_paths))
