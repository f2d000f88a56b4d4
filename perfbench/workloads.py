"""The three benchmark workloads, their output checks and their metrics.

Every workload is a closed loop with one client: it sends the next input
only after the previous result came back, in one process and one thread.
Inputs come only from the seed. The size of the input set scales with the
run length, so that one pass over it takes about ``--seconds`` on the
reference machine (2-core Xeon VM, Python 3); a faster program runs further
passes until the time is up, a slower one always finishes its first pass.
Finish and optimum rates, counters and fingerprints come from the first
pass over the distinct inputs, so they depend only on the seed and the size.
End-to-end timings are rescaled to the reference machine's speed by a
:class:`SpeedProbe`; the values as measured are kept in the details.

* ``mine_ref``: ``harness.run_campaign`` exactly as ``cycletrim mine`` runs
  it (n 5-12, p 0.5, weights uniform:1:100), repeated at least twice.
* ``large_dense``: ``harness.compare_graph`` on Hamiltonian draws with n
  14, 15, 16 in turn and p 0.5.
* ``large_sparse``: ``harness.compare_graph`` on Hamiltonian draws with
  n 18 and p 0.2.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from cycletrim import harness, oracle
from cycletrim.graphs import Graph, GraphError, Weight, serialize_graph, tour_weight
from cycletrim.harness import CompareOutcome
from cycletrim.solver import STATUS_NO_SOLUTION, STATUS_OK, STATUS_STUCK, Counters

from layers import LAYER_METRICS, Tracer

WORKLOADS = ("mine_ref", "large_dense", "large_sparse")
# latency_tail_ms is printed but carries no bound: it is set by the few
# slowest inputs of a seed, and across seeds it spreads by 0.16-0.23 of its
# median, too much to catch a regression of a tenth
END_TO_END_METRICS = (
    "setup_s",
    "instances_per_s",
    "latency_p50_ms",
    "peak_rss_mb",
)
COUNTER_METRICS = (
    "solver.row_ops",
    "solver.candidates_tested",
    "solver.deletions",
    "solver.comparisons",
    "solver.partitions_tried",
)
PER_LAYER_METRICS = LAYER_METRICS + COUNTER_METRICS + ("trace.overhead_s",)
# printed by name beside the metrics, without a bound
DETAIL_METRICS = (
    "latency_tail_ms",
    "latency_tail_percentile",
    "finish_rate",
    "optimal_rate",
    "error_rate",
)

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail latency
WEIGHTS = (1, 100)

MINE_N = (5, 12)
MINE_P = 0.5
MINE_DRAWS_PER_S = 135  # campaign draws per second on the reference machine
MINE_REPEATS = 2  # the report digest is compared across repeats

CALIBRATION_EVERY_S = 0.1
REFERENCE_CALIBRATION_S = 0.0036  # mean kernel time on the reference machine


@dataclass(frozen=True)
class LargeSpec:
    sizes: tuple[int, ...]  # instance i has sizes[i % len(sizes)] vertices
    edge_probability: float
    seconds_per_instance: float  # on the reference machine


LARGE = {
    "large_dense": LargeSpec((14, 15, 16), 0.5, 0.30),
    "large_sparse": LargeSpec((18,), 0.2, 0.13),
}


def unit_of(metric: str) -> str:
    for suffix, unit in (
        ("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MiB"),
        ("_ratio", "ratio"), ("_rate", "ratio"), ("_percentile", "%"),
    ):
        if metric.endswith(suffix):
            return unit
    return "count"


def input_size(workload: str, seconds: int) -> int:
    """Campaign draws for ``mine_ref``, Hamiltonian instances otherwise."""
    if workload == "mine_ref":
        return max(20, round(seconds * MINE_DRAWS_PER_S / MINE_REPEATS))
    spec = LARGE[workload]
    rounds = max(1, round(seconds / spec.seconds_per_instance / len(spec.sizes)))
    return rounds * len(spec.sizes)


@dataclass
class Inputs:
    drawn: list[Graph]  # every generated graph, in draw order
    kept: list[Graph]  # those the front gate passed: the compared instances


def set_up(workload: str, seed: int, size: int) -> Inputs:
    """Generate the workload's graphs and run the Hamiltonicity front gate."""
    rng = random.Random(seed)
    inputs = Inputs([], [])
    if workload == "mine_ref":
        # the campaign's own draws, in run_campaign's order
        for _ in range(size):
            n = rng.randint(*MINE_N)
            graph = harness.random_connected_graph(rng, n, MINE_P, *WEIGHTS)
            inputs.drawn.append(graph)
            if oracle.is_hamiltonian(graph):
                inputs.kept.append(graph)
        return inputs
    spec = LARGE[workload]
    while len(inputs.kept) < size:
        n = spec.sizes[len(inputs.kept) % len(spec.sizes)]
        graph = harness.random_connected_graph(rng, n, spec.edge_probability, *WEIGHTS)
        inputs.drawn.append(graph)
        if oracle.is_hamiltonian(graph):
            inputs.kept.append(graph)
    return inputs


def fingerprint(inputs: Inputs) -> dict:
    digest = hashlib.sha256()
    for graph in inputs.drawn:
        digest.update(serialize_graph(graph).encode())
    return {
        "drawn": len(inputs.drawn),
        "gated_out": len(inputs.drawn) - len(inputs.kept),
        "compared": len(inputs.kept),
        "n_histogram": dict(sorted(Counter(g.vertex_count for g in inputs.kept).items())),
        "m_histogram": dict(sorted(Counter(g.edge_count for g in inputs.kept).items())),
        "inputs_sha256": digest.hexdigest(),
    }


def check(graph: Graph, outcome: CompareOutcome) -> str | None:
    """Why the outcome is wrong, or None when it passes every check."""
    result, answer = outcome.result, outcome.answer
    try:
        if answer.optimum_tour is None or tour_weight(graph, answer.optimum_tour) != answer.optimum_weight:
            return "oracle tour does not weigh the reported optimum"
        if result.status == STATUS_OK:
            if tour_weight(graph, result.tour) != result.weight:
                return "solver tour does not weigh the reported weight"
            if result.weight < answer.optimum_weight:
                return "solver tour is lighter than the exact optimum"
        elif result.status not in (STATUS_STUCK, STATUS_NO_SOLUTION) or result.tour is not None:
            return f"status {result.status} with tour {result.tour} on a Hamiltonian input"
    except GraphError as exc:
        return f"tour is not a Hamilton cycle: {exc}"
    return None


class Outcome(NamedTuple):
    """What the benchmark keeps of one comparison; equal across repeats."""

    status: str
    tour: tuple[int, ...] | None
    weight: Weight | None
    optimum: Weight | None
    match: bool | None
    counters: Counters
    solutions_tried: int

    @classmethod
    def of(cls, outcome: CompareOutcome) -> Outcome:
        result = outcome.result
        return cls(
            result.status,
            result.tour,
            result.weight,
            outcome.answer.optimum_weight,
            outcome.report.match,
            result.counters,
            result.solutions_tried,
        )


@dataclass
class Tally:
    """Checks of every attempted instance; the first outcome per input is kept.

    Full outcomes are dropped after their check, so that the benchmark's own
    memory stays out of the peak resident size it reports.
    """

    attempted: int = 0
    failed: int = 0
    latencies: dict[int, list[float]] = field(default_factory=dict)
    first: dict[int, Outcome] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)

    def record(self, index: int, graph: Graph, outcome: CompareOutcome, took: float) -> None:
        problem = check(graph, outcome)
        kept = Outcome.of(outcome)
        if problem is None and self.first.setdefault(index, kept) != kept:
            problem = "outcome differs from the first pass"
        if problem is not None:
            self.fail(f"instance {index}: {problem}")
            return
        self.attempted += 1
        self.latencies.setdefault(index, []).append(took)

    def instance_latencies(self) -> list[float]:
        """Each input's median latency over its repeats: every input counts
        once in the percentiles, however many passes the run made."""
        return [statistics.median(samples) for samples in self.latencies.values()]


def _calibration_kernel() -> None:
    counts: dict[int, int] = {}
    for i in range(20_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i


class SpeedProbe:
    """How fast the machine runs Python now, against the reference machine.

    On a shared VM the host's CPU speed drifts by a tenth or more over
    minutes, alike for every pure-Python workload. A fixed kernel runs between
    instances, at most every ``CALIBRATION_EVERY_S``; multiplying a time by
    :attr:`factor` gives what it would read at the reference speed, so runs
    made at different times compare. Kernel time is kept out of every timing.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._next = 0.0

    def sample(self) -> None:
        start = perf_counter()
        if start < self._next:
            return
        _calibration_kernel()
        end = perf_counter()
        self.samples.append(end - start)
        self.spent += end - start
        self._next = end + CALIBRATION_EVERY_S

    @property
    def factor(self) -> float:
        return REFERENCE_CALIBRATION_S / statistics.mean(self.samples)


def run_large(graphs: list[Graph], seed: int, tally: Tally, deadline: float, probe: SpeedProbe) -> None:
    """One full pass over ``graphs``, then more until ``deadline``."""
    for pass_index in itertools.count():
        for index, graph in enumerate(graphs):
            if pass_index and perf_counter() >= deadline:
                return
            probe.sample()
            start = perf_counter()
            try:
                outcome = harness.compare_graph(graph, instance_id=f"bench-{index:04d}", seed=seed)
            except Exception as exc:  # a raising instance counts as failed
                tally.fail(f"instance {index}: raised {exc!r}")
                continue
            tally.record(index, graph, outcome, perf_counter() - start)


def run_mine(
    inputs: Inputs, seed: int, tally: Tally, deadline: float, probe: SpeedProbe,
    repeats: int, out_dir: Path,
) -> None:
    """``repeats`` campaigns, then more while they fit before ``deadline``.

    ``harness.compare_graph`` is rebound to a timer so that each compared
    instance yields a latency, and its outcome is checked as it returns.
    """
    config = harness.CampaignConfig(
        count=len(inputs.drawn),
        n_min=MINE_N[0],
        n_max=MINE_N[1],
        edge_probability=MINE_P,
        weight_lo=WEIGHTS[0],
        weight_hi=WEIGHTS[1],
        seed=seed,
        report_path=out_dir / "mine.jsonl",
    )
    inner = harness.compare_graph
    compared = 0

    def timed_compare(graph, **kwargs):
        nonlocal compared
        probe.sample()
        start = perf_counter()
        outcome = inner(graph, **kwargs)
        took = perf_counter() - start
        if compared >= len(inputs.kept) or graph != inputs.kept[compared]:
            tally.fail(f"instance {compared}: campaign compared a graph the set-up did not draw")
        else:
            tally.record(compared, graph, outcome, took)
        compared += 1
        return outcome

    harness.compare_graph = timed_compare
    campaign_s = 0.0
    try:
        for campaign in itertools.count():
            # a further campaign runs only when one more fits before the deadline
            if campaign >= repeats and perf_counter() + campaign_s >= deadline:
                return
            compared = 0
            start = perf_counter()
            try:
                result = harness.run_campaign(config)
            except Exception as exc:  # a raising campaign counts as one failure
                tally.fail(f"campaign {campaign}: raised {exc!r}")
                continue
            campaign_s = perf_counter() - start
            if compared != len(inputs.kept):
                tally.fail(f"campaign {campaign}: compared {compared} of {len(inputs.kept)} set-up graphs")
            if result.summary["skipped_non_hamiltonian"] != len(inputs.drawn) - len(inputs.kept):
                tally.fail(f"campaign {campaign}: gate count differs from the set-up draws")
            tally.digests.append(hashlib.sha256(config.report_path.read_bytes()).hexdigest())
            if tally.digests[-1] != tally.digests[0]:
                tally.fail(f"campaign {campaign}: report digest differs from the first campaign")
    finally:
        harness.compare_graph = inner


def run_passes(
    workload: str, inputs: Inputs, seed: int, tally: Tally, deadline: float,
    probe: SpeedProbe, out_dir: Path, *, repeats: int,
) -> float:
    """The timed phase; returns its wall time in seconds, calibration excluded."""
    start, spent = perf_counter(), probe.spent
    if workload == "mine_ref":
        run_mine(inputs, seed, tally, deadline, probe, repeats, out_dir)
    else:
        run_large(inputs.kept, seed, tally, deadline, probe)
    return perf_counter() - start - (probe.spent - spent)


def timed_set_up(workload: str, seed: int, size: int) -> tuple[Inputs, float]:
    start = perf_counter()
    inputs = set_up(workload, seed, size)
    return inputs, perf_counter() - start


def summary(tally: Tally) -> dict:
    """Deterministic facts about the first pass over the distinct inputs."""
    outcomes = [tally.first[i] for i in sorted(tally.first)]
    compared = len(outcomes) or 1
    return {
        "finish_rate": sum(o.status == STATUS_OK for o in outcomes) / compared,
        "optimal_rate": sum(o.match is True for o in outcomes) / compared,
        "status_counts": dict(sorted(Counter(o.status for o in outcomes).items())),
        "counters": {
            "solver.row_ops": sum(o.counters.row_ops for o in outcomes),
            "solver.candidates_tested": sum(o.counters.candidates_tested for o in outcomes),
            "solver.deletions": sum(o.counters.deletions for o in outcomes),
            "solver.comparisons": sum(o.counters.comparisons for o in outcomes),
            "solver.partitions_tried": sum(o.solutions_tried for o in outcomes),
        },
        "report_sha256": tally.digests[0] if tally.digests else None,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it, and its value."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return 100 * (index + 1) / len(ordered), ordered[index]


def measure(workload: str, seed: int, seconds: int, import_s: float, out_dir: Path) -> tuple[Tally, dict, dict]:
    """End-to-end run with tracing off: set-up repeated, then the timed phase."""
    size = input_size(workload, seconds)
    tally = Tally()
    probe = SpeedProbe()
    inputs, setup_runs, prints = None, [], []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        made, took = timed_set_up(workload, seed, size)
        setup_runs.append(took)
        prints.append(fingerprint(made))
        inputs = inputs or made
    if any(p != prints[0] for p in prints):
        tally.fail("set-up is not deterministic")
    elapsed = run_passes(
        workload, inputs, seed, tally, perf_counter() + seconds, probe, out_dir,
        repeats=MINE_REPEATS,
    )
    samples = tally.instance_latencies() or [float("nan")]
    percentile, tail_s = tail(samples)
    measured = {
        "setup_s": import_s + statistics.median(setup_runs),
        "instances_per_s": (tally.attempted - tally.failed) / elapsed,
        "latency_p50_ms": 1000 * statistics.median(samples),
    }
    factor = probe.factor
    metrics = {
        "setup_s": measured["setup_s"] * factor,
        "instances_per_s": measured["instances_per_s"] / factor,
        "latency_p50_ms": measured["latency_p50_ms"] * factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "size": size,
        "fingerprint": prints[0],
        **summary(tally),
        "error_rate": tally.failed / max(tally.attempted, 1),
        "latency_tail_ms": 1000 * tail_s * factor,
        "latency_tail_percentile": percentile,
        "latency_samples": len(samples),
        "instances_timed": tally.attempted - tally.failed,
        "measured": measured,
        "speed_factor": factor,
        "calibrations": len(probe.samples),
        "timed_s": elapsed,
        "setup_runs_s": setup_runs,
        "import_s": import_s,
    }
    return tally, metrics, detail


def measure_layers(workload: str, seed: int, seconds: int, out_dir: Path) -> tuple[Tally, dict, dict]:
    """One untraced and one traced execution (set-up plus one pass) of the workload."""
    size = input_size(workload, seconds)
    tally = Tally()
    probe = SpeedProbe()
    inputs, setup_s = timed_set_up(workload, seed, size)
    untraced_s = setup_s + run_passes(workload, inputs, seed, tally, 0.0, probe, out_dir, repeats=1)
    tracer = Tracer()
    with tracer.installed():
        traced_inputs, traced_setup_s = timed_set_up(workload, seed, size)
        traced_s = traced_setup_s + run_passes(
            workload, inputs, seed, tally, 0.0, probe, out_dir, repeats=1
        )
    if fingerprint(traced_inputs) != fingerprint(inputs):
        tally.fail("traced set-up drew other inputs")
    facts = summary(tally)
    metrics = {
        **tracer.metrics(),
        **facts["counters"],
        "trace.overhead_s": traced_s - untraced_s,
    }
    detail = {
        "size": size,
        "fingerprint": fingerprint(inputs),
        **facts,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "layer_shares": tracer.shares(traced_s),
    }
    return tally, metrics, detail
