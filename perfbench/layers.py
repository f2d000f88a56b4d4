"""Per-layer tracing of cycletrim, done from outside the package.

The tracer rebinds public names in the modules that call them (for example
``cycletrim.solver.is_removable``) to wrappers that time each call. Spans
nest: a wrapper adds its duration to its parent span, so a layer's self time
is its own time minus the time spent in traced layers it called. Everything
is kept in memory; :meth:`Tracer.metrics` turns it into the benchmark's
per-layer metrics. Nothing inside ``src/cycletrim`` is changed.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from cycletrim import harness, oracle, removability, solver

# (module, name rebound there, layer); a layer may be entered from several
# modules. The oracle binding catches the benchmark's own front gate.
BINDINGS = (
    (harness, "run_campaign", "harness.run_campaign"),
    (harness, "compare_graph", "harness.compare_graph"),
    (harness, "random_connected_graph", "harness.random_connected_graph"),
    (harness, "solve", "solver.solve"),
    (harness, "min_tour", "oracle.min_tour"),
    (harness, "is_hamiltonian", "oracle.is_hamiltonian"),
    (oracle, "is_hamiltonian", "oracle.is_hamiltonian"),
    (solver, "is_hamiltonian", "oracle.is_hamiltonian"),
    (solver, "fundamental_basis", "cycle_space.fundamental_basis"),
    (solver, "enumerate_solutions", "solvability.enumerate_solutions"),
    (solver, "initial_state", "solver.initial_state"),
    (solver, "apply_deletion", "solver.apply_deletion"),
    (solver, "is_removable", "removability.is_removable"),
    (removability, "reduce_cluster", "removability.reduce_cluster"),
    (removability, "mask_degrees", "graphs.mask_degrees"),
)

#: per-layer metric names, in the order BENCHMARK.json lists them
LAYER_METRICS = (
    "solver.solve_s",
    "solver.self_s",
    "solver.initial_state_s",
    "solver.initial_state_calls",
    "solver.apply_deletion_s",
    "removability.is_removable_s",
    "removability.is_removable_calls",
    "removability.verdict_cache_hit_ratio",
    "removability.reduce_cluster_s",
    "removability.reduce_cluster_calls",
    "solvability.enumerate_solutions_s",
    "solvability.partitions_returned",
    "graphs.mask_degrees_s",
    "graphs.mask_degrees_calls",
    "cycle_space.fundamental_basis_s",
    "oracle.min_tour_s",
    "oracle.min_tour_calls",
    "oracle.is_hamiltonian_s",
    "oracle.is_hamiltonian_calls",
    "oracle.gate_reject_ratio",
    "harness.random_connected_graph_s",
    "harness.self_s",
)

#: layers whose time shares of the traced wall time are reported
SHARE_LAYERS = tuple(dict.fromkeys(layer for _, _, layer in BINDINGS))


class Tracer:
    def __init__(self) -> None:
        self.seconds: Counter[str] = Counter()
        self.child_seconds: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.tallies: Counter[str] = Counter()
        self._open: list[list[float]] = []

    def _timed(self, layer: str, fn):
        def call(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self._open.pop()
                self.seconds[layer] += took
                self.child_seconds[layer] += children[0]
                self.calls[layer] += 1
                if self._open:
                    self._open[-1][0] += took

        return call

    def _tallied(self, layer: str, fn):
        # outcome counts measured where the work happens
        if layer == "oracle.is_hamiltonian":
            def call(graph):
                found = fn(graph)
                self.tallies["gate_rejects"] += not found
                return found
        elif layer == "solvability.enumerate_solutions":
            def call(basis, **kwargs):
                partitions = fn(basis, **kwargs)
                self.tallies["partitions_returned"] += len(partitions)
                return partitions
        elif layer == "removability.is_removable":
            def call(state, c):
                before = len(state.verdict_cache)
                ctx = fn(state, c)
                self.tallies["verdict_cache_hits"] += len(state.verdict_cache) == before
                return ctx
        else:
            return fn
        return call

    @contextmanager
    def installed(self):
        """Rebind every traced name for the duration of the block."""
        originals = [(module, name, getattr(module, name)) for module, name, _ in BINDINGS]
        try:
            for module, name, layer in BINDINGS:
                original = getattr(module, name)
                setattr(module, name, self._timed(layer, self._tallied(layer, original)))
            yield self
        finally:
            for module, name, original in originals:
                setattr(module, name, original)

    def self_seconds(self, layer: str) -> float:
        return self.seconds[layer] - self.child_seconds[layer]

    def metrics(self) -> dict[str, float]:
        removable_calls = self.calls["removability.is_removable"]
        gate_calls = self.calls["oracle.is_hamiltonian"]
        return {
            "solver.solve_s": self.seconds["solver.solve"],
            "solver.self_s": self.self_seconds("solver.solve"),
            "solver.initial_state_s": self.seconds["solver.initial_state"],
            "solver.initial_state_calls": self.calls["solver.initial_state"],
            "solver.apply_deletion_s": self.seconds["solver.apply_deletion"],
            "removability.is_removable_s": self.seconds["removability.is_removable"],
            "removability.is_removable_calls": removable_calls,
            "removability.verdict_cache_hit_ratio": (
                self.tallies["verdict_cache_hits"] / removable_calls if removable_calls else 0.0
            ),
            "removability.reduce_cluster_s": self.seconds["removability.reduce_cluster"],
            "removability.reduce_cluster_calls": self.calls["removability.reduce_cluster"],
            "solvability.enumerate_solutions_s": self.seconds["solvability.enumerate_solutions"],
            "solvability.partitions_returned": self.tallies["partitions_returned"],
            "graphs.mask_degrees_s": self.seconds["graphs.mask_degrees"],
            "graphs.mask_degrees_calls": self.calls["graphs.mask_degrees"],
            "cycle_space.fundamental_basis_s": self.seconds["cycle_space.fundamental_basis"],
            "oracle.min_tour_s": self.seconds["oracle.min_tour"],
            "oracle.min_tour_calls": self.calls["oracle.min_tour"],
            "oracle.is_hamiltonian_s": self.seconds["oracle.is_hamiltonian"],
            "oracle.is_hamiltonian_calls": gate_calls,
            "oracle.gate_reject_ratio": (
                self.tallies["gate_rejects"] / gate_calls if gate_calls else 0.0
            ),
            "harness.random_connected_graph_s": self.seconds["harness.random_connected_graph"],
            "harness.self_s": (
                self.self_seconds("harness.run_campaign") + self.self_seconds("harness.compare_graph")
            ),
        }

    def shares(self, wall_seconds: float) -> dict[str, dict[str, float]]:
        """Each layer's inclusive time and self time as shares of ``wall_seconds``."""
        return {
            layer: {
                "share": round(self.seconds[layer] / wall_seconds, 4),
                "self_share": round(self.self_seconds(layer) / wall_seconds, 4),
            }
            for layer in SHARE_LAYERS
        }
