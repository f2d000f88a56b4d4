"""Greedy deletion search for a minimum-weight Hamilton cycle.

Starting from the full fundamental basis, the solver repeatedly deletes one
removable co-solution cycle — the one whose deletion commits the least extra
weight to the boundary (edges covered exactly once) — until nothing can be
deleted. If the boundary edges then form a spanning cycle, that cycle is the
answer; otherwise the next solution partition is tried. The solution cycles
themselves are never deleted.

The run is fully deterministic: candidates are scanned in index order and
ties on the weight increment break by smaller removed-edge weight, then by
cycle index.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Literal

from .cycle_space import CycleBasis, edges_with_cover, fundamental_basis
from .graphs import Graph, Weight, iter_edge_indices, mask_weight, tour_from_edge_mask
from .oracle import is_hamiltonian
from .removability import REMOVABLE, RemovabilityContext, is_removable
from .solvability import SolutionPartition, enumerate_solutions

Status = Literal["ok", "not_hamiltonian_input", "no_solution", "stuck"]

STATUS_OK: Status = "ok"
STATUS_NOT_HAMILTONIAN: Status = "not_hamiltonian_input"
STATUS_NO_SOLUTION: Status = "no_solution"
STATUS_STUCK: Status = "stuck"


class NotRemovable(Exception):
    """Raised when a deletion is requested for a cycle that cannot go."""


@dataclass
class Counters:
    """Work accounting for one solver run.

    ``row_ops`` counts basis-row scans and combinations (the matrix-level
    work); ``reduce_calls`` counts cluster reductions actually executed.
    """

    candidates_tested: int = 0
    max_candidates_per_pass: int = 0
    reduce_calls: int = 0
    comparisons: int = 0
    deletions: int = 0
    row_ops: int = 0


@dataclass(frozen=True)
class DeletionRecord:
    """One applied (or proposed) deletion.

    ``removed_edge`` is the cycle's unique boundary edge, which leaves the
    union; ``newly_boundary`` are the edges whose cover drops from 2 to 1,
    and ``added_weight`` is the exact sum of their weights.
    """

    cycle: int
    removed_edge: int
    newly_boundary: tuple[int, ...]
    added_weight: Weight


@dataclass(frozen=True)
class SolverState:
    """Immutable snapshot of the retained basis subset.

    ``cover_counts`` and ``union_edges`` are always consistent with the
    retained rows. Counters and memo caches ride along by reference and are
    excluded from equality, so structurally identical states compare equal.
    """

    graph: Graph
    basis: CycleBasis
    partition: SolutionPartition
    retained: frozenset[int]
    cover_counts: tuple[int, ...]
    union_edges: int
    trace: tuple[DeletionRecord, ...] = ()
    counters: Counters = field(default_factory=Counters, compare=False, repr=False)
    cluster_cache: dict = field(default_factory=dict, compare=False, repr=False)
    verdict_cache: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class TourResult:
    """Outcome of a solver run.

    ``tour`` is the vertex sequence (start repeated implicitly) and
    ``weight`` its exact edge-weight sum, both present only for status
    ``ok``. ``solutions_tried`` counts the partitions attempted.
    """

    status: Status
    tour: tuple[int, ...] | None
    weight: Weight | None
    trace: tuple[DeletionRecord, ...]
    counters: Counters
    solvable: bool
    solutions_tried: int
    partition: SolutionPartition | None
    final_state: SolverState | None


def initial_state(
    basis: CycleBasis,
    partition: SolutionPartition,
    *,
    counters: Counters | None = None,
    cluster_cache: dict | None = None,
    verdict_cache: dict | None = None,
) -> SolverState:
    """Fresh state retaining the whole basis."""
    counters = counters if counters is not None else Counters()
    covers = basis.cover_counts
    # row_ops charges the starting cover counts one op per basis row on
    # every partition, so reports do not depend on where they are computed
    counters.row_ops += basis.dimension
    union = 0
    for e, c in enumerate(covers):
        if c >= 1:
            union |= 1 << e
    return SolverState(
        graph=basis.graph,
        basis=basis,
        partition=partition,
        retained=frozenset(range(basis.dimension)),
        cover_counts=covers,
        union_edges=union,
        trace=(),
        counters=counters,
        cluster_cache=cluster_cache if cluster_cache is not None else {},
        verdict_cache=verdict_cache if verdict_cache is not None else {},
    )


def boundary_mask(state: SolverState) -> int:
    """Edges covered exactly once by the retained cycles."""
    return edges_with_cover(state.cover_counts, 1)


def _record(state: SolverState, c: int) -> DeletionRecord:
    row = state.basis.cycles[c].edges
    state.counters.row_ops += 1
    removed = None
    newly = []
    for e in iter_edge_indices(row):
        if state.cover_counts[e] == 1:
            if removed is not None:
                raise NotRemovable(f"cycle {c} has more than one boundary edge")
            removed = e
        elif state.cover_counts[e] == 2:
            newly.append(e)
    if removed is None:
        raise NotRemovable(f"cycle {c} has no boundary edge")
    added = sum((state.graph.weights[e] for e in newly), start=Weight(0))
    return DeletionRecord(c, removed, tuple(newly), added)


def select_deletion(state: SolverState, records: list[DeletionRecord]) -> DeletionRecord:
    """Pick the record with minimal added weight.

    Ties break by smaller removed-edge weight, then by lower cycle index.
    """
    if not records:
        raise ValueError("no deletion candidates")
    state.counters.comparisons += len(records) - 1
    return min(
        records,
        key=lambda r: (r.added_weight, state.graph.weights[r.removed_edge], r.cycle),
    )


def apply_deletion(state: SolverState, c: int) -> SolverState:
    """Delete co-solution cycle ``c`` from the retained set.

    The union loses exactly the cycle's boundary edge; cover counts drop on
    the cycle's edges; the deletion is appended to the trace.
    """
    if c not in state.retained:
        raise NotRemovable(f"cycle {c} is not retained")
    if c not in state.partition.co_solution:
        raise NotRemovable(f"cycle {c} is a solution cycle and is never deleted")
    rec = _record(state, c)
    row = state.basis.cycles[c].edges
    covers = list(state.cover_counts)
    for e in iter_edge_indices(row):
        covers[e] -= 1
    state.counters.row_ops += 1
    state.counters.deletions += 1
    return dataclasses.replace(
        state,
        retained=state.retained - {c},
        cover_counts=tuple(covers),
        union_edges=state.union_edges & ~(1 << rec.removed_edge),
        trace=state.trace + (rec,),
    )


def _run_partition(state: SolverState) -> SolverState:
    # S1 collect removable co-solution cycles; S2 delete the cheapest;
    # S3 repeat until the pool empties or nothing is removable
    counters = state.counters
    while True:
        pool = [c for c in state.partition.co_solution if c in state.retained]
        if not pool:
            return state
        counters.candidates_tested += len(pool)
        counters.max_candidates_per_pass = max(
            counters.max_candidates_per_pass, len(pool)
        )
        contexts: list[RemovabilityContext] = [is_removable(state, c) for c in pool]
        records = [
            _record(state, ctx.target) for ctx in contexts if ctx.verdict == REMOVABLE
        ]
        if not records:
            return state
        best = select_deletion(state, records)
        state = apply_deletion(state, best.cycle)


def solve(graph: Graph, *, solution_cap: int = 64) -> TourResult:
    """Search for a minimum-weight Hamilton cycle by greedy cycle deletion.

    Front gate: inputs that the exhaustive Hamiltonicity test rejects come
    back as ``not_hamiltonian_input``. Failures never raise; they surface as
    statuses with the trace of the last attempted partition.
    """
    counters = Counters()
    if not is_hamiltonian(graph):
        return TourResult(
            STATUS_NOT_HAMILTONIAN, None, None, (), counters, False, 0, None, None
        )
    basis = fundamental_basis(graph)
    partitions = enumerate_solutions(basis, cap=solution_cap)
    if not partitions:
        return TourResult(
            STATUS_NO_SOLUTION, None, None, (), counters, False, 0, None, None
        )
    cluster_cache: dict = {}
    verdict_cache: dict = {}
    state = None
    tried = 0
    for partition in partitions:
        tried += 1
        state = initial_state(
            basis,
            partition,
            counters=counters,
            cluster_cache=cluster_cache,
            verdict_cache=verdict_cache,
        )
        state = _run_partition(state)
        mask = boundary_mask(state)
        tour = tour_from_edge_mask(graph, mask)
        if tour is not None:
            return TourResult(
                STATUS_OK,
                tour,
                mask_weight(graph, mask),
                state.trace,
                counters,
                True,
                tried,
                partition,
                state,
            )
    assert state is not None
    return TourResult(
        STATUS_STUCK,
        None,
        None,
        state.trace,
        counters,
        True,
        tried,
        state.partition,
        state,
    )
