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
from functools import cached_property
from typing import Literal

from .cycle_space import CycleBasis, edges_with_cover, fundamental_basis
from .graphs import Graph, Weight, iter_edge_indices, mask_weight, tour_from_edge_mask
from .oracle import HELD_KARP_MAX_VERTICES, TooLarge, is_hamiltonian
from .removability import (
    REMOVABLE,
    DeletionRecord,
    NotRemovable,
    deletion_record,
    is_removable,
)
from .solvability import SolutionPartition, enumerate_solutions

Status = Literal["ok", "not_hamiltonian_input", "no_solution", "stuck"]

STATUS_OK: Status = "ok"
STATUS_NOT_HAMILTONIAN: Status = "not_hamiltonian_input"
STATUS_NO_SOLUTION: Status = "no_solution"
STATUS_STUCK: Status = "stuck"


@dataclass
class Counters:
    """Work accounting for one solver run.

    ``row_ops`` counts one per basis-row scan actually performed (the
    matrix-level work); ``reduce_calls`` counts cluster reductions actually
    executed.
    """

    candidates_tested: int = 0
    max_candidates_per_pass: int = 0
    reduce_calls: int = 0
    comparisons: int = 0
    deletions: int = 0
    row_ops: int = 0


@dataclass(frozen=True)
class SolverState:
    """Immutable snapshot of the retained basis subset.

    ``cover_counts`` and ``union_edges`` are always consistent with the
    retained rows. Counters and memo caches ride along by reference and are
    excluded from equality, so structurally identical states compare equal.
    ``cluster_closures`` is not a field: ``dataclasses.replace`` starts the
    next state without it, so it never outlives its retained set.
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

    @cached_property
    def cluster_closures(self) -> dict[int, frozenset[int]]:
        """Cluster closures taken on this retained set, by member cycle."""
        return {}


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


def initial_state(basis: CycleBasis, partition: SolutionPartition) -> SolverState:
    """Fresh state retaining the whole basis, with new counters and caches."""
    union = 0
    for e, c in enumerate(basis.cover_counts):
        if c >= 1:
            union |= 1 << e
    return SolverState(
        graph=basis.graph,
        basis=basis,
        partition=partition,
        retained=frozenset(range(basis.dimension)),
        cover_counts=basis.cover_counts,
        union_edges=union,
        # one row op per basis row, for the cover counts the basis carries
        counters=Counters(row_ops=basis.dimension),
    )


def boundary_mask(state: SolverState) -> int:
    """Edges covered exactly once by the retained cycles."""
    return edges_with_cover(state.cover_counts, 1)


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
    rec = deletion_record(state, c)
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
        contexts = [is_removable(state, c) for c in pool]
        records = [ctx.record for ctx in contexts if ctx.verdict == REMOVABLE]
        if not records:
            return state
        best = select_deletion(state, records)
        state = apply_deletion(state, best.cycle)


def solve(graph: Graph) -> TourResult:
    """Search for a minimum-weight Hamilton cycle by greedy cycle deletion.

    Raises :class:`TooLarge` above 24 vertices, the oracle's cap, before the
    front gate runs. Front gate: inputs that the exhaustive Hamiltonicity
    test rejects come back as ``not_hamiltonian_input``. Other failures never
    raise; they surface as statuses with the trace of the last attempted
    partition. Counters and caches are shared by every partition tried.
    """
    n = graph.vertex_count
    if n > HELD_KARP_MAX_VERTICES:
        raise TooLarge(f"{n} vertices exceeds the solver cap of {HELD_KARP_MAX_VERTICES}")
    if not is_hamiltonian(graph):
        return TourResult(
            STATUS_NOT_HAMILTONIAN, None, None, (), Counters(), False, 0, None, None
        )
    basis = fundamental_basis(graph)
    partitions = enumerate_solutions(basis)
    if not partitions:
        return TourResult(
            STATUS_NO_SOLUTION, None, None, (), Counters(), False, 0, None, None
        )
    start = initial_state(basis, partitions[0])
    counters = start.counters
    for tried, partition in enumerate(partitions, 1):
        state = _run_partition(dataclasses.replace(start, partition=partition))
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
