"""Greedy deletion search for a minimum-weight Hamilton cycle.

Starting from the full fundamental basis, the solver repeatedly deletes one
removable co-solution cycle — the one whose deletion commits the least extra
weight to the boundary (edges covered exactly once) — until nothing can be
deleted. If the boundary edges then form a spanning cycle, that cycle is the
answer; otherwise the next solution partition is tried. The solution cycles
themselves are never deleted. Every partition starts from the same full
basis, so when no basis cycle is removable there, every partition would end
on the start boundary, and the solve stops after the first.

Each partition is one loop that carries the retained mask and its entry
in the basis' table of retained sets (see :mod:`~cycletrim.removability`).
A pass calls :func:`~cycletrim.removability.is_removable` once for each
pool cycle whose verdict on the set is not yet known, takes its choice
from the entry's ranking, and applies it with :func:`apply_deletion`,
which looks up the set's entry and the next set's once each and builds
the next only when the table lacks it. So a pass over known verdicts
costs a few bit operations, two lookups and one new state.

The run is fully deterministic: candidates are scanned in index order and
ties on the weight increment break by smaller removed-edge weight, then by
cycle index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from .cycle_space import CycleBasis, fundamental_basis
from .graphs import Graph, Weight, mask_weight, tour_from_edge_mask
from .oracle import HELD_KARP_MAX_VERTICES, TooLarge, is_hamiltonian
from .removability import (
    DeletionRecord,
    NotRemovable,
    _retained_set,
    _retained_set_after,
    is_removable,
)
from .solvability import SolutionPartition, _solutions, enumerate_solutions

Status = Literal["ok", "not_hamiltonian_input", "no_solution", "stuck"]

STATUS_OK: Status = "ok"
STATUS_NOT_HAMILTONIAN: Status = "not_hamiltonian_input"
STATUS_NO_SOLUTION: Status = "no_solution"
STATUS_STUCK: Status = "stuck"


@dataclass
class Counters:
    """Work accounting for one solver run.

    ``row_ops`` counts one per basis-row scan of the matrix-level work,
    plus one per pair of rows for the basis' sharing and diagonal tables;
    each evaluated verdict counts one for its candidacy, read with two ANDs
    of the cycle's row and the retained set's edge masks, and each applied
    deletion one for its cover update, also when it takes the cover counts
    from the solve's table of retained sets without a scan.
    ``reduce_calls`` counts cluster reductions actually executed. Both
    also count the start verdicts that a solve whose first partition
    deletes nothing asks of that partition's solution cycles (see
    :func:`solve`). ``candidates_tested`` counts each cycle of each pass's
    pool, and ``comparisons`` the pass's removable records, less one.
    ``deletions`` counts applied deletions.
    """

    candidates_tested: int = 0
    reduce_calls: int = 0
    comparisons: int = 0
    deletions: int = 0
    row_ops: int = 0


@dataclass(frozen=True, slots=True, init=False)
class SolverState:
    """Immutable snapshot of the retained basis subset.

    ``retained`` is the bitmask of the retained cycles. What depends only
    on that set lives in its entry in the basis' table of retained sets,
    which states of every partition of the solve share; ``cover_counts``
    and ``union_adjacency`` (one bitmask of union neighbours per vertex)
    are read-only views of it, always consistent with the retained rows.
    The union is the set of edges with a nonzero cover count, and the graph
    is ``basis.graph``. Counters ride along by reference and are excluded
    from equality, so structurally identical states compare equal; a state
    built without counters gets new ones.

    A solve builds one state per deletion, so ``__init__`` is written out:
    it fills the slots through their own descriptors, which a frozen class's
    ``__setattr__`` does not guard, where the generated one would call
    ``object.__setattr__`` once per field.
    """

    basis: CycleBasis
    partition: SolutionPartition
    retained: int
    trace: tuple[DeletionRecord, ...] = ()
    counters: Counters = field(default_factory=Counters, compare=False, repr=False)

    def __init__(
        self,
        basis: CycleBasis,
        partition: SolutionPartition,
        retained: int,
        trace: tuple[DeletionRecord, ...] = (),
        counters: Counters | None = None,
    ) -> None:
        set_basis, set_partition, set_retained, set_trace, set_counters = _STATE_SLOTS
        set_basis(self, basis)
        set_partition(self, partition)
        set_retained(self, retained)
        set_trace(self, trace)
        set_counters(self, Counters() if counters is None else counters)

    @property
    def cover_counts(self) -> tuple[int, ...]:
        return _retained_set(self).cover_counts

    @property
    def union_adjacency(self) -> tuple[int, ...]:
        return _retained_set(self).union_adjacency

    @property
    def verdict_cache(self) -> dict:
        # perfbench/layers.py counts a verdict cache hit by this length
        return _retained_set(self).verdicts


#: the setters of SolverState's slots, in field order
_STATE_SLOTS = tuple(getattr(SolverState, name).__set__ for name in SolverState.__slots__)


@dataclass(frozen=True)
class TourResult:
    """Outcome of a solver run.

    ``tour`` is the vertex sequence (start repeated implicitly) and
    ``weight`` its exact edge-weight sum, both present only for status
    ``ok``. ``solutions_tried`` counts the partitions attempted. A solve
    that stops because no basis cycle is removable at the start is
    ``stuck`` with ``solutions_tried == 1``, since every other partition
    would end on the same boundary; its ``partition`` is the first one,
    and its ``candidates_tested`` that partition's co-solution size.
    ``final_state`` is the last attempted partition's end state, present
    whenever a partition was tried; ``trace``, ``counters``, ``partition``
    and ``solvable`` are read from it.
    """

    status: Status
    tour: tuple[int, ...] | None
    weight: Weight | None
    solutions_tried: int
    final_state: SolverState | None

    @property
    def trace(self) -> tuple[DeletionRecord, ...]:
        return () if self.final_state is None else self.final_state.trace

    @property
    def counters(self) -> Counters:
        return Counters() if self.final_state is None else self.final_state.counters

    @property
    def partition(self) -> SolutionPartition | None:
        return None if self.final_state is None else self.final_state.partition

    @property
    def solvable(self) -> bool:
        """True when the solver had a solution partition to try."""
        return self.final_state is not None


def initial_state(basis: CycleBasis, partition: SolutionPartition) -> SolverState:
    """Fresh state retaining the whole basis, with new counters; it builds
    the basis' sharing and diagonal tables. The state shares the basis'
    table of retained sets, whose full-set entry takes the basis' cover
    counts."""
    basis.sharing  # builds both tables
    return SolverState(
        basis=basis,
        partition=partition,
        retained=(1 << basis.dimension) - 1,
        # one row op per basis row, for the basis' cover counts,
        # and one per pair of rows, for the tables: d + d(d - 1)/2 in all
        counters=Counters(row_ops=basis.dimension * (basis.dimension + 1) // 2),
    )


def boundary_mask(state: SolverState) -> int:
    """Edges covered exactly once by the retained cycles."""
    return _retained_set(state).once


def apply_deletion(state: SolverState, c: int) -> SolverState:
    """Delete co-solution cycle ``c`` from the retained set.

    ``c`` must be a candidate, a cycle with exactly one boundary edge;
    any other cycle raises :class:`NotRemovable`. The union loses exactly
    that edge; cover counts drop on the cycle's edges; the deletion is
    appended to the trace. The record comes from ``c``'s verdict on this
    retained set: the one in the set's entry, or, when none is known yet,
    the one :func:`~cycletrim.removability.is_removable` evaluates. The
    entry of the set left, with its cover counts and union adjacency, is
    built once per solve, by the first deletion that reaches it, and taken
    from the basis' table by every later one. Each of the two entries is
    looked up once.
    """
    retained = state.retained
    if not (retained >> c) & 1:
        raise NotRemovable(f"cycle {c} is not retained")
    if not (state.partition.co_solution >> c) & 1:
        raise NotRemovable(f"cycle {c} is a solution cycle and is never deleted")
    tables = state.basis._retained_sets
    entry = tables.get(retained) or _retained_set(state)
    known = entry.verdicts.get(c)
    rec = (is_removable(state, c) if known is None else known).record
    if rec is None:
        raise NotRemovable(f"cycle {c} does not have exactly one boundary edge")
    left = retained & ~(1 << c)
    if left not in tables:
        tables[left] = _retained_set_after(state.basis, entry, rec)
    counters = state.counters
    # one per deletion for the cover update, also when the table already
    # held the set's covers
    counters.row_ops += 1
    counters.deletions += 1
    return SolverState(state.basis, state.partition, left, state.trace + (rec,), counters)


def _attempt(
    start: SolverState, partition: SolutionPartition
) -> tuple[SolverState, tuple[int, ...] | None]:
    # one partition from the full basis: its end state and tour or None.
    # S1 find the cheapest removable cycle of the pool, the co-solution
    # cycles still retained; S2 delete it; S3 repeat until the pool empties
    # or nothing in it is removable. Each pass asks the pool's verdicts not
    # yet known on the retained set, and its choice is the first record of
    # the entry's ranking inside the pool. The start state retains every
    # cycle, so the first pass's pool is the co-solution, and a partition
    # that deletes nothing ends on the start entry. is_removable and
    # apply_deletion are called through this module's names, which
    # perfbench/layers.py rebinds
    counters = start.counters
    tables = start.basis._retained_sets
    state = SolverState(start.basis, partition, start.retained, counters=counters)
    entry = _retained_set(state)
    pool = partition.co_solution
    while True:
        counters.candidates_tested += pool.bit_count()
        m = pool & ~entry.asked
        while m:
            low = m & -m
            is_removable(state, low.bit_length() - 1)
            m ^= low
        found = pool & entry.removable
        if not found:
            break
        counters.comparisons += found.bit_count() - 1
        for record in entry.ranked:
            if (found >> record.cycle) & 1:
                break
        c = record.cycle
        state = apply_deletion(state, c)
        entry = tables[state.retained]
        pool ^= 1 << c
    if entry.tour == ():  # the tour the boundary forms, decoded once per entry
        entry.tour = tour_from_edge_mask(state.basis.graph, entry.once)
    return state, entry.tour


def solve(graph: Graph) -> TourResult:
    """Search for a minimum-weight Hamilton cycle by greedy cycle deletion.

    Raises :class:`TooLarge` above 24 vertices, the oracle's cap, before the
    front gate runs, and when the gate's search spends its budget and the
    Held-Karp DP that then decides raises it, which needs more than 20
    vertices. Front gate: inputs that the exact Hamiltonicity test
    :func:`~cycletrim.oracle.is_hamiltonian` rejects come back as
    ``not_hamiltonian_input``; on a graph that was just gated it reads the
    verdict back. Other failures never raise; they surface as statuses with
    the trace of the last attempted partition. The one basis built per call
    carries the solve's memo, its table of retained-set entries (each with
    its verdicts, their ranking, its cluster masks and its boundary's
    tour), its cluster tags and its solution table; it and the counters
    are shared by every partition tried. Every partition starts from the full basis, so
    each verdict on the start state, like each on any retained set, is
    evaluated once per solve, and no solve reads another's memo.

    The first partition is read from the solution table without
    enumerating the others. When it deletes nothing and its boundary is not
    a tour, the start verdicts of its solution cycles are asked as well,
    outside any counted pass. If no basis cycle is removable, every
    partition's first pass would find nothing and end on this boundary, so
    the solve is ``stuck`` after one partition, on its start state. Only
    otherwise are the partitions enumerated, and the solve goes on from the
    second.
    """
    n = graph.vertex_count
    if n > HELD_KARP_MAX_VERTICES:
        raise TooLarge(f"{n} vertices exceeds the solver cap of {HELD_KARP_MAX_VERTICES}")
    if not is_hamiltonian(graph):
        return TourResult(STATUS_NOT_HAMILTONIAN, None, None, 0, None)
    basis = fundamental_basis(graph)
    first = next(_solutions(basis), None)
    if first is None:
        return TourResult(STATUS_NO_SOLUTION, None, None, 0, None)
    start = initial_state(basis, first)
    state, tour = _attempt(start, first)
    tried = 1
    if tour is None and not state.trace:
        # nothing went: ask the rest of the start verdicts, outside any pass
        for c in first.solution:
            is_removable(start, c)
    if tour is None and _retained_set(start).removable:
        for tried, partition in enumerate(enumerate_solutions(basis)[1:], 2):
            state, tour = _attempt(start, partition)
            if tour is not None:
                break
    if tour is None:
        return TourResult(STATUS_STUCK, None, None, tried, state)
    return TourResult(STATUS_OK, tour, mask_weight(graph, boundary_mask(state)), tried, state)
