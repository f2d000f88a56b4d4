"""Deciding whether a retained cycle may be deleted from the current basis.

Deleting a cycle drops its edges' cover counts by one; the deletion is legal
only when exactly one edge leaves the retained union (the cycle's single
boundary edge), no vertex ends up with three or more degree-2 neighbors, and
every *diagonal cluster* of the cycle still reduces to a single cycle graph.

A diagonal of cycle ``c`` is a retained cycle that is edge-disjoint from
``c`` and meets it in exactly one vertex. Its cluster is the transitive
closure of retained cycles connected to it by edge sharing, materialized as
a subgraph on the parent graph's vertex ids. The cluster reducer repeatedly
(a) removes edges that cannot lie on a spanning cycle because one endpoint
already has two degree-2 neighbors forcing its tour edges, and (b) contracts
runs of adjacent degree-2 vertices down to a single representative, pruning
isolated vertices as it goes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .graphs import Graph, Weight, iter_bits
from .graphs import mask_degrees  # noqa: F401  perfbench/layers.py traces this name

if TYPE_CHECKING:  # pragma: no cover
    from .solver import SolverState

REMOVABLE = "removable"
NOT_CANDIDATE = "not_candidate"
BLOCKED_BY_NEIGHBORS = "blocked_by_neighbors"
BLOCKED_BY_CLUSTER = "blocked_by_cluster"

REDUCED_CYCLE_GRAPH = "cycle_graph"
REDUCED_ACYCLIC = "acyclic"


class NotRemovable(Exception):
    """Raised when a deletion is requested for a cycle that cannot go."""


@dataclass(frozen=True)
class DeletionRecord:
    """One applied (or proposed) deletion.

    ``removed_edge`` is the cycle's unique boundary edge, which leaves the
    union; ``newly_boundary`` is the bitmask of the edges whose cover drops
    from 2 to 1, and ``added_weight`` is the exact sum of their weights.
    """

    cycle: int
    removed_edge: int
    newly_boundary: int
    added_weight: Weight


@dataclass(frozen=True)
class RemovabilityContext:
    """Verdict of a single removability decision.

    ``record`` is what deleting the cycle would do; it is None for
    ``not_candidate``.
    """

    verdict: str
    record: DeletionRecord | None


@dataclass(frozen=True)
class ReductionOutcome:
    """Result of reducing a cluster subgraph.

    ``tag`` is ``cycle_graph`` exactly when the fixpoint is a single simple
    cycle; anything else (including forests and multi-component leftovers)
    is tagged ``acyclic``. ``steps`` records the edge-removing moves; every
    one strictly decreases the edge count, so there are at most |E| of them.
    """

    tag: str
    steps: tuple[tuple, ...]


def deletion_record(state: SolverState, c: int) -> DeletionRecord:
    """What deleting ``c`` does to the union, from one scan of its row.

    A cycle is a candidate exactly when one of its edges is covered once;
    that edge leaves the union. Its other edges are covered at least twice,
    so they stay in the union and no vertex of ``c`` is left isolated.
    Raises :class:`NotRemovable` for any other cycle.
    """
    row = state.basis.cycles[c]
    state.counters.row_ops += 1
    removed = None
    newly = added = 0
    for e in iter_bits(row):
        cover = state.cover_counts[e]
        if cover == 1:
            if removed is not None:
                raise NotRemovable(f"cycle {c} has more than one boundary edge")
            removed = e
        elif cover == 2:
            newly |= 1 << e
            added += state.basis.graph.weights[e]
    if removed is None:
        raise NotRemovable(f"cycle {c} has no boundary edge")
    return DeletionRecord(c, removed, newly, added)


def find_diagonals(state: SolverState, c: int) -> int:
    """Bitmask of the retained cycles edge-disjoint from ``c`` sharing exactly one vertex."""
    if not (state.retained >> c) & 1:
        raise ValueError(f"cycle {c} is not retained")
    row = state.basis.cycles[c]
    verts = state.basis.cycle_vertices[c]
    out = 0
    for d in iter_bits(state.retained & ~(1 << c)):
        state.counters.row_ops += 1
        if row & state.basis.cycles[d]:
            continue
        if (verts & state.basis.cycle_vertices[d]).bit_count() == 1:
            out |= 1 << d
    return out


def _cluster_members(state: SolverState, seed: int) -> int:
    # transitive closure of edge sharing among retained cycles, as a bitmask;
    # every member has the same closure, so one walk answers for all of them
    # on this state
    known = state.cluster_closures.get(seed)
    if known is not None:
        return known
    members = 1 << seed
    frontier = [seed]
    while frontier:
        row = state.basis.cycles[frontier.pop()]
        for other in iter_bits(state.retained & ~members):
            state.counters.row_ops += 1
            if row & state.basis.cycles[other]:
                members |= 1 << other
                frontier.append(other)
    for m in iter_bits(members):
        state.cluster_closures[m] = members
    return members


def _single_cycle(adj: dict[int, set[int]]) -> bool:
    if len(adj) < 3 or any(len(nbrs) != 2 for nbrs in adj.values()):
        return False
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(adj)


def _deletion_moves(adj: dict[int, set[int]]) -> list[tuple]:
    # an endpoint with exactly two degree-2 neighbors has both tour edges
    # forced; its edges to other neighbors cannot survive
    two = {v for v, nbrs in adj.items() if len(nbrs) == 2}
    forced = {v for v, nbrs in adj.items() if len(nbrs) > 2 and len(nbrs & two) == 2}
    edges = {(min(u, v), max(u, v)) for u in forced for v in adj[u] if v not in two}
    return [("delete_edge", u, v) for u, v in sorted(edges)]


def _smoothing_moves(adj: dict[int, set[int]]) -> list[tuple]:
    # contract runs of adjacent degree-2 vertices, keeping one per run;
    # a vertex is eligible while a degree-2 neighbor remains to represent
    # the run, and only when its neighbors are not already adjacent
    moves = []
    for v in sorted(adj):
        if len(adj[v]) != 2:
            continue
        if not any(len(adj[nb]) == 2 for nb in adj[v]):
            continue
        x, y = sorted(adj[v])
        if y in adj[x]:
            continue
        moves.append(("smooth", v, x, y))
    return moves


def reduce_cluster(subgraph: Graph) -> ReductionOutcome:
    """Reduce a cluster subgraph to a fixpoint and classify the result.

    Edge deletions go before smoothings, and each kind lowest-first, so the
    steps are deterministic. Inputs may be disconnected, and isolated
    vertices are dropped first, so a cluster keeps its parent's vertex ids.
    """
    adj: dict[int, set[int]] = {v: set() for v in range(subgraph.vertex_count)}
    for u, v, _ in subgraph.edges:
        adj[u].add(v)
        adj[v].add(u)
    steps: list[tuple] = []
    while True:
        for v in sorted(adj):
            if not adj[v]:
                del adj[v]
        if _single_cycle(adj):
            return ReductionOutcome(REDUCED_CYCLE_GRAPH, tuple(steps))
        moves = _deletion_moves(adj) or _smoothing_moves(adj)
        if not moves:
            return ReductionOutcome(REDUCED_ACYCLIC, tuple(steps))
        move = moves[0]
        if move[0] == "delete_edge":
            _, u, v = move
            adj[u].discard(v)
            adj[v].discard(u)
        else:
            _, v, x, y = move
            adj[x].discard(v)
            adj[y].discard(v)
            adj[x].add(y)
            adj[y].add(x)
            del adj[v]
        steps.append(move)


def verdict_key(state: SolverState, c: int) -> tuple[int, int]:
    """Where ``state.verdict_cache`` keeps the verdict on ``c``: one per retained
    bitmask and cycle."""
    return (state.retained, c)


def is_removable(state: SolverState, c: int) -> RemovabilityContext:
    """Full removability verdict for retained cycle ``c``.

    Checks run cheapest first: candidacy, then the degree-2-neighbor cap on
    the post-deletion union (popcounts over the state's neighbour bitmasks),
    then the diagonal clusters. Verdicts, with the deletion record, are
    cached per (retained bitmask, cycle), and :func:`~cycletrim.solver.apply_deletion`
    takes its record from that cache; cluster reductions are cached per
    member bitmask and cluster closures per state. ``solve`` asks each verdict on
    its start state once and shares the answer among all partitions.
    """
    if not (state.retained >> c) & 1:
        raise ValueError(f"cycle {c} is not retained")
    key = verdict_key(state, c)
    cached = state.verdict_cache.get(key)
    if cached is not None:
        return cached
    ctx = _evaluate(state, c)
    state.verdict_cache[key] = ctx
    return ctx


def _evaluate(state: SolverState, c: int) -> RemovabilityContext:
    g = state.basis.graph
    try:
        record = deletion_record(state, c)
    except NotRemovable:
        return RemovabilityContext(NOT_CANDIDATE, None)

    # the union after the deletion, as neighbour bitmasks: only the removed
    # edge's two endpoints change
    after = list(state.union_adjacency)
    u, v, _ = g.edges[record.removed_edge]
    after[u] &= ~(1 << v)
    after[v] &= ~(1 << u)
    degree_two = 0
    for x, nbrs in enumerate(after):
        if nbrs.bit_count() == 2:
            degree_two |= 1 << x
    if any((nbrs & degree_two).bit_count() >= 3 for nbrs in after):
        return RemovabilityContext(BLOCKED_BY_NEIGHBORS, record)

    for d in iter_bits(find_diagonals(state, c)):
        members = _cluster_members(state, d)
        outcome_tag = state.cluster_cache.get(members)
        if outcome_tag is None:
            mask = 0
            for m in iter_bits(members):
                mask |= state.basis.cycles[m]
            cluster = Graph(g.vertex_count, tuple(g.edges[e] for e in iter_bits(mask)))
            state.counters.row_ops += members.bit_count()
            outcome_tag = reduce_cluster(cluster).tag
            state.cluster_cache[members] = outcome_tag
            state.counters.reduce_calls += 1
        if outcome_tag == REDUCED_ACYCLIC:
            return RemovabilityContext(BLOCKED_BY_CLUSTER, record)
    return RemovabilityContext(REMOVABLE, record)
