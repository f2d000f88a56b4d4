"""Deciding whether a retained cycle may be deleted from the current basis.

Deleting a cycle drops its edges' cover counts by one; the deletion is legal
only when exactly one edge leaves the retained union (the cycle's single
boundary edge), no vertex ends up with three or more degree-2 neighbors, and
every *diagonal cluster* of the cycle still reduces to a single cycle graph.

A diagonal of cycle ``c`` is a retained cycle that is edge-disjoint from
``c`` and meets it in exactly one vertex. Its cluster is the transitive
closure of retained cycles connected to it by edge sharing. Both relations
depend only on the rows, so each is a per-cycle table of the basis
(``diagonals``, ``sharing``) masked by the retained set, and the closure is
:func:`~cycletrim.graphs.reach` over ``sharing``. The union of the cluster's
edges is handed to the reducer as neighbour bitmasks on the parent graph's
vertex ids (:func:`~cycletrim.graphs.mask_neighbours`). The cluster
reducer repeatedly (a) removes an edge that cannot lie on a spanning cycle
because one endpoint already has two degree-2 neighbors forcing its tour
edges, or else (b) contracts a run of adjacent degree-2 vertices by one
vertex, until the edges left form a single cycle or no move applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .graphs import Weight, iter_bits, mask_neighbours, reach
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
    return state.basis.diagonals[c] & state.retained


def reduce_cluster(adjacency: Sequence[int]) -> ReductionOutcome:
    """Reduce a cluster, given as neighbour bitmasks, to a fixpoint and classify it.

    Each round makes one move: the lowest edge ``(u, v)``, ``u < v``, that
    has a *forced* endpoint (degree above 2, exactly two degree-2
    neighbours) and whose other endpoint is not of degree 2 is deleted;
    failing that, the lowest degree-2 vertex with a degree-2 neighbour and
    two neighbours not yet adjacent is smoothed into an edge between them.
    So the steps are deterministic. Vertices without edges take no part,
    and inputs may be disconnected, so a cluster keeps its parent's vertex
    ids. The input is not changed.
    """
    adj = list(adjacency)
    steps: list[tuple] = []
    while True:
        live = two = 0
        for v, nbrs in enumerate(adj):
            if nbrs:
                live |= 1 << v
                if nbrs.bit_count() == 2:
                    two |= 1 << v
        if (
            two == live
            and live.bit_count() >= 3
            and reach(adj, (live & -live).bit_length() - 1, live) == live
        ):
            return ReductionOutcome(REDUCED_CYCLE_GRAPH, tuple(steps))
        forced = 0
        for v in iter_bits(live & ~two):
            if (adj[v] & two).bit_count() == 2:
                forced |= 1 << v
        for u in iter_bits(live & ~two):
            # neighbours above u that end a deletable edge: any one not of
            # degree 2 if u is forced, else a forced one; -(2 << u) clears
            # bits 0..u
            ends = adj[u] & -(2 << u) & (~two if (forced >> u) & 1 else forced)
            if ends:
                v = (ends & -ends).bit_length() - 1
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
                steps.append(("delete_edge", u, v))
                break
        else:
            for v in iter_bits(two):
                nbrs = adj[v]
                x = (nbrs & -nbrs).bit_length() - 1
                y = nbrs.bit_length() - 1
                if nbrs & two and not (adj[x] >> y) & 1:
                    adj[x] ^= (1 << v) | (1 << y)
                    adj[y] ^= (1 << v) | (1 << x)
                    adj[v] = 0
                    steps.append(("smooth", v, x, y))
                    break
            else:
                return ReductionOutcome(REDUCED_ACYCLIC, tuple(steps))


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
    member bitmask. ``solve`` asks each verdict on its start state once and
    shares the answer among all partitions.
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
        members = reach(state.basis.sharing, d, state.retained)
        outcome_tag = state.cluster_cache.get(members)
        if outcome_tag is None:
            mask = 0
            for m in iter_bits(members):
                mask |= state.basis.cycles[m]
            state.counters.row_ops += members.bit_count()
            outcome_tag = reduce_cluster(mask_neighbours(g, mask)).tag
            state.cluster_cache[members] = outcome_tag
            state.counters.reduce_calls += 1
        if outcome_tag == REDUCED_ACYCLIC:
            return RemovabilityContext(BLOCKED_BY_CLUSTER, record)
    return RemovabilityContext(REMOVABLE, record)
