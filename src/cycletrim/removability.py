"""Deciding whether a retained cycle may be deleted from the current basis.

Deleting a cycle drops its edges' cover counts by one; the deletion is legal
only when exactly one edge leaves the retained union (the cycle's single
boundary edge), no vertex ends up with three or more degree-2 neighbors, and
every *diagonal cluster* of the cycle still reduces to a single cycle graph.

A diagonal of cycle ``c`` is a retained cycle that is edge-disjoint from
``c`` and meets it in exactly one vertex. Its cluster is the transitive
closure of retained cycles connected to it by edge sharing, materialized as
a subgraph. The cluster reducer repeatedly (a) removes edges that cannot lie
on a spanning cycle because one endpoint already has two degree-2 neighbors
forcing its tour edges, and (b) contracts runs of adjacent degree-2 vertices
down to a single representative, pruning isolated vertices as it goes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .graphs import Graph, edge_subgraph, iter_edge_indices, mask_degrees

if TYPE_CHECKING:  # pragma: no cover
    from .solver import SolverState

REMOVABLE = "removable"
NOT_CANDIDATE = "not_candidate"
BLOCKED_BY_NEIGHBORS = "blocked_by_neighbors"
BLOCKED_BY_CLUSTER = "blocked_by_cluster"

REDUCED_CYCLE_GRAPH = "cycle_graph"
REDUCED_ACYCLIC = "acyclic"


@dataclass(frozen=True)
class RemovabilityContext:
    """Verdict of a single removability decision.

    ``boundary_edge`` is the target's unique once-covered edge, the one the
    deletion drops from the union; it is None for ``not_candidate``.
    """

    target: int
    verdict: str
    boundary_edge: int | None


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


def _candidate_boundary(state: SolverState, c: int) -> int | None:
    # the unique once-covered edge of c, or None when c is not a candidate;
    # c's other edges are covered at least twice, so after the deletion they
    # stay in the union and no vertex of c is left isolated
    row = state.basis.cycles[c].edges
    state.counters.row_ops += 1
    boundary = [e for e in iter_edge_indices(row) if state.cover_counts[e] == 1]
    return boundary[0] if len(boundary) == 1 else None


def find_diagonals(state: SolverState, c: int) -> tuple[int, ...]:
    """Retained cycles edge-disjoint from ``c`` sharing exactly one vertex."""
    if c not in state.retained:
        raise ValueError(f"cycle {c} is not retained")
    row = state.basis.cycles[c].edges
    verts = state.basis.cycle_vertices[c]
    out = []
    for d in sorted(state.retained):
        if d == c:
            continue
        state.counters.row_ops += 1
        if row & state.basis.cycles[d].edges:
            continue
        if len(verts & state.basis.cycle_vertices[d]) == 1:
            out.append(d)
    return tuple(out)


def _cluster_members(state: SolverState, seed: int) -> frozenset[int]:
    # transitive closure of edge sharing among retained cycles
    members = {seed}
    frontier = [seed]
    while frontier:
        cur = frontier.pop()
        row = state.basis.cycles[cur].edges
        for other in state.retained:
            if other in members:
                continue
            state.counters.row_ops += 1
            if row & state.basis.cycles[other].edges:
                members.add(other)
                frontier.append(other)
    return frozenset(members)


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


def _p_count(adj: dict[int, set[int]], v: int) -> int:
    return sum(1 for nb in adj[v] if len(adj[nb]) == 2)


def _deletion_moves(adj: dict[int, set[int]]) -> list[tuple]:
    # an endpoint with exactly two degree-2 neighbors has both tour edges
    # forced; its edges to other neighbors cannot survive
    moves = []
    edges = sorted(
        (min(u, v), max(u, v)) for u in adj for v in adj[u] if u < v
    )
    for u, v in edges:
        du, dv = len(adj[u]), len(adj[v])
        if (_p_count(adj, u) == 2 and du > 2 and dv != 2) or (
            _p_count(adj, v) == 2 and dv > 2 and du != 2
        ):
            moves.append(("delete_edge", u, v))
    return moves


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


def reduce_cluster(subgraph: Graph, *, rng: random.Random | None = None) -> ReductionOutcome:
    """Reduce a cluster subgraph to a fixpoint and classify the result.

    Moves are applied lowest-first for determinism; passing ``rng`` picks
    uniformly among all applicable moves instead, which lets callers probe
    whether the outcome depends on move order. Inputs may be disconnected.
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
        if rng is None:
            moves = _deletion_moves(adj)[:1] or _smoothing_moves(adj)[:1]
        else:
            moves = _deletion_moves(adj) + _smoothing_moves(adj)
        if not moves:
            return ReductionOutcome(REDUCED_ACYCLIC, tuple(steps))
        move = moves[0] if rng is None else rng.choice(moves)
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


def is_removable(state: SolverState, c: int) -> RemovabilityContext:
    """Full removability verdict for retained cycle ``c``.

    Checks run cheapest first: candidacy, then the degree-2-neighbor cap on
    the post-deletion union, then the diagonal clusters. Verdicts are cached
    per (retained set, cycle) and cluster reductions per member set, since
    identical questions recur across passes and solution partitions.
    """
    if c not in state.retained:
        raise ValueError(f"cycle {c} is not retained")
    key = (state.retained, c)
    cached = state.verdict_cache.get(key)
    if cached is not None:
        return cached
    ctx = _evaluate(state, c)
    state.verdict_cache[key] = ctx
    return ctx


def _evaluate(state: SolverState, c: int) -> RemovabilityContext:
    g = state.graph
    removed = _candidate_boundary(state, c)
    if removed is None:
        return RemovabilityContext(c, NOT_CANDIDATE, None)

    union_after = state.union_edges & ~(1 << removed)
    degrees = mask_degrees(g, union_after)
    for v in range(g.vertex_count):
        count = 0
        for nb, eidx in g.adjacency[v]:
            if (union_after >> eidx) & 1 and degrees[nb] == 2:
                count += 1
        if count >= 3:
            return RemovabilityContext(c, BLOCKED_BY_NEIGHBORS, removed)

    seen_clusters: set[frozenset[int]] = set()
    for d in find_diagonals(state, c):
        members = _cluster_members(state, d)
        if members in seen_clusters:
            continue
        seen_clusters.add(members)
        outcome_tag = state.cluster_cache.get(members)
        if outcome_tag is None:
            mask = 0
            for m in members:
                mask |= state.basis.cycles[m].edges
            cluster_graph = edge_subgraph(g, mask)
            state.counters.row_ops += len(members)
            outcome_tag = reduce_cluster(cluster_graph).tag
            state.cluster_cache[members] = outcome_tag
            state.counters.reduce_calls += 1
        if outcome_tag == REDUCED_ACYCLIC:
            return RemovabilityContext(c, BLOCKED_BY_CLUSTER, removed)
    return RemovabilityContext(c, REMOVABLE, removed)
