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

A solve keeps one entry per retained set it reaches, in the basis'
``_retained_sets`` table keyed by the retained bitmask. The entry is the one
home of what depends only on that set: the cover counts and union
adjacency, the bitmasks of the edges covered exactly once and exactly
twice, the union's degree-2 vertices and the vertices already over the
neighbour cap, the sharing components walked so far, and the verdicts on
its cycles, indexed by bitmasks of the cycles asked and found removable.
With the two edge masks, candidacy and the edges a deletion adds to the
boundary are each one AND with the cycle's row. States of different
partitions that retain the same cycles share the entry, so each entry is
built, and each verdict evaluated, once per solve. Cluster tags live
beside the table on the basis, keyed by the member bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .cycle_space import count_covers, edges_with_cover
from .graphs import Weight, iter_bits, mask_neighbours, mask_weight, reach
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
    """What deleting ``c`` does to the union, read from its row and the
    retained set's edge masks.

    A cycle is a candidate exactly when one of its edges is covered once:
    its row ANDed with the entry's once-covered mask holds one bit, and
    that edge leaves the union. Its other edges are covered at least twice,
    so they stay in the union and no vertex of ``c`` is left isolated; its
    row ANDed with the twice-covered mask is the edges that join the
    boundary. Raises :class:`NotRemovable` for any other cycle. Counts one
    row op, as the scan of the row it stands for did.
    """
    row = state.basis.cycles[c]
    entry = _retained_set(state)
    state.counters.row_ops += 1
    hit = row & entry.once
    if not hit:
        raise NotRemovable(f"cycle {c} has no boundary edge")
    if hit & (hit - 1):
        raise NotRemovable(f"cycle {c} has more than one boundary edge")
    newly = row & entry.twice
    added = mask_weight(state.basis.graph, newly)
    return DeletionRecord(c, hit.bit_length() - 1, newly, added)


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


@dataclass(eq=False, slots=True)
class _RetainedSet:
    """What one solve knows about one retained set, shared by every state of
    every partition that retains it.

    ``cover_counts`` and ``union_adjacency`` (one bitmask of union
    neighbours per vertex) are what the states' properties of the same
    names read. ``once`` and ``twice`` are the bitmasks of the edges
    covered exactly once (the boundary) and exactly twice, from which
    :func:`deletion_record` reads a cycle's candidacy and the edges its
    deletion adds to the boundary. ``degree_two`` is the bitmask of the
    union's degree-2 vertices and ``over_cap`` of the vertices with three
    or more of them as union neighbours. ``components`` maps each retained cycle whose sharing
    component has been walked to that component's bitmask. ``verdicts``
    maps each cycle whose verdict on the set has been evaluated to it, with
    its deletion record. ``asked`` and ``removable`` index it by bit: bit
    ``c`` of ``asked`` is set when ``c`` has a verdict, and of
    ``removable`` when that verdict is removable, so a pass reads its
    candidates by two masks.
    """

    cover_counts: tuple[int, ...]
    union_adjacency: tuple[int, ...]
    once: int
    twice: int
    degree_two: int
    over_cap: int
    components: dict[int, int] = field(default_factory=dict)
    verdicts: dict[int, RemovabilityContext] = field(default_factory=dict)
    asked: int = 0
    removable: int = 0


def _retained_set(state: SolverState) -> _RetainedSet:
    """The solve's entry for ``state.retained``; a set without one yet gets
    it from the basis rows, and the full set takes the basis' cover counts."""
    basis = state.basis
    entry = basis._retained_sets.get(state.retained)
    if entry is None:
        rows = [basis.cycles[i] for i in iter_bits(state.retained)]
        full = len(rows) == basis.dimension
        covers = basis.cover_counts if full else count_covers(basis.graph.edge_count, rows)
        once, twice = edges_with_cover(covers, 1), edges_with_cover(covers, 2)
        union = 0
        for row in rows:
            union |= row
        adjacency = tuple(mask_neighbours(basis.graph, union))
        degree_two = 0
        for x, nbrs in enumerate(adjacency):
            if nbrs.bit_count() == 2:
                degree_two |= 1 << x
        over_cap = 0
        for x, nbrs in enumerate(adjacency):
            if (nbrs & degree_two).bit_count() >= 3:
                over_cap |= 1 << x
        entry = _RetainedSet(covers, adjacency, once, twice, degree_two, over_cap)
        basis._retained_sets[state.retained] = entry
    return entry


def _retained_set_after(state: SolverState, record: DeletionRecord) -> _RetainedSet:
    """The solve's entry for the set ``state`` retains without ``record.cycle``.

    The first state to reach the set builds it from ``state``'s: covers drop
    on the cycle's row, the union loses the removed edge, the row's
    twice-covered edges become once-covered, its once-covered edge leaves,
    and the vertex masks come from :func:`_cap_after`. Every later one
    takes it from the table.
    """
    retained = state.retained & ~(1 << record.cycle)
    entry = state.basis._retained_sets.get(retained)
    if entry is None:
        before = _retained_set(state)
        row = state.basis.cycles[record.cycle]
        covers = list(before.cover_counts)
        twice = before.twice & ~row
        for e in iter_bits(row):
            covers[e] -= 1
            if covers[e] == 2:
                twice |= 1 << e
        once = (before.once & ~row) | (before.twice & row)
        u, v, _ = state.basis.graph.edges[record.removed_edge]
        adjacency = list(before.union_adjacency)
        adjacency[u] &= ~(1 << v)
        adjacency[v] &= ~(1 << u)
        degree_two, over_cap = _cap_after(before, u, v)
        entry = _RetainedSet(tuple(covers), tuple(adjacency), once, twice, degree_two, over_cap)
        state.basis._retained_sets[retained] = entry
    return entry


def _cap_after(entry: _RetainedSet, u: int, v: int) -> tuple[int, int]:
    """``(degree_two, over_cap)`` of the entry's union without the edge ``u``-``v``.

    The edge is a cycle's only once-covered edge, and each of the cycle's
    other edges at ``u`` and ``v`` lies on a second retained cycle (every
    basis row is a cycle), so both ends have degree 3 or more before the
    deletion and 2 or more after it. Their own counts of degree-2
    neighbours therefore stay as they were. An end that drops to degree 2
    raises the count of each of its neighbours, so only those are counted
    again; every other vertex keeps its bit of ``over_cap``.
    """
    adjacency = entry.union_adjacency
    two = entry.degree_two
    near = 0
    after = adjacency[u] & ~(1 << v)
    if after.bit_count() == 2:
        two |= 1 << u
        near |= after
    after = adjacency[v] & ~(1 << u)
    if after.bit_count() == 2:
        two |= 1 << v
        near |= after
    over = entry.over_cap & ~near
    while near:
        low = near & -near
        if (adjacency[low.bit_length() - 1] & two).bit_count() >= 3:
            over |= low
        near ^= low
    return two, over


def is_removable(state: SolverState, c: int) -> RemovabilityContext:
    """Full removability verdict for retained cycle ``c``.

    Checks run cheapest first: candidacy, then the degree-2-neighbor cap on
    the post-deletion union, then the diagonal clusters. The cap is read
    from the state's retained-set entry, and only the neighbours of a
    removed-edge end that drops to degree 2 are counted again. The verdict,
    with its deletion record, is kept in that entry, which gains one key and
    its ``asked`` (and, if removable, ``removable``) bit per verdict
    evaluated; a verdict asked again is read from there. ``solve`` reads a
    pass's candidates from those bits, and
    :func:`~cycletrim.solver.apply_deletion` its record from the entry.
    Cluster tags are kept on the basis per member bitmask.
    """
    if not (state.retained >> c) & 1:
        raise ValueError(f"cycle {c} is not retained")
    entry = _retained_set(state)
    ctx = entry.verdicts.get(c)
    if ctx is None:
        ctx = entry.verdicts[c] = _evaluate(state, entry, c)
        entry.asked |= 1 << c
        if ctx.verdict == REMOVABLE:
            entry.removable |= 1 << c
    return ctx


def _evaluate(state: SolverState, entry: _RetainedSet, c: int) -> RemovabilityContext:
    g = state.basis.graph
    try:
        record = deletion_record(state, c)
    except NotRemovable:
        return RemovabilityContext(NOT_CANDIDATE, None)

    u, v, _ = g.edges[record.removed_edge]
    if _cap_after(entry, u, v)[1]:
        return RemovabilityContext(BLOCKED_BY_NEIGHBORS, record)

    for d in iter_bits(find_diagonals(state, c)):
        members = entry.components.get(d)
        if members is None:
            members = reach(state.basis.sharing, d, state.retained)
            for m in iter_bits(members):
                entry.components[m] = members
        outcome_tag = state.basis._cluster_tags.get(members)
        if outcome_tag is None:
            mask = 0
            for m in iter_bits(members):
                mask |= state.basis.cycles[m]
            state.counters.row_ops += members.bit_count()
            outcome_tag = reduce_cluster(mask_neighbours(g, mask)).tag
            state.basis._cluster_tags[members] = outcome_tag
            state.counters.reduce_calls += 1
        if outcome_tag == REDUCED_ACYCLIC:
            return RemovabilityContext(BLOCKED_BY_CLUSTER, record)
    return RemovabilityContext(REMOVABLE, record)
