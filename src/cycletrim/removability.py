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
neighbour cap, the cycles whose sharing clusters are known to reduce to a
cycle graph or to an acyclic leftover, the tour its boundary forms, and
the verdicts on its cycles, indexed by bitmasks of the cycles asked and
found removable, with the removable ones' deletion records ranked in the
greedy rule's order, :func:`deletion_key`. With the two edge masks,
candidacy and the edges a deletion adds to the boundary are each one AND
with the cycle's row; :func:`is_removable` is the only test of candidacy,
and the ranking the only home of the greedy order. States
of different partitions that retain the same cycles share the entry, so
each entry is built, and each verdict evaluated, once per solve, and a
greedy pass over cycles whose verdicts are known reads its choice from the
ranking. Cluster tags live beside the table on the basis, keyed by the
member bitmask.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .cycle_space import count_covers, edges_with_cover
from .graphs import Weight, mask_neighbours, mask_weight, reach
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


class DeletionRecord(NamedTuple):
    """One applied (or proposed) deletion.

    ``removed_edge`` is the cycle's unique boundary edge, which leaves the
    union; ``newly_boundary`` is the bitmask of the edges whose cover drops
    from 2 to 1, and ``added_weight`` is the exact sum of their weights.
    """

    cycle: int
    removed_edge: int
    newly_boundary: int
    added_weight: Weight


class RemovabilityContext(NamedTuple):
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


def deletion_key(weights: Sequence[Weight], record: DeletionRecord) -> tuple:
    """The greedy rule's order on deletion records: least added weight, then
    lighter removed edge, then lower cycle index."""
    return record.added_weight, weights[record.removed_edge], record.cycle


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

    The bitmasks of the vertices with edges, of those of degree 2 and of
    the forced ones are built once and kept across rounds. A deletion
    changes the degrees of its two ends, so their bits are set again, and
    the forced bits of the ends and, where an end's degree-2 bit flips, of
    its neighbours. A smoothing takes its vertex out and changes no
    other bit: its two neighbours keep their degrees and swap it for each
    other, and one of the two has degree 2, so the other swaps a degree-2
    neighbour for a degree-2 neighbour. Without a forced vertex no edge is
    deletable, and the round goes straight to the smoothings.
    """
    adj = list(adjacency)
    live = two = 0
    for v, nbrs in enumerate(adj):
        if nbrs:
            live |= 1 << v
            if nbrs.bit_count() == 2:
                two |= 1 << v
    forced = _forced(adj, live & ~two, two)
    steps: list[tuple] = []
    while True:
        if (
            two == live
            and live.bit_count() >= 3
            and reach(adj, (live & -live).bit_length() - 1, live) == live
        ):
            return ReductionOutcome(REDUCED_CYCLE_GRAPH, tuple(steps))
        # a deletable edge has a forced end, so without one only a
        # smoothing can apply
        m = live & ~two if forced else 0
        while m:
            low = m & -m
            u = low.bit_length() - 1
            # neighbours above u that end a deletable edge: any one not of
            # degree 2 if u is forced, else a forced one; -(low << 1) clears
            # bits 0..u
            ends = adj[u] & -(low << 1) & (~two if forced & low else forced)
            if ends:
                v = (ends & -ends).bit_length() - 1
                adj[u] ^= 1 << v
                adj[v] ^= low
                steps.append(("delete_edge", u, v))
                # the ends' degrees drop by one; a vertex whose degree-2 bit
                # flips changes its neighbours' counts of degree-2 neighbours
                touched = low | (1 << v)
                for x in (u, v):
                    degree = adj[x].bit_count()
                    if not degree:
                        live &= ~(1 << x)
                    if (degree == 2) != ((two >> x) & 1):
                        two ^= 1 << x
                        touched |= adj[x]
                forced = (forced & ~touched) | _forced(adj, touched & live & ~two, two)
                break
            m ^= low
        else:
            m = two
            while m:
                low = m & -m
                v = low.bit_length() - 1
                nbrs = adj[v]
                x = (nbrs & -nbrs).bit_length() - 1
                y = nbrs.bit_length() - 1
                if nbrs & two and not (adj[x] >> y) & 1:
                    adj[x] ^= low | (1 << y)
                    adj[y] ^= low | (1 << x)
                    adj[v] = 0
                    live ^= low
                    two ^= low
                    steps.append(("smooth", v, x, y))
                    break
                m ^= low
            else:
                return ReductionOutcome(REDUCED_ACYCLIC, tuple(steps))


def _forced(adj: list[int], within: int, two: int) -> int:
    # the vertices of ``within`` with exactly two degree-2 neighbours
    forced = 0
    while within:
        low = within & -within
        if (adj[low.bit_length() - 1] & two).bit_count() == 2:
            forced |= low
        within ^= low
    return forced


@dataclass(eq=False, slots=True)
class _RetainedSet:
    """What one solve knows about one retained set, shared by every state of
    every partition that retains it.

    ``cover_counts`` and ``union_adjacency`` (one bitmask of union
    neighbours per vertex) are what the states' properties of the same
    names read. ``once`` and ``twice`` are the bitmasks of the edges
    covered exactly once (the boundary) and exactly twice, from which a
    cycle's candidacy and the edges its deletion adds to the boundary are
    read. ``degree_two`` is the bitmask of the union's degree-2 vertices and
    ``over_cap`` of the vertices with three or more of them as union
    neighbours. ``cycle_graph`` and ``acyclic`` are the bitmasks of the
    retained cycles whose sharing clusters have been found to reduce to a
    cycle graph and to an acyclic leftover; each is a union of whole
    clusters. ``tour`` is the Hamilton cycle the boundary forms, None when
    it forms none, and ``()`` until it is first decoded.

    ``verdicts`` maps each cycle whose verdict on the set has been
    evaluated to it, with its deletion record. ``asked`` and ``removable``
    index it by bit: bit ``c`` of ``asked`` is set when ``c`` has a verdict,
    and of ``removable`` when that verdict is removable. ``ranked`` holds
    the removable verdicts' records in :func:`deletion_key` order, each
    inserted as its verdict is evaluated, so a greedy pass whose verdicts
    are all known takes the first record of ``ranked`` inside its pool.
    """

    cover_counts: tuple[int, ...]
    union_adjacency: tuple[int, ...]
    once: int
    twice: int
    degree_two: int
    over_cap: int
    cycle_graph: int = 0
    acyclic: int = 0
    tour: tuple[int, ...] | None = ()
    verdicts: dict[int, RemovabilityContext] = field(default_factory=dict)
    asked: int = 0
    removable: int = 0
    ranked: list[DeletionRecord] = field(default_factory=list)


def _retained_set(state: SolverState) -> _RetainedSet:
    """The solve's entry for ``state.retained``; a set without one yet gets
    it from the basis rows, and the full set takes the basis' cover counts."""
    basis = state.basis
    entry = basis._retained_sets.get(state.retained)
    if entry is None:
        cycles = basis.cycles
        rows = []
        union = 0
        m = state.retained
        while m:
            low = m & -m
            row = cycles[low.bit_length() - 1]
            rows.append(row)
            union |= row
            m ^= low
        full = len(rows) == basis.dimension
        covers = basis.cover_counts if full else count_covers(basis.graph.edge_count, rows)
        once, twice = edges_with_cover(covers, 1), edges_with_cover(covers, 2)
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
        m = row
        while m:
            low = m & -m
            e = low.bit_length() - 1
            covers[e] -= 1
            if covers[e] == 2:
                twice |= low
            m ^= low
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

    Checks run cheapest first: candidacy, two ANDs of the cycle's row with
    the retained set's edge masks; then the degree-2-neighbor cap on the
    post-deletion union, read from the set's entry, where only the
    neighbours of a removed-edge end that drops to degree 2 are counted
    again; then the diagonal clusters. This is the one place candidacy is
    tested: every verdict but ``not_candidate`` carries the deletion
    record. The verdict is kept in that entry, which gains one key and its
    ``asked`` bit per verdict evaluated, and for a removable one its
    ``removable`` bit and its record's place in ``ranked``, in
    :func:`deletion_key` order; a verdict asked again is read from there.
    ``solve`` answers a greedy pass from those bits and the ranking, and
    :func:`~cycletrim.solver.apply_deletion` takes its record from the
    verdict. Cluster tags are kept on the basis per member bitmask.
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
            weights = state.basis.graph.weights
            insort(entry.ranked, ctx.record, key=lambda r: deletion_key(weights, r))
    return ctx


def _evaluate(state: SolverState, entry: _RetainedSet, c: int) -> RemovabilityContext:
    # a candidate has exactly one once-covered edge, which leaves the union;
    # its other edges are covered at least twice, so they stay and no vertex
    # of c is left isolated, and those covered exactly twice join the
    # boundary. The candidacy test counts one row op, for the row scan it
    # stands for. The diagonals are walked in ascending order up to the
    # first whose cluster is acyclic; those whose clusters the entry already
    # tags take no work, so only the untagged ones below the lowest
    # known-acyclic diagonal are walked, and each cluster is walked once per
    # entry
    basis = state.basis
    state.counters.row_ops += 1
    hit = basis.cycles[c] & entry.once
    if not hit or hit & (hit - 1):
        return RemovabilityContext(NOT_CANDIDATE, None)
    newly = basis.cycles[c] & entry.twice
    record = DeletionRecord(c, hit.bit_length() - 1, newly, mask_weight(basis.graph, newly))

    u, v, _ = basis.graph.edges[record.removed_edge]
    if _cap_after(entry, u, v)[1]:
        return RemovabilityContext(BLOCKED_BY_NEIGHBORS, record)

    diagonals = basis.diagonals[c] & state.retained
    blocked = diagonals & entry.acyclic
    unknown = diagonals & ~entry.cycle_graph & ~entry.acyclic
    if blocked:
        unknown &= (blocked & -blocked) - 1
    while unknown:
        low = unknown & -unknown
        members = reach(basis.sharing, low.bit_length() - 1, state.retained)
        tag = basis._cluster_tags.get(members)
        if tag is None:
            mask = 0
            m = members
            while m:
                bit = m & -m
                mask |= basis.cycles[bit.bit_length() - 1]
                m ^= bit
            state.counters.row_ops += members.bit_count()
            tag = reduce_cluster(mask_neighbours(basis.graph, mask)).tag
            basis._cluster_tags[members] = tag
            state.counters.reduce_calls += 1
        if tag == REDUCED_ACYCLIC:
            entry.acyclic |= members
            return RemovabilityContext(BLOCKED_BY_CLUSTER, record)
        entry.cycle_graph |= members
        unknown &= ~members
    return RemovabilityContext(BLOCKED_BY_CLUSTER if blocked else REMOVABLE, record)
