"""Shared graph builders and independent reference implementations."""

from __future__ import annotations

import dataclasses
import itertools
import random
from collections import deque
from fractions import Fraction

from cycletrim import (
    CycleBasis,
    Graph,
    ReductionOutcome,
    SolutionPartition,
    SolverState,
    TourResult,
    count_covers,
    enumerate_solutions,
    fundamental_basis,
    initial_state,
    is_hamiltonian,
    is_removable,
)
from cycletrim import oracle
from cycletrim.graphs import (
    iter_bits,
    mask_neighbours,
    mask_vertices,
    mask_weight,
    tour_from_edge_mask,
)
from cycletrim.oracle import HELD_KARP_MAX_VERTICES, OracleAnswer, TooLarge, _canonical
from cycletrim.removability import (
    REDUCED_ACYCLIC,
    REDUCED_CYCLE_GRAPH,
    REMOVABLE,
    DeletionRecord,
    deletion_key,
)
from cycletrim.solver import (
    STATUS_NO_SOLUTION,
    STATUS_NOT_HAMILTONIAN,
    STATUS_OK,
    STATUS_STUCK,
    apply_deletion,
    boundary_mask,
)


def make_graph(n: int, edges) -> Graph:
    return Graph(n, tuple((u, v, Fraction(w)) for u, v, w in edges))


def triangle(w01=1, w02=3, w12=2) -> Graph:
    return make_graph(3, [(0, 1, w01), (0, 2, w02), (1, 2, w12)])


def theta(ab=5, ac=1, cb=1, ad=1, db=1) -> Graph:
    # a=0, b=1, c=2, d=3; paths a-c-b and a-d-b plus the direct edge ab
    return make_graph(4, [(0, 1, ab), (0, 2, ac), (1, 2, cb), (0, 3, ad), (1, 3, db)])


def k4_golden() -> Graph:
    return make_graph(
        4, [(0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 2, 4), (1, 3, 5), (2, 3, 7)]
    )


def petersen() -> Graph:
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    inner = [(5, 7), (7, 9), (6, 9), (6, 8), (5, 8)]
    spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    return make_graph(10, [(u, v, 1) for u, v in outer + inner + spokes])


def bowtie() -> Graph:
    return make_graph(5, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 3, 1), (0, 4, 1), (3, 4, 1)])


def wheel5() -> Graph:
    # hub 0, rim 1-2-3-4-1
    spokes = [(0, i) for i in range(1, 5)]
    rim = [(1, 2), (2, 3), (3, 4), (1, 4)]
    return make_graph(5, [(u, v, 1) for u, v in spokes + rim])


def cycle_graph(n: int) -> Graph:
    return make_graph(n, [(i, (i + 1) % n, 1) for i in range(n)])


def path_graph(n: int) -> Graph:
    return make_graph(n, [(i, i + 1, 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return make_graph(leaves + 1, [(0, i, 1) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    # sides 0..a-1 and a..a+b-1
    return make_graph(a + b, [(u, v, 1) for u in range(a) for v in range(a, a + b)])


def double_square() -> Graph:
    # two 4-cycles sharing vertex 0
    a = [(0, 1), (1, 2), (2, 3), (0, 3)]
    b = [(0, 4), (4, 5), (5, 6), (0, 6)]
    return make_graph(7, [(u, v, 1) for u, v in a + b])


def fundamental_basis_reference(g: Graph) -> CycleBasis:
    """The BFS basis by parent walks, the reference for
    :func:`cycletrim.fundamental_basis`.

    The same tree: BFS from 0, neighbours in ascending id order. Each
    chord's cycle is built by walking its deeper end up to the other's
    depth, then both ends up together until they meet, one parent edge at
    a time. A disconnected input raises ``ValueError``.
    """
    n = g.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    parent_edge = [-1] * n
    depth = [-1] * n
    depth[0] = 0
    tree_edges = 0
    queue = [0]
    for x in queue:
        for nb in sorted(adj[x]):
            if depth[nb] < 0:
                eidx = g.edge_index(x, nb)
                parent[nb], parent_edge[nb], depth[nb] = x, eidx, depth[x] + 1
                tree_edges |= 1 << eidx
                queue.append(nb)
    if len(queue) != n:
        raise ValueError("the reference basis requires a connected graph")
    cycles = []
    for eidx, (u, v, _) in enumerate(g.edges):
        if tree_edges >> eidx & 1:
            continue
        mask = 1 << eidx
        a, b = u, v
        while depth[a] > depth[b]:
            mask ^= 1 << parent_edge[a]
            a = parent[a]
        while depth[b] > depth[a]:
            mask ^= 1 << parent_edge[b]
            b = parent[b]
        while a != b:
            mask ^= 1 << parent_edge[a]
            mask ^= 1 << parent_edge[b]
            a = parent[a]
            b = parent[b]
        cycles.append(mask)
    return CycleBasis(g, tuple(cycles))


def solution_sum(basis: CycleBasis, indices) -> int:
    """Total (edge count - 2) over the chosen cycles."""
    if len(set(indices)) != len(indices):
        raise ValueError("cycle indices must be distinct")
    return sum(basis.cycles[i].bit_count() - 2 for i in indices)


def naive_solutions(basis: CycleBasis) -> set[tuple[int, ...]]:
    """Power-set filter over all non-empty subsets."""
    target = basis.graph.vertex_count - 2
    out = set()
    for size in range(1, basis.dimension + 1):
        for combo in itertools.combinations(range(basis.dimension), size):
            if solution_sum(basis, combo) == target:
                out.add(combo)
    return out


def enumerate_solutions_reference(basis: CycleBasis, cap: int) -> tuple[tuple[int, ...], ...]:
    """Solution subsets by size, then lexicographic, up to ``cap``.

    The search bounds what the remaining cycles can add by the largest
    value of any cycle, so on dense graphs it can walk far more branches
    than lead to a solution; :func:`cycletrim.enumerate_solutions` must
    give the same subsets in the same order.
    """
    target = basis.graph.vertex_count - 2
    values = [c.bit_count() - 2 for c in basis.cycles]
    dim = len(values)
    max_value = max(values, default=0)
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def extend(start: int, acc: int, remaining: int) -> bool:
        if remaining == 0:
            if acc == target:
                found.append(tuple(chosen))
                return len(found) >= cap
            return False
        for i in range(start, dim - remaining + 1):
            nacc = acc + values[i]
            if nacc + (remaining - 1) > target:
                continue
            if nacc + (remaining - 1) * max_value < target:
                continue
            chosen.append(i)
            stop = extend(i + 1, nacc, remaining - 1)
            chosen.pop()
            if stop:
                return True
        return False

    for size in range(1, min(dim, target) + 1):
        if extend(0, 0, size):
            break
    return tuple(found)


def gf2_rank(rows) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        cur = row
        while cur:
            p = cur.bit_length() - 1
            if p in pivots:
                cur ^= pivots[p]
            else:
                pivots[p] = cur
                rank += 1
                break
    return rank


def gf2_sum(masks) -> int:
    """Sum of edge bitmasks over GF(2)."""
    total = 0
    for m in masks:
        total ^= m
    return total


def is_simple_cycle(g: Graph, mask: int) -> bool:
    """True iff the edges in ``mask`` form a single simple cycle of length >= 3."""
    if mask.bit_count() < 3:
        return False
    nbrs: dict[int, list[int]] = {}
    for e in iter_bits(mask):
        u, v, _ = g.edges[e]
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    if any(len(x) != 2 for x in nbrs.values()):
        return False
    start = next(iter(nbrs))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in nbrs[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(nbrs)


def bits(indices) -> int:
    """The bitmask of a collection of indices."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def cluster_members_reference(state: SolverState, seed: int) -> int:
    """Transitive closure of edge sharing among retained cycles, walked over
    the rows and a set and returned as a bitmask."""
    retained = set(iter_bits(state.retained))
    members = {seed}
    frontier = [seed]
    while frontier:
        row = state.basis.cycles[frontier.pop()]
        for other in retained:
            if other not in members and row & state.basis.cycles[other]:
                members.add(other)
                frontier.append(other)
    return bits(members)


def union_mask(state: SolverState) -> int:
    """The retained union, recounted from the cover counts."""
    mask = 0
    for e, c in enumerate(state.cover_counts):
        if c:
            mask |= 1 << e
    return mask


def _union_adjacency(graph: Graph, union: int) -> tuple[int, ...]:
    adjacency = [0] * graph.vertex_count
    for e in iter_bits(union):
        u, v, _ = graph.edges[e]
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    return tuple(adjacency)


def crafted_state(
    graph: Graph,
    rows: list[int],
    solution: tuple[int, ...],
    retained: int | None = None,
) -> SolverState:
    """Build a solver state from hand-picked basis rows (unit-test rigging).

    ``retained`` is a bitmask of row indices; every row by default. The
    state's basis is new, so nothing is known about it yet.
    """
    everything = (1 << len(rows)) - 1
    if retained is None:
        retained = everything
    basis = CycleBasis(graph, tuple(rows))
    partition = SolutionPartition(solution, everything & ~bits(solution))
    return SolverState(basis=basis, partition=partition, retained=retained)


def check_state(state: SolverState) -> None:
    """Assert that the index sets are consistent and that the incremental
    fields match a recount of the retained rows."""
    everything = (1 << state.basis.dimension) - 1
    solution = bits(state.partition.solution)
    assert state.retained & ~everything == 0
    assert solution & ~state.retained == 0
    assert state.partition.co_solution & solution == 0
    assert state.partition.co_solution | solution == everything
    rows = [state.basis.cycles[i] for i in iter_bits(state.retained)]
    covers = count_covers(state.basis.graph.edge_count, rows)
    assert state.cover_counts == covers
    union = 0
    for row in rows:
        union |= row
    assert union_mask(state) == union
    assert state.union_adjacency == _union_adjacency(state.basis.graph, union)


def deletion_record_reference(state: SolverState, c: int) -> DeletionRecord | None:
    """What deleting ``c`` does, by a scan of its row against the cover
    counts: None unless exactly one of its edges is covered once; otherwise
    that edge, the bitmask of its edges covered twice and their weight."""
    covers = state.cover_counts
    once = [e for e in iter_bits(state.basis.cycles[c]) if covers[e] == 1]
    twice = [e for e in iter_bits(state.basis.cycles[c]) if covers[e] == 2]
    if len(once) != 1:
        return None
    added = sum((state.basis.graph.weights[e] for e in twice), start=Fraction(0))
    return DeletionRecord(c, once[0], bits(twice), added)


def cap_masks_reference(adjacency) -> tuple[int, int]:
    """``(degree_two, over_cap)`` of a union by a scan of every vertex: the
    degree-2 vertices, and those with three or more of them as neighbours."""
    degree_two = 0
    for x, nbrs in enumerate(adjacency):
        if nbrs.bit_count() == 2:
            degree_two |= 1 << x
    over_cap = 0
    for x, nbrs in enumerate(adjacency):
        if (nbrs & degree_two).bit_count() >= 3:
            over_cap |= 1 << x
    return degree_two, over_cap


def blocked_by_neighbors_reference(state: SolverState, record: DeletionRecord) -> bool:
    """The neighbour cap by degree count and a scan of every adjacency list.

    True when deleting ``record.cycle`` leaves some vertex with three or more
    union neighbours of union degree 2.
    """
    g = state.basis.graph
    union_after = union_mask(state) & ~(1 << record.removed_edge)
    around: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for e, (u, v, _) in enumerate(g.edges):
        if (union_after >> e) & 1:
            around[u].append(v)
            around[v].append(u)
    for v in range(g.vertex_count):
        count = 0
        for nb in around[v]:
            if len(around[nb]) == 2:
                count += 1
        if count >= 3:
            return True
    return False


def solve_reference(graph: Graph) -> TourResult:
    """The solver loop that runs every partition from a copy of the start state.

    Each partition asks its first pass again, reading the verdicts from the
    start set's entry, and decodes its own boundary; ``solve`` must give the
    same result in every field, and the same counters apart from ``row_ops``.
    """
    if not is_hamiltonian(graph):
        return TourResult(STATUS_NOT_HAMILTONIAN, None, None, 0, None)
    basis = fundamental_basis(graph)
    partitions = enumerate_solutions(basis)
    if not partitions:
        return TourResult(STATUS_NO_SOLUTION, None, None, 0, None)
    start = initial_state(basis, partitions[0])
    counters = start.counters
    for tried, partition in enumerate(partitions, 1):
        state = dataclasses.replace(start, partition=partition)
        while True:
            pool = list(iter_bits(partition.co_solution & state.retained))
            if not pool:
                break
            counters.candidates_tested += len(pool)
            contexts = [is_removable(state, c) for c in pool]
            records = [ctx.record for ctx in contexts if ctx.verdict == REMOVABLE]
            if not records:
                break
            counters.comparisons += len(records) - 1
            record = min(records, key=lambda r: deletion_key(graph.weights, r))
            state = apply_deletion(state, record.cycle)
        mask = boundary_mask(state)
        tour = tour_from_edge_mask(graph, mask)
        if tour is not None:
            weight = mask_weight(graph, mask)
            return TourResult(STATUS_OK, tour, weight, tried, state)
    return TourResult(STATUS_STUCK, None, None, tried, state)


def all_neighbours(g: Graph) -> list[int]:
    """The whole graph as the neighbour bitmasks ``reduce_cluster`` takes."""
    return mask_neighbours(g, (1 << g.edge_count) - 1)


def gate_search(g: Graph, budget: int | None) -> list[int] | None:
    """The front gate's checks and search on ``g`` outside its memo: some
    Hamilton cycle from 0, as a vertex list, or None.

    None when ``oracle._no_tour_up_front`` rules a cycle out, and otherwise
    what ``oracle._search_cycle`` returns under ``budget`` nodes. With
    ``budget`` None the search is complete, and None means that ``g`` has
    no Hamilton cycle; otherwise a search that gives up returns None too,
    which then proves nothing.
    """
    nbrs = all_neighbours(g)
    if oracle._no_tour_up_front(g, nbrs):
        return None
    try:
        return oracle._search_cycle(g, nbrs, budget)
    except oracle._GaveUp:
        return None


def _set_adjacency(g: Graph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(g.vertex_count)}
    for u, v, _ in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


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


def _reduce_sets(subgraph: Graph, choose) -> ReductionOutcome:
    # the reducer over a dict of neighbour sets, listing every applicable
    # move each round; ``choose(deletions, smoothings)`` picks the one made
    adj = _set_adjacency(subgraph)
    steps: list[tuple] = []
    while True:
        for v in sorted(adj):
            if not adj[v]:
                del adj[v]
        if _single_cycle(adj):
            return ReductionOutcome(REDUCED_CYCLE_GRAPH, tuple(steps))
        deletions, smoothings = _deletion_moves(adj), _smoothing_moves(adj)
        if not deletions and not smoothings:
            return ReductionOutcome(REDUCED_ACYCLIC, tuple(steps))
        move = choose(deletions, smoothings)
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


def reduce_cluster_reference(subgraph: Graph) -> ReductionOutcome:
    """``reduce_cluster`` over a dict of neighbour sets, in its fixed order.

    Every round lists all applicable moves and makes the lowest edge
    deletion, else the lowest smoothing; :func:`cycletrim.reduce_cluster`
    must give the same tag and steps.
    """
    return _reduce_sets(subgraph, lambda deletions, smoothings: (deletions or smoothings)[0])


def reduce_cluster_random(subgraph: Graph, rng: random.Random) -> ReductionOutcome:
    """``reduce_cluster`` with each move drawn uniformly from all applicable ones.

    The fixed order takes edge deletions before smoothings, lowest first; a
    differential test against this reference checks that the outcome tag
    does not depend on move order.
    """
    return _reduce_sets(subgraph, lambda deletions, smoothings: rng.choice(deletions + smoothings))


def state_for(graph: Graph, partition_index: int = 0):
    """(basis, partitions, initial state) for a real graph."""
    basis = fundamental_basis(graph)
    partitions = enumerate_solutions(basis)
    state = initial_state(basis, partitions[partition_index])
    return basis, partitions, state


def union_subgraph(state: SolverState) -> Graph:
    """The retained union as a standalone graph (original vertex ids kept)."""
    g = state.basis.graph
    return Graph(g.vertex_count, tuple(g.edges[e] for e in iter_bits(union_mask(state))))


def edge_subgraph_reference(g: Graph, mask: int) -> Graph:
    """The edges in ``mask`` as a graph of their own, touched vertices relabelled
    to ``0..k-1`` in ascending original id; weights are inherited."""
    new_id = {old: i for i, old in enumerate(iter_bits(mask_vertices(g, mask)))}
    edges = tuple(
        (new_id[g.edges[e][0]], new_id[g.edges[e][1]], g.edges[e][2])
        for e in iter_bits(mask)
    )
    return Graph(len(new_id), edges)


def min_tour_reference(g: Graph) -> OracleAnswer:
    """Held-Karp over a dict of per-mask dicts storing ``(cost, previous)``.

    The independent reference for :func:`cycletrim.min_tour`: masks include
    vertex 0, rows fill in decreasing ``last`` order and a strict ``<`` keeps
    the first predecessor found, so ties go to the largest one.
    """
    n = g.vertex_count
    if n > HELD_KARP_MAX_VERTICES:
        raise TooLarge(f"{n} vertices exceeds the Held-Karp cap of {HELD_KARP_MAX_VERTICES}")
    if n < 3:
        return OracleAnswer(None, None)

    # per vertex, (neighbour, weight) for each neighbour, ascending
    around: list[list[tuple]] = [[] for _ in range(n)]
    for u, v, w in g.edges:
        around[u].append((v, w))
        around[v].append((u, w))
    for pairs in around:
        pairs.sort()

    # dp[mask][last] = (cost, previous vertex); masks always contain bit 0
    dp: dict[int, dict[int, tuple]] = {}
    for nb, w in around[0]:
        dp.setdefault(1 | (1 << nb), {})[nb] = (w, 0)
    full = (1 << n) - 1
    for mask in range(3, full + 1, 2):
        states = dp.get(mask)
        if not states:
            continue
        for last, (cost, _) in states.items():
            for nb, w in around[last]:
                if nb == 0 or mask & (1 << nb):
                    continue
                entry = dp.setdefault(mask | (1 << nb), {})
                ncost = cost + w
                cur = entry.get(nb)
                if cur is None or ncost < cur[0]:
                    entry[nb] = (ncost, last)

    finals = dp.get(full, {})
    best = None
    for last, (cost, _) in finals.items():
        if g.has_edge(last, 0):
            total = cost + g.weights[g.edge_index(last, 0)]
            if best is None or (total, last) < best:
                best = (total, last)
    if best is None:
        return OracleAnswer(None, None)
    total, last = best
    seq = []
    mask = full
    cur = last
    while cur != 0:
        seq.append(cur)
        _, prev = dp[mask][cur]
        mask &= ~(1 << cur)
        cur = prev
    tour = _canonical((0,) + tuple(reversed(seq)))
    return OracleAnswer(total, tour)


def completable_rows_reference(g: Graph) -> int:
    """How many visited sets :func:`cycletrim.min_tour` allocates a row for.

    A state is a visited set ``s`` (vertex 0 left out) and a last vertex
    ``v``; the states reached are those the DP reaches from 0 expanding only
    completable states. Every unvisited vertex needs two tour neighbours
    among the unvisited vertices, 0 and ``v``, and only one of them can take
    ``v``, so a state is completable when every unvisited vertex has two
    neighbours that are unvisited or 0, or exactly one has one such
    neighbour and ``v`` is next to it. Written per state over sets, apart
    from the row-wide bitmask test in ``min_tour``.
    """
    n = g.vertex_count
    nbrs = [set() for _ in range(n)]
    for u, v, _ in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    others = frozenset(range(1, n))

    def completable(s: frozenset, v: int) -> bool:
        open_ends = (others - s) | {0}
        short = [x for x in others - s if len(nbrs[x] & open_ends) < 2]
        if not short:
            return True
        (x, *more) = short
        return not more and len(nbrs[x] & open_ends) == 1 and v in nbrs[x]

    reached = {(frozenset([v]), v) for v in nbrs[0]}
    stack = list(reached)
    while stack:
        s, v = stack.pop()
        if not completable(s, v):
            continue
        for nb in nbrs[v] - s - {0}:
            state = (s | {nb}, nb)
            if state not in reached:
                reached.add(state)
                stack.append(state)
    return len({s for s, _ in reached})


def _subset_sums(values: list, base) -> list:
    """``sums[m]`` is ``base`` plus ``values[i]`` for every bit ``i`` of ``m``;
    one addition per entry."""
    sums = [base] * (1 << len(values))
    for m in range(1, len(sums)):
        low = m & -m
        sums[m] = sums[m ^ low] + values[low.bit_length() - 1]
    return sums


def held_karp_list_rows_reference(
    g: Graph, nbrs: list[int], a1: list, a2: list, target
) -> OracleAnswer | None:
    """``oracle._held_karp`` as it was with a list of ``n`` costs per row.

    The reference for the kernel: same arguments, answer and row budget,
    ``oracle.HELD_KARP_MAX_ROWS`` read at each call. Each row holds a cost
    per vertex, with a sentinel above every path cost where no path ends;
    the completability test resets entries to it, expansion scans every
    entry, and every step of an end is tested against the bound.
    """
    n = g.vertex_count
    inf = 1 + sum(abs(w) for w in g.weights)
    # limit[s] = target - a1(0) - sum of a1(x) + a2(x) over unvisited x,
    # read from two tables over the low and high bits of s
    pair = [a1[x] + a2[x] for x in range(1, n)]
    half = (n - 1) // 2
    low_bits = (1 << half) - 1
    low_limit = _subset_sums(pair[:half], target - a1[0] - sum(pair))
    high_limit = _subset_sums(pair[half:], 0)
    # per vertex other than 0: (set bit, neighbour, weight, 2 * weight -
    # a2(neighbour)) for each neighbour other than 0; and (neighbour, weight)
    # for each neighbour of 0. The canonical edge order lists both in
    # ascending order of the neighbour.
    steps: list = [[] for _ in range(n)]
    starts = []
    for u, v, w in g.edges:
        if u:
            steps[u].append((1 << (v - 1), v, w, 2 * w - a2[v]))
            steps[v].append((1 << (u - 1), u, w, 2 * w - a2[u]))
        else:
            starts.append((v, w))
    # fragile[k]: (bit, neighbours) of each vertex that can fail the
    # completability test once k vertices besides 0 are visited, that is of
    # each vertex of degree at most k + 1
    degrees = [m.bit_count() for m in nbrs]
    fragile = [
        tuple((1 << x, nbrs[x]) for x in range(1, n) if degrees[x] <= k + 1)
        for k in range(n)
    ]
    cost: dict[int, list] = {}
    for nb, w in starts:
        row = [inf] * n
        row[nb] = w
        cost[1 << (nb - 1)] = row
    # visited sets not yet expanded, in the order their rows were allocated
    order = deque(cost)
    rows = len(cost)
    while order:
        mask = order.popleft()
        row = cost[mask]
        visited = mask << 1
        forced = 0  # neighbours of the one unvisited vertex with one free neighbour
        for bit, around in fragile[mask.bit_count()]:
            if bit & visited:
                continue
            free = around & ~visited
            if free & (free - 1):
                continue  # two free neighbours or more
            if not free or forced:
                forced = -1
                break
            forced = around
        if forced:
            if forced < 0:  # dead set: no Hamilton cycle finishes from here
                del cost[mask]
                continue
            rest = visited & ~forced  # last vertices that cannot take that vertex
            while rest:
                low = rest & -rest
                rest ^= low
                row[low.bit_length() - 1] = inf
        limit = low_limit[mask & low_bits] + high_limit[mask >> half]
        for last, c in enumerate(row):
            if c is inf:  # unreached entries all hold this one object
                continue
            room = limit - c - c
            if a1[last] > room:
                continue  # 2c + a1(last) > limit: cost plus lower bound above the bound
            for bit, nb, w, need in steps[last]:
                if mask & bit or need > room:
                    continue
                w += c
                to = mask | bit
                nxt = cost.get(to)
                if nxt is None:
                    rows += 1
                    if rows > oracle.HELD_KARP_MAX_ROWS:
                        raise TooLarge(f"the Held-Karp DP needs more than {rows - 1} rows")
                    nxt = cost[to] = [inf] * n
                    order.append(to)
                if w < nxt[nb]:
                    nxt[nb] = w

    full = (1 << (n - 1)) - 1
    final = cost.get(full)
    best = None
    if final is not None:
        for nb, w in starts:
            if final[nb] is not inf:
                total = final[nb] + w
                if best is None or total < best[0]:
                    best = (total, nb)
    if best is None or 2 * best[0] > target:
        return None
    total, cur = best
    seq = [cur]
    mask = full
    while mask != 1 << (cur - 1):
        target = cost[mask][cur]
        mask ^= 1 << (cur - 1)
        row = cost[mask]
        for bit, prev, w, _ in reversed(steps[cur]):  # ties go to the largest predecessor
            if mask & bit and row[prev] + w == target:
                break
        cur = prev
        seq.append(cur)
    tour = _canonical((0,) + tuple(reversed(seq)))
    return OracleAnswer(total, tour)
