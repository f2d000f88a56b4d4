"""Exact ground truth: Hamiltonicity testing and optimal tours.

Two independent routes are kept deliberately separate so they can check each
other: a Held-Karp subset dynamic program for the exact optimum, and plain
backtracking enumeration of all tours. Both work natively on incomplete
graphs — transitions exist only along actual edges, missing edges are never
faked with large weights.

The DP keeps one flat list with a slot per visited set (vertex 0 left out,
so 2^(n-1) slots); each slot is ``None`` or a row of ``n`` exact path costs,
and an unreached entry holds a sentinel above every path cost. The tour is
read back from those costs, taking the largest predecessor among equal
costs and the smallest closing vertex among equal totals, so equal-weight
optima always resolve to the same tour.

The DP expands only visited sets whose unvisited vertices can still all be
threaded. The rest of a tour runs from the last vertex through every
unvisited vertex to 0, so each unvisited vertex needs two tour neighbours
among the unvisited vertices, 0 and the last vertex, and only one of them
can take the last vertex. A set where some unvisited vertex has no other
such neighbour, or two have one each, is dead and never expanded; with one
such vertex, only the last vertices next to it are expanded. Every state on
a Hamilton cycle passes, so answers and tours are those of the full DP. The
DP raises :class:`TooLarge` once it would allocate more than
``HELD_KARP_MAX_ROWS`` rows. See :func:`min_tour`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import Graph, Weight

HELD_KARP_MAX_VERTICES = 24
#: rows of path costs ``min_tour`` may allocate: every visited set at n <= 20
HELD_KARP_MAX_ROWS = 1 << 19
ENUMERATION_MAX_VERTICES = 10


class TooLarge(Exception):
    pass


@dataclass(frozen=True)
class OracleAnswer:
    """The exact optimum, or two ``None`` when the graph has no Hamilton cycle."""

    optimum_weight: Weight | None
    optimum_tour: tuple[int, ...] | None

    @property
    def hamiltonian(self) -> bool:
        return self.optimum_tour is not None


def _canonical(tour: tuple[int, ...]) -> tuple[int, ...]:
    # start at 0, orient toward the smaller second vertex
    if tour[1] > tour[-1]:
        return (tour[0],) + tuple(reversed(tour[1:]))
    return tour


def _neighbour_masks(g: Graph) -> list[int]:
    """Per vertex, the bitmask of its neighbours."""
    masks = [0] * g.vertex_count
    for u, v, _ in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _unequal_sides(adj_mask: list[int]) -> bool:
    """True iff the component of vertex 0 is bipartite with sides of unequal size.

    A Hamilton cycle alternates the sides of a bipartite graph, so such a
    graph has none; nor has a graph with vertices outside that component.
    BFS levels alternate sides, and an edge inside one level closes an odd
    cycle.
    """
    sides = [0, 0]
    seen = frontier = 1
    level = 0
    while frontier:
        sides[level & 1] |= frontier
        reach = 0
        rest = frontier
        while rest:
            low = rest & -rest
            nbrs = adj_mask[low.bit_length() - 1]
            if nbrs & frontier:
                return False
            reach |= nbrs
            rest ^= low
        frontier = reach & ~seen
        seen |= frontier
        level += 1
    return sides[0].bit_count() != sides[1].bit_count()


def is_hamiltonian(g: Graph) -> bool:
    """Backtracking Hamilton-cycle existence test.

    Rejects up front a vertex of degree below 2 and a bipartite graph with
    sides of unequal size. Then prunes on degree (every unvisited vertex
    needs two usable edges) and on connectivity of the unvisited remainder.
    Sound and complete; exponential worst case, fine at oracle scale.
    """
    n = g.vertex_count
    if n < 3 or any(d < 2 for d in g.degrees):
        return False
    adj_mask = _neighbour_masks(g)
    full = (1 << n) - 1
    if _unequal_sides(adj_mask):
        return False

    def feasible(current: int, visited: int) -> bool:
        remaining = full & ~visited
        if remaining == 0:
            return True
        allowed = remaining | (1 << current) | 1
        m = remaining
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            if (adj_mask[v] & allowed).bit_count() < 2:
                return False
        # the rest of the cycle must reach every unvisited vertex from here
        seen = 1 << current
        stack = [current]
        while stack:
            x = stack.pop()
            reach = adj_mask[x] & remaining & ~seen
            while reach:
                low = reach & -reach
                y = low.bit_length() - 1
                reach ^= low
                seen |= 1 << y
                stack.append(y)
        return remaining & ~seen == 0

    def extend(current: int, visited: int, count: int) -> bool:
        if count == n:
            return bool(adj_mask[current] & 1)
        if not feasible(current, visited):
            return False
        options = adj_mask[current] & ~visited
        while options:
            low = options & -options
            nxt = low.bit_length() - 1
            options ^= low
            if extend(nxt, visited | low, count + 1):
                return True
        return False

    return extend(0, 1, 1)


def min_tour(g: Graph) -> OracleAnswer:
    """Exact minimum-weight Hamilton cycle via the Held-Karp subset DP.

    Raises :class:`TooLarge` above 24 vertices, and once the DP would
    allocate more than ``HELD_KARP_MAX_ROWS`` rows, every visited set at
    n <= 20; returns a non-Hamiltonian answer at once when a vertex has
    degree below 2. Runtime is O(n^2 * 2^n). The index of visited sets holds
    2^(n-1) slots (64 MiB of pointers at n = 24) plus one row of n costs per
    reached set, so sizes near the cap are slow and large in pure Python but
    stay exact: one path adds the graph's ``int`` and ``Fraction`` weights
    as stored.

    ``cost[s][v]`` is the cheapest path from 0 through the set ``s`` ending
    at ``v``, where vertex ``v >= 1`` is bit ``v - 1`` of ``s`` (vertex 0
    starts every path and is never in ``s``). A row is ``None`` until its
    set is first reached; an unreached entry holds ``inf``, one more than
    the sum of absolute weights, so it is above every path cost. No
    predecessors are stored: the tour is read back from the costs by exact
    equality. Among equal costs it takes the largest predecessor, and the
    closing vertex is the smallest among equal totals.

    Completability test: for a reached set ``s``, let ``visited`` be its
    vertices and ``d(x)`` the number of neighbours of an unvisited ``x``
    that are unvisited or 0. The rest of a tour runs from the last vertex
    ``v`` through every unvisited vertex to 0, so each ``x`` needs two tour
    neighbours among the unvisited vertices, 0 and ``v``, and only one ``x``
    can take ``v``. The set is dead, and its row is not expanded, if some
    ``d(x) == 0`` or two vertices have ``d(x) == 1``. If exactly one ``x``
    has ``d(x) == 1``, only ends ``v`` next to ``x`` are alive: the other
    entries of the row are reset to ``inf`` before it is expanded. Since
    ``d(x)`` is at least the degree of ``x`` minus the size of ``s``, only
    vertices of degree at most ``|s| + 1`` are tested (``fragile``).

    Why answers and tours are those of the DP without the test: a state
    (``s``, ``v``) is on a Hamilton cycle when some path from 0 through
    ``s`` to ``v`` extends to one. Such a state passes the test, and every
    path into it, joined to that extension, is a Hamilton cycle, so every
    prefix of such a path is on a Hamilton cycle and passes too. The cost
    of a state on a Hamilton cycle is therefore the exact minimum over all
    paths into it; every other entry holds ``inf`` or a cost no lower than
    without the test. Closing and read-back look only at states on a
    Hamilton cycle: the closing entries next to 0 of the full set and, for
    each state on the optimum tour, its reached predecessors, each of which
    closes a tour through that state. So they see exactly the costs of the
    DP without the test, and the tie-breaks pick the same tour.
    """
    n = g.vertex_count
    if n > HELD_KARP_MAX_VERTICES:
        raise TooLarge(f"{n} vertices exceeds the Held-Karp cap of {HELD_KARP_MAX_VERTICES}")
    if n < 3 or any(d < 2 for d in g.degrees):
        return OracleAnswer(None, None)

    weights = g.weights
    adjacency = g.adjacency
    inf = 1 + sum(abs(w) for w in weights)
    # per vertex: (set bit, neighbour, weight) for each neighbour other than 0
    steps = [
        tuple((1 << (nb - 1), nb, weights[eidx]) for nb, eidx in adjacency[v] if nb)
        for v in range(n)
    ]
    nbrs = _neighbour_masks(g)
    # fragile[k]: (bit, neighbours) of each vertex that can fail the
    # completability test once k vertices besides 0 are visited, that is of
    # each vertex of degree at most k + 1
    degrees = g.degrees
    fragile = [
        tuple((1 << x, nbrs[x]) for x in range(1, n) if degrees[x] <= k + 1)
        for k in range(n)
    ]
    size = 1 << (n - 1)
    cost: list[list | None] = [None] * size
    for nb, eidx in adjacency[0]:
        row = [inf] * n
        row[nb] = weights[eidx]
        cost[1 << (nb - 1)] = row
    rows = len(adjacency[0])
    for mask in range(1, size):
        row = cost[mask]
        if row is None:
            continue
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
            if forced < 0:
                continue  # dead set: no Hamilton cycle finishes from here
            rest = visited & ~forced  # last vertices that cannot take that vertex
            while rest:
                low = rest & -rest
                rest ^= low
                row[low.bit_length() - 1] = inf
        for last, c in enumerate(row):
            if c is inf:  # unreached entries all hold this one object
                continue
            for bit, nb, w in steps[last]:
                if mask & bit:
                    continue
                w += c
                nxt = cost[mask | bit]
                if nxt is None:
                    rows += 1
                    if rows > HELD_KARP_MAX_ROWS:
                        raise TooLarge(
                            f"the Held-Karp DP needs more than {HELD_KARP_MAX_ROWS} rows"
                        )
                    nxt = cost[mask | bit] = [inf] * n
                if w < nxt[nb]:
                    nxt[nb] = w

    full = size - 1
    final = cost[full]
    best = None
    if final is not None:
        for nb, eidx in adjacency[0]:
            if final[nb] is not inf:
                total = final[nb] + weights[eidx]
                if best is None or total < best[0]:
                    best = (total, nb)
    if best is None:
        return OracleAnswer(None, None)
    total, cur = best
    seq = [cur]
    mask = full
    while mask != 1 << (cur - 1):
        target = cost[mask][cur]
        mask ^= 1 << (cur - 1)
        row = cost[mask]
        for bit, prev, w in reversed(steps[cur]):  # ties go to the largest predecessor
            if mask & bit and row[prev] + w == target:
                break
        cur = prev
        seq.append(cur)
    tour = _canonical((0,) + tuple(reversed(seq)))
    return OracleAnswer(total, tour)


def enumerate_tours(g: Graph, limit: int) -> list[tuple[tuple[int, ...], Weight]]:
    """All Hamilton cycles up to rotation and reflection, with exact weights.

    Tours are emitted in lexicographic order of the canonical sequence,
    capped at ``limit``. Raises :class:`TooLarge` above 10 vertices.
    """
    n = g.vertex_count
    if n > ENUMERATION_MAX_VERTICES:
        raise TooLarge(f"{n} vertices exceeds the enumeration cap of {ENUMERATION_MAX_VERTICES}")
    if n < 3 or limit < 1:
        return []
    adjacency = g.adjacency
    out: list[tuple[tuple[int, ...], Weight]] = []
    path = [0]
    weight_stack = [0]

    def extend(current: int, visited: int) -> bool:
        if len(path) == n:
            # close the cycle; reflections are skipped by requiring the
            # second vertex to be smaller than the last
            if g.has_edge(current, 0) and path[1] < path[-1]:
                closing = g.weights[g.edge_index(current, 0)]
                out.append((tuple(path), weight_stack[-1] + closing))
                return len(out) >= limit
            return False
        for nb, eidx in adjacency[current]:
            if visited & (1 << nb):
                continue
            path.append(nb)
            weight_stack.append(weight_stack[-1] + g.weights[eidx])
            stop = extend(nb, visited | (1 << nb))
            path.pop()
            weight_stack.pop()
            if stop:
                return True
        return False

    extend(0, 1)
    return out


def min_tour_by_enumeration(g: Graph) -> OracleAnswer:
    """Optimum by exhaustive enumeration; the cross-check for the DP route.

    Enumerates up to (n-1)!/2 tours, the number of Hamilton cycles of K_n,
    so no tour is ever cut off. Raises :class:`TooLarge` above 10 vertices.
    """
    tours = enumerate_tours(g, math.factorial(g.vertex_count - 1) // 2)
    if not tours:
        return OracleAnswer(None, None)
    best_weight, best_tour = min((w, t) for t, w in tours)
    return OracleAnswer(best_weight, _canonical(best_tour))

