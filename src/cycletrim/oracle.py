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
optima always resolve to the same tour. See :func:`min_tour`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import Graph, Weight

HELD_KARP_MAX_VERTICES = 24
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
    adj_mask = [0] * n
    for u, v, _ in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
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

    Raises :class:`TooLarge` above 24 vertices and returns a non-Hamiltonian
    answer at once when a vertex has degree below 2. Runtime is
    O(n^2 * 2^n). The index of visited sets holds 2^(n-1) slots (64 MiB of
    pointers at n = 24) plus one row of n costs per reached set, so sizes
    near the cap are slow and large in pure Python but stay exact: one path
    adds the graph's ``int`` and ``Fraction`` weights as stored.

    ``cost[s][v]`` is the cheapest path from 0 through the set ``s`` ending
    at ``v``, where vertex ``v >= 1`` is bit ``v - 1`` of ``s`` (vertex 0
    starts every path and is never in ``s``). A row is ``None`` until its
    set is first reached; an unreached entry holds ``inf``, one more than
    the sum of absolute weights, so it is above every path cost. No
    predecessors are stored: the tour is read back from the costs by exact
    equality. Among equal costs it takes the largest predecessor, and the
    closing vertex is the smallest among equal totals.
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
    size = 1 << (n - 1)
    cost: list[list | None] = [None] * size
    for nb, eidx in adjacency[0]:
        row = [inf] * n
        row[nb] = weights[eidx]
        cost[1 << (nb - 1)] = row
    for mask in range(1, size):
        row = cost[mask]
        if row is None:
            continue
        for last, c in enumerate(row):
            if c is inf:  # unreached entries all hold this one object
                continue
            for bit, nb, w in steps[last]:
                if mask & bit:
                    continue
                w += c
                nxt = cost[mask | bit]
                if nxt is None:
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

