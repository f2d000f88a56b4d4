"""Exact ground truth: Hamiltonicity testing and optimal tours.

Two independent routes are kept deliberately separate so they can check each
other: a Held-Karp subset dynamic program for the exact optimum, and plain
backtracking enumeration of all tours. Both work natively on incomplete
graphs — transitions exist only along actual edges, missing edges are never
faked with large weights.
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
    hamiltonian: bool
    optimum_weight: Weight | None
    optimum_tour: tuple[int, ...] | None


def _canonical(tour: tuple[int, ...]) -> tuple[int, ...]:
    # start at 0, orient toward the smaller second vertex
    if tour[1] > tour[-1]:
        return (tour[0],) + tuple(reversed(tour[1:]))
    return tour


def is_hamiltonian(g: Graph) -> bool:
    """Backtracking Hamilton-cycle existence test.

    Prunes on degree (every unvisited vertex needs two usable edges) and on
    connectivity of the unvisited remainder. Sound and complete; exponential
    worst case, fine at oracle scale.
    """
    n = g.vertex_count
    if n < 3 or any(d < 2 for d in g.degrees):
        return False
    adj_mask = [0] * n
    for u, v, _ in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    full = (1 << n) - 1

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

    Raises :class:`TooLarge` above 24 vertices. Runtime is O(n^2 * 2^n);
    sizes near the cap take a long time in pure Python but stay exact: one
    path adds the graph's ``int`` and ``Fraction`` weights as stored.
    """
    n = g.vertex_count
    if n > HELD_KARP_MAX_VERTICES:
        raise TooLarge(f"{n} vertices exceeds the Held-Karp cap of {HELD_KARP_MAX_VERTICES}")
    if n < 3:
        return OracleAnswer(False, None, None)

    weights = g.weights
    adjacency = g.adjacency

    # dp[mask][last] = (cost, previous vertex); masks always contain bit 0
    dp: dict[int, dict[int, tuple]] = {}
    for nb, eidx in adjacency[0]:
        dp.setdefault(1 | (1 << nb), {})[nb] = (weights[eidx], 0)
    full = (1 << n) - 1
    for mask in range(3, full + 1, 2):
        states = dp.get(mask)
        if not states:
            continue
        for last, (cost, _) in states.items():
            for nb, eidx in adjacency[last]:
                if nb == 0 or mask & (1 << nb):
                    continue
                entry = dp.setdefault(mask | (1 << nb), {})
                ncost = cost + weights[eidx]
                cur = entry.get(nb)
                if cur is None or ncost < cur[0]:
                    entry[nb] = (ncost, last)

    finals = dp.get(full, {})
    best = None
    for last, (cost, _) in finals.items():
        if g.has_edge(last, 0):
            total = cost + weights[g.edge_index(last, 0)]
            if best is None or (total, last) < best:
                best = (total, last)
    if best is None:
        return OracleAnswer(False, None, None)
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
    return OracleAnswer(True, total, tour)


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
        return OracleAnswer(False, None, None)
    best_weight, best_tour = min((w, t) for t, w in tours)
    return OracleAnswer(True, best_weight, _canonical(best_tour))

