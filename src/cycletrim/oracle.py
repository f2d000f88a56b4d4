"""Exact ground truth: Hamiltonicity testing and optimal tours.

Two independent routes are kept deliberately separate so they can check each
other: a Held-Karp subset dynamic program for the exact optimum, and plain
backtracking enumeration of all tours. Both work natively on incomplete
graphs — transitions exist only along actual edges, missing edges are never
faked with large weights.

One front gate, :func:`_gate`, checks a graph up front and searches it for
a Hamilton cycle, and both :func:`is_hamiltonian` and :func:`min_tour` go
through it. It first runs :func:`_no_tour_up_front`, which rejects fewer
than 3 vertices, a vertex of degree below 2, a bipartite graph with sides
of unequal size, and forced edges that rule out a tour: a vertex with two
edges must use both, so a vertex with two forced edges drops its others,
and the input has no tour if then some vertex is left with fewer than two
usable edges or more than two forced ones, or the forced edges close a
cycle that misses a vertex. Then it runs the backtracking search
:func:`_search_cycle` under a budget of ``GATE_NODES`` search nodes, which
prunes a path that leaves an unvisited vertex short of edges, vertex 0
without a closing edge, more unvisited vertices with two usable edges
leaning on the path's end, on vertex 0 or on one unvisited vertex than it
has edges free, or the unvisited vertices split. These are the standard
prunes of Hamilton-cycle backtracking (Rubin 1974; Vandegriend and
Culberson 1998); each cuts only paths and inputs with no Hamilton cycle, so
verdicts and the first cycle found stay those of the plain search. Still, a
2-connected graph without a Hamilton cycle and without a vertex of degree 2
can take the search exponential time, so when the gate's budget runs out
the row-capped DP decides instead.

The gate keeps the last graph it gated, with its neighbour bitmasks, the
cycle it found, or None, and, when its search gave up, the answer of the
DP that decided, as a one-entry memo keyed by identity; a second call on
that same object, from either entry point and whatever the weights' type,
reads it back. A campaign gates a draw and then hands that
object to ``solve``, which gates it again, and to :func:`min_tour`, so
each draw is searched once. The memo holds one graph at a time, and
saves work only: on any graph :func:`min_tour` takes its checks and first
tour from the gate.

The DP keeps a dict from each visited set it reaches (vertex 0 left out)
to a row of ``n`` exact path costs, where an unreached entry holds a
sentinel above every path cost, and expands the sets in the order their
rows were allocated; sets it never reaches cost neither time nor memory.
The tour is read back from those costs, taking the largest predecessor
among equal costs and the smallest closing vertex among equal totals, so
equal-weight optima always resolve to the same tour.

The DP expands only visited sets whose unvisited vertices can still all be
threaded. The rest of a tour runs from the last vertex through every
unvisited vertex to 0, so each unvisited vertex needs two tour neighbours
among the unvisited vertices, 0 and the last vertex, and only one of them
can take the last vertex. A set where some unvisited vertex has no other
such neighbour, or two have one each, is dead and never expanded; with one
such vertex, only the last vertices next to it are expanded. Every state on
a Hamilton cycle passes, so answers and tours are those of the full DP.

The DP is also bounded by a tour it finds first. The gate's cycle is some
Hamilton cycle, and 2-opt and or-opt moves lower its weight: that weight is
the upper bound. A path that ends at ``v`` still needs one edge at ``v``,
one at 0 and two at each unvisited vertex, so half the sum of the lightest
such edge weights is a lower bound on the rest of the tour. The weights are
first reduced by integer vertex penalties (Held and Karp 1970), which keeps
the bound valid and raises it. A state whose cost plus lower bound is above
the upper bound is neither expanded nor written; every state on an optimum
tour passes, so answers and tours are again those of the full DP. When the
gate gives up there is no first tour, and the bound is ``n`` times the
heaviest weight. The penalties are aimed once per call, at the bound, or
without a first tour at a point between it and the lower bound. Any number
at least the optimum serves as the upper bound, so the DP runs first under
guessed bounds just above the lower bound, raised until one closes a tour
no heavier than the guess, and only then under the bound; every run uses
the same penalties. The DP raises :class:`TooLarge` once it would allocate
more than ``HELD_KARP_MAX_ROWS`` rows. The bounds and the DP see fractional
weights scaled to ints, on a copy with the same edges. See
:func:`min_tour`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .graphs import Graph, Weight, iter_bits, mask_neighbours, reach, tour_weight

HELD_KARP_MAX_VERTICES = 24
#: rows of path costs ``min_tour`` may allocate: every visited set at n <= 20
HELD_KARP_MAX_ROWS = 1 << 19
ENUMERATION_MAX_VERTICES = 10
#: search nodes the front gate spends before the Held-Karp DP decides
GATE_NODES = 10_000
#: subgradient steps ``min_tour`` takes on its vertex penalties
PENALTY_STEPS = 30


class TooLarge(Exception):
    pass


class _GaveUp(Exception):
    """Raised by :func:`_search_cycle` when its node budget runs out."""


#: the front gate's memo: the last graph it gated, its whole-graph neighbour
#: bitmasks, a Hamilton cycle of it or None, and the DP's answer when the
#: search gave up, else None; the placeholder matches no graph
_gated: tuple = (None, [], None, None)


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


def _no_tour_up_front(g: Graph, adj_mask: list[int]) -> bool:
    """True iff ``g``, with neighbour bitmasks ``adj_mask``, has fewer than 3
    vertices, a vertex of degree below 2, forced edges that rule out a
    Hamilton cycle (:func:`_forced_edges_rule_out`), or a component of
    vertex 0 that is bipartite with sides of unequal size: each rules out a
    Hamilton cycle.

    A Hamilton cycle alternates the sides of a bipartite graph, so such a
    graph has none; nor has a graph with vertices outside that component.
    BFS levels alternate sides, and an edge inside one level closes an odd
    cycle. The walk is its own, not :func:`~cycletrim.graphs.reach`, since
    it needs the levels. Degrees are the bit counts of ``adj_mask``.
    """
    degrees = [m.bit_count() for m in adj_mask]
    if g.vertex_count < 3 or min(degrees) < 2:
        return True
    if 2 in degrees and _forced_edges_rule_out(adj_mask):
        return True
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


def _forced_edges_rule_out(nbrs: list[int]) -> bool:
    """True iff forcing edges rules out a Hamilton cycle of the graph with
    neighbour bitmasks ``nbrs``, in which every vertex has two neighbours
    or more.

    An edge is usable until it is dropped. Rounds alternate until nothing
    changes: every vertex with exactly two usable edges forces both, and
    every vertex with two forced edges drops its other edges. Then there is
    no Hamilton cycle if some vertex has more than two forced edges or
    fewer than two usable ones, or if the forced edges close a cycle that
    misses a vertex. Sound by induction over the rounds: a Hamilton cycle
    uses two edges at each vertex, so it uses every forced edge and no
    dropped one, and a cycle inside it is the whole of it.
    """
    n = len(nbrs)
    usable = list(nbrs)
    forced = [0] * n
    while True:
        for v, ends in enumerate(usable):
            if ends.bit_count() == 2 and forced[v] != ends:
                forced[v] = ends
                for u in iter_bits(ends):
                    forced[u] |= 1 << v
        dropped = False
        for v, ends in enumerate(forced):
            if ends.bit_count() > 2:
                return True
            if ends.bit_count() == 2 and usable[v] != ends:
                for w in iter_bits(usable[v] & ~ends):
                    usable[w] &= ~(1 << v)
                usable[v] = ends
                dropped = True
        if not dropped:
            break
        if any(ends.bit_count() < 2 for ends in usable):
            return True
    everyone = (1 << n) - 1
    checked = 0
    for v, ends in enumerate(forced):
        if ends.bit_count() == 2 and not checked >> v & 1:
            part = reach(forced, v, everyone)
            checked |= part
            if part != everyone and all(forced[x].bit_count() == 2 for x in iter_bits(part)):
                return True
    return False


def _short_of_edges(nbrs: list[int], current: int, remaining: int) -> bool:
    """True iff the rest of a cycle from ``current`` through the non-empty
    ``remaining`` back to 0 cannot be threaded because some vertex is short
    of edges or asked for too many.

    The rest of the cycle uses one edge at ``current``, one at 0 and two at
    each vertex of ``remaining``, all among those vertices; at the root,
    where ``current`` is 0, vertex 0 has both its edges free. So it cannot
    be threaded if 0 has no neighbour in ``remaining`` for its closing edge,
    or some vertex of ``remaining`` has fewer than two neighbours among
    ``remaining``, ``current`` and 0. A vertex with exactly two such
    neighbours needs an edge at both, so it also cannot be threaded if two
    of these need ``current`` or two need 0 (three at the root), or three
    need one vertex of ``remaining``.
    """
    if not nbrs[0] & remaining:
        return True
    allowed = remaining | (1 << current) | 1
    # vertices that at least one, two and three vertices with two usable neighbours need
    once = twice = thrice = 0
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        usable = nbrs[low.bit_length() - 1] & allowed
        count = usable.bit_count()
        if count < 2:
            return True
        if count == 2:
            thrice |= twice & usable
            twice |= once & usable
            once |= usable
    return bool(thrice or current and twice & ((1 << current) | 1))


def _search_cycle(g: Graph, nbrs: list[int], budget: int | None) -> list[int] | None:
    """The front gate's depth-first search for a Hamilton cycle from 0, as a
    vertex list, on a graph with neighbour bitmasks ``nbrs`` that passed
    :func:`_no_tour_up_front`.

    It goes first to the neighbour with the fewest unvisited neighbours,
    then along the lightest edge, then to the lowest id (Warnsdorff's
    order). It backs up as soon as :func:`_short_of_edges` holds or the
    unvisited vertices are not all reachable from the current one through
    unvisited vertices; each prune cuts only paths that no Hamilton cycle
    extends, so the search finds the first cycle in that order, and a
    budget only cuts it short. Returns None when there is no Hamilton
    cycle, and raises :class:`_GaveUp` once it has spent ``budget`` nodes
    without settling; with ``budget`` None it is complete, and exponential
    at worst.
    """
    n = g.vertex_count
    table = _weight_table(g)
    full = (1 << n) - 1
    left = math.inf if budget is None else budget
    path = [0]

    def extend(current: int, visited: int) -> bool:
        nonlocal left
        if len(path) == n:
            return bool(nbrs[current] & 1)
        left -= 1
        if left < 0:
            raise _GaveUp
        remaining = full & ~visited
        if _short_of_edges(nbrs, current, remaining):
            return False
        if remaining & ~reach(nbrs, current, remaining):
            return False
        options = []
        m = nbrs[current] & remaining
        while m:
            low = m & -m
            m ^= low
            nxt = low.bit_length() - 1
            options.append(((nbrs[nxt] & remaining).bit_count(), table[current * n + nxt], nxt))
        for _, _, nxt in sorted(options):
            path.append(nxt)
            if extend(nxt, visited | 1 << nxt):
                return True
            path.pop()
        return False

    return path if extend(0, 1) else None


def _gate(g: Graph) -> tuple:
    """The front gate's memo entry for ``g``: ``(g, nbrs, cycle, answer)``,
    with the whole-graph neighbour bitmasks, a Hamilton cycle of ``g`` or
    None when it has none, and the DP's answer when the search gave up, else
    None.

    The one place that checks a graph up front and searches it. When the
    memo holds another graph: :func:`_no_tour_up_front`, then
    :func:`_search_cycle` under a budget of ``GATE_NODES`` nodes; when that
    runs out, the DP of :func:`_optimum` decides without a first tour, its
    tour is the cycle, and its answer is kept for :func:`min_tour`. The
    entry then replaces the memo, so a second call on the same object only
    reads it back.

    Raises :class:`TooLarge` above 24 vertices, the cap that ``solver.solve``
    and :func:`min_tour` share, and when the search gives up and the DP
    raises it, which needs more than 20 vertices. Uncapped, the search,
    which recurses once per vertex on its path, would raise
    ``RecursionError`` on inputs of about a thousand vertices.
    """
    global _gated
    n = g.vertex_count
    if n > HELD_KARP_MAX_VERTICES:
        raise TooLarge(f"{n} vertices exceeds the oracle's cap of {HELD_KARP_MAX_VERTICES}")
    memo = _gated  # read once: another thread may replace it
    if memo[0] is not g:
        nbrs = mask_neighbours(g, (1 << g.edge_count) - 1)
        cycle = answer = None
        if not _no_tour_up_front(g, nbrs):
            try:
                cycle = _search_cycle(g, nbrs, GATE_NODES)
            except _GaveUp:
                answer = _optimum(g, nbrs, None)
                cycle = answer.optimum_tour
        memo = _gated = (g, nbrs, cycle, answer)
    return memo


def is_hamiltonian(g: Graph) -> bool:
    """Hamilton-cycle existence test, exact and of bounded cost: whether the
    cycle :func:`_gate` holds for ``g`` is not None. Raises
    :class:`TooLarge` where the gate does."""
    return _gate(g)[2] is not None


def _weight_table(g: Graph) -> list:
    """Edge weights as a flat ``n * n`` list, ``None`` where there is no edge."""
    n = g.vertex_count
    table: list = [None] * (n * n)
    for u, v, w in g.edges:
        table[u * n + v] = table[v * n + u] = w
    return table


def _two_opt(tour: list[int], table: list) -> bool:
    """Make the first 2-opt move that lowers the weight; False if there is none."""
    n = len(tour)
    for i in range(n - 2):
        a, b = tour[i], tour[i + 1]
        ab = table[a * n + b]
        for j in range(i + 2, n if i else n - 1):
            c, d = tour[j], tour[(j + 1) % n]
            ac = table[a * n + c]
            bd = table[b * n + d]
            if ac is not None and bd is not None and ac + bd < ab + table[c * n + d]:
                tour[i + 1 : j + 1] = tour[j:i:-1]
                return True
    return False


def _or_opt(tour: list[int], table: list) -> bool:
    """Make the first or-opt move that lowers the weight; False if there is none."""
    n = len(tour)
    for length in range(1, min(3, n - 3) + 1):
        for i in range(n):
            cycle = tour[i:] + tour[:i]
            segment, rest = cycle[:length], cycle[length:]
            first, last, before, after = segment[0], segment[-1], rest[-1], rest[0]
            joined = table[before * n + after]
            if joined is None:
                continue
            saved = table[before * n + first] + table[last * n + after] - joined
            ends = ((first, last),) if length == 1 else ((first, last), (last, first))
            for k in range(len(rest) - 1):
                x, y = rest[k], rest[k + 1]
                for head, tail in ends:
                    xh = table[x * n + head]
                    ty = table[tail * n + y]
                    if xh is not None and ty is not None and xh + ty - table[x * n + y] < saved:
                        if head != first:
                            segment.reverse()
                        tour[:] = rest[: k + 1] + segment + rest[k + 1 :]
                        return True
    return False


def _improve(tour: list[int], table: list) -> None:
    """Lower the weight of ``tour`` in place by 2-opt and or-opt moves.

    A 2-opt move reverses a stretch of the cycle (Croes 1958); an or-opt
    move takes out a stretch of one to three vertices and puts it back,
    either way round, between two neighbours elsewhere on the cycle. A move
    is made only when every edge it adds exists and it strictly lowers the
    weight, so the search ends.
    """
    while _two_opt(tour, table) or _or_opt(tour, table):
        pass


def _lightest_pairs(ends: list, pi: list[int]) -> tuple[list, list, list[int]]:
    """``(a1, a2, excess)``: per vertex ``x`` the two lightest reduced weights
    ``a1(x) <= a2(x)`` of ``w(x, y) + pi[y] - pi[x]``, and the number of other
    vertices whose two lightest reduced edges end at ``x``, minus 2.

    ``ends[x]`` lists ``(w(x, y), y)`` for each neighbour ``y``, at least
    two; ties go to the first listed.
    """
    a1 = []
    a2 = []
    excess = [-2] * len(ends)
    for x, around in enumerate(ends):
        it = iter(around)
        w, y1 = next(it)
        r1 = w + pi[y1]
        w, y2 = next(it)
        r2 = w + pi[y2]
        if r2 < r1:
            r1, r2, y1, y2 = r2, r1, y2, y1
        for w, y in it:
            r = w + pi[y]
            if r < r2:
                if r < r1:
                    r1, r2, y1, y2 = r, r1, y, y1
                else:
                    r2, y2 = r, y
        a1.append(r1 - pi[x])
        a2.append(r2 - pi[x])
        excess[y1] += 1
        excess[y2] += 1
    return a1, a2, excess


def _penalties(ends: list, target: Weight) -> tuple[list, list]:
    """``(a1, a2)`` of :func:`_lightest_pairs` under integer vertex
    penalties that raise ``sum of a1 + a2`` toward ``target``, which
    :func:`_bounds` picks.

    ``PENALTY_STEPS`` subgradient steps (Held and Karp 1970): the excess is
    a subgradient of the sum, and a Polyak step of ``scale * (target -
    sum) / |excess|^2`` along it aims the sum at ``target``. ``scale``
    starts at 2 and halves after each step that does not raise the best
    sum. The steps move float penalties that are rounded to ints, so the
    sums stay exact for ``int`` and ``Fraction`` weights. Returns the pairs
    with the largest sum seen, those without penalties first, so the bound
    is never below the one without penalties.
    """
    drift = [0.0] * len(ends)
    best_a1, best_a2, excess = _lightest_pairs(ends, [0] * len(ends))
    total = best = sum(best_a1) + sum(best_a2)
    scale = 2.0
    for _ in range(PENALTY_STEPS):
        norm = sum(e * e for e in excess)
        if not norm or total >= target:
            break  # the sum is at its largest
        step = scale * float(target - total) / norm
        drift = [d + step * e for d, e in zip(drift, excess)]
        a1, a2, excess = _lightest_pairs(ends, [round(d) for d in drift])
        total = sum(a1) + sum(a2)
        if total > best:
            best_a1, best_a2, best = a1, a2, total
        else:
            scale /= 2
    return best_a1, best_a2


def _bounds(g: Graph, tour: list[int] | None) -> tuple[Weight, list, list]:
    """``(UB, a1, a2)`` for :func:`min_tour`.

    ``UB`` is the weight of the first tour ``tour``, the front gate's
    cycle, lowered by ``_improve``, which edits it in place. When the gate
    gave up and ``tour`` is None, ``UB`` is ``n`` times the heaviest
    weight, which no tour exceeds. ``a1(x) <= a2(x)`` are the two lightest
    reduced weights at each vertex, under the penalties ``_penalties`` aims
    at ``2 * UB``, or, without a first tour, a quarter of the way to it from
    the sum without penalties: on dense graphs ``n`` times the heaviest
    weight is so far above the optimum that steps aimed at it overshoot
    every time and leave the sum where it was without penalties.
    """
    ends = _ends(g)
    if tour is not None:
        _improve(tour, _weight_table(g))
        bound = tour_weight(g, tuple(tour))
        return (bound, *_penalties(ends, 2 * bound))
    bound = g.vertex_count * max(g.weights)
    a1, a2, _ = _lightest_pairs(ends, [0] * len(ends))
    plain = sum(a1) + sum(a2)
    return (bound, *_penalties(ends, plain + (2 * bound - plain) // 4))


def _ends(g: Graph) -> list:
    """Per vertex ``x``, ``(w(x, y), y)`` for each neighbour ``y``, in
    ascending order of ``y`` as the canonical edge order lists them."""
    ends: list = [[] for _ in range(g.vertex_count)]
    for u, v, w in g.edges:
        ends[u].append((w, v))
        ends[v].append((w, u))
    return ends


def _subset_sums(values: list, base: Weight) -> list:
    """``sums[m]`` is ``base`` plus ``values[i]`` for every bit ``i`` of ``m``;
    one addition per entry."""
    sums = [base] * (1 << len(values))
    for m in range(1, len(sums)):
        low = m & -m
        sums[m] = sums[m ^ low] + values[low.bit_length() - 1]
    return sums


def min_tour(g: Graph) -> OracleAnswer:
    """Exact minimum-weight Hamilton cycle via the Held-Karp subset DP.

    Raises :class:`TooLarge` above 24 vertices, and when the DP under the
    first bound would allocate more than ``HELD_KARP_MAX_ROWS`` rows, every
    visited set at n <= 20, unless a guess finishes first. It takes its
    up-front checks, neighbour bitmasks and first tour from the front gate,
    :func:`_gate`, and returns a non-Hamiltonian answer at once when the
    gate found no Hamilton cycle, and the gate's own answer when its search
    gave up and its DP decided, so that DP runs once. On a graph the gate
    has just seen nothing is checked or searched again; on any other the
    gate does its work first, as for :func:`is_hamiltonian`. The DP is
    :func:`_optimum`. Runtime is O(n^2 * 2^n) at worst. Memory is one row
    of n costs per reached set, and no more than ``HELD_KARP_MAX_ROWS``
    rows, so sizes near the cap are slow and large in pure Python but stay
    exact. With a ``Fraction`` weight the bounds
    and the DP run on ints: they see a copy of ``g`` whose every weight is
    multiplied by the least common multiple of the denominators, which
    keeps the order of every sum and so, by the arguments below, the tour.
    The copy has the same vertices and edges, so the gate runs on ``g``
    itself and its masks and cycle apply to the copy. The optimum weight is
    that tour's weight on the graph as given, so its type is ``Fraction``
    exactly when one of the tour's edges is.

    ``cost[s][v]`` is the cheapest path from 0 through the set ``s`` ending
    at ``v``, where vertex ``v >= 1`` is bit ``v - 1`` of ``s`` (vertex 0
    starts every path and is never in ``s``). ``cost`` holds a row only
    once its set is first reached; an unreached entry holds ``inf``, one
    more than the sum of absolute weights, so it is above every path cost.
    No predecessors are stored: the tour is read back from the costs by
    exact equality. Among equal costs it takes the largest predecessor, and
    the closing vertex is the smallest among equal totals.

    Order: the sets are expanded first in, first out, in the order their
    rows were allocated, starting with the one-vertex sets next to 0. Every
    write goes from a set of ``k`` vertices to one of ``k + 1``, so by
    induction the queue is ordered by set size: the sets of ``k + 1``
    vertices are all allocated while sets of ``k`` vertices are expanded,
    after every smaller set. When the first set of ``k + 1`` vertices is
    expanded, every set of ``k`` vertices has been, so every write into a
    set of ``k + 1`` vertices is done and each row is final before it is
    expanded, as in a walk over all 2^(n-1) sets in increasing order. Each
    entry is the minimum over the same writes, and the checks below read
    only the set and its final row, so row values, closing and read-back
    are those of that walk.

    Completability test: for a reached set ``s``, let ``visited`` be its
    vertices and ``d(x)`` the number of neighbours of an unvisited ``x``
    that are unvisited or 0. The rest of a tour runs from the last vertex
    ``v`` through every unvisited vertex to 0, so each ``x`` needs two tour
    neighbours among the unvisited vertices, 0 and ``v``, and only one ``x``
    can take ``v``. The set is dead, and its row is dropped unexpanded, if
    some ``d(x) == 0`` or two vertices have ``d(x) == 1``. If exactly one ``x``
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
    DP without the test, and the tie-breaks pick the same tour. The rows
    they read belong to sets that hold a state on the optimum tour, so none
    is a dead set's dropped row.

    Bounds: the first tour is a copy of the gate's cycle, which
    ``min_tour`` hands to ``_bounds``, and ``_improve`` lowers its weight
    by 2-opt and or-opt moves along existing edges. That weight is the
    upper bound ``UB``. When the gate's search gives up, the gate runs the
    DP without a first tour, and ``UB`` is ``n`` times the heaviest weight,
    which no tour exceeds. Given integer vertex penalties ``pi``, the
    reduced weight of edge ``{x, y}`` at its end ``x`` is ``w(x, y) + pi(y)
    - pi(x)``; its two ends' reduced weights add up to ``2 * w(x, y)``. Let
    ``a1(x) <= a2(x)`` be the two lightest reduced weights at ``x`` and
    ``R`` the unvisited vertices of ``s``. The rest of a tour from ``v``
    runs through ``R`` to 0, using two distinct edges at each vertex of
    ``R`` and one at ``v`` and at 0. Its weight is half the sum of the
    reduced weights of those edges at their ends, whatever ``pi`` is, since
    the penalties cancel at each edge's two ends. So it is at least
    ``LB(s, v)`` with ``2 * LB = sum over R of (a1 + a2) + a1(v) + a1(0)``.
    This holds for negative and fractional weights, and doubled values keep
    every comparison exact. Any ``pi`` gives a valid bound, and all zero
    gives the plain two-lightest-edges bound; ``_penalties`` picks ``pi``
    by subgradient steps that raise ``sum of a1 + a2`` over all vertices,
    the same bound for a whole tour, never below its value at zero.
    With ``limit(s) = 2 * UB - a1(0) - sum over R of (a1 + a2)``, read from
    two tables over the low and high bits of ``s``, the entry (``s``,
    ``v``) is not expanded when ``2c + a1(v) > limit(s)``, and a path of
    cost ``w`` into (``s | x``, ``x``) is not written when ``2w > limit(s)
    + a2(x)``, which is the first check at that state. A write that is
    skipped allocates no row.

    Why the bounds change no answer or tour: take a state on an optimum
    tour and a minimum-cost path into it. Joined to the rest of that tour,
    the path is an optimum tour, so each of its prefixes is a state on an
    optimum tour, and its cost plus lower bound is at most its cost plus
    the weight of the rest of that tour, ``OPT <= UB``; that needs only
    ``LB`` at most the weight of every rest of a tour, which holds for
    every ``pi``. Both checks are strict, so no prefix is cut, and every
    state on an optimum tour holds its exact minimum cost. The bound is not
    consistent, though: a cheaper path into some other state may be cut at
    a prefix whose lower bound is higher, so states off every optimum tour
    can hold costs above their minimum, or none. That is harmless. Every
    entry is the cost of a real path, never below the minimum. Closing
    compares totals with the optimum weight, and an entry whose total
    equals it ends an optimum tour, so is exact. Read-back picks a
    predecessor whose cost plus the edge equals the exact cost of a state
    on an optimum tour; such a predecessor closes an optimum tour too, so
    its cost is exact, and it is picked exactly when the DP without the
    bounds would pick it. The tie-breaks therefore pick the same tour.
    None of this depends on which first tour set ``UB`` or on ``pi``, so
    the gate's DP without a first tour and the DP from the cycle it found
    give the same answer and tour.

    Guessed bounds: the argument above needs only ``OPT <= UB``, so the DP
    may run under any number ``B`` in place of ``UB``. If it then closes a
    tour of weight at most ``B``, that tour's weight is ``OPT`` and the
    tour is the one the DP under ``UB`` reads back: otherwise ``OPT`` would
    be below that weight, so at most ``B``, and the DP would have closed an
    optimum tour. If it closes none, ``OPT`` is above ``B``. So the DP runs
    first under guesses ``B`` that start an eighth of the weight range
    above the whole-tour lower bound and double their distance from it,
    until one closes a tour, and last under ``UB``; no guess is made at or
    above ``UB``. Every run uses the ``pi`` that ``_bounds`` aims. Under
    the same ``pi`` a lower ``B`` only lowers every limit, so by induction
    on ``|s|`` every row the DP allocates under ``B`` it also allocates under
    ``UB``, with a cost no lower: a guess never needs more rows than the DP
    under ``UB``. So the answer and tour are those of the DP under ``UB``,
    and ``TooLarge`` is raised only when that DP raises it, and then
    exactly when no guess has closed a tour first.
    """
    _, nbrs, cycle, answer = _gate(g)
    if answer is not None:  # the gate gave up, and its DP has answered
        return answer
    if cycle is None:
        return OracleAnswer(None, None)
    return _optimum(g, nbrs, list(cycle))  # a copy: _improve edits it


def _optimum(g: Graph, nbrs: list[int], first: list[int] | None) -> OracleAnswer:
    """The DP of :func:`min_tour` on ``g``, with neighbour bitmasks ``nbrs``,
    after the front gate's checks: under guessed bounds, then under the
    bound of the first tour ``first``, which ``_bounds`` edits, or of none.
    Only :func:`_gate` and :func:`min_tour` call it."""
    n = g.vertex_count
    # with a Fraction weight the bounds and the DP run on a copy scaled to
    # ints; it has g's vertices and edges, so nbrs and the tour still apply
    scale = math.lcm(*(w.denominator for w in g.weights))
    scaled = Graph(n, tuple((u, v, w * scale) for u, v, w in g.edges)) if scale > 1 else g
    bound, a1, a2 = _bounds(scaled, first)
    low = sum(a1) + sum(a2)  # twice a lower bound on every tour
    rise = (max(scaled.weights) - min(scaled.weights)) // 4 or 1
    while low + rise < 2 * bound:
        found = _held_karp(scaled, nbrs, a1, a2, low + rise)
        if found is not None:
            break
        rise *= 2
    else:
        found = _held_karp(scaled, nbrs, a1, a2, 2 * bound)
    if found is None or scaled is g:
        return found or OracleAnswer(None, None)
    # weigh the tour as given
    return OracleAnswer(tour_weight(g, found.optimum_tour), found.optimum_tour)


def _held_karp(
    g: Graph, nbrs: list[int], a1: list, a2: list, target: Weight
) -> OracleAnswer | None:
    """The DP of :func:`min_tour` with ``target`` as ``2 * UB``: the optimum
    when some tour weighs at most ``target / 2``, else None. Raises
    :class:`TooLarge` past ``HELD_KARP_MAX_ROWS`` rows."""
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
                    if rows > HELD_KARP_MAX_ROWS:
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
    nbrs = mask_neighbours(g, (1 << g.edge_count) - 1)
    out: list[tuple[tuple[int, ...], Weight]] = []
    path = [0]
    weight_stack = [0]

    def extend(current: int, visited: int) -> bool:
        if len(path) == n:
            # close the cycle; reflections are skipped by requiring the
            # second vertex to be smaller than the last
            if nbrs[current] & 1 and path[1] < path[-1]:
                closing = g.weights[g.edge_index(current, 0)]
                out.append((tuple(path), weight_stack[-1] + closing))
                return len(out) >= limit
            return False
        for nb in iter_bits(nbrs[current] & ~visited):
            path.append(nb)
            weight_stack.append(weight_stack[-1] + g.weights[g.edge_index(current, nb)])
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

