"""Cycle-space machinery over GF(2).

A cycle is a bitmask over canonical edge indices. The basis built here is the
fundamental one: a breadth-first spanning tree rooted at vertex 0 with
neighbors visited in ascending id order, one cycle per non-tree edge (chord),
ordered by chord index. Each chord's cycle is the chord plus the XOR of the
tree paths from its two ends to the root, one edge bitmask per vertex. The
per-edge cover count — how many basis cycles pass through an edge — drives
everything downstream: edges covered exactly once are *boundary* edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .graphs import Graph, NotConnected, iter_bits, mask_vertices, neighbour_masks


@dataclass(frozen=True)
class CycleBasis:
    """A cycle basis of ``graph``: one edge bitmask per cycle, in chord order.

    Everything else is derived from those two fields: :attr:`cover_counts`
    on its first read, and both :attr:`sharing` and :attr:`diagonals` on
    the first read of either. The basis also carries what a solve learns
    about its rows, which depends on nothing else: ``_retained_sets``, the
    table of retained-set entries keyed by the retained bitmask,
    ``_cluster_tags``, the reduction tag of each cluster keyed by its member
    bitmask, and ``_solution_sums``, the reachable-totals table of the
    solution search. ``solve`` builds one basis per call, so they last one
    solve; none takes part in equality, and ``dataclasses.replace(basis)``
    starts them empty.
    """

    graph: Graph
    cycles: tuple[int, ...]
    _retained_sets: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _cluster_tags: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _solution_sums: list = field(default_factory=list, init=False, compare=False, repr=False)

    @property
    def dimension(self) -> int:
        return len(self.cycles)

    @cached_property
    def cover_counts(self) -> tuple[int, ...]:
        """Per edge, how many cycles of the basis pass through it."""
        return count_covers(self.graph.edge_count, self.cycles)

    @property
    def sharing(self) -> tuple[int, ...]:
        """Per cycle, the bitmask of the other cycles that share an edge with it."""
        return self._pair_tables[0]

    @property
    def diagonals(self) -> tuple[int, ...]:
        """Per cycle, the bitmask of the edge-disjoint cycles meeting it in one vertex."""
        return self._pair_tables[1]

    @cached_property
    def _pair_tables(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # both tables from one pass over the row pairs
        rows = self.cycles
        verts = [mask_vertices(self.graph, row) for row in rows]
        sharing = [0] * len(rows)
        diagonals = [0] * len(rows)
        for i, row in enumerate(rows):
            for j in range(i + 1, len(rows)):
                if row & rows[j]:
                    table = sharing
                elif (verts[i] & verts[j]).bit_count() == 1:
                    table = diagonals
                else:
                    continue
                table[i] |= 1 << j
                table[j] |= 1 << i
        return tuple(sharing), tuple(diagonals)


def count_covers(edge_count: int, rows: Iterable[int]) -> tuple[int, ...]:
    """Per-edge count of rows containing the edge."""
    counts = [0] * edge_count
    for row in rows:
        while row:
            low = row & -row
            counts[low.bit_length() - 1] += 1
            row ^= low
    return tuple(counts)


def edges_with_cover(cover_counts: Sequence[int], k: int) -> int:
    """Bitmask of the edges whose cover count equals ``k``."""
    mask = 0
    for e, c in enumerate(cover_counts):
        if c == k:
            mask |= 1 << e
    return mask


def fundamental_basis(g: Graph) -> CycleBasis:
    """Fundamental cycle basis of a connected graph.

    BFS spanning tree rooted at 0, neighbors in ascending id order; each
    chord yields the cycle chord + tree path between its endpoints. A tree
    input yields an empty basis; a disconnected one raises
    :class:`~cycletrim.graphs.NotConnected`. The BFS is its own, not
    :func:`~cycletrim.graphs.reach`: it needs each vertex's parent edge,
    which it takes from :meth:`~cycletrim.graphs.Graph.edge_index`, and its
    visiting order defines the basis. It walks the whole-graph masks of
    :func:`~cycletrim.graphs.neighbour_masks`, which the front gate has
    already built for a graph it has just gated. It keeps one edge bitmask per vertex,
    the tree edges from that vertex to the root; the two masks of a chord's
    ends share the edges above the ends' lowest common ancestor, so their
    XOR is the tree path between the ends.
    """
    n = g.vertex_count
    nbrs = neighbour_masks(g)
    path = [0] * n
    seen = 1
    tree_edges = 0
    queue = deque([0])
    while queue:
        x = queue.popleft()
        fresh = nbrs[x] & ~seen
        seen |= fresh
        for nb in iter_bits(fresh):
            edge = 1 << g.edge_index(x, nb)
            path[nb] = path[x] | edge
            tree_edges |= edge
            queue.append(nb)
    if seen != (1 << n) - 1:
        raise NotConnected("fundamental basis requires a connected graph")
    cycles = tuple(
        (1 << e) | (path[u] ^ path[v])
        for e, (u, v, _) in enumerate(g.edges)
        if not tree_edges >> e & 1
    )
    return CycleBasis(g, cycles)
