"""Cycle-space machinery over GF(2).

A cycle is a bitmask over canonical edge indices. The basis built here is the
fundamental one: a breadth-first spanning tree rooted at vertex 0 with
neighbors visited in ascending id order, one cycle per non-tree edge (chord),
ordered by chord index. The per-edge cover count — how many basis cycles pass
through an edge — drives everything downstream: edges covered exactly once
are *boundary* edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .graphs import Graph, NotConnected, iter_edge_indices, mask_vertices


@dataclass(frozen=True)
class Cycle:
    """A simple cycle stored as an edge bitmask with its edge count."""

    edges: int
    length: int


@dataclass(frozen=True)
class CycleBasis:
    graph: Graph
    cycles: tuple[Cycle, ...]
    cover_counts: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.cycles)

    @cached_property
    def cycle_vertices(self) -> tuple[frozenset[int], ...]:
        return tuple(mask_vertices(self.graph, c.edges) for c in self.cycles)


def count_covers(edge_count: int, rows: Iterable[int]) -> tuple[int, ...]:
    """Per-edge count of rows containing the edge."""
    counts = [0] * edge_count
    for row in rows:
        for e in iter_edge_indices(row):
            counts[e] += 1
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
    :class:`~cycletrim.graphs.NotConnected`.
    """
    n = g.vertex_count
    parent = [-1] * n
    parent_edge = [-1] * n
    depth = [0] * n
    visited = [False] * n
    visited[0] = True
    tree_edges: set[int] = set()
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for nb, eidx in g.adjacency[x]:
            if not visited[nb]:
                visited[nb] = True
                parent[nb] = x
                parent_edge[nb] = eidx
                depth[nb] = depth[x] + 1
                tree_edges.add(eidx)
                queue.append(nb)
    if not all(visited):
        raise NotConnected("fundamental basis requires a connected graph")

    cycles = []
    for eidx, (u, v, _) in enumerate(g.edges):
        if eidx in tree_edges:
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
        cycles.append(Cycle(mask, mask.bit_count()))

    covers = count_covers(g.edge_count, (c.edges for c in cycles))
    return CycleBasis(g, tuple(cycles), covers)
