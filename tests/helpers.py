"""Shared graph builders and independent reference implementations."""

from __future__ import annotations

import itertools
from fractions import Fraction

from cycletrim import (
    CycleBasis,
    Graph,
    SolutionPartition,
    SolverState,
    count_covers,
    edges_with_cover,
    fundamental_basis,
    solution_sum,
)
from cycletrim.cycle_space import Cycle
from cycletrim.graphs import iter_edge_indices


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


def double_square() -> Graph:
    # two 4-cycles sharing vertex 0
    a = [(0, 1), (1, 2), (2, 3), (0, 3)]
    b = [(0, 4), (4, 5), (5, 6), (0, 6)]
    return make_graph(7, [(u, v, 1) for u, v in a + b])


def naive_solutions(basis: CycleBasis) -> set[tuple[int, ...]]:
    """Power-set filter over all non-empty subsets."""
    target = basis.graph.vertex_count - 2
    out = set()
    for size in range(1, basis.dimension + 1):
        for combo in itertools.combinations(range(basis.dimension), size):
            if solution_sum(basis, combo) == target:
                out.add(combo)
    return out


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
    for e in iter_edge_indices(mask):
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


def crafted_state(
    graph: Graph,
    rows: list[int],
    solution: tuple[int, ...],
    retained: set[int] | None = None,
) -> SolverState:
    """Build a solver state from hand-picked basis rows (unit-test rigging)."""
    cycles = tuple(Cycle(r, r.bit_count()) for r in rows)
    retained_set = frozenset(retained if retained is not None else range(len(rows)))
    covers = count_covers(graph.edge_count, (rows[i] for i in sorted(retained_set)))
    basis = CycleBasis(graph, cycles, count_covers(graph.edge_count, rows))
    co = tuple(i for i in range(len(rows)) if i not in set(solution))
    partition = SolutionPartition(solution, co)
    union = 0
    for e, c in enumerate(covers):
        if c >= 1:
            union |= 1 << e
    return SolverState(
        graph=graph,
        basis=basis,
        partition=partition,
        retained=retained_set,
        cover_counts=covers,
        union_edges=union,
    )


def state_for(graph: Graph, partition_index: int = 0):
    """(basis, partitions, initial state) for a real graph."""
    from cycletrim import enumerate_solutions, initial_state

    basis = fundamental_basis(graph)
    partitions = enumerate_solutions(basis)
    state = initial_state(basis, partitions[partition_index])
    return basis, partitions, state


def union_subgraph(state: SolverState) -> Graph:
    """The retained union as a standalone graph (original vertex ids kept)."""
    edges = [
        state.graph.edges[e]
        for e in range(state.graph.edge_count)
        if (state.union_edges >> e) & 1
    ]
    return Graph(state.graph.vertex_count, tuple(edges))


def boundary_edges(state: SolverState) -> int:
    return edges_with_cover(state.cover_counts, 1)
