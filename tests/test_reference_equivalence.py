"""The mining path's bookkeeping against its earlier form.

The 2-opt and or-opt moves scan the tour by position, the subgradient
penalties keep the pairs of a step whose rounded penalties have not moved,
and the solution search walks an explicit stack; each must give exactly
what the reference in ``helpers`` gives, on hypothesis graphs, on their
tied and signed reweightings and on draws of the large workloads' shapes.
The whole graph's neighbour masks are built once per graph.
"""

import dataclasses
import math
import random
from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import given, settings

from cycletrim import (
    Counters,
    Graph,
    SolverState,
    enumerate_tours,
    fundamental_basis,
    initial_state,
    is_hamiltonian,
    random_connected_graph,
    solve,
)
from cycletrim import oracle, removability
from cycletrim.graphs import mask_neighbours, neighbour_masks
from cycletrim.solvability import SOLUTION_CAP, _solutions

from helpers import (
    improve_reference,
    or_opt_reference,
    penalties_reference,
    solutions_reference,
    two_opt_reference,
)
from strategies import connected_graphs, hamiltonian_graphs
from test_oracle import signed, tied

#: the large workloads' shapes: (n, edge probability)
LARGE_SHAPES = ((14, 0.5), (15, 0.5), (16, 0.5), (18, 0.2))


def large_draws(seed, per_shape):
    rng = random.Random(seed)
    for n, p in LARGE_SHAPES:
        found = 0
        while found < per_shape:
            g = random_connected_graph(rng, n, p, 1, 100)
            if is_hamiltonian(g):
                found += 1
                yield g


def scaled(g):
    # the ints the bounds see, as oracle._optimum scales them
    scale = math.lcm(*(w.denominator for w in g.weights))
    return Graph(g.vertex_count, tuple((u, v, w * scale) for u, v, w in g.edges))


def start_tours(g, count):
    """The gate's cycle and, on small graphs, the first enumerated tours."""
    cycle = oracle._gate(g)[2]
    tours = [] if cycle is None else [list(cycle)]
    if g.vertex_count <= 8:
        tours += [list(t) for t, _ in enumerate_tours(g, count)]
    return tours


def assert_moves_match(g, tours=None):
    table = oracle._weight_table(g)
    for tour in start_tours(g, 6) if tours is None else tours:
        # move by move, then to the end
        got, want = list(tour), list(tour)
        while True:
            moved = oracle._two_opt(got, table)
            assert moved == two_opt_reference(want, table) and got == want
            if not moved:
                moved = oracle._or_opt(got, table)
                assert moved == or_opt_reference(want, table) and got == want
            if not moved:
                break
        # or-opt alone, so that its longer stretches move too
        got, want = list(tour), list(tour)
        while oracle._or_opt(got, table):
            assert or_opt_reference(want, table) and got == want
        assert not or_opt_reference(want, table) and got == want
        got, want = list(tour), list(tour)
        oracle._improve(got, table)
        improve_reference(want, table)
        assert got == want


def assert_penalties_match(g):
    g = scaled(g)
    ends = oracle._ends(g)
    if min(map(len, ends)) < 2:
        return  # the bounds run only past the gate's degree check
    a1, a2, _ = oracle._lightest_pairs(ends, [0] * len(ends))
    plain = sum(a1) + sum(a2)
    top = 2 * g.vertex_count * max(g.weights)
    for target in {plain, plain + 1, plain + (top - plain) // 4, (plain + top) // 2, top}:
        assert oracle._penalties(ends, target) == penalties_reference(ends, target)


def assert_solutions_match(g):
    basis = fundamental_basis(g)
    sums = []
    want = list(islice(solutions_reference(basis, sums), SOLUTION_CAP))
    assert next(_solutions(basis), None) == (want[0] if want else None)
    assert list(islice(_solutions(basis), SOLUTION_CAP)) == want
    assert basis._solution_sums == sums


def assert_all_match(g):
    for graph in (g, tied(g), signed(g)):
        assert_moves_match(graph)
        assert_penalties_match(graph)
        if is_hamiltonian(graph):
            assert_solutions_match(graph)


@given(connected_graphs(max_vertices=9) | hamiltonian_graphs(max_vertices=9))
@settings(max_examples=80)
def test_bookkeeping_matches_the_references_on_drawn_graphs(g):
    assert_all_match(g)


def test_bookkeeping_matches_the_references_on_large_shapes():
    for g in large_draws(35, 3):
        assert_all_match(g)


def test_moves_match_the_references_from_random_tours():
    # on complete graphs every vertex order is a tour, and a random one
    # leaves many moves to make, with ties under the narrow weights
    rng = random.Random(35)
    for n in range(4, 15):
        for hi in (3, 100):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = Graph(n, tuple((u, v, rng.randint(1, hi)) for u, v in pairs))
            assert_moves_match(g, [rng.sample(range(n), n) for _ in range(8)])


def test_whole_graph_masks_are_built_once_per_draw():
    rng = random.Random(35)
    full_builds = []

    def spy(graph, mask):
        full_builds.append(mask == (1 << graph.edge_count) - 1)
        return mask_neighbours(graph, mask)

    with patch.object(removability, "mask_neighbours", spy):
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(5, 12), 0.5, 1, 100)
            masks = neighbour_masks(g)
            assert masks == tuple(mask_neighbours(g, (1 << g.edge_count) - 1))
            result = solve(g)
            assert oracle._gate(g)[1] is masks
            if result.solvable:
                basis = result.final_state.basis
                entry = removability._retained_set(initial_state(basis, result.partition))
                whole = 0
                for row in basis.cycles:
                    whole |= row
                assert (entry.union_adjacency is masks) == (whole == (1 << g.edge_count) - 1)
    assert full_builds and not any(full_builds)


def test_solver_state_keeps_counters_out_of_equality():
    basis = fundamental_basis(Graph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (0, 2, 1))))
    first = next(_solutions(basis))
    state = SolverState(basis, first, 3)
    other = SolverState(basis, first, 3, (), Counters(row_ops=7))
    assert state == other and hash(state) == hash(other)
    assert state.counters is not SolverState(basis, first, 3).counters
    assert dataclasses.replace(other, retained=1).counters is other.counters
    assert state != SolverState(basis, first, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.retained = 1
