import pytest
from hypothesis import given, settings

from cycletrim import (
    enumerate_solutions,
    fundamental_basis,
    is_hamiltonian,
    is_solvable,
    solution_sum,
)

from helpers import (
    cycle_graph,
    k4_golden,
    make_graph,
    naive_solutions,
    theta,
    triangle,
)
from strategies import connected_graphs


def test_solution_sum():
    b = fundamental_basis(triangle())
    assert solution_sum(b, ()) == 0
    assert solution_sum(b, (0,)) == 1
    bt = fundamental_basis(theta())
    assert solution_sum(bt, (0, 1)) == 2  # equals n - 2
    with pytest.raises(ValueError):
        solution_sum(bt, (0, 0))


def test_enumerate_triangle():
    parts = enumerate_solutions(fundamental_basis(triangle()))
    assert len(parts) == 1
    assert parts[0].solution == (0,)
    assert parts[0].co_solution == ()


def test_enumerate_theta():
    parts = enumerate_solutions(fundamental_basis(theta()))
    assert len(parts) == 1
    assert parts[0].solution == (0, 1)


def test_enumerate_four_cycle():
    parts = enumerate_solutions(fundamental_basis(cycle_graph(4)))
    assert len(parts) == 1
    assert parts[0].solution == (0,)


def test_enumerate_no_solution():
    # path 0-1-2-3-4 plus chord (0,3): one 4-cycle, n=5, 2 != 3
    g = make_graph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 3, 1)])
    b = fundamental_basis(g)
    assert enumerate_solutions(b) == ()
    assert not is_solvable(b)


def test_enumerate_order_and_cap():
    b = fundamental_basis(k4_golden())
    parts = enumerate_solutions(b)
    assert [p.solution for p in parts] == [(0, 1), (0, 2), (1, 2)]
    assert [p.solution for p in enumerate_solutions(b, cap=2)] == [(0, 1), (0, 2)]
    with pytest.raises(ValueError):
        enumerate_solutions(b, cap=0)


def test_partition_shape():
    b = fundamental_basis(k4_golden())
    part = enumerate_solutions(b)[0]
    assert sorted(part.solution + part.co_solution) == list(range(b.dimension))
    assert part.co_solution == (2,)
    assert 1 <= len(part.solution) <= b.dimension


@given(connected_graphs(max_vertices=7))
@settings(max_examples=30)
def test_enumerate_matches_naive_filter(g):
    b = fundamental_basis(g)
    if b.dimension > 12:
        return
    parts = enumerate_solutions(b, cap=1 << max(b.dimension, 1))
    assert {p.solution for p in parts} == naive_solutions(b)
    target = g.vertex_count - 2
    for p in parts:
        assert solution_sum(b, p.solution) == target


def test_record_solvability_of_small_hamiltonian_graphs():
    """Recorded observation, not an assertion: how often Hamiltonian inputs
    with n <= 7 admit a solution under the fundamental basis."""
    import random

    from cycletrim import random_connected_graph

    rng = random.Random(7)
    total = solvable = 0
    for _ in range(120):
        g = random_connected_graph(rng, rng.randint(4, 7), 0.55, 1, 9)
        if not is_hamiltonian(g):
            continue
        total += 1
        if is_solvable(fundamental_basis(g)):
            solvable += 1
    print(f"\nsolvable Hamiltonian inputs (n<=7): {solvable}/{total}")
    assert total > 0
