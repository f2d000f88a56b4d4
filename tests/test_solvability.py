import random
import sys
from unittest.mock import patch

import pytest
from hypothesis import given, settings

from cycletrim import (
    enumerate_solutions,
    fundamental_basis,
    is_hamiltonian,
    random_connected_graph,
)
from cycletrim import solvability
from cycletrim.graphs import iter_bits
from cycletrim.solvability import SOLUTION_CAP

from helpers import (
    cycle_graph,
    enumerate_solutions_reference,
    k4_golden,
    make_graph,
    naive_solutions,
    solution_sum,
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
    assert parts[0].co_solution == 0


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


def test_enumerate_order_and_cap(monkeypatch):
    b = fundamental_basis(k4_golden())
    parts = enumerate_solutions(b)
    assert [p.solution for p in parts] == [(0, 1), (0, 2), (1, 2)]
    monkeypatch.setattr(solvability, "SOLUTION_CAP", 2)
    assert [p.solution for p in enumerate_solutions(b)] == [(0, 1), (0, 2)]


def test_partition_shape():
    b = fundamental_basis(k4_golden())
    part = enumerate_solutions(b)[0]
    assert sorted(part.solution + tuple(iter_bits(part.co_solution))) == list(range(b.dimension))
    assert part.co_solution == 1 << 2
    assert 1 <= len(part.solution) <= b.dimension


@given(connected_graphs(max_vertices=7))
@settings(max_examples=30)
def test_enumerate_matches_naive_filter(g):
    b = fundamental_basis(g)
    if b.dimension > 12:
        return
    with patch.object(solvability, "SOLUTION_CAP", 1 << max(b.dimension, 1)):
        parts = enumerate_solutions(b)
    assert {p.solution for p in parts} == naive_solutions(b)
    target = g.vertex_count - 2
    for p in parts:
        assert solution_sum(b, p.solution) == target


def test_record_solvability_of_small_hamiltonian_graphs(monkeypatch):
    """Recorded observation, not an assertion: how often Hamiltonian inputs
    with n <= 7 admit a solution under the fundamental basis."""
    rng = random.Random(7)
    monkeypatch.setattr(solvability, "SOLUTION_CAP", 1)
    total = solvable = 0
    for _ in range(120):
        g = random_connected_graph(rng, rng.randint(4, 7), 0.55, 1, 9)
        if not is_hamiltonian(g):
            continue
        total += 1
        if enumerate_solutions(fundamental_basis(g)):
            solvable += 1
    print(f"\nsolvable Hamiltonian inputs (n<=7): {solvable}/{total}")
    assert total > 0


def _extend_calls(basis) -> tuple[int, tuple]:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code.co_name == "extend"

    sys.setprofile(count)
    try:
        parts = enumerate_solutions(basis)
    finally:
        sys.setprofile(None)
    return calls, parts


def test_enumerate_matches_reference_on_campaign_draws(monkeypatch):
    rng = random.Random(2)
    for _ in range(150):
        g = random_connected_graph(rng, rng.randint(4, 12), rng.choice((0.3, 0.5, 0.8)), 1, 100)
        b = fundamental_basis(g)
        for cap in (1, 3, 64, 4096):
            monkeypatch.setattr(solvability, "SOLUTION_CAP", cap)
            got = tuple(p.solution for p in enumerate_solutions(b))
            assert got == enumerate_solutions_reference(b, cap)


def test_enumerate_calls_lead_to_solutions_on_a_dense_draw():
    # the reference makes 108,558 calls on this draw; every call of the
    # exact search leads to a solution, so a path of at most n - 1 calls
    # ends in each of the at most ``cap`` solutions
    n = 16
    b = fundamental_basis(random_connected_graph(random.Random(3), n, 0.8, 1, 100))
    calls, parts = _extend_calls(b)
    assert len(parts) == SOLUTION_CAP
    assert calls <= SOLUTION_CAP * (n - 1)
    assert tuple(p.solution for p in parts) == enumerate_solutions_reference(b, SOLUTION_CAP)
