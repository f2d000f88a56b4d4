from fractions import Fraction

import pytest
from hypothesis import given, settings

from cycletrim import (
    NotRemovable,
    apply_deletion,
    boundary_mask,
    count_covers,
    enumerate_solutions,
    fundamental_basis,
    initial_state,
    min_tour,
    select_deletion,
    solve,
    tour_weight,
)
from cycletrim.cycle_space import edges_with_cover
from cycletrim.solver import STATUS_NOT_HAMILTONIAN, STATUS_OK, STATUS_STUCK

from helpers import (
    crafted_state,
    k4_golden,
    make_graph,
    petersen,
    theta,
    triangle,
    wheel5,
)
from strategies import hamiltonian_graphs


def test_solve_triangle():
    result = solve(triangle(1, 3, 2))
    assert result.status == STATUS_OK
    assert result.weight == 6
    assert result.counters.deletions == 0
    assert result.trace == ()


def test_solve_theta():
    result = solve(theta())
    assert result.status == STATUS_OK
    assert result.tour == (0, 2, 1, 3)
    assert result.weight == 4
    assert result.counters.deletions == 0


def test_solve_k4():
    result = solve(k4_golden())
    assert result.status == STATUS_OK
    assert result.weight >= 14
    assert result.weight == 14  # greedy lands on the optimum here
    assert result.tour == (0, 2, 1, 3)
    assert result.counters.deletions == 1
    # a single removable candidate needs no pairwise comparison
    assert result.counters.comparisons == 0


def test_solve_petersen():
    result = solve(petersen())
    assert result.status == STATUS_NOT_HAMILTONIAN
    assert result.tour is None


def test_solve_wheel_gets_stuck():
    # every co-solution rim triangle is blocked by its diagonal cluster
    result = solve(wheel5())
    assert result.status == STATUS_STUCK
    assert result.solutions_tried == 4
    assert result.solvable


def test_deletion_delta_k4():
    basis = fundamental_basis(k4_golden())
    parts = enumerate_solutions(basis)
    state = initial_state(basis, parts[0])
    c = parts[0].co_solution[0]
    rec = apply_deletion(state, c).trace[-1]
    g = state.graph
    assert rec.removed_edge == g.edge_index(2, 3)
    assert set(rec.newly_boundary) == {g.edge_index(0, 2), g.edge_index(0, 3)}
    assert rec.added_weight == 5

    # independent recount: boundary sets from scratch before and after
    before = edges_with_cover(state.cover_counts, 1)
    after_covers = count_covers(
        g.edge_count,
        (basis.cycles[i].edges for i in sorted(state.retained - {c})),
    )
    after = edges_with_cover(after_covers, 1)
    gained = after & ~before
    assert rec.added_weight == sum(
        (g.weights[e] for e in range(g.edge_count) if (gained >> e) & 1),
        start=Fraction(0),
    )


def test_deletion_delta_zero_when_nothing_becomes_boundary():
    # crafted rows: the target's non-boundary edges stay covered >= 2
    g = make_graph(
        4,
        [(0, 1, 5), (0, 2, 5), (0, 3, 5), (1, 2, 5), (1, 3, 5), (2, 3, 5)],
    )
    e = g.edge_index
    shared = (1 << e(0, 1)) | (1 << e(0, 2))
    rows = [
        shared | (1 << e(1, 2)),
        shared | (1 << e(1, 3)),
        shared | (1 << e(2, 3)),
        shared | (1 << e(0, 3)),
    ]
    state = crafted_state(g, rows, solution=(1, 2, 3))
    rec = apply_deletion(state, 0).trace[-1]
    assert rec.newly_boundary == ()
    assert rec.added_weight == 0


def test_deletion_delta_rejects_non_removable():
    # a co-solution cycle with two boundary edges, and one with none
    g = theta()
    e = g.edge_index
    ab = 1 << e(0, 1)
    rows = [
        ab | (1 << e(0, 2)) | (1 << e(1, 2)),
        ab | (1 << e(0, 3)) | (1 << e(1, 3)),
    ]
    state = crafted_state(g, rows, solution=())
    with pytest.raises(NotRemovable, match="more than one boundary edge"):
        apply_deletion(state, 0)
    rows = [rows[0] ^ rows[1], rows[0], rows[1]]
    state = crafted_state(g, rows, solution=(1, 2))
    with pytest.raises(NotRemovable, match="no boundary edge"):
        apply_deletion(state, 0)


def test_select_deletion_tie_breaks():
    basis = fundamental_basis(k4_golden())
    state = initial_state(basis, enumerate_solutions(basis)[0])
    from cycletrim.solver import DeletionRecord

    a = DeletionRecord(2, 0, (), Fraction(5))
    b = DeletionRecord(1, 1, (), Fraction(3))
    assert select_deletion(state, [a, b]).cycle == 1
    # equal weights: the record whose removed edge is lighter wins
    c = DeletionRecord(2, 0, (), Fraction(3))  # edge 0 weighs 1
    d = DeletionRecord(1, 3, (), Fraction(3))  # edge 3 weighs 4
    assert select_deletion(state, [c, d]).cycle == 2
    # full tie: lower cycle index
    e = DeletionRecord(2, 0, (), Fraction(3))
    f = DeletionRecord(1, 0, (), Fraction(3))
    assert select_deletion(state, [e, f]).cycle == 1


def test_apply_deletion_contract():
    basis = fundamental_basis(k4_golden())
    parts = enumerate_solutions(basis)
    state = initial_state(basis, parts[0])
    c = parts[0].co_solution[0]
    after = apply_deletion(state, c)
    assert after.union_edges.bit_count() == state.union_edges.bit_count() - 1
    assert after.retained == state.retained - {c}
    assert len(after.trace) == 1
    # cover counts stay consistent with the retained rows
    assert after.cover_counts == count_covers(
        state.graph.edge_count,
        (basis.cycles[i].edges for i in sorted(after.retained)),
    )
    with pytest.raises(NotRemovable):
        apply_deletion(after, c)
    with pytest.raises(NotRemovable):
        apply_deletion(state, parts[0].solution[0])


def test_solution_cycles_never_deleted():
    result = solve(k4_golden())
    assert result.partition is not None
    deleted = {rec.cycle for rec in result.trace}
    assert deleted.isdisjoint(result.partition.solution)
    assert result.final_state is not None
    assert set(result.partition.solution) <= result.final_state.retained


def test_trace_replay_reproduces_final_state():
    for g in (triangle(), theta(), k4_golden(), wheel5()):
        result = solve(g)
        if result.partition is None:
            continue
        basis = fundamental_basis(g)
        state = initial_state(basis, result.partition)
        solution = set(result.partition.solution)
        for rec in result.trace:
            state = apply_deletion(state, rec.cycle)
            assert solution <= state.retained  # solution cycles survive every step
        assert state == result.final_state
        assert state.trace == result.trace


def test_determinism():
    for g in (triangle(), theta(), k4_golden(), wheel5(), petersen()):
        assert solve(g) == solve(g)


def test_scale_covariance():
    import random

    from cycletrim import is_hamiltonian, random_connected_graph

    rng = random.Random(17)
    samples = [k4_golden()]
    while len(samples) < 6:
        g = random_connected_graph(rng, rng.randint(5, 8), 0.5, 1, 50)
        if is_hamiltonian(g):
            samples.append(g)
    for g in samples:
        scaled = make_graph(
            g.vertex_count, [(u, v, w * 9) for u, v, w in g.edges]
        )
        r1, r2 = solve(g), solve(scaled)
        assert r1.status == r2.status
        assert [rec.cycle for rec in r1.trace] == [rec.cycle for rec in r2.trace]
        if r1.weight is not None:
            assert r2.weight == r1.weight * 9


@given(hamiltonian_graphs(max_vertices=7))
@settings(max_examples=25)
def test_solver_soundness(g):
    result = solve(g)
    if result.status != STATUS_OK:
        return
    assert result.tour is not None and result.weight is not None
    assert tour_weight(g, result.tour) == result.weight
    answer = min_tour(g)
    assert answer.optimum_weight is not None
    assert result.weight >= answer.optimum_weight
    # monotonicity within the winning partition: one union edge per deletion,
    # never more than the co-solution size; counters also include retries
    assert len(result.trace) <= g.edge_count - g.vertex_count
    assert result.counters.deletions >= len(result.trace)
    assert result.final_state is not None
    assert boundary_mask(result.final_state).bit_count() == g.vertex_count
