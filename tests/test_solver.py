import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import cycletrim.solver
from cycletrim import (
    NotRemovable,
    TooLarge,
    TourResult,
    apply_deletion,
    boundary_mask,
    count_covers,
    fundamental_basis,
    initial_state,
    is_hamiltonian,
    is_removable,
    min_tour,
    random_connected_graph,
    select_deletion,
    solve,
    tour_weight,
)
from cycletrim.cycle_space import edges_with_cover
from cycletrim.graphs import iter_bits
from cycletrim.removability import REMOVABLE
from cycletrim.solver import STATUS_NOT_HAMILTONIAN, STATUS_OK, STATUS_STUCK

from helpers import (
    _union_adjacency,
    bits,
    cap_masks_reference,
    check_state,
    cluster_members_reference,
    crafted_state,
    k4_golden,
    make_graph,
    petersen,
    solve_reference,
    state_for,
    theta,
    triangle,
    union_mask,
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


def test_solve_rejects_oversized_input_before_the_front_gate(monkeypatch):
    # K_{12,13}: 25 vertices, and a gate search that does not end in practice
    def gate(graph):
        raise AssertionError("the front gate ran")

    monkeypatch.setattr(cycletrim.solver, "is_hamiltonian", gate)
    k_12_13 = make_graph(25, [(u, v, 1) for u in range(12) for v in range(12, 25)])
    with pytest.raises(TooLarge):
        solve(k_12_13)


def test_solve_builds_one_initial_state(monkeypatch):
    built = []
    real = cycletrim.solver.initial_state

    def counted(basis, partition):
        built.append(partition)
        return real(basis, partition)

    monkeypatch.setattr(cycletrim.solver, "initial_state", counted)
    result = solve(wheel5())
    assert result.solutions_tried > 1
    assert len(built) == 1


def test_solve_wheel_gets_stuck():
    # every co-solution rim triangle is blocked by its diagonal cluster
    result = solve(wheel5())
    assert result.status == STATUS_STUCK
    assert result.solutions_tried == 4
    assert result.solvable


def test_deletion_delta_k4():
    basis, parts, state = state_for(k4_golden())
    c = next(iter_bits(parts[0].co_solution))
    rec = apply_deletion(state, c).trace[-1]
    g = state.basis.graph
    assert rec.removed_edge == g.edge_index(2, 3)
    assert rec.newly_boundary == bits({g.edge_index(0, 2), g.edge_index(0, 3)})
    assert rec.added_weight == 5

    # independent recount: boundary sets from scratch before and after
    before = edges_with_cover(state.cover_counts, 1)
    after_covers = count_covers(
        g.edge_count,
        (basis.cycles[i] for i in iter_bits(state.retained & ~(1 << c))),
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
    assert rec.newly_boundary == 0
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
    _, _, state = state_for(k4_golden())
    from cycletrim.solver import DeletionRecord

    a = DeletionRecord(2, 0, 0, Fraction(5))
    b = DeletionRecord(1, 1, 0, Fraction(3))
    assert select_deletion(state, [a, b]).cycle == 1
    # equal weights: the record whose removed edge is lighter wins
    c = DeletionRecord(2, 0, 0, Fraction(3))  # edge 0 weighs 1
    d = DeletionRecord(1, 3, 0, Fraction(3))  # edge 3 weighs 4
    assert select_deletion(state, [c, d]).cycle == 2
    # full tie: lower cycle index
    e = DeletionRecord(2, 0, 0, Fraction(3))
    f = DeletionRecord(1, 0, 0, Fraction(3))
    assert select_deletion(state, [e, f]).cycle == 1


def test_apply_deletion_contract():
    basis, parts, state = state_for(k4_golden())
    c = next(iter_bits(parts[0].co_solution))
    after = apply_deletion(state, c)
    assert union_mask(after).bit_count() == union_mask(state).bit_count() - 1
    assert after.retained == state.retained & ~(1 << c)
    assert len(after.trace) == 1
    # cover counts stay consistent with the retained rows
    assert after.cover_counts == count_covers(
        state.basis.graph.edge_count,
        (basis.cycles[i] for i in iter_bits(after.retained)),
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
    assert bits(result.partition.solution) & ~result.final_state.retained == 0


def test_trace_replay_reproduces_final_state():
    for g in (triangle(), theta(), k4_golden(), wheel5()):
        result = solve(g)
        if result.partition is None:
            continue
        state = initial_state(fundamental_basis(g), result.partition)
        solution = bits(result.partition.solution)
        check_state(state)
        for rec in result.trace:
            state = apply_deletion(state, rec.cycle)
            check_state(state)
            assert solution & ~state.retained == 0  # solution cycles survive every step
        assert state == result.final_state
        assert state.trace == result.trace


def _assert_same_as_reference(g):
    got, want = solve(g), solve_reference(g)
    for f in dataclasses.fields(TourResult):
        if f.name != "counters":
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert dataclasses.replace(got.counters, row_ops=0) == dataclasses.replace(
        want.counters, row_ops=0
    )
    # the start state's cluster closures are shared by every partition
    assert got.counters.row_ops <= want.counters.row_ops


@given(hamiltonian_graphs(max_vertices=8))
@settings(max_examples=60, deadline=None)
def test_solve_matches_the_every_partition_reference(g):
    _assert_same_as_reference(g)


def test_solve_matches_the_every_partition_reference_on_campaign_draws():
    rng = random.Random(1)
    for g in (triangle(), theta(), k4_golden(), wheel5(), petersen()):
        _assert_same_as_reference(g)
    compared = 0
    while compared < 80:
        g = random_connected_graph(rng, rng.randint(5, 10), 0.5, 1, 100)
        if is_hamiltonian(g):
            _assert_same_as_reference(g)
            compared += 1


def test_retained_set_entries_match_a_recount(monkeypatch):
    # seeded draws as `cycletrim mine` makes them; after each solve, every
    # entry of its basis' retained-set table against a recount of the
    # retained rows, a scan of the union and the verdicts of a state over a
    # memo-free copy of the basis. The memo lasts one solve: a second solve
    # of the graph does the same work in every counter, which a memo kept
    # past the solve (on the graph, say) would cut
    partitions_reaching = {}
    real = cycletrim.solver.apply_deletion

    def recorded(state, c):
        after = real(state, c)
        key = (state.basis.graph, after.retained)
        partitions_reaching.setdefault(key, set()).add(after.partition.solution)
        return after

    monkeypatch.setattr(cycletrim.solver, "apply_deletion", recorded)
    rng = random.Random(20)
    solved = 0
    while solved < 40:
        g = random_connected_graph(rng, rng.randint(5, 12), 0.5, 1, 100)
        if not is_hamiltonian(g):
            continue
        result = solve(g)
        if result.final_state is None:
            continue
        solved += 1
        again = solve(g)
        assert again == result and again.counters == result.counters
        copy = dataclasses.replace(result.final_state.basis)
        assert not copy._retained_sets and not copy._cluster_tags
        rows = list(result.final_state.basis.cycles)
        for retained, entry in result.final_state.basis._retained_sets.items():
            kept = [rows[i] for i in iter_bits(retained)]
            union = 0
            for row in kept:
                union |= row
            assert entry.cover_counts == count_covers(g.edge_count, kept)
            assert entry.union_adjacency == _union_adjacency(g, union)
            assert (entry.degree_two, entry.over_cap) == cap_masks_reference(entry.union_adjacency)
            fresh = crafted_state(g, rows, solution=(), retained=retained)
            assert entry.asked & ~retained == 0
            assert entry.removable & ~entry.asked == 0
            # the entry is the one verdict memo, and its bits index its verdicts
            assert entry.asked == bits(entry.verdicts)
            for c, ctx in entry.verdicts.items():
                assert is_removable(fresh, c) == ctx
                assert (entry.removable >> c) & 1 == (ctx.verdict == REMOVABLE)
            for c, members in entry.components.items():
                assert members == cluster_members_reference(fresh, c)
    # the sharing path is taken: some retained set is reached by deletions
    # in two different partitions
    assert any(len(solutions) > 1 for solutions in partitions_reaching.values())


def test_determinism():
    for g in (triangle(), theta(), k4_golden(), wheel5(), petersen()):
        assert solve(g) == solve(g)


def test_scale_covariance():
    rng = random.Random(17)
    samples = [k4_golden()]
    while len(samples) < 6:
        g = random_connected_graph(rng, rng.randint(5, 8), 0.5, 1, 50)
        if is_hamiltonian(g):
            samples.append(g)
    for g in samples:
        r1 = solve(g)
        for factor in (9, Fraction(1, 8)):
            scaled = make_graph(
                g.vertex_count, [(u, v, w * factor) for u, v, w in g.edges]
            )
            r2 = solve(scaled)
            assert r1.status == r2.status
            assert [rec.cycle for rec in r1.trace] == [rec.cycle for rec in r2.trace]
            if r1.weight is not None:
                assert r2.weight == r1.weight * factor


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
