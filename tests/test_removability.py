import random

import pytest
from hypothesis import given, settings

from cycletrim import (
    Graph,
    find_diagonals,
    is_hamiltonian,
    is_removable,
    reduce_cluster,
)
from cycletrim.removability import (
    BLOCKED_BY_CLUSTER,
    BLOCKED_BY_NEIGHBORS,
    NOT_CANDIDATE,
    REDUCED_ACYCLIC,
    REDUCED_CYCLE_GRAPH,
    REMOVABLE,
    _cluster_members,
)
from cycletrim.solver import apply_deletion

from helpers import (
    bowtie,
    crafted_state,
    cycle_graph,
    double_square,
    k4_golden,
    make_graph,
    path_graph,
    star_graph,
    state_for,
    theta,
    union_subgraph,
    wheel5,
)
from strategies import hamiltonian_graphs


# --- candidate test -------------------------------------------------------

def test_theta_cycles_are_not_candidates():
    _, _, state = state_for(theta())
    # each triangle has two once-covered edges, so deleting it would drop two
    assert is_removable(state, 0).verdict == NOT_CANDIDATE
    assert is_removable(state, 1).verdict == NOT_CANDIDATE


def test_k4_cycles_are_candidates():
    _, _, state = state_for(k4_golden())
    for c in range(3):
        assert is_removable(state, c).verdict != NOT_CANDIDATE


def test_fully_shared_cycle_is_not_candidate():
    # crafted rows give the target no exclusive edge at all
    g = k4_golden()
    e = g.edge_index
    rows = [
        (1 << e(0, 1)) | (1 << e(0, 2)) | (1 << e(1, 2)),
        (1 << e(0, 1)) | (1 << e(0, 3)) | (1 << e(1, 3)),
        (1 << e(0, 2)) | (1 << e(2, 3)) | (1 << e(0, 3)),
        (1 << e(1, 2)) | (1 << e(2, 3)) | (1 << e(1, 3)),
    ]
    state = crafted_state(g, rows, solution=(1, 2, 3))
    # every edge of row 0 is covered twice
    assert all(state.cover_counts[i] == 2 for i in range(g.edge_count))
    assert is_removable(state, 0).verdict == NOT_CANDIDATE


def test_is_candidate_requires_retained():
    _, _, state = state_for(k4_golden())
    with pytest.raises(ValueError):
        is_removable(state, 99)


# --- degree-2 neighbor counting -------------------------------------------

def test_degree_two_neighbor_count():
    # K_{2,3} on {0, 1} x {2, 3, 4} plus the edge 0-1, which only the
    # triangle 0-1-2 covers; deleting the triangle leaves K_{2,3}, where
    # vertex 0 has three degree-2 neighbors
    g = make_graph(
        5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1), (1, 2, 1), (1, 3, 1), (1, 4, 1)]
    )
    e = g.edge_index
    rows = [
        (1 << e(0, 2)) | (1 << e(1, 2)) | (1 << e(1, 3)) | (1 << e(0, 3)),
        (1 << e(0, 3)) | (1 << e(1, 3)) | (1 << e(1, 4)) | (1 << e(0, 4)),
        (1 << e(0, 1)) | (1 << e(1, 2)) | (1 << e(0, 2)),
    ]
    state = crafted_state(g, rows, solution=(0, 1))
    ctx = is_removable(state, 2)
    assert ctx.boundary_edge == e(0, 1)
    assert ctx.verdict == BLOCKED_BY_NEIGHBORS
    # in K4 the deletion leaves vertices 0 and 1 two degree-2 neighbors each
    _, parts, state = state_for(k4_golden())
    assert is_removable(state, parts[0].co_solution[0]).verdict == REMOVABLE


# --- diagonals and clusters ------------------------------------------------

def test_theta_cycles_not_diagonal():
    _, _, state = state_for(theta())
    assert find_diagonals(state, 0) == ()


def test_bowtie_triangles_are_diagonal():
    g = bowtie()
    state = crafted_state(
        g,
        rows=[
            sum(1 << g.edge_index(u, v) for u, v in [(0, 1), (0, 2), (1, 2)]),
            sum(1 << g.edge_index(u, v) for u, v in [(0, 3), (0, 4), (3, 4)]),
        ],
        solution=(0,),
    )
    assert find_diagonals(state, 0) == (1,)
    assert find_diagonals(state, 1) == (0,)


def test_k4_triangles_not_diagonal():
    _, _, state = state_for(k4_golden())
    for c in range(3):
        assert find_diagonals(state, c) == ()


def test_cycles_meeting_in_two_vertices_are_not_diagonal():
    # two edge-disjoint 4-cycles meeting in the non-adjacent vertices 0 and 2
    g = make_graph(
        6,
        [
            (0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1),
            (0, 4, 1), (4, 2, 1), (2, 5, 1), (5, 0, 1),
        ],
    )
    a = sum(1 << g.edge_index(u, v) for u, v in [(0, 1), (1, 2), (2, 3), (0, 3)])
    b = sum(1 << g.edge_index(u, v) for u, v in [(0, 4), (4, 2), (2, 5), (5, 0)])
    state = crafted_state(g, [a, b], solution=(0,))
    assert find_diagonals(state, 0) == ()
    assert find_diagonals(state, 1) == ()


def test_bowtie_cluster_is_single_triangle():
    g = bowtie()
    right = sum(1 << g.edge_index(u, v) for u, v in [(0, 3), (0, 4), (3, 4)])
    left = sum(1 << g.edge_index(u, v) for u, v in [(0, 1), (0, 2), (1, 2)])
    state = crafted_state(g, [left, right], solution=(0,))
    assert _cluster_members(state, 1) == {1}


def test_cluster_closure_is_transitive():
    # strip of three triangles chained by shared edges
    g = make_graph(
        5,
        [(0, 1, 1), (0, 2, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1), (2, 4, 1), (3, 4, 1)],
    )
    e = g.edge_index
    t1 = (1 << e(0, 1)) | (1 << e(0, 2)) | (1 << e(1, 2))
    t2 = (1 << e(1, 2)) | (1 << e(1, 3)) | (1 << e(2, 3))
    t3 = (1 << e(2, 3)) | (1 << e(2, 4)) | (1 << e(3, 4))
    state = crafted_state(g, [t1, t2, t3], solution=(1,))
    assert _cluster_members(state, 0) == {0, 1, 2}

    # dropping the middle cycle splits the chain
    state2 = crafted_state(g, [t1, t2, t3], solution=(1,), retained={0, 2})
    assert _cluster_members(state2, 0) == {0}


def test_two_cycle_cluster():
    _, _, state = state_for(theta())
    assert _cluster_members(state, 0) == {0, 1}  # both triangles share the edge ab


# --- the cluster reducer ----------------------------------------------------

def test_reduce_pure_cycles_zero_steps():
    for n in (3, 4, 7, 12):
        out = reduce_cluster(cycle_graph(n))
        assert out.tag == REDUCED_CYCLE_GRAPH
        assert out.steps == ()


def test_reduce_trees_acyclic():
    for g in (path_graph(2), path_graph(6), star_graph(4)):
        out = reduce_cluster(g)
        assert out.tag == REDUCED_ACYCLIC


def test_reduce_theta_deletes_forced_out_edge():
    # both degree-3 vertices have two degree-2 neighbors, so the direct
    # edge between them cannot lie on a spanning cycle
    g = theta()
    out = reduce_cluster(g)
    assert out.tag == REDUCED_CYCLE_GRAPH
    assert ("delete_edge", 0, 1) in out.steps


def test_reduce_bowtie_acyclic():
    out = reduce_cluster(bowtie())
    assert out.tag == REDUCED_ACYCLIC
    # each triangle's degree-2 pair is a run, but smoothing either vertex
    # would double the edge to its already adjacent neighbors
    assert out.steps == ()


def test_reduce_double_square_acyclic_with_smoothing():
    # no cycle through the shared vertex can cover both squares' edges
    out = reduce_cluster(double_square())
    assert out.tag == REDUCED_ACYCLIC
    assert any(step[0] == "smooth" for step in out.steps)


def test_reduce_wheel_acyclic():
    assert reduce_cluster(wheel5()).tag == REDUCED_ACYCLIC


def test_reduce_steps_bounded_and_order_independent():
    rng = random.Random(11)
    seeds = random.Random(5)
    for _ in range(60):
        n = seeds.randint(3, 9)
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if seeds.random() < 0.45
        ]
        if not pairs:
            continue
        g = Graph(n, tuple((u, v, 1) for u, v in pairs))
        out = reduce_cluster(g)
        edge_steps = [s for s in out.steps if s[0] in ("delete_edge", "smooth")]
        assert len(edge_steps) <= g.edge_count
        shuffled = reduce_cluster(g, rng=rng)
        assert shuffled.tag == out.tag


# --- full removability -------------------------------------------------------

def test_k4_co_solution_cycle_removable():
    _, parts, state = state_for(k4_golden())
    c = parts[0].co_solution[0]
    ctx = is_removable(state, c)
    assert ctx.verdict == REMOVABLE
    assert find_diagonals(state, c) == ()
    assert ctx.boundary_edge == state.graph.edge_index(2, 3)


def test_wheel_rim_cycle_blocked_by_cluster():
    g = wheel5()
    _, parts, state = state_for(g)
    c = parts[0].co_solution[0]
    ctx = is_removable(state, c)
    assert ctx.verdict == BLOCKED_BY_CLUSTER
    assert find_diagonals(state, c)


def test_wheel_state_blocked_by_neighbors():
    # after the rim triangle 0-1-2 is gone, deleting 0-3-4 would leave the
    # hub with four degree-2 neighbors
    g = wheel5()
    basis, parts, state = state_for(g)
    retained = frozenset(range(basis.dimension)) - {0}
    state = crafted_state(g, [c.edges for c in basis.cycles], parts[0].solution, retained=set(retained))
    ctx = is_removable(state, 3)
    assert ctx.verdict == BLOCKED_BY_NEIGHBORS


def test_not_candidate_verdict():
    _, _, state = state_for(theta())
    assert is_removable(state, 0).verdict == NOT_CANDIDATE


def test_removable_deletion_keeps_vertices_and_drops_one_edge():
    _, parts, state = state_for(k4_golden())
    c = parts[0].co_solution[0]
    assert is_removable(state, c).verdict == REMOVABLE
    after = apply_deletion(state, c)
    assert after.union_edges.bit_count() == state.union_edges.bit_count() - 1
    assert len(set(u for u, v, _ in union_subgraph(after).edges) | set(
        v for u, v, _ in union_subgraph(after).edges
    )) == state.graph.vertex_count


@given(hamiltonian_graphs(max_vertices=7))
@settings(max_examples=25)
def test_removable_unions_stay_hamiltonian(g):
    """Empirical check, logged not asserted: deleting a removable cycle
    should leave a Hamiltonian union."""
    from cycletrim import enumerate_solutions, fundamental_basis, initial_state

    basis = fundamental_basis(g)
    parts = enumerate_solutions(basis, cap=4)
    if not parts:
        return
    state = initial_state(basis, parts[0])
    for c in parts[0].co_solution:
        if is_removable(state, c).verdict != REMOVABLE:
            continue
        after = apply_deletion(state, c)
        if not is_hamiltonian(union_subgraph(after)):
            print(f"\ncounterexample union after deleting {c}: {g.edges}")
        break
