import dataclasses
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycletrim import (
    Graph,
    fundamental_basis,
    initial_state,
    is_hamiltonian,
    is_removable,
    reduce_cluster,
    solve,
)
from cycletrim import removability, solvability
from cycletrim.graphs import iter_bits, mask_neighbours, reach
from cycletrim.removability import (
    BLOCKED_BY_CLUSTER,
    BLOCKED_BY_NEIGHBORS,
    NOT_CANDIDATE,
    REDUCED_ACYCLIC,
    REDUCED_CYCLE_GRAPH,
    REMOVABLE,
)
from cycletrim.solver import apply_deletion

from helpers import (
    all_neighbours,
    bits,
    blocked_by_neighbors_reference,
    bowtie,
    cap_masks_reference,
    check_state,
    cluster_members_reference,
    crafted_state,
    cycle_graph,
    deletion_record_reference,
    double_square,
    edge_subgraph_reference,
    k4_golden,
    make_graph,
    path_graph,
    reduce_cluster_random,
    reduce_cluster_reference,
    star_graph,
    state_for,
    theta,
    union_mask,
    union_subgraph,
    wheel5,
)
from strategies import connected_graphs, hamiltonian_graphs


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
    assert ctx.record.removed_edge == e(0, 1)
    assert ctx.verdict == BLOCKED_BY_NEIGHBORS
    # in K4 the deletion leaves vertices 0 and 1 two degree-2 neighbors each
    _, parts, state = state_for(k4_golden())
    assert is_removable(state, next(iter_bits(parts[0].co_solution))).verdict == REMOVABLE


def test_neighbour_cap_keeps_a_far_vertex_over_the_cap():
    # vertex 0 has four degree-2 union neighbours before the deletion, and
    # the removed edge 2-6 touches neither 0 nor a neighbour of 0; only the
    # over-cap bits the state's entry carries can block the deletion
    g = make_graph(7, [
        (0, 1, 1), (0, 3, 1), (0, 4, 1), (0, 5, 1), (1, 2, 1),
        (2, 4, 1), (2, 6, 1), (3, 6, 1), (5, 6, 1),
    ])
    state = crafted_state(g, list(fundamental_basis(g).cycles), solution=())
    assert cap_masks_reference(state.union_adjacency)[1] == bits({0})
    ctx = is_removable(state, 1)
    assert ctx.record.removed_edge == g.edge_index(2, 6)
    assert not state.union_adjacency[0] & bits({2, 6})
    assert ctx.verdict == BLOCKED_BY_NEIGHBORS
    assert blocked_by_neighbors_reference(state, ctx.record)


def test_neighbour_cap_counts_the_neighbours_of_an_end_that_drops_to_degree_two():
    # K_{2,3} on {0, 1} x {2, 3, 4} plus the edge 3-4, which only the
    # triangle 0-3-4 covers: no vertex is over the cap before the deletion,
    # which takes 3 and 4 from degree 3 to 2 and so gives their neighbours 0
    # and 1 three degree-2 neighbours each
    g = make_graph(5, [(0, 2, 1), (0, 3, 1), (0, 4, 1), (1, 2, 1), (1, 3, 1), (1, 4, 1), (3, 4, 1)])
    state = crafted_state(g, list(fundamental_basis(g).cycles), solution=())
    assert cap_masks_reference(state.union_adjacency)[1] == 0
    ctx = is_removable(state, 2)
    assert ctx.record.removed_edge == g.edge_index(3, 4)
    assert ctx.verdict == BLOCKED_BY_NEIGHBORS
    assert blocked_by_neighbors_reference(state, ctx.record)


# --- diagonals and clusters ------------------------------------------------

def closure(state, c):
    """The cluster of retained cycle ``c``, as ``_evaluate`` takes it."""
    return reach(state.basis.sharing, c, state.retained)


def pair_tables_reference(g, rows):
    """``(sharing, diagonals)`` of ``rows`` from edge and vertex sets, pair by pair."""
    edge_sets = [set(iter_bits(row)) for row in rows]
    vertex_sets = [{x for e in edges for x in g.edges[e][:2]} for edges in edge_sets]
    sharing, diagonals = [], []
    for i in range(len(rows)):
        others = [j for j in range(len(rows)) if j != i]
        sharing.append(bits(j for j in others if edge_sets[i] & edge_sets[j]))
        diagonals.append(bits(
            j for j in others
            if not edge_sets[i] & edge_sets[j] and len(vertex_sets[i] & vertex_sets[j]) == 1
        ))
    return tuple(sharing), tuple(diagonals)


@given(connected_graphs(max_vertices=8), st.data())
@settings(max_examples=40, deadline=None)
def test_pair_tables_match_brute_force(g, data):
    basis = fundamental_basis(g)
    assert (basis.sharing, basis.diagonals) == pair_tables_reference(g, basis.cycles)
    # hand-picked rows need not be cycles, and may repeat or share every edge
    rows = data.draw(st.lists(st.integers(1, (1 << g.edge_count) - 1), max_size=8))
    state = crafted_state(g, rows, solution=())
    assert (state.basis.sharing, state.basis.diagonals) == pair_tables_reference(g, rows)


def test_theta_cycles_not_diagonal():
    _, _, state = state_for(theta())
    assert state.basis.diagonals[0] & state.retained == 0


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
    assert state.basis.diagonals[0] & state.retained == bits({1})
    assert state.basis.diagonals[1] & state.retained == bits({0})


def test_k4_triangles_not_diagonal():
    _, _, state = state_for(k4_golden())
    for c in range(3):
        assert state.basis.diagonals[c] & state.retained == 0


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
    assert state.basis.diagonals[0] & state.retained == 0
    assert state.basis.diagonals[1] & state.retained == 0


def test_bowtie_cluster_is_single_triangle():
    g = bowtie()
    right = sum(1 << g.edge_index(u, v) for u, v in [(0, 3), (0, 4), (3, 4)])
    left = sum(1 << g.edge_index(u, v) for u, v in [(0, 1), (0, 2), (1, 2)])
    state = crafted_state(g, [left, right], solution=(0,))
    assert closure(state, 1) == bits({1})


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
    assert closure(state, 0) == bits({0, 1, 2})

    # dropping the middle cycle splits the chain
    state2 = crafted_state(g, [t1, t2, t3], solution=(1,), retained=bits({0, 2}))
    assert closure(state2, 0) == bits({0})


def test_two_cycle_cluster():
    _, _, state = state_for(theta())
    assert closure(state, 0) == bits({0, 1})  # both triangles share the edge ab


@given(connected_graphs(max_vertices=8), st.data())
@settings(max_examples=40, deadline=None)
def test_table_closure_matches_reference(g, data):
    rows = list(fundamental_basis(g).cycles)
    retained = data.draw(st.sets(st.sampled_from(range(len(rows)))) if rows else st.just(set()))
    state = crafted_state(g, rows, solution=(), retained=bits(retained))
    for c in retained:
        assert closure(state, c) == cluster_members_reference(state, c)


# --- the cluster reducer ----------------------------------------------------

def test_reduce_pure_cycles_zero_steps():
    for n in (3, 4, 7, 12):
        out = reduce_cluster(all_neighbours(cycle_graph(n)))
        assert out.tag == REDUCED_CYCLE_GRAPH
        assert out.steps == ()


def test_reduce_trees_acyclic():
    for g in (path_graph(2), path_graph(6), star_graph(4)):
        out = reduce_cluster(all_neighbours(g))
        assert out.tag == REDUCED_ACYCLIC


def test_reduce_theta_deletes_forced_out_edge():
    # both degree-3 vertices have two degree-2 neighbors, so the direct
    # edge between them cannot lie on a spanning cycle
    g = theta()
    out = reduce_cluster(all_neighbours(g))
    assert out.tag == REDUCED_CYCLE_GRAPH
    assert ("delete_edge", 0, 1) in out.steps


def test_reduce_bowtie_acyclic():
    out = reduce_cluster(all_neighbours(bowtie()))
    assert out.tag == REDUCED_ACYCLIC
    # each triangle's degree-2 pair is a run, but smoothing either vertex
    # would double the edge to its already adjacent neighbors
    assert out.steps == ()


def test_reduce_double_square_acyclic_with_smoothing():
    # no cycle through the shared vertex can cover both squares' edges
    out = reduce_cluster(all_neighbours(double_square()))
    assert out.tag == REDUCED_ACYCLIC
    assert any(step[0] == "smooth" for step in out.steps)


def test_reduce_wheel_acyclic():
    assert reduce_cluster(all_neighbours(wheel5())).tag == REDUCED_ACYCLIC


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
        out = reduce_cluster(all_neighbours(g))
        edge_steps = [s for s in out.steps if s[0] in ("delete_edge", "smooth")]
        assert len(edge_steps) <= g.edge_count
        shuffled = reduce_cluster_random(g, rng)
        assert shuffled.tag == out.tag


def _edge_subset(g: Graph, keep: list[bool]) -> Graph:
    return Graph(g.vertex_count, tuple(edge for edge, kept in zip(g.edges, keep) if kept))


@given(connected_graphs(max_vertices=9), st.data())
@settings(max_examples=150, deadline=None)
def test_reduction_outcome_does_not_depend_on_move_order(g, data):
    # the fixed order against random orders, on connected graphs and on the
    # disconnected or acyclic leftovers of dropping some of their edges; the
    # fixed order takes the same steps as the dict-of-sets reference
    keep = data.draw(st.lists(st.booleans(), min_size=g.edge_count, max_size=g.edge_count))
    for h in (g, _edge_subset(g, keep)):
        fixed = reduce_cluster(all_neighbours(h))
        assert reduce_cluster_reference(h) == fixed
        for seed in range(8):
            assert reduce_cluster_random(h, random.Random(seed)).tag == fixed.tag


def _solver_clusters(rng, draws, n_low, n_high, p):
    # every cluster the solver reduces on the Hamiltonian ones of ``draws``
    # campaign-style draws, as (graph, edge mask) on the parent's vertex ids
    from cycletrim import random_connected_graph

    clusters = set()
    for _ in range(draws):
        g = random_connected_graph(rng, rng.randint(n_low, n_high), p, 1, 100)
        if not is_hamiltonian(g):
            continue
        result = solve(g)
        if result.final_state is None:
            continue
        for members in result.final_state.basis._cluster_tags:
            mask = 0
            for m in iter_bits(members):
                mask |= result.final_state.basis.cycles[m]
            clusters.add((g, mask))
    return clusters


def _check_against_the_reference(clusters, orders):
    # the dict-of-sets reference takes the same steps, and the tag must not
    # depend on the labelling or on the move order; returns all steps taken
    steps = []
    for g, mask in clusters:
        h = Graph(g.vertex_count, tuple(g.edges[e] for e in iter_bits(mask)))
        fixed = reduce_cluster(mask_neighbours(g, mask))
        assert reduce_cluster_reference(h) == fixed
        assert reduce_cluster(all_neighbours(edge_subgraph_reference(g, mask))).tag == fixed.tag
        for seed in range(orders):
            assert reduce_cluster_random(h, random.Random(seed)).tag == fixed.tag
        steps.extend(fixed.steps)
    return steps


def test_reduction_outcome_does_not_depend_on_move_order_on_solver_clusters():
    # every cluster the solver reduces on the seed-1 campaign draws, on the
    # parent's vertex ids as the solver builds it
    clusters = _solver_clusters(random.Random(1), 120, 5, 9, 0.5)
    assert clusters
    _check_against_the_reference(clusters, orders=4)


def test_reducer_steps_match_the_reference_on_large_sparse_clusters():
    # the clusters of sparse 18-vertex draws, shaped like the large_sparse
    # benchmark inputs, take long runs of smoothings, where the reducer's
    # kept vertex masks change one bit per move; every step must be the
    # reference's
    clusters = _solver_clusters(random.Random(2), 60, 18, 18, 0.2)
    steps = _check_against_the_reference(clusters, orders=2)
    kinds = [step[0] for step in steps]
    assert kinds.count("smooth") >= 50 and kinds.count("delete_edge") >= 50


# --- full removability -------------------------------------------------------

def test_k4_co_solution_cycle_removable():
    _, parts, state = state_for(k4_golden())
    c = next(iter_bits(parts[0].co_solution))
    ctx = is_removable(state, c)
    assert ctx.verdict == REMOVABLE
    assert state.basis.diagonals[c] & state.retained == 0
    assert ctx.record.removed_edge == state.basis.graph.edge_index(2, 3)


def test_wheel_rim_cycle_blocked_by_cluster():
    g = wheel5()
    _, parts, state = state_for(g)
    c = next(iter_bits(parts[0].co_solution))
    ctx = is_removable(state, c)
    assert ctx.verdict == BLOCKED_BY_CLUSTER
    assert state.basis.diagonals[c] & state.retained


def test_wheel_state_blocked_by_neighbors():
    # after the rim triangle 0-1-2 is gone, deleting 0-3-4 would leave the
    # hub with four degree-2 neighbors
    g = wheel5()
    basis, parts, state = state_for(g)
    retained = ((1 << basis.dimension) - 1) & ~(1 << 0)
    state = crafted_state(g, list(basis.cycles), parts[0].solution, retained=retained)
    ctx = is_removable(state, 3)
    assert ctx.verdict == BLOCKED_BY_NEIGHBORS


def test_verdict_cache_gains_one_key_per_evaluated_verdict():
    # what perfbench/layers.py reads: the length of state.verdict_cache
    # around each is_removable call, which stays put on a verdict asked
    # again, and the name removability.mask_degrees, which it traces
    assert callable(removability.mask_degrees)
    _, _, state = state_for(wheel5())
    for c in iter_bits(state.retained):
        before = len(state.verdict_cache)
        ctx = is_removable(state, c)
        assert len(state.verdict_cache) == before + 1
        assert is_removable(state, c) == ctx and len(state.verdict_cache) == before + 1


def test_not_candidate_verdict():
    _, _, state = state_for(theta())
    assert is_removable(state, 0).verdict == NOT_CANDIDATE


def test_removable_deletion_keeps_vertices_and_drops_one_edge():
    _, parts, state = state_for(k4_golden())
    c = next(iter_bits(parts[0].co_solution))
    assert is_removable(state, c).verdict == REMOVABLE
    after = apply_deletion(state, c)
    assert union_mask(after).bit_count() == union_mask(state).bit_count() - 1
    assert len(set(u for u, v, _ in union_subgraph(after).edges) | set(
        v for u, v, _ in union_subgraph(after).edges
    )) == state.basis.graph.vertex_count


@given(hamiltonian_graphs(max_vertices=7))
@settings(max_examples=25)
def test_removable_unions_stay_hamiltonian(g):
    """Empirical check, logged not asserted: deleting a removable cycle
    should leave a Hamiltonian union."""
    from cycletrim import enumerate_solutions, fundamental_basis, initial_state

    basis = fundamental_basis(g)
    with patch.object(solvability, "SOLUTION_CAP", 4):
        parts = enumerate_solutions(basis)
    if not parts:
        return
    state = initial_state(basis, parts[0])
    for c in iter_bits(parts[0].co_solution):
        if is_removable(state, c).verdict != REMOVABLE:
            continue
        after = apply_deletion(state, c)
        if not is_hamiltonian(union_subgraph(after)):
            print(f"\ncounterexample union after deleting {c}: {g.edges}")
        break


def test_each_verdict_reduces_the_clusters_of_the_full_ascending_walk(monkeypatch):
    # a verdict walks only the diagonals its entry has not tagged, below the
    # lowest one known to be acyclic; it must reduce exactly the clusters
    # that walking every diagonal in ascending order, up to the first
    # acyclic one, reduces given the tags known before it, so reduce_calls
    # cannot move. Checked on every verdict of solves of benchmark-shaped
    # draws, and on random retained sets asked in random order, where a
    # walk can stop before a cluster no verdict has tagged yet
    import cycletrim.solver
    from cycletrim import random_connected_graph

    real = cycletrim.solver.is_removable
    walks = []

    def reference_tag(state, members):
        g = state.basis.graph
        mask = 0
        for m in iter_bits(members):
            mask |= state.basis.cycles[m]
        h = Graph(g.vertex_count, tuple(g.edges[e] for e in iter_bits(mask)))
        return reduce_cluster_reference(h).tag

    def checked(state, c):
        before = set(state.basis._cluster_tags)
        ctx = real(state, c)
        expected = set()
        beyond = 0  # untagged clusters past the walk's stop
        if ctx.verdict in (REMOVABLE, BLOCKED_BY_CLUSTER):
            stopped = False
            for d in iter_bits(state.basis.diagonals[c] & state.retained):
                members = cluster_members_reference(state, d)
                if stopped:
                    beyond += members not in before and members not in expected
                    continue
                if members not in before:
                    expected.add(members)
                stopped = reference_tag(state, members) == REDUCED_ACYCLIC
            assert stopped == (ctx.verdict == BLOCKED_BY_CLUSTER)
        assert set(state.basis._cluster_tags) - before == expected
        for members in expected:
            assert state.basis._cluster_tags[members] == reference_tag(state, members)
        walks.append((len(expected), beyond))
        return ctx

    monkeypatch.setattr(cycletrim.solver, "is_removable", checked)
    rng = random.Random(3)
    for n_low, n_high, p, draws in ((5, 12, 0.5, 150), (14, 16, 0.5, 10), (18, 18, 0.2, 60)):
        for _ in range(draws):
            g = random_connected_graph(rng, rng.randint(n_low, n_high), p, 1, 100)
            if is_hamiltonian(g):
                solve(g)
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(6, 12)
        g = random_connected_graph(rng, n, rng.choice((0.3, 0.4, 0.5)), 1, 100)
        rows = list(fundamental_basis(g).cycles)
        if len(rows) < 4:
            continue
        state = crafted_state(g, rows, solution=(), retained=rng.getrandbits(len(rows)) | 1)
        order = list(iter_bits(state.retained))
        rng.shuffle(order)
        for c in order:
            checked(state, c)
    # verdicts that reduce nothing, that reduce a cluster, and that stop
    # before an untagged cluster are all checked
    assert {0, 1} <= {reduced for reduced, _ in walks}
    assert any(beyond for _, beyond in walks)


@given(hamiltonian_graphs(max_vertices=8))
@settings(max_examples=40, deadline=None)
def test_cached_verdicts_match_fresh_ones(g):
    # replay the solver's trace over the basis whose memo it filled; at every
    # state the incremental fields match a recount, each retained co-solution
    # cycle gets the verdict a state over a memo-free copy of the basis gives,
    # the neighbour cap agrees with a scan of every adjacency list, and no
    # closure memoised on an earlier retained set is reused
    result = solve(g)
    if result.partition is None:
        return
    state = initial_state(result.final_state.basis, result.partition)

    def fresh():
        return dataclasses.replace(state, basis=dataclasses.replace(state.basis))

    for step in range(len(result.trace) + 1):
        check_state(state)
        for c in iter_bits(state.partition.co_solution):
            if not (state.retained >> c) & 1:
                continue
            cached = is_removable(state, c)
            assert cached == is_removable(fresh(), c)
            if cached.record is not None:
                assert (cached.verdict == BLOCKED_BY_NEIGHBORS) == blocked_by_neighbors_reference(
                    state, cached.record
                )
            if cached.verdict == REMOVABLE:
                # the record apply_deletion takes from the entry, and the one
                # it evaluates on a memo-free basis, are the one a scan of the
                # row against the cover counts builds
                scanned = apply_deletion(fresh(), c)
                assert apply_deletion(state, c) == scanned
                assert cached.record == scanned.trace[-1] == deletion_record_reference(state, c)
        for c in iter_bits(state.retained):
            assert closure(state, c) == cluster_members_reference(state, c)
        if step < len(result.trace):
            state = apply_deletion(state, result.trace[step].cycle)
    assert state == result.final_state
