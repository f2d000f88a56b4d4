import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import cycletrim.solver
from cycletrim import (
    NotRemovable,
    SolverState,
    TooLarge,
    apply_deletion,
    boundary_mask,
    count_covers,
    enumerate_solutions,
    fundamental_basis,
    initial_state,
    is_hamiltonian,
    is_removable,
    min_tour,
    random_connected_graph,
    solve,
    tour_weight,
)
from cycletrim.cli import _result_json
from cycletrim.cycle_space import edges_with_cover
from cycletrim.graphs import Graph, iter_bits, tour_from_edge_mask
from cycletrim.removability import (
    BLOCKED_BY_CLUSTER,
    REDUCED_ACYCLIC,
    REDUCED_CYCLE_GRAPH,
    REMOVABLE,
    DeletionRecord,
    deletion_key,
)
from cycletrim.solver import STATUS_NO_SOLUTION, STATUS_NOT_HAMILTONIAN, STATUS_OK, STATUS_STUCK

from helpers import (
    _union_adjacency,
    bits,
    cap_masks_reference,
    check_state,
    cluster_members_reference,
    crafted_state,
    deletion_record_reference,
    k4_golden,
    make_graph,
    petersen,
    reduce_cluster_reference,
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


def _draw_trying_several_partitions() -> Graph:
    # the first seeded campaign-style draw whose solve goes past its first
    # partition
    rng = random.Random(24)
    while True:
        g = random_connected_graph(rng, rng.randint(5, 10), 0.5, 1, 100)
        if is_hamiltonian(g) and solve(g).solutions_tried > 1:
            return g


def test_solve_builds_one_initial_state(monkeypatch):
    g = _draw_trying_several_partitions()
    built = []
    real = cycletrim.solver.initial_state

    def counted(basis, partition):
        built.append(partition)
        return real(basis, partition)

    monkeypatch.setattr(cycletrim.solver, "initial_state", counted)
    result = solve(g)
    assert result.solutions_tried > 1
    assert len(built) == 1


def test_solve_wheel_gets_stuck():
    # every basis triangle is blocked by its diagonal cluster, so the solve
    # stops after its first partition
    result = solve(wheel5())
    assert result.status == STATUS_STUCK
    assert result.solutions_tried == 1
    assert result.solvable
    assert {ctx.verdict for ctx in result.final_state.verdict_cache.values()} == {
        BLOCKED_BY_CLUSTER
    }


def _complete_graph(n: int) -> Graph:
    return make_graph(n, [(u, v, 1) for u in range(n) for v in range(u + 1, n)])


@pytest.mark.parametrize("n, every_partition", [(5, 20), (6, 64)])
def test_complete_graph_is_stuck_after_one_partition(monkeypatch, n, every_partition):
    """Unit-weight K5 and K6 end ``stuck``: every start verdict is
    ``blocked_by_cluster``, so the solve stops after its first partition
    without enumerating the others, where trying every partition takes 20
    and 64. Every Hamilton cycle is optimal here, so this records a failure
    of the rule as implemented, not a wanted outcome."""
    g = _complete_graph(n)
    enumerated = []
    real = cycletrim.solver.enumerate_solutions

    def counted(basis):
        enumerated.append(basis)
        return real(basis)

    monkeypatch.setattr(cycletrim.solver, "enumerate_solutions", counted)
    result = solve(g)
    assert result.status == STATUS_STUCK
    assert result.solutions_tried == 1
    assert enumerated == []
    start = result.final_state
    assert start.retained == (1 << start.basis.dimension) - 1 and start.trace == ()
    assert sorted(start.verdict_cache) == list(range(start.basis.dimension))
    assert {ctx.verdict for ctx in start.verdict_cache.values()} == {BLOCKED_BY_CLUSTER}
    assert solve_reference(g).solutions_tried == every_partition


def test_eight_edge_graph_has_no_solution():
    """A Hamiltonian graph on 6 vertices and 8 edges whose basis cycles
    have values 3, 3 and 2, none of whose subsets sums to 4: ``no_solution``
    with no partition tried. This records a failure of the rule as
    implemented, not a wanted outcome."""
    edges = [(0, 3), (0, 5), (1, 2), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4)]
    g = make_graph(6, [(u, v, 1) for u, v in edges])
    assert is_hamiltonian(g)
    assert sorted(row.bit_count() - 2 for row in fundamental_basis(g).cycles) == [2, 3, 3]
    result = solve(g)
    assert result.status == STATUS_NO_SOLUTION
    assert result.solutions_tried == 0
    assert not result.solvable


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
    with pytest.raises(NotRemovable, match="exactly one boundary edge"):
        apply_deletion(state, 0)
    rows = [rows[0] ^ rows[1], rows[0], rows[1]]
    state = crafted_state(g, rows, solution=(1, 2))
    with pytest.raises(NotRemovable, match="exactly one boundary edge"):
        apply_deletion(state, 0)


def test_deletion_key_tie_breaks():
    weights = k4_golden().weights

    def least(*records):
        return min(records, key=lambda r: deletion_key(weights, r))

    a = DeletionRecord(2, 0, 0, Fraction(5))
    b = DeletionRecord(1, 1, 0, Fraction(3))
    assert least(a, b).cycle == 1
    # equal weights: the record whose removed edge is lighter wins
    c = DeletionRecord(2, 0, 0, Fraction(3))  # edge 0 weighs 1
    d = DeletionRecord(1, 3, 0, Fraction(3))  # edge 3 weighs 4
    assert least(c, d).cycle == 2
    # full tie: lower cycle index
    e = DeletionRecord(2, 0, 0, Fraction(3))
    f = DeletionRecord(1, 0, 0, Fraction(3))
    assert least(e, f).cycle == 1


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


def _ask_what_solve_asks_beyond(g, want, partitions) -> int:
    # ``solve`` asks one set of verdicts that the reference does not: when
    # the first partition deletes nothing and its start boundary is not a
    # tour, the start verdicts of its solution cycles. Ask them on the
    # reference's own memo and counters, and return the cycles newly asked
    first, basis = partitions[0], want.final_state.basis
    start = SolverState(basis, first, (1 << basis.dimension) - 1, counters=want.counters)
    verdicts = start.verdict_cache
    if any(ctx.verdict == REMOVABLE for c, ctx in verdicts.items() if (first.co_solution >> c) & 1):
        return 0
    if tour_from_edge_mask(g, boundary_mask(start)) is not None:
        return 0
    newly = bits(c for c in first.solution if c not in verdicts)
    for c in first.solution:
        is_removable(start, c)
    return newly


def _assert_same_as_reference(g) -> str:
    # returns how the solve ended: "no partition", "stopped" early, or the
    # "same" way as the reference
    got, want = solve(g), solve_reference(g)
    for name in ("status", "tour", "weight", "trace", "solvable"):
        assert getattr(got, name) == getattr(want, name), name
    if got.final_state is None:
        assert got == want and got.counters == want.counters
        return "no partition"
    partitions = enumerate_solutions(got.final_state.basis)
    in_every_solution = (1 << got.final_state.basis.dimension) - 1
    for partition in partitions:
        in_every_solution &= ~partition.co_solution
    extra = _ask_what_solve_asks_beyond(g, want, partitions)
    for name in ("deletions", "comparisons", "reduce_calls", "row_ops"):
        assert getattr(got.counters, name) == getattr(want.counters, name), name
    if (got.solutions_tried, got.partition) == (want.solutions_tried, want.partition):
        assert got == want
        assert got.counters.candidates_tested == want.counters.candidates_tested
        return "same"
    else:
        # the early stop: nothing in the basis could go at the start, and
        # the reference ended every partition there, having asked every
        # cycle but those in every solution
        assert got.solutions_tried == 1
        assert want.status == STATUS_STUCK and want.counters.deletions == 0
        assert got.partition == partitions[0]
        assert got.final_state == dataclasses.replace(want.final_state, partition=partitions[0])
        assert got.counters.candidates_tested == partitions[0].co_solution.bit_count()
        assert extra == in_every_solution
        return "stopped"


@given(hamiltonian_graphs(max_vertices=8))
@settings(max_examples=60, deadline=None)
def test_solve_matches_the_every_partition_reference(g):
    _assert_same_as_reference(g)


def test_solve_matches_the_every_partition_reference_on_campaign_draws():
    rng = random.Random(1)
    ends = []
    for g in (triangle(), theta(), k4_golden(), wheel5(), petersen()):
        ends.append(_assert_same_as_reference(g))
    compared = 0
    while compared < 80:
        g = random_connected_graph(rng, rng.randint(5, 10), 0.5, 1, 100)
        if is_hamiltonian(g):
            ends.append(_assert_same_as_reference(g))
            compared += 1
    # both branches of the comparison are taken
    assert {"stopped", "same"} <= set(ends)


def test_retained_set_entries_match_a_recount(monkeypatch):
    # seeded draws as `cycletrim mine` makes them; after each solve, every
    # entry of its basis' retained-set table against a recount of the
    # retained rows, a scan of the union and the verdicts of a state over a
    # memo-free copy of the basis, and its ranking, cluster masks and tour
    # against a sort, the reference reducer and a decode of its boundary.
    # The memo lasts one solve: a second solve
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
    filled = {"ranked": 0, "cycle_graph": 0, "acyclic": 0, "tour": 0}
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
            recount = count_covers(g.edge_count, kept)
            assert entry.cover_counts == recount
            assert entry.once == edges_with_cover(recount, 1)
            assert entry.twice == edges_with_cover(recount, 2)
            assert entry.union_adjacency == _union_adjacency(g, union)
            assert (entry.degree_two, entry.over_cap) == cap_masks_reference(entry.union_adjacency)
            fresh = crafted_state(g, rows, solution=(), retained=retained)
            assert entry.asked & ~retained == 0
            assert entry.removable & ~entry.asked == 0
            # the entry is the one verdict memo, and its bits index its verdicts
            assert entry.asked == bits(entry.verdicts)
            for c, ctx in entry.verdicts.items():
                assert is_removable(fresh, c) == ctx
                assert ctx.record == deletion_record_reference(fresh, c)
                assert (entry.removable >> c) & 1 == (ctx.verdict == REMOVABLE)
            # the ranking is the removable records in the greedy rule's order
            removable = [ctx.record for ctx in entry.verdicts.values() if ctx.verdict == REMOVABLE]
            assert entry.ranked == sorted(
                removable, key=lambda r: (r.added_weight, g.weights[r.removed_edge], r.cycle)
            )
            # the cluster masks are unions of whole sharing clusters, each
            # under the tag the dict-of-sets reducer gives its edges
            tagged = {REDUCED_CYCLE_GRAPH: 0, REDUCED_ACYCLIC: 0}
            for c in iter_bits(entry.cycle_graph | entry.acyclic):
                members = cluster_members_reference(fresh, c)
                mask = 0
                for m in iter_bits(members):
                    mask |= rows[m]
                h = Graph(g.vertex_count, tuple(g.edges[e] for e in iter_bits(mask)))
                tagged[reduce_cluster_reference(h).tag] |= members
            assert (entry.cycle_graph, entry.acyclic) == (
                tagged[REDUCED_CYCLE_GRAPH], tagged[REDUCED_ACYCLIC]
            )
            if entry.tour != ():
                assert entry.tour == tour_from_edge_mask(g, entry.once)
            for name in ("ranked", "cycle_graph", "acyclic"):
                filled[name] += bool(getattr(entry, name))
            filled["tour"] += entry.tour is not None and entry.tour != ()
    # the sharing path is taken: some retained set is reached by deletions
    # in two different partitions
    assert any(len(solutions) > 1 for solutions in partitions_reaching.values())
    # every new field is checked on some entry where it holds something
    assert all(filled.values()), filled


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


#: sha256 over ``_result_json(solve(g))`` plus ``row_ops`` of every graph
#: in the census below, in edge-subset order
CENSUS_SHA256 = "395b0150c3d257b9cf14e59a5bb4daaaa7a8c3c81d945b0febd830e0d063a72b"


def test_census_of_small_hamiltonian_graphs():
    # every labelled Hamiltonian graph on 3, 4 and 5 vertices with unit
    # weights, each edge subset of K_n in the order of its bitmask over the
    # canonical edge order: the statuses are counted and the results pinned
    digest = hashlib.sha256()
    census = {}
    for n in (3, 4, 5):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        statuses = census[n] = {}
        for subset in range(1, 1 << len(pairs)):
            g = Graph(n, tuple((u, v, 1) for i, (u, v) in enumerate(pairs) if subset >> i & 1))
            if not is_hamiltonian(g):
                continue
            result = solve(g)
            statuses[result.status] = statuses.get(result.status, 0) + 1
            fields = {**_result_json(result), "row_ops": result.counters.row_ops}
            digest.update(json.dumps(fields, sort_keys=True).encode() + b"\n")
    assert census == {3: {STATUS_OK: 1}, 4: {STATUS_OK: 10}, 5: {STATUS_OK: 208, STATUS_STUCK: 10}}
    assert digest.hexdigest() == CENSUS_SHA256
