import ast
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycletrim import (
    Graph,
    TooLarge,
    enumerate_tours,
    is_hamiltonian,
    min_tour,
    min_tour_by_enumeration,
    random_connected_graph,
    solve,
    tour_weight,
)
from cycletrim import oracle
from cycletrim.graphs import iter_bits
from cycletrim.solver import STATUS_NOT_HAMILTONIAN

from helpers import (
    all_neighbours,
    complete_bipartite,
    completable_rows_reference,
    cycle_graph,
    gate_search,
    held_karp_list_rows_reference,
    k4_golden,
    make_graph,
    min_tour_reference,
    path_graph,
    petersen,
    star_graph,
    theta,
    triangle,
)
from strategies import connected_graphs, hamiltonian_graphs


def hamilton_cycle(g):
    """The front gate's cycle, or None; ``tour_weight`` raises unless the
    cycle is a Hamilton cycle of ``g``."""
    cycle = gate_search(g, None)
    if cycle is not None:
        tour_weight(g, tuple(cycle))
    return cycle


def test_is_hamiltonian_basics():
    for g in (triangle(), theta(), k4_golden()):
        assert is_hamiltonian(g)
        assert hamilton_cycle(g) is not None
    assert not is_hamiltonian(path_graph(4))
    assert not is_hamiltonian(star_graph(3))
    assert not is_hamiltonian(petersen())
    assert not is_hamiltonian(make_graph(2, [(0, 1, 1)]))
    two_triangles = [(0, 1, 1), (0, 2, 1), (1, 2, 1), (3, 4, 1), (3, 5, 1), (4, 5, 1)]
    assert not is_hamiltonian(make_graph(6, two_triangles))


def test_is_hamiltonian_unbalanced_bipartite():
    # without the side-size check the backtracking never finishes on K_{11,12}
    assert not is_hamiltonian(complete_bipartite(11, 12))
    assert not is_hamiltonian(complete_bipartite(7, 8))
    assert is_hamiltonian(complete_bipartite(6, 6))
    assert hamilton_cycle(complete_bipartite(6, 6)) is not None


def test_min_tour_triangle():
    answer = min_tour(triangle(1, 3, 2))
    assert answer.hamiltonian
    assert answer.optimum_weight == 6
    assert answer.optimum_tour == (0, 1, 2)


def test_min_tour_k4():
    answer = min_tour(k4_golden())
    assert answer.optimum_weight == 14
    assert answer.optimum_tour == (0, 2, 1, 3)


def test_min_tour_theta():
    answer = min_tour(theta())
    assert answer.optimum_weight == 4
    assert answer.optimum_tour == (0, 2, 1, 3)


def test_min_tour_non_hamiltonian():
    answer = min_tour(petersen())
    assert not answer.hamiltonian
    assert answer.optimum_weight is None
    assert answer.optimum_tour is None


def test_min_tour_rejects_unequal_bipartite_sides(monkeypatch):
    # the side-size check settles K_{11,12} before any DP; the DP under the
    # first bound would pass the row cap and raise TooLarge
    def no_dp(*args):
        raise AssertionError("the Held-Karp DP ran")

    monkeypatch.setattr(oracle, "_held_karp", no_dp)
    answer = min_tour(complete_bipartite(11, 12))
    assert not answer.hamiltonian
    assert answer.optimum_weight is None


def test_min_tour_low_degree_allocates_nothing():
    # a 24-vertex path fails the degree test before the DP builds anything
    g = path_graph(24)
    g.weights  # cached on the graph, not part of the DP
    tracemalloc.start()
    try:
        answer = min_tour(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not answer.hamiltonian
    assert peak < 64 * 1024


def test_min_tour_fractional_weights():
    g = make_graph(3, [(0, 1, "0.5"), (0, 2, "1.25"), (1, 2, 2)])
    assert min_tour(g).optimum_weight == Fraction(15, 4)


def test_enumerate_k4():
    tours = enumerate_tours(k4_golden(), 100)
    assert len(tours) == 3
    assert sorted(w for _, w in tours) == [14, 15, 15]


def test_enumerate_theta_unique_tour():
    tours = enumerate_tours(theta(), 100)
    assert len(tours) == 1
    assert tours[0] == ((0, 2, 1, 3), 4)


def test_enumerate_four_cycle():
    assert len(enumerate_tours(cycle_graph(4), 100)) == 1


def test_enumerate_respects_limit():
    assert len(enumerate_tours(k4_golden(), 2)) == 2


def test_complete_graph_tour_count_is_the_enumeration_bound():
    # min_tour_by_enumeration enumerates with limit (n-1)!/2; on K_n that
    # is every tour, so no graph on n vertices has a tour beyond the bound
    for n in range(3, 8):
        k_n = make_graph(n, [(u, v, 1) for u in range(n) for v in range(u + 1, n)])
        bound = math.factorial(n - 1) // 2
        assert len(enumerate_tours(k_n, bound)) == bound
        assert len(enumerate_tours(k_n, bound + 1)) == bound


def test_size_caps():
    big_ring = cycle_graph(25)
    with pytest.raises(TooLarge):
        min_tour(big_ring)
    with pytest.raises(TooLarge):
        enumerate_tours(cycle_graph(11), 10)
    # the gate's search recurses once per vertex on its path
    assert is_hamiltonian(cycle_graph(24))
    for n in (25, 1501):
        with pytest.raises(TooLarge):
            is_hamiltonian(cycle_graph(n))


@given(connected_graphs(max_vertices=7))
@settings(max_examples=40)
def test_held_karp_agrees_with_enumeration(g):
    dp = min_tour(g)
    brute = min_tour_by_enumeration(g)
    assert dp.hamiltonian == brute.hamiltonian == is_hamiltonian(g)
    assert (hamilton_cycle(g) is not None) == dp.hamiltonian
    if dp.hamiltonian:
        assert dp.optimum_weight == brute.optimum_weight
        assert dp.optimum_tour is not None
        assert tour_weight(g, dp.optimum_tour) == dp.optimum_weight


@given(connected_graphs(max_vertices=7))
@settings(max_examples=25)
def test_held_karp_never_beats_a_real_tour(g):
    dp = min_tour(g)
    if not dp.hamiltonian:
        return
    for tour, weight in enumerate_tours(g, 500):
        assert dp.optimum_weight <= weight
        assert tour_weight(g, tour) == weight


WEIGHT_VALUES = (-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-3, 2))


@given(st.one_of(connected_graphs(max_vertices=9), hamiltonian_graphs(max_vertices=9)), st.data())
@settings(max_examples=150)
def test_min_tour_matches_reference_dp(g, data):
    assert min_tour(g) == min_tour_reference(g)
    # weights from a palette of one to three values, so equal-cost paths and
    # equal-weight optima are common and the tie-breaks decide the tour
    palette = data.draw(st.lists(st.sampled_from(WEIGHT_VALUES), min_size=1, max_size=3))
    weights = data.draw(
        st.lists(st.sampled_from(palette), min_size=g.edge_count, max_size=g.edge_count)
    )
    reweighted = Graph(g.vertex_count, tuple((u, v, w) for (u, v, _), w in zip(g.edges, weights)))
    assert min_tour(reweighted) == min_tour_reference(reweighted)


def test_min_tour_matches_reference_dp_at_scale():
    rng = random.Random(5)
    for n, p, hi in ((13, 0.5, 100), (14, 0.5, 3), (15, 0.5, 2)):
        g = random_connected_graph(rng, n, p, 1, hi)
        assert min_tour(g) == min_tour_reference(g)


def hamiltonian_draw(rng, n, p):
    while True:
        g = random_connected_graph(rng, n, p, 1, 100)
        if is_hamiltonian(g):
            assert hamilton_cycle(g) is not None
            return g


def ungated(g):
    """An equal copy of ``g`` that is not the graph in the front gate's memo."""
    return Graph(g.vertex_count, g.edges)


SPARSE_PALETTES = ((1,), (1, 2), (-1, 0, Fraction(1, 2)))


def reweighted(g, rng, palette):
    weights = [rng.choice(palette) for _ in g.edges]
    return Graph(g.vertex_count, tuple((u, v, w) for (u, v, _), w in zip(g.edges, weights)))


def test_min_tour_matches_reference_dp_on_sparse_draws(monkeypatch):
    # at edge probability 0.2 most visited sets are dead: the answer, tour
    # included, must still be the reference's, also when few distinct
    # weights make the tie-breaks decide. With unit weights every state has
    # cost plus lower bound equal to n, the weight of every tour, so the
    # strict bound prunes nothing and min_tour must allocate a row for
    # exactly the visited sets that completable states reach; with other
    # weights the bound may only prune more
    rng = random.Random(16)
    for n in (16, 17, 18):
        g = hamiltonian_draw(rng, n, 0.2)
        assert min_tour(g) == min_tour_reference(g)
        for palette in SPARSE_PALETTES:
            tied = reweighted(g, rng, palette)
            assert min_tour(tied) == min_tour_reference(tied)
        unit = Graph(n, tuple((u, v, 1) for u, v, _ in g.edges))
        rows = completable_rows_reference(g)
        monkeypatch.setattr(oracle, "HELD_KARP_MAX_ROWS", rows)
        assert min_tour(g).hamiltonian
        assert min_tour(unit).hamiltonian
        monkeypatch.setattr(oracle, "HELD_KARP_MAX_ROWS", rows - 1)
        with pytest.raises(TooLarge):
            min_tour(unit)
        monkeypatch.undo()


def test_min_tour_matches_reference_dp_on_dense_draws():
    # dense draws give the bounds the most to prune; few distinct weights
    # make a first tour of optimum weight common, so states whose cost plus
    # lower bound equals it must survive, and negative weights lower the bound
    rng = random.Random(21)
    for n in (12, 13, 14, 15):
        g = hamiltonian_draw(rng, n, 0.5)
        assert min_tour(g) == min_tour_reference(g)
        for palette in SPARSE_PALETTES:
            tied = reweighted(g, rng, palette)
            assert min_tour(tied) == min_tour_reference(tied)


def test_first_tour_is_a_hamilton_cycle_that_local_search_only_lowers():
    rng = random.Random(23)
    for n, p in ((8, 0.5), (12, 0.3), (14, 0.5), (16, 0.8)):
        g = hamiltonian_draw(rng, n, p)
        for graph in (g, *(reweighted(g, rng, palette) for palette in SPARSE_PALETTES)):
            # tour_weight raises unless the tour is a Hamilton cycle of graph
            table = oracle._weight_table(graph)
            tour = gate_search(graph, oracle.GATE_NODES)
            assert tour is not None
            weight = tour_weight(graph, tuple(tour))
            while oracle._two_opt(tour, table) or oracle._or_opt(tour, table):
                lowered = tour_weight(graph, tuple(tour))
                assert lowered < weight
                weight = lowered
            assert weight >= min_tour(graph).optimum_weight


def nodes_per_search(call) -> list[int]:
    """Search nodes of each ``_search_cycle`` run during ``call()``, in order."""
    counts = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "_search_cycle":
            counts.append(0)
        elif event == "call" and frame.f_code.co_name == "extend":
            counts[-1] += 1

    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(None)
    return counts


def searched_nodes(g, budget) -> int:
    """Search nodes the gate's search visits on ``g``, which has no Hamilton
    cycle, under ``budget``."""
    found = []
    (nodes,) = nodes_per_search(lambda: found.append(gate_search(g, budget)))
    assert found == [None]
    return nodes


def hubbed_cliques(k: int) -> Graph:
    """Three K_k, every vertex of which is joined to the same two hubs,
    numbered last: no Hamilton cycle, since taking out the two hubs leaves
    three parts, yet no vertex has degree 2."""
    n = 3 * k + 2
    cliques = [(c * k + i, c * k + j, 1) for c in range(3) for i in range(k) for j in range(i + 1, k)]
    return make_graph(n, cliques + [(x, hub, 1) for x in range(3 * k) for hub in (n - 2, n - 1)])


def test_first_tour_search_keeps_its_budget():
    # three triangles on two hubs pass every up-front test but have no
    # Hamilton cycle; the whole search takes 979 nodes, so under a budget of
    # 100 the search gives up after it
    g = hubbed_cliques(3)
    budget = 100
    assert searched_nodes(g, budget) <= budget + 1
    assert searched_nodes(g, None) > budget + 1  # the budget, not the search space, stopped it


@pytest.mark.parametrize("k", (5, 6))
def test_gate_gives_up_within_its_budget_and_the_dp_decides(k):
    # three K_5 or K_6 on two hubs pass every up-front test and have no
    # Hamilton cycle; the gate's whole search took 1.3 s and 35.9 s on them.
    # It gives up after GATE_NODES nodes, and the DP, without a first tour,
    # settles the verdict; nothing searches the graph a second time
    g = hubbed_cliques(k)
    verdicts = []
    nodes = nodes_per_search(lambda: verdicts.append(is_hamiltonian(g)))
    assert verdicts == [False]
    assert len(nodes) == 1
    assert nodes[0] <= oracle.GATE_NODES + 1
    started = time.perf_counter()
    assert solve(ungated(g)).status == STATUS_NOT_HAMILTONIAN
    assert time.perf_counter() - started < 10  # the DP takes about 0.8 s at k = 6


def test_min_tour_takes_a_settled_no_from_the_gate_without_the_dp(monkeypatch):
    # both pass every up-front check, and the gate's whole search finds no
    # Hamilton cycle within its budget (979 nodes on the hubbed triangles),
    # so min_tour on a fresh copy answers without a DP run
    runs = []
    run = oracle._held_karp

    def spy(*args):
        runs.append(args)
        return run(*args)

    monkeypatch.setattr(oracle, "_held_karp", spy)
    for g in (petersen(), hubbed_cliques(3)):
        assert not oracle._no_tour_up_front(g, all_neighbours(g))
        assert g is not oracle._gated[0]
        assert min_tour(g) == oracle.OracleAnswer(None, None)
    assert runs == []


def test_min_tour_takes_the_gate_dps_answer_after_a_give_up(monkeypatch):
    # with GATE_NODES 0 the gate gives up at once and its DP, without a
    # first tour, decides; min_tour on that graph returns the DP's answer,
    # the one it gives after a search that finds a cycle, and runs no
    # second DP
    rng = random.Random(3)
    graphs = [hamiltonian_draw(rng, 14, 0.5) for _ in range(3)]
    expected = [min_tour(g) for g in graphs]
    runs = []
    run = oracle._held_karp

    def spy(*args):
        runs.append(args)
        return run(*args)

    monkeypatch.setattr(oracle, "_held_karp", spy)
    monkeypatch.setattr(oracle, "GATE_NODES", 0)
    for g, answer in zip(graphs, expected):
        copy = ungated(g)
        assert is_hamiltonian(copy)
        gated = len(runs)
        assert gated
        assert min_tour(copy) == answer
        assert len(runs) == gated


def test_min_tour_answers_do_not_depend_on_the_gate_memo(monkeypatch):
    # right after is_hamiltonian(g), min_tour(g) reads the gate's masks and
    # cycle from its memo; on an equal copy the gate first checks and
    # searches the copy, once, under GATE_NODES. Answers and tours must be
    # equal, also on the seed-1 large_sparse benchmark inputs (draws 201,
    # 765, 857, 922 and 971 of random.Random(1) at n 18, p 0.2) on which the
    # search needs more than 8 nodes per vertex to find a cycle
    rng = random.Random(34)
    graphs = []
    for n in range(5, 17):
        for p in (0.3, 0.5):
            g = random_connected_graph(rng, n, p, 1, 100)
            graphs += [g, *(reweighted(g, rng, palette) for palette in SPARSE_PALETTES)]
    rng = random.Random(1)
    for draw in range(972):
        g = random_connected_graph(rng, 18, 0.2, 1, 100)
        if draw in (201, 765, 857, 922, 971):
            graphs.append(g)
    budgets = []
    search = oracle._search_cycle

    def spy(g, nbrs, budget):
        budgets.append(budget)
        return search(g, nbrs, budget)

    monkeypatch.setattr(oracle, "_search_cycle", spy)
    verdicts = set()
    for g in graphs:
        verdict = is_hamiltonian(g)
        answer = min_tour(g)
        budgets.clear()
        assert answer == min_tour(ungated(g))
        assert answer.hamiltonian == verdict
        verdicts.add(verdict)
        searched = not oracle._no_tour_up_front(g, all_neighbours(g))
        assert budgets == [oracle.GATE_NODES] * searched
    assert verdicts == {True, False}


def test_search_prunes_a_path_that_leaves_vertex_0_no_closing_edge():
    # two K_8 sharing vertex 7: no Hamilton cycle, and nothing but the
    # closing edge stops a path that crossed into the second K_8 having
    # visited all of the first. The search visits 14,529 nodes with that
    # prune and 2,620,209 without it
    g = make_graph(15, [
        (u, v, 1) for side in (range(0, 8), range(7, 15)) for u in side for v in side if u < v
    ])
    assert searched_nodes(g, None) < 20_000


def test_budgeted_search_finds_the_unbudgeted_cycle_or_none():
    # the budget only cuts the search short: whatever it finds is the cycle
    # the whole search finds first
    rng = random.Random(31)
    found = 0
    for n in range(8, 17):
        for p in (0.2, 0.35, 0.5):
            g = random_connected_graph(rng, n, p, 1, 100)
            whole = hamilton_cycle(g)
            for budget in (0, 1, n, 4 * n, 8 * n):
                cycle = gate_search(g, budget)
                assert cycle is None or cycle == whole
                found += cycle is not None
    assert found


def short_of_edges_without_capacity(nbrs, current, remaining):
    """``oracle._short_of_edges`` without its check of the vertices that need
    both their usable edges."""
    if not nbrs[0] & remaining:
        return True
    allowed = remaining | (1 << current) | 1
    return any((nbrs[x] & allowed).bit_count() < 2 for x in iter_bits(remaining))


def test_forced_edges_and_capacity_prunes_keep_the_first_cycle(monkeypatch):
    # each prune cuts only paths and inputs without a Hamilton cycle, so
    # with either patched to never fire the whole search returns the same
    # cycle, or None, and visits at least as many nodes; on these draws
    # each prune saves some
    nodes = 0
    check = oracle._short_of_edges

    def counting(*args):
        nonlocal nodes
        nodes += 1
        return check(*args)

    def search(g):
        nonlocal nodes
        nodes = 0
        return hamilton_cycle(g), nodes

    rng = random.Random(32)
    graphs = [random_connected_graph(rng, n, p, 1, 100)
              for n in range(6, 17) for p in (0.2, 0.35, 0.5) for _ in range(3)]
    monkeypatch.setattr(oracle, "_short_of_edges", counting)
    pruned = [search(g) for g in graphs]
    monkeypatch.setattr(oracle, "_forced_edges_rule_out", lambda nbrs: False)
    no_forced = [search(g) for g in graphs]
    monkeypatch.undo()
    check = short_of_edges_without_capacity
    monkeypatch.setattr(oracle, "_short_of_edges", counting)
    no_capacity = [search(g) for g in graphs]
    assert any(cycle is not None for cycle, _ in pruned)
    assert any(cycle is None and count for cycle, count in no_forced)
    for without in (no_forced, no_capacity):
        assert [cycle for cycle, _ in without] == [cycle for cycle, _ in pruned]
        assert all(a <= b for (_, a), (_, b) in zip(pruned, without))
        assert sum(count for _, count in pruned) < sum(count for _, count in without)


def short_of_edges(n, edges, path):
    """``oracle._short_of_edges`` for the path ``path`` from 0 on a unit-weight graph."""
    g = make_graph(n, [(u, v, 1) for u, v in edges])
    visited = sum(1 << v for v in path)
    return oracle._short_of_edges(all_neighbours(g), path[-1], ((1 << n) - 1) & ~visited)


def test_short_of_edges_counts_the_vertices_that_need_both_their_edges():
    # a vertex with exactly two usable neighbours needs an edge at both: an
    # unvisited vertex has two edges for them, the path's end and vertex 0
    # one each, and vertex 0 two at the root, where it is the path's end
    hubs = [(0, 1), (0, 5), (0, 6), (1, 5), (1, 6), (5, 6)]
    spokes = [(x, hub) for x in (2, 3, 4) for hub in (5, 6)]
    assert short_of_edges(7, hubs + spokes, [0, 1])  # 2, 3 and 4 all need 5 and 6
    assert not short_of_edges(7, hubs + spokes[:4] + [(4, 0), (4, 1)], [0, 1])
    ends = [(0, 1), (2, 4), (3, 4), (4, 5), (0, 4), (0, 5), (1, 5)]
    assert short_of_edges(6, ends + [(1, 2), (1, 3)], [0, 1])  # 2 and 3 need the end 1
    assert not short_of_edges(6, ends + [(1, 2), (3, 5)], [0, 1])
    assert short_of_edges(6, ends + [(0, 2), (0, 3)], [0, 1])  # 2 and 3 need 0
    root = ends + [(1, 4), (0, 2), (0, 3)]
    assert not short_of_edges(6, root, [0])  # which has two edges free at the root
    assert short_of_edges(7, root + [(0, 6), (5, 6)], [0])  # 2, 3 and 6 need 0


def test_gate_agrees_with_enumeration_on_sparse_draws():
    # sparse draws have many vertices of degree 2, where the forced edges decide
    rng = random.Random(33)
    verdicts = set()
    for n in range(4, 10):
        for p in (0.2, 0.3, 0.4):
            for _ in range(6):
                g = random_connected_graph(rng, n, p, 1, 100)
                verdict = is_hamiltonian(g)
                assert verdict == min_tour_by_enumeration(g).hamiltonian
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_forced_edges_reject_a_vertex_that_three_need():
    # 4, 5 and 6 have degree 2 and all need vertex 0, which can take two;
    # the K_4 on 0-3 makes the graph non-bipartite, and no vertex is left
    # with fewer than two usable edges
    g = make_graph(7, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)]
                   + [(0, 4, 1), (1, 4, 1), (0, 5, 1), (2, 5, 1), (0, 6, 1), (3, 6, 1)])
    assert oracle._no_tour_up_front(g, all_neighbours(g))
    assert not is_hamiltonian(g)


def test_forced_edges_reject_a_vertex_left_with_one_usable_edge():
    # 1, 3 and 5 have degree 2, so 2 and 4 get two forced edges each and
    # drop 0-2, 2-6, 0-4 and 4-6, which leaves 0 and 6 one usable edge each
    g = make_graph(7, [(0, 2, 1), (0, 4, 1), (0, 5, 1), (1, 2, 1), (1, 4, 1), (2, 3, 1),
                       (2, 6, 1), (3, 6, 1), (4, 5, 1), (4, 6, 1)])
    assert oracle._no_tour_up_front(g, all_neighbours(g))
    assert not is_hamiltonian(g)


def test_forced_edges_reject_a_forced_cycle_that_misses_a_vertex():
    # 1 and 2 have degree 2, so the triangle 0-1-2 is forced and drops the
    # edge 0-3; 3 keeps three edges into the K_4 on 3-6, so only the short
    # forced cycle rules out a Hamilton cycle
    g = make_graph(7, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 3, 1)]
                   + [(u, v, 1) for u in range(3, 7) for v in range(u + 1, 7)])
    assert oracle._no_tour_up_front(g, all_neighbours(g))
    assert not is_hamiltonian(g)


def test_min_tour_row_budget(monkeypatch):
    # every visited set at n <= 20 fits, so the measured n = 20 case runs
    assert oracle.HELD_KARP_MAX_ROWS >= 1 << 19
    g = hamiltonian_draw(random.Random(14), 14, 0.5)
    g.weights  # cached on the graph, not part of the DP
    assert min_tour(g).hamiltonian  # about 2 MB of rows under the real budget
    monkeypatch.setattr(oracle, "HELD_KARP_MAX_ROWS", 256)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="256 rows"):
            min_tour(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 256 rows, each a dict of the ends reached, with the queue of sets and
    # their limits, take under 100 KiB (about 80 KiB on CPython 3.11)
    assert peak < 256 * 1024


def test_min_tour_row_budget_bounds_memory_at_24_vertices(monkeypatch):
    # an index of every visited set would be 2^23 slots, 64 MiB, before the
    # budget could act; only the allocated rows may take memory
    g = hamiltonian_draw(random.Random(24), 24, 0.5)
    g.weights  # cached on the graph, not part of the DP
    monkeypatch.setattr(oracle, "HELD_KARP_MAX_ROWS", 256)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="256 rows"):
            min_tour(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_guessed_bounds_keep_the_reference_answer(monkeypatch):
    # min_tour runs the DP under guessed bounds before the first tour's:
    # answers and tours, ties included, must stay the reference's, on
    # negative and fractional weights and without a Hamilton cycle. With
    # GATE_NODES 0 the gate gives up at once and its DP runs without a first
    # tour; the cycle it keeps is then the reference's optimum tour
    runs = []
    run = oracle._held_karp

    def spy(*args):
        found = run(*args)
        runs.append("none" if found is None else "found")
        return found

    monkeypatch.setattr(oracle, "_held_karp", spy)
    rng = random.Random(27)
    graphs = [petersen()]
    for n in (6, 8, 10, 12):
        for p in (0.3, 0.6):
            g = random_connected_graph(rng, n, p, 1, 100)
            graphs += [g, *(reweighted(g, rng, palette) for palette in SPARSE_PALETTES)]
    for gate_nodes in (oracle.GATE_NODES, 0):
        monkeypatch.setattr(oracle, "GATE_NODES", gate_nodes)
        for g in graphs:
            copy = ungated(g)  # not in the gate's memo, so the gate runs
            expected = min_tour_reference(copy)
            assert min_tour(copy) == expected
            if not gate_nodes:
                assert oracle._gated[2] == expected.optimum_tour
    assert {"none", "found"} <= set(runs)


def test_guessed_bounds_finish_within_a_budget_the_first_bound_exceeds(monkeypatch):
    # without a first tour the DP is bounded only by n times the heaviest
    # weight and needs 7,267 rows on this draw; the guess that closes a
    # tour needs 258. With GATE_NODES 0 the gate gives up at once and runs
    # that DP. The draw was gated, so a copy is used
    g = ungated(hamiltonian_draw(random.Random(28), 14, 0.5))
    nbrs = all_neighbours(g)
    bound, a1, a2 = oracle._bounds(g, None)
    assert bound == 14 * max(g.weights)
    monkeypatch.setattr(oracle, "HELD_KARP_MAX_ROWS", 1000)
    with pytest.raises(TooLarge, match="1000 rows"):
        oracle._held_karp(g, nbrs, a1, a2, 2 * bound)
    monkeypatch.setattr(oracle, "GATE_NODES", 0)
    assert min_tour(g) == min_tour_reference(g)


def bounds(g):
    """``_bounds`` as ``min_tour`` calls it: with a copy of the gate's cycle
    as the first tour."""
    cycle = oracle._gate(g)[2]
    return oracle._bounds(g, None if cycle is None else list(cycle))


def rows_needed(*args, dp=None):
    """The least row budget under which ``dp(*args)`` finishes, by default
    ``_held_karp(*args)``."""
    dp = dp or oracle._held_karp
    low, high = 0, oracle.HELD_KARP_MAX_ROWS
    while high - low > 1:
        mid = (low + high) // 2
        try:
            with patch.object(oracle, "HELD_KARP_MAX_ROWS", mid):
                dp(*args)
            high = mid
        except TooLarge:
            low = mid
    return high


def test_guesses_pass_the_row_budget_only_where_the_first_bound_does(monkeypatch):
    # every DP runs on the pairs aimed at the first bound, so a guess
    # allocates only rows the DP under that bound allocates too: with the
    # budget around the rows that DP needs, min_tour raises TooLarge only
    # where that DP raises, and otherwise returns the reference answer
    graphs = [make_graph(11, [
        (0, 2, 2), (0, 3, 1), (0, 4, 2), (0, 6, 1), (0, 8, 1), (1, 2, 1), (1, 3, 1),
        (1, 5, 1), (1, 6, 1), (1, 7, 1), (1, 8, 1), (1, 9, 1), (2, 3, 2), (2, 8, 2),
        (3, 5, 2), (3, 7, 2), (3, 8, 2), (4, 6, 2), (4, 8, 2), (4, 10, 2), (5, 10, 1),
        (6, 7, 2), (6, 8, 1), (6, 9, 2), (6, 10, 1), (7, 9, 1),
    ])]
    rng = random.Random(31)
    for n in (8, 10, 12):
        g = hamiltonian_draw(rng, n, 0.5)
        graphs += [g, reweighted(g, rng, (1, 2))]
    outcomes = set()
    for g in graphs:
        nbrs = all_neighbours(g)
        bound, a1, a2 = bounds(g)
        first = (g, nbrs, a1, a2, 2 * bound)
        need = rows_needed(*first)
        expected = min_tour_reference(g)
        for rows in (need // 2, need - 1, need, need + 1, need + 2):
            monkeypatch.setattr(oracle, "HELD_KARP_MAX_ROWS", rows)
            try:
                answer = min_tour(g)
            except TooLarge:
                with pytest.raises(TooLarge):
                    oracle._held_karp(*first)
                outcomes.add("raised")
                continue
            assert answer == expected
            outcomes.add("answered")
    assert outcomes == {"raised", "answered"}


def kernel_runs(g):
    """The arguments of ``_held_karp`` as ``_optimum`` builds them on ``g``,
    scaled to ints: under the first bound and under the first guess; none
    when the gate's up-front checks rule out a tour, as the DP never runs."""
    scale = math.lcm(*(w.denominator for w in g.weights))
    graph = Graph(g.vertex_count, tuple((u, v, w * scale) for u, v, w in g.edges))
    nbrs = all_neighbours(graph)
    if oracle._no_tour_up_front(graph, nbrs):
        return []
    bound, a1, a2 = bounds(graph)
    rise = (max(graph.weights) - min(graph.weights)) // 4 or 1
    return [(graph, nbrs, a1, a2, 2 * bound), (graph, nbrs, a1, a2, sum(a1) + sum(a2) + rise)]


def assert_kernel_matches_list_rows(g):
    # dict rows, bound-ordered steps and the bitmask completability scan
    # change only the order of the DP's writes: answers, tours and the rows
    # allocated must be those of the list-row kernel
    for args in kernel_runs(g):
        assert oracle._held_karp(*args) == held_karp_list_rows_reference(*args)
        assert rows_needed(*args) == rows_needed(*args, dp=held_karp_list_rows_reference)


def tied(g):
    return Graph(g.vertex_count, tuple((u, v, 1 + w % 2) for u, v, w in g.edges))


def signed(g):
    palette = (-1, 0, Fraction(1, 2))
    return Graph(g.vertex_count, tuple((u, v, palette[w % 3]) for u, v, w in g.edges))


def test_held_karp_matches_the_list_row_kernel():
    rng = random.Random(32)
    # the last three draws have the large_sparse workload's shape
    draws = [(n, p) for n in range(5, 15) for p in (0.3, 0.6)] + [(n, 0.2) for n in (16, 18, 20)]
    for n, p in draws:
        g = hamiltonian_draw(rng, n, p)
        for graph in (g, tied(g), signed(g)):
            assert_kernel_matches_list_rows(graph)


@given(st.one_of(connected_graphs(max_vertices=9), hamiltonian_graphs(max_vertices=9)), st.data())
@settings(max_examples=60)
def test_held_karp_matches_the_list_row_kernel_on_drawn_graphs(g, data):
    palette = data.draw(st.lists(st.sampled_from(WEIGHT_VALUES), min_size=1, max_size=3))
    weights = data.draw(
        st.lists(st.sampled_from(palette), min_size=g.edge_count, max_size=g.edge_count)
    )
    assert_kernel_matches_list_rows(g)
    assert_kernel_matches_list_rows(
        Graph(g.vertex_count, tuple((u, v, w) for (u, v, _), w in zip(g.edges, weights)))
    )


def test_first_guess_runs_before_the_first_bound_on_its_pairs(monkeypatch):
    # a first tour above the optimum leaves room for a guess below it: the
    # first DP runs under that guess, and every DP with the pairs aimed at
    # the first bound
    rng = random.Random(29)
    while True:
        g = hamiltonian_draw(rng, 12, 0.5)
        bound, a1, a2 = bounds(g)
        if bound > min_tour_reference(g).optimum_weight:
            break
    calls = []
    run = oracle._held_karp

    def spy(graph, nbrs, b1, b2, target):
        calls.append((b1, b2, target))
        return run(graph, nbrs, b1, b2, target)

    monkeypatch.setattr(oracle, "_held_karp", spy)
    assert min_tour(g) == min_tour_reference(g)
    assert calls[0][2] < 2 * bound
    assert all((b1, b2) == (a1, a2) for b1, b2, _ in calls)


def test_fractional_weights_run_on_ints_and_keep_the_tours_weight(monkeypatch):
    # a graph with fractional weights is scaled to ints for the bounds and
    # the DP; the optimum weight is then the tour's own, value and type
    weights_seen = []
    run = oracle._held_karp

    def spy(graph, *args):
        weights_seen.extend(graph.weights)
        return run(graph, *args)

    monkeypatch.setattr(oracle, "_held_karp", spy)
    rng = random.Random(30)
    for n in (6, 9, 12):
        g = hamiltonian_draw(rng, n, 0.5)
        for palette in ((-1, 0, Fraction(1, 2)), (Fraction(1, 3), Fraction(3, 4), 2)):
            graph = reweighted(g, rng, palette)
            answer = min_tour(graph)
            assert answer == min_tour_reference(graph)
            assert repr(answer.optimum_weight) == repr(tour_weight(graph, answer.optimum_tour))
    assert weights_seen and all(type(w) is int for w in weights_seen)


def two_lightest_sum(g):
    around = [[] for _ in range(g.vertex_count)]
    for u, v, w in g.edges:
        around[u].append(w)
        around[v].append(w)
    return sum(sum(sorted(ws)[:2]) for ws in around)


def test_penalised_lower_bound_is_below_every_tour():
    # min_tour's a1 <= a2 are the two lightest reduced weights at each vertex:
    # half their sum must stay at most the weight of every tour, whatever the
    # penalties, and must not fall below the bound without penalties. On
    # weights 1-100 the penalties should raise it on most draws
    rng = random.Random(26)
    raised = draws = 0
    for n in (4, 5, 6, 7, 8):
        for p in (0.4, 0.7, 1.0):
            g = hamiltonian_draw(rng, n, p)
            for graph in (g, *(reweighted(g, rng, palette) for palette in SPARSE_PALETTES)):
                _, a1, a2 = bounds(graph)
                penalised = sum(a1) + sum(a2)
                plain = two_lightest_sum(graph)
                assert penalised >= plain
                for _, weight in enumerate_tours(graph, math.factorial(n - 1) // 2):
                    assert penalised <= 2 * weight
                if graph is g:
                    draws += 1
                    raised += penalised > plain
    assert raised > draws // 2


def call_sites(name: str) -> list[tuple[str, str]]:
    """``(module file, innermost enclosing function)`` of every call of
    ``name``, as a name or an attribute, in ``src/cycletrim``."""
    sites = []
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            elif isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    sites.append((path.name, where))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(path.read_text()), "<module>")
    return sites


def test_only_the_gate_checks_up_front_and_searches():
    # one route into the oracle: a second caller of either would check or
    # search a graph outside the gate and its memo
    for name in ("_no_tour_up_front", "_search_cycle"):
        assert call_sites(name) == [("oracle.py", "_gate")]
