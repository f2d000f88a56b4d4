import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given

from cycletrim import (
    Graph,
    GraphError,
    NotConnected,
    ParseError,
    is_connected,
    parse_graph,
    serialize_graph,
    tour_from_edge_mask,
    tour_weight,
)
from cycletrim.graphs import (
    format_weight,
    iter_bits,
    mask_degrees,
    mask_neighbours,
    mask_weight,
    reach,
)
from cycletrim.removability import REDUCED_CYCLE_GRAPH, reduce_cluster

from helpers import (
    all_neighbours,
    cycle_graph,
    k4_golden,
    make_graph,
    path_graph,
    reduce_cluster_random,
    star_graph,
    triangle,
)
from strategies import connected_graphs


def test_parse_triangle():
    g = parse_graph("0 1 1\n1 2 1\n0 2 1")
    assert g.vertex_count == 3
    assert g.edge_count == 3
    assert g.edges == ((0, 1, 1), (0, 2, 1), (1, 2, 1))


def test_parse_duplicate_edge():
    with pytest.raises(ParseError, match="duplicate"):
        parse_graph("0 1 5\n0 1 3")
    with pytest.raises(ParseError, match="duplicate"):
        parse_graph("0 1 5\n1 0 3")


def test_parse_disconnected():
    with pytest.raises(NotConnected):
        parse_graph("0 1 1\n2 3 1")


def test_parse_self_loop():
    with pytest.raises(ParseError, match="self-loop"):
        parse_graph("0 0 1")


def test_parse_vertex_gap():
    with pytest.raises(ParseError, match="missing"):
        parse_graph("0 1 1\n1 3 1\n0 3 1")


@pytest.mark.parametrize(
    "text",
    [
        "1 100000 1\n",  # one edge naming a huge id: gap of 99999 ids
        "0 1 1\n1 0_2 1\n0 2 1\n",  # int() reads 0_2 as 2
        "0 \u0661 1\n",  # ARABIC-INDIC DIGIT ONE, which int() reads as 1
        "0 1 1\n1 2 1\n-0 2 1\n",  # int() reads -0 as 0
        "0 " + "9" * 5000 + " 1\n",  # more digits than int() converts
    ],
    ids=["huge_id", "underscore", "non_ascii_digit", "minus_zero", "too_many_digits"],
)
def test_parse_rejects_hostile_ids_with_short_message(text):
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert len(str(info.value)) < 200


def test_parse_caps_weight_integer_digits():
    # 18 integer digits parse exactly; more are refused before any conversion
    g = parse_graph("0 1 -999999999999999999.5\n1 2 1\n0 2 1\n")
    assert g.weights[0] == Fraction(-1999999999999999999, 2)
    for weight in ("9" * 19, "1" + "0" * 18 + ".5", "9" * 5000):
        with pytest.raises(ParseError, match="weight") as info:
            parse_graph(f"0 1 {weight}\n1 2 1\n0 2 1\n")
        assert len(str(info.value)) < 200


def test_parse_malformed_line():
    with pytest.raises(ParseError):
        parse_graph("0 1")
    with pytest.raises(ParseError):
        parse_graph("a b 1")
    with pytest.raises(ParseError):
        parse_graph("")


def test_parse_comments_and_blanks():
    g = parse_graph("# a triangle\n\n0 1 1\n1 2 1\n  # mid comment\n0 2 1\n")
    assert g.edge_count == 3


def test_parse_weights_exact():
    g = parse_graph("0 1 1.5\n1 2 -0.000001\n0 2 2.000")
    assert g.weights == (Fraction(3, 2), 2, Fraction(-1, 10**6))
    # integral weights are stored as int, the rest as Fraction
    assert [type(w) for w in g.weights] == [Fraction, int, Fraction]
    with pytest.raises(ParseError, match="weight"):
        parse_graph("0 1 1.2345678\n1 2 1\n0 2 1")
    with pytest.raises(ParseError, match="weight"):
        parse_graph("0 1 \u0661.\u0665\n1 2 1\n0 2 1")  # Arabic-Indic 1.5


def test_round_trip_golden():
    text = "0 1 1.5\n0 2 3\n1 2 -2\n"
    g = parse_graph(text)
    assert serialize_graph(g) == text
    assert parse_graph(serialize_graph(g)) == g


@given(connected_graphs())
def test_round_trip_property(g):
    assert parse_graph(serialize_graph(g)) == g


def test_constructor_normalizes():
    g = Graph(3, ((2, 0, Fraction(3)), (1, 0, Fraction(1)), (1, 2, Fraction(2))))
    assert g.edges == ((0, 1, 1), (0, 2, 3), (1, 2, 2))
    assert all(type(w) is int for w in g.weights)
    half = Graph(2, ((0, 1, Fraction(3, 2)),)).weights[0]
    assert type(half) is Fraction and half == Fraction(3, 2)
    with pytest.raises(GraphError):
        Graph(0, ())
    with pytest.raises(GraphError):
        Graph(2, ((0, 5, Fraction(1)),))


def _edge_list_neighbours(g: Graph, mask: int) -> list[set[int]]:
    # per vertex, its neighbours along the edges in ``mask``, read off the edge list
    around: list[set[int]] = [set() for _ in range(g.vertex_count)]
    for e, (u, v, _) in enumerate(g.edges):
        if (mask >> e) & 1:
            around[u].add(v)
            around[v].add(u)
    return around


def test_degree():
    # degrees are bit counts of the neighbour masks, and mask_degrees agrees
    cases = ((triangle(), [2, 2, 2]), (k4_golden(), [3, 3, 3, 3]), (star_graph(3), [3, 1, 1, 1]))
    for g, degrees in cases:
        full = (1 << g.edge_count) - 1
        assert [len(around) for around in _edge_list_neighbours(g, full)] == degrees
        assert [m.bit_count() for m in all_neighbours(g)] == degrees
        assert mask_degrees(g, full) == degrees


def test_is_cycle_graph():
    # a graph is one spanning cycle iff its full edge mask yields a tour
    def is_cycle_graph(g):
        return tour_from_edge_mask(g, (1 << g.edge_count) - 1) is not None

    assert is_cycle_graph(triangle())
    assert is_cycle_graph(cycle_graph(6))
    assert not is_cycle_graph(k4_golden())
    assert not is_cycle_graph(path_graph(4))


def test_is_connected():
    assert is_connected(1, [])
    assert is_connected(4, [(0, 1), (1, 2), (3, 2)])
    assert not is_connected(4, [(0, 1), (2, 3)])
    assert not is_connected(3, [(0, 1)])


def _random_edge_subset(rng: random.Random) -> tuple[Graph, int]:
    n = rng.randint(1, 12)
    p = rng.choice([0.2, 0.5, 0.8])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    g = Graph(n, tuple((u, v, 1) for u, v in pairs))
    return g, rng.getrandbits(g.edge_count)


def test_mask_neighbours_matches_adjacency():
    rng = random.Random(41)
    for _ in range(400):
        g, mask = _random_edge_subset(rng)
        nbrs = mask_neighbours(g, mask)
        assert len(nbrs) == g.vertex_count
        assert [set(iter_bits(m)) for m in nbrs] == _edge_list_neighbours(g, mask)
        full = (1 << g.edge_count) - 1
        assert [set(iter_bits(m)) for m in all_neighbours(g)] == _edge_list_neighbours(g, full)


def _bfs_reference(g: Graph, mask: int, start: int, within: set[int]) -> set[int]:
    # start and what a plain queue BFS reaches from it through ``within``,
    # along the edges in ``mask``
    around = _edge_list_neighbours(g, mask)
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in around[x]:
            if y in within and y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def test_reach_matches_bfs():
    rng = random.Random(43)
    for _ in range(600):
        g, mask = _random_edge_subset(rng)
        n = g.vertex_count
        start = rng.randrange(n)
        within = rng.getrandbits(n) if rng.random() < 0.7 else (1 << n) - 1
        got = reach(mask_neighbours(g, mask), start, within)
        assert set(iter_bits(got)) == _bfs_reference(g, mask, start, set(iter_bits(within)))


def test_tour_from_edge_mask():
    square = cycle_graph(4)
    full = (1 << 4) - 1
    assert tour_from_edge_mask(square, full) == (0, 1, 2, 3)
    assert tour_from_edge_mask(square, full & ~1) is None
    k4 = k4_golden()
    mask = sum(
        1 << k4.edge_index(u, v) for u, v in [(0, 2), (2, 1), (1, 3), (3, 0)]
    )
    assert tour_from_edge_mask(k4, mask) == (0, 2, 1, 3)
    assert mask_weight(k4, mask) == 14


def test_tour_weight():
    k4 = k4_golden()
    assert tour_weight(k4, (0, 2, 1, 3)) == 14
    with pytest.raises(GraphError):
        tour_weight(k4, (0, 1, 2))
    with pytest.raises(GraphError):
        tour_weight(make_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]), (0, 2, 1, 3))


def test_format_weight():
    assert format_weight(Fraction(5)) == "5"
    assert format_weight(Fraction(-3, 2)) == "-1.5"
    assert format_weight(Fraction(1, 10**6)) == "0.000001"
    with pytest.raises(GraphError):
        format_weight(Fraction(1, 3))


def test_smooth_out_triangle_blocked():
    # a triangle with a pendant edge: vertices 0 and 1 have degree 2, but
    # smoothing either would double the edge between its adjacent neighbors,
    # so only the pendant edge goes and the triangle survives whole
    g = make_graph(4, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1)])
    expected = (("delete_edge", 2, 3),)
    out = reduce_cluster(all_neighbours(g))
    assert out.tag == REDUCED_CYCLE_GRAPH
    assert out.steps == expected
    for seed in range(5):
        out = reduce_cluster_random(g, random.Random(seed))
        assert out.tag == REDUCED_CYCLE_GRAPH
        assert out.steps == expected
