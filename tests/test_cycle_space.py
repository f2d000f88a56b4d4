import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cycletrim import (
    CycleBasis,
    Graph,
    NotConnected,
    count_covers,
    edges_with_cover,
    fundamental_basis,
)
from cycletrim.graphs import iter_bits

from helpers import (
    fundamental_basis_reference,
    gf2_rank,
    gf2_sum,
    is_simple_cycle,
    k4_golden,
    make_graph,
    path_graph,
    petersen,
    theta,
    triangle,
    wheel5,
)
from strategies import connected_graphs


def test_triangle_basis():
    b = fundamental_basis(triangle())
    assert b.dimension == 1
    assert b.cycles[0].bit_count() == 3
    assert b.cover_counts == (1, 1, 1)


def test_theta_basis():
    g = theta()
    b = fundamental_basis(g)
    assert b.dimension == 2
    # both fundamental cycles are the triangles through the shared edge ab
    ab = g.edge_index(0, 1)
    expected = {
        (1 << ab) | (1 << g.edge_index(0, 2)) | (1 << g.edge_index(1, 2)),
        (1 << ab) | (1 << g.edge_index(0, 3)) | (1 << g.edge_index(1, 3)),
    }
    assert set(b.cycles) == expected
    assert b.cover_counts[ab] == 2
    assert all(
        b.cover_counts[e] == 1 for e in range(g.edge_count) if e != ab
    )


def test_basis_is_its_graph_and_rows():
    # cover counts are derived from the rows; equality and hash see only the
    # graph and the rows, not what is derived or memoised
    g = wheel5()
    b = fundamental_basis(g)
    assert b.cover_counts == count_covers(g.edge_count, b.cycles)
    assert [f.name for f in dataclasses.fields(CycleBasis) if f.compare] == ["graph", "cycles"]
    twin = CycleBasis(g, b.cycles)
    twin._retained_sets[0] = twin._cluster_tags[1] = None
    assert twin == b and hash(twin) == hash(b)
    assert twin.cover_counts == b.cover_counts
    assert CycleBasis(g, b.cycles[1:]) != b
    assert CycleBasis(g, b.cycles[1:]).cover_counts == count_covers(g.edge_count, b.cycles[1:])


def test_tree_has_empty_basis():
    b = fundamental_basis(path_graph(5))
    assert b.dimension == 0
    assert b.cover_counts == (0,) * 4


def test_basis_matches_the_parent_walk_reference_on_every_small_graph():
    # every connected labelled graph on 1 to 5 vertices, each edge subset of
    # K_n in the order of its bitmask, the n <= 5 census's graphs among them
    for n in range(1, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for subset in range(1 << len(pairs)):
            g = Graph(n, tuple((u, v, 1) for i, (u, v) in enumerate(pairs) if subset >> i & 1))
            try:
                expected = fundamental_basis_reference(g)
            except ValueError:
                with pytest.raises(NotConnected):
                    fundamental_basis(g)
                continue
            assert fundamental_basis(g) == expected


@given(connected_graphs(max_vertices=12))
def test_basis_matches_the_parent_walk_reference(g):
    assert fundamental_basis(g) == fundamental_basis_reference(g)


def test_basis_requires_connected():
    g = make_graph(4, [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(NotConnected):
        fundamental_basis(g)


@given(connected_graphs())
def test_basis_dimension_and_rank(g):
    b = fundamental_basis(g)
    assert b.dimension == g.edge_count - g.vertex_count + 1
    rows = list(b.cycles)
    assert gf2_rank(rows) == b.dimension
    assert count_covers(g.edge_count, rows) == b.cover_counts


@given(connected_graphs())
def test_fundamental_cycles_are_simple(g):
    b = fundamental_basis(g)
    for c in b.cycles:
        assert c.bit_count() >= 3
        assert is_simple_cycle(g, c)


@given(connected_graphs())
def test_chord_columns_have_single_one(g):
    b = fundamental_basis(g)
    # each cycle owns exactly one cover-1 edge that no other cycle touches
    chords = 0
    for c in b.cycles:
        own = [
            e
            for e in iter_bits(c)
            if b.cover_counts[e] == 1
        ]
        assert own
        chords += 1
    assert chords == b.dimension


def test_gf2_sum():
    x = 0b1011
    assert gf2_sum([x]) == x
    assert gf2_sum([x, x]) == 0
    g = theta()
    b = fundamental_basis(g)
    quad = gf2_sum(b.cycles)
    # the shared edge ab cancels, leaving the 4-cycle a-c-b-d-a
    expected = sum(
        1 << g.edge_index(u, v) for u, v in [(0, 2), (1, 2), (0, 3), (1, 3)]
    )
    assert quad == expected


@given(connected_graphs(), st.data())
def test_gf2_sum_matches_parity(g, data):
    b = fundamental_basis(g)
    if b.dimension == 0:
        return
    subset = data.draw(
        st.lists(st.integers(0, b.dimension - 1), unique=True, max_size=b.dimension)
    )
    rows = [b.cycles[i] for i in subset]
    total = gf2_sum(rows)
    for e in range(g.edge_count):
        parity = sum((r >> e) & 1 for r in rows) % 2
        assert ((total >> e) & 1) == parity


def test_edges_with_cover():
    g = theta()
    b = fundamental_basis(g)
    assert edges_with_cover(b.cover_counts, 1) == sum(
        1 << e for e in range(g.edge_count) if e != g.edge_index(0, 1)
    )
    assert edges_with_cover(b.cover_counts, 2) == 1 << g.edge_index(0, 1)
    assert edges_with_cover(b.cover_counts, 3) == 0
    tri = fundamental_basis(triangle())
    assert edges_with_cover(tri.cover_counts, 1) == 0b111


def test_bridgeless_corpus_fully_covered():
    for g in (triangle(), theta(), k4_golden(), petersen(), wheel5()):
        b = fundamental_basis(g)
        assert all(c >= 1 for c in b.cover_counts)
