"""Weighted simple-graph model and edge-list text I/O.

Graphs are immutable: vertices are ``0..vertex_count-1`` and each edge is an
unordered pair carrying an exact weight, stored by :func:`exact_weight` as
``int`` when integral and as :class:`~fractions.Fraction` otherwise; mixed
int/Fraction arithmetic is exact, so no other module picks a weight type.
The edge list is kept in canonical order (sorted by endpoints) and the
position of an edge in :attr:`Graph.edges` is its edge index; edge subsets are
passed around as integer bitmasks over those indices, and vertex subsets as
integer bitmasks over vertex ids. Past the parser, adjacency takes one
form: a list with one bitmask of neighbours per vertex, built by
:func:`mask_neighbours` for any edge subset and walked by :func:`reach`.
A reader that needs an edge's index or weight takes it from
:meth:`Graph.edge_index` or from :attr:`Graph.edges`, whose canonical order
lists each vertex's neighbours in ascending id order.

Edge-list text format: UTF-8, one ``u v w`` triple per line, whitespace
separated. Lines whose first non-blank character is ``#`` are comments and
blank lines are ignored. Vertex ids are plain ASCII decimal digits and must
cover ``0..n-1`` with no gaps.
Weights are decimals with at most 18 integer and six fractional digits (the
documented 10^-6 scale); they are parsed exactly and may be negative.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

Weight = int | Fraction

#: finest weight step representable in the text format
WEIGHT_SCALE = 10**6


class GraphError(ValueError):
    """Base class for graph construction and I/O failures."""


class ParseError(GraphError):
    pass


class NotConnected(GraphError):
    pass


def exact_weight(w) -> Weight:
    """``w`` as a weight: an ``int`` unchanged, anything else as a
    :class:`~fractions.Fraction`, reduced to ``int`` when it is integral."""
    if type(w) is int:  # the common case: every random draw's weights are ints
        return w
    w = Fraction(w)
    return w.numerator if w.denominator == 1 else w


# at most 18 integer digits, far inside what int() converts
_WEIGHT_RE = re.compile(r"[+-]?[0-9]{1,18}(?:\.[0-9]{1,6})?")
#: longest bad weight a parse error quotes in full
_WEIGHT_SHOWN = 30
_VERTEX_ID_RE = re.compile(r"[0-9]+")

#: how many missing vertex ids a parse error lists
_MISSING_IDS_SHOWN = 10


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with exact edge weights.

    ``edges`` is normalised on construction: endpoints oriented ``u < v``,
    weights made exact by :func:`exact_weight`, and the list sorted by
    endpoint pair. Self-loops and duplicate pairs are rejected. Connectivity
    is *not* required here (reduction code works on arbitrary subgraphs);
    :func:`parse_graph` enforces it for external inputs.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, Weight], ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise GraphError("vertex_count must be at least 1")
        seen: set[tuple[int, int]] = set()
        canon = []
        for u, v, w in self.edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise GraphError(f"edge ({u}, {v}) outside 0..{self.vertex_count - 1}")
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in seen:
                raise GraphError(f"duplicate edge ({a}, {b})")
            seen.add((a, b))
            canon.append((a, b, exact_weight(w)))
        canon.sort(key=lambda e: (e[0], e[1]))
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def weights(self) -> tuple[Weight, ...]:
        return tuple(w for _, _, w in self.edges)

    @cached_property
    def _edge_lookup(self) -> dict[tuple[int, int], int]:
        return {(u, v): i for i, (u, v, _) in enumerate(self.edges)}

    def edge_index(self, u: int, v: int) -> int:
        """Index of edge ``{u, v}``; raises KeyError if absent."""
        return self._edge_lookup[(u, v) if u < v else (v, u)]

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_lookup


def is_connected(vertex_count: int, pairs: Iterable[tuple[int, int]]) -> bool:
    """True iff the edges ``pairs`` join vertices ``0..vertex_count-1`` into one component.

    Walks lists, not :func:`mask_neighbours` bitmasks: it runs on parsed
    input of unbounded size, where ``vertex_count`` masks of ``vertex_count``
    bits would take memory quadratic in it.
    """
    nbrs: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = [False] * vertex_count
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        x = stack.pop()
        for y in nbrs[x]:
            if not seen[y]:
                seen[y] = True
                reached += 1
                stack.append(y)
    return reached == vertex_count


# ---------------------------------------------------------------------------
# edge-list text I/O
# ---------------------------------------------------------------------------

def parse_weight(text: str) -> Weight:
    if not _WEIGHT_RE.fullmatch(text):
        shown = text if len(text) <= _WEIGHT_SHOWN else text[:_WEIGHT_SHOWN] + "..."
        raise ParseError(
            f"bad weight {shown!r} (decimal with at most 18 integer and 6 fractional digits)"
        )
    return exact_weight(text)


def format_weight(w: Weight) -> str:
    """Exact decimal rendering of a weight on the 10^-6 grid."""
    if w.denominator == 1:
        return str(w.numerator)
    scaled = w * WEIGHT_SCALE
    if scaled.denominator != 1:
        raise GraphError(f"weight {w} is not representable at the 1e-6 scale")
    sign = "-" if scaled < 0 else ""
    ip, fp = divmod(abs(scaled.numerator), WEIGHT_SCALE)
    frac = str(fp).rjust(6, "0").rstrip("0")
    return f"{sign}{ip}.{frac}"


def parse_graph(text: str) -> Graph:
    """Parse edge-list text into a connected :class:`Graph`.

    Raises :class:`ParseError` for malformed lines, self-loops, duplicate
    edges or gaps in the vertex ids, and :class:`NotConnected` when the
    described graph is not a single component.
    """
    edges: list[tuple[int, int, Weight]] = []
    seen_pairs: set[tuple[int, int]] = set()
    seen_vertices: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'u v w', got {raw!r}")
        if not all(_VERTEX_ID_RE.fullmatch(t) for t in parts[:2]):
            raise ParseError(f"line {lineno}: vertex ids must be ASCII digits 0-9")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:  # more digits than int() converts
            raise ParseError(f"line {lineno}: vertex id too long") from None
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        pair = (min(u, v), max(u, v))
        if pair in seen_pairs:
            raise ParseError(f"line {lineno}: duplicate edge {pair}")
        seen_pairs.add(pair)
        try:
            w = parse_weight(parts[2])
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        seen_vertices.update(pair)
        edges.append((pair[0], pair[1], w))
    if not edges:
        raise ParseError("no edges found")
    n = max(seen_vertices) + 1
    if len(seen_vertices) != n:
        # at most len(seen_vertices) + _MISSING_IDS_SHOWN ids are scanned
        absent = (i for i in range(n) if i not in seen_vertices)
        shown = list(itertools.islice(absent, _MISSING_IDS_SHOWN))
        more = n - len(seen_vertices) - len(shown)
        tail = f" and {more} more" if more else ""
        raise ParseError(f"vertex ids must cover 0..{n - 1}; missing {shown}{tail}")
    if not is_connected(n, seen_pairs):
        raise NotConnected("graph is not connected")
    return Graph(n, tuple(edges))


def serialize_graph(g: Graph) -> str:
    """Inverse of :func:`parse_graph` (canonical edge order)."""
    lines = [f"{u} {v} {format_weight(w)}" for u, v, w in g.edges]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bitmask helpers
# ---------------------------------------------------------------------------

def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_vertices(g: Graph, mask: int) -> int:
    """Bitmask of the vertices the edges in ``mask`` touch."""
    out = 0
    edges = g.edges
    while mask:
        low = mask & -mask
        u, v, _ = edges[low.bit_length() - 1]
        out |= (1 << u) | (1 << v)
        mask ^= low
    return out


def mask_neighbours(g: Graph, mask: int) -> list[int]:
    """Per vertex, the bitmask of its neighbours along the edges in ``mask``."""
    nbrs = [0] * g.vertex_count
    edges = g.edges
    while mask:
        low = mask & -mask
        u, v, _ = edges[low.bit_length() - 1]
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
        mask ^= low
    return nbrs


def reach(nbrs: Sequence[int], start: int, within: int) -> int:
    """Bitmask of ``start`` and the vertices of ``within`` it reaches through ``within``.

    ``nbrs`` holds a neighbour bitmask per vertex, as :func:`mask_neighbours`
    builds it; the walk floods one BFS level at a time.
    """
    seen = frontier = 1 << start
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= nbrs[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & within & ~seen
        seen |= frontier
    return seen


def mask_degrees(g: Graph, mask: int) -> list[int]:
    deg = [0] * g.vertex_count
    for e in iter_bits(mask):
        u, v, _ = g.edges[e]
        deg[u] += 1
        deg[v] += 1
    return deg


def mask_weight(g: Graph, mask: int) -> Weight:
    """Total weight of the edges in ``mask``, added in ascending index order."""
    weights = g.weights
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def tour_from_edge_mask(g: Graph, mask: int) -> tuple[int, ...] | None:
    """Vertex sequence of the Hamilton cycle formed by ``mask``, if any.

    Returns the canonical sequence (starts at 0, second vertex is the
    smaller neighbor) or None when the mask is not a single spanning cycle.
    """
    n = g.vertex_count
    if n < 3 or mask.bit_count() != n:
        return None
    nbrs = mask_neighbours(g, mask)
    if any(x.bit_count() != 2 for x in nbrs):
        return None
    seq = [0]
    prev = 0
    cur = (nbrs[0] & -nbrs[0]).bit_length() - 1
    while cur != 0:
        seq.append(cur)
        prev, cur = cur, (nbrs[cur] ^ (1 << prev)).bit_length() - 1
    return tuple(seq) if len(seq) == n else None


def tour_weight(g: Graph, tour: tuple[int, ...]) -> Weight:
    """Weight of a closed tour given as a vertex sequence (no repeated start).

    Raises :class:`GraphError` if the sequence is not a Hamilton cycle of g.
    """
    n = g.vertex_count
    if len(tour) != n or set(tour) != set(range(n)):
        raise GraphError("tour must visit every vertex exactly once")
    total = 0
    for i, u in enumerate(tour):
        v = tour[(i + 1) % n]
        if not g.has_edge(u, v):
            raise GraphError(f"tour uses missing edge ({u}, {v})")
        total += g.weights[g.edge_index(u, v)]
    return total
