"""Selecting basis subsets that can carry a spanning cycle.

A subset of basis cycles is a *solution* when its total (edge count - 2) equals
``vertex_count - 2``; this is the Grinberg-style counting identity that a
chained cycle decomposition of a Hamilton cycle satisfies. The complement of
a solution is its *co-solution*: the cycles the solver is allowed to delete.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .cycle_space import CycleBasis

#: how many solution partitions the solver tries before it reports ``stuck``
SOLUTION_CAP = 64


@dataclass(frozen=True)
class SolutionPartition:
    """A solution subset together with its co-solution complement.

    ``solution`` lists the solution cycles ascending; ``co_solution`` is the
    bitmask of the cycles the solver may delete.
    """

    solution: tuple[int, ...]
    co_solution: int


def _solutions(basis: CycleBasis) -> Iterator[SolutionPartition]:
    """All solution subsets, smallest first then lexicographic, lazily.

    Every cycle contributes at least 1 to the total, so solutions have at
    most ``vertex_count - 2`` members. ``sums[i][k]`` is the bitmask of the
    totals, up to the target, that ``k`` cycles from index ``i`` on can
    reach; the search enters a cycle only when the rest of the target is
    reachable after it, so every call leads to a solution and the search
    never backtracks: the first solution takes at most ``vertex_count - 1``
    calls, and each further one as many again. The table depends only on
    the basis, so it is built on the first search of a basis and kept on it
    (``_solution_sums``) for every later one.
    """
    target = basis.graph.vertex_count - 2
    values = [c.bit_count() - 2 for c in basis.cycles]
    dim = len(values)
    most = min(dim, target)
    if most < 1:
        return
    sums = basis._solution_sums
    if not sums:
        keep = (1 << (target + 1)) - 1
        sums.extend([1] + [0] * most for _ in range(dim + 1))
        for i in range(dim - 1, -1, -1):
            for k in range(1, most + 1):
                sums[i][k] = sums[i + 1][k] | ((sums[i + 1][k - 1] << values[i]) & keep)
    everything = (1 << dim) - 1
    chosen: list[int] = []

    def extend(start: int, rest: int, remaining: int, mask: int) -> Iterator[SolutionPartition]:
        if remaining == 0:
            yield SolutionPartition(tuple(chosen), everything & ~mask)
            return
        for i in range(start, dim - remaining + 1):
            need = rest - values[i]
            if need < 0 or not (sums[i + 1][remaining - 1] >> need) & 1:
                continue
            chosen.append(i)
            yield from extend(i + 1, need, remaining - 1, mask | 1 << i)
            chosen.pop()

    for size in range(1, most + 1):
        if (sums[0][size] >> target) & 1:
            yield from extend(0, target, size, 0)


def enumerate_solutions(basis: CycleBasis) -> tuple[SolutionPartition, ...]:
    """All solution subsets, smallest first then lexicographic, up to
    ``SOLUTION_CAP``, so at most ``SOLUTION_CAP * (vertex_count - 1)``
    search calls. An empty result means the identity has no solutions under
    this basis.
    """
    return tuple(islice(_solutions(basis), SOLUTION_CAP))
