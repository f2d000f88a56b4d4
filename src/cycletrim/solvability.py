"""Selecting basis subsets that can carry a spanning cycle.

A subset of basis cycles is a *solution* when its total (length - 2) equals
``vertex_count - 2``; this is the Grinberg-style counting identity that a
chained cycle decomposition of a Hamilton cycle satisfies. The complement of
a solution is its *co-solution*: the cycles the solver is allowed to delete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cycle_space import CycleBasis


@dataclass(frozen=True)
class SolutionPartition:
    """A solution subset together with its co-solution complement.

    ``co_solution`` lists, ascending, the cycles the solver may delete.
    """

    solution: tuple[int, ...]
    co_solution: tuple[int, ...]


def solution_sum(basis: CycleBasis, indices: Sequence[int]) -> int:
    """Total (length - 2) over the chosen cycles."""
    if len(set(indices)) != len(indices):
        raise ValueError("cycle indices must be distinct")
    return sum(basis.cycles[i].length - 2 for i in indices)


def _make_partition(basis: CycleBasis, solution: tuple[int, ...]) -> SolutionPartition:
    chosen = set(solution)
    co = tuple(i for i in range(basis.dimension) if i not in chosen)
    return SolutionPartition(solution, co)


def enumerate_solutions(basis: CycleBasis, *, cap: int = 64) -> tuple[SolutionPartition, ...]:
    """All solution subsets, smallest first then lexicographic, up to ``cap``.

    Every cycle contributes at least 1 to the total, so solutions have at
    most ``vertex_count - 2`` members; the search prunes on that bound. An
    empty result means the identity has no solutions under this basis.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    target = basis.graph.vertex_count - 2
    values = [c.length - 2 for c in basis.cycles]
    dim = len(values)
    max_value = max(values, default=0)
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def extend(start: int, acc: int, remaining: int) -> bool:
        if remaining == 0:
            if acc == target:
                found.append(tuple(chosen))
                return len(found) >= cap
            return False
        for i in range(start, dim - remaining + 1):
            nacc = acc + values[i]
            if nacc + (remaining - 1) > target:
                continue
            if nacc + (remaining - 1) * max_value < target:
                continue
            chosen.append(i)
            stop = extend(i + 1, nacc, remaining - 1)
            chosen.pop()
            if stop:
                return True
        return False

    for size in range(1, min(dim, target) + 1):
        if extend(0, 0, size):
            break
    return tuple(_make_partition(basis, sol) for sol in found)


def is_solvable(basis: CycleBasis) -> bool:
    return bool(enumerate_solutions(basis, cap=1))
