"""Greedy cycle-basis deletion search for minimum-weight Hamilton cycles.

The solver keeps a cycle basis of the input graph and deletes co-solution
cycles one at a time, always the one committing the least extra weight to
the once-covered (boundary) edges; when the boundary edges form a spanning
cycle, that is the candidate tour. An exact oracle (Held-Karp plus full
enumeration) and a seeded mining harness measure where the candidate matches
the true optimum and where it does not.
"""

from .cycle_space import (
    Cycle,
    CycleBasis,
    count_covers,
    edges_with_cover,
    fundamental_basis,
)
from .graphs import (
    Graph,
    GraphError,
    NotConnected,
    ParseError,
    Weight,
    is_connected,
    parse_graph,
    serialize_graph,
    tour_from_edge_mask,
    tour_weight,
)
from .harness import (
    CampaignConfig,
    CampaignError,
    CampaignResult,
    ComparisonReport,
    compare_graph,
    random_connected_graph,
    run_campaign,
)
from .oracle import (
    OracleAnswer,
    TooLarge,
    enumerate_tours,
    is_hamiltonian,
    min_tour,
    min_tour_by_enumeration,
)
from .removability import (
    RemovabilityContext,
    ReductionOutcome,
    find_diagonals,
    is_removable,
    reduce_cluster,
)
from .solvability import (
    SolutionPartition,
    enumerate_solutions,
    is_solvable,
    solution_sum,
)
from .solver import (
    Counters,
    DeletionRecord,
    NotRemovable,
    SolverState,
    TourResult,
    apply_deletion,
    boundary_mask,
    initial_state,
    select_deletion,
    solve,
)

__version__ = "0.1.0"
