"""The public names of ``cycletrim``, pinned so that any change to them is deliberate."""

import types

import cycletrim

PUBLIC_NAMES = {
    # graphs
    "Graph", "GraphError", "NotConnected", "ParseError", "Weight",
    "is_connected", "parse_graph", "serialize_graph", "tour_from_edge_mask", "tour_weight",
    # cycle space and solvability
    "CycleBasis", "count_covers", "edges_with_cover", "fundamental_basis",
    "SolutionPartition", "enumerate_solutions", "solution_sum",
    # removability and solver
    "RemovabilityContext", "ReductionOutcome", "DeletionRecord", "NotRemovable",
    "find_diagonals", "is_removable", "reduce_cluster",
    "Counters", "SolverState", "TourResult",
    "apply_deletion", "boundary_mask", "initial_state", "select_deletion", "solve",
    # oracle
    "OracleAnswer", "TooLarge", "enumerate_tours", "is_hamiltonian",
    "min_tour", "min_tour_by_enumeration",
    # harness
    "CampaignConfig", "CampaignError", "CampaignResult", "ComparisonReport",
    "compare_graph", "random_connected_graph", "run_campaign",
}


def test_public_names_are_pinned():
    # submodules become package attributes on import, so they are left out
    public = {
        name
        for name, value in vars(cycletrim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES
