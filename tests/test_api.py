"""The public names of ``cycletrim``, pinned so that any change to them is deliberate."""

import ast
import types
from pathlib import Path

import cycletrim

PUBLIC_NAMES = {
    # graphs
    "Graph", "GraphError", "NotConnected", "ParseError", "Weight",
    "is_connected", "parse_graph", "serialize_graph", "tour_from_edge_mask", "tour_weight",
    # cycle space and solvability
    "CycleBasis", "count_covers", "edges_with_cover", "fundamental_basis",
    "SolutionPartition", "enumerate_solutions",
    # removability and solver
    "RemovabilityContext", "ReductionOutcome", "DeletionRecord", "NotRemovable",
    "is_removable", "reduce_cluster",
    "Counters", "SolverState", "TourResult",
    "apply_deletion", "boundary_mask", "initial_state", "solve",
    # oracle
    "OracleAnswer", "TooLarge", "enumerate_tours", "is_hamiltonian",
    "min_tour", "min_tour_by_enumeration",
    # harness
    "CampaignConfig", "CampaignError", "CampaignResult", "ComparisonReport",
    "compare_graph", "random_connected_graph", "run_campaign",
}

#: public names the package itself need not use: the exhaustive oracle is
#: there to cross-check the Held-Karp DP
UNUSED_BY_DESIGN = {"min_tour_by_enumeration"}


def public_names() -> set[str]:
    # submodules become package attributes on import, so they are left out
    return {
        name
        for name, value in vars(cycletrim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_public_names_are_pinned():
    assert public_names() == PUBLIC_NAMES


def test_every_public_name_is_used_by_the_package():
    # a name counts as used when some module other than __init__ reads it in
    # code, as a name or an attribute; definitions, imports, comments and
    # docstrings do not count
    used = set()
    for path in Path(cycletrim.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    public = public_names()
    assert public - UNUSED_BY_DESIGN - used == set()
    assert UNUSED_BY_DESIGN <= public - used
