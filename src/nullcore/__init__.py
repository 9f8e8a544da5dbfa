"""nullcore: exact-arithmetic analysis of adjacency nullspaces.

The package classifies the vertices of a finite simple graph by how
they meet the kernel of its adjacency matrix (core vertices, their
neighbours, and the remote remainder), assembles the block form that
the classification induces, and exposes the reductions, tree
algorithms, minimal-configuration tests, and edge-perturbation
guarantees built on top of it.  All arithmetic is exact: integer
elimination and integer characteristic polynomials, never floats.

The public names below are package attributes that load their module
on first use (PEP 562), so a command imports only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names the package re-exports from it
_EXPORTS = {
    "analysis": (
        "AnalysisReport", "CoreLabelling", "TheoremCheck", "VertexClass",
        "VertexPartition", "analyze", "classify_vertices", "core_labelling",
        "is_core_graph", "is_half_core", "is_slim",
        "no_single_core_neighbour_check", "nullity", "report_to_json",
        "require_independent_cv", "slim_reduce", "unicyclic_analysis",
        "verify_block_theorems",
    ),
    "errors": (
        "DuplicateEdgeError", "EdgeListParseError", "MalformedHeaderError",
        "NonIndependentCoreError", "PreconditionError", "SelfLoopError",
        "TheoremViolationError", "VertexRangeError",
    ),
    "graphs": (
        "Graph", "VertexProvenance", "add_edge", "adjacency_matrix",
        "delete_edge", "delete_vertex", "gen_cycle", "gen_path",
        "gen_random_bipartite", "gen_random_graph", "gen_random_tree",
        "gen_random_unicyclic", "gen_star", "incidence_matrix",
        "induced_subgraph", "is_bipartite", "is_connected", "is_forest",
        "is_tree", "is_unicyclic", "parse_edge_list", "serialize_edge_list",
        "subdivision", "to_dot",
    ),
    "linalg": (
        "CharPoly", "IntMatrix", "KernelBasis", "char_poly", "det",
        "nullspace_basis", "rank",
    ),
    "minimal": (
        "MCReport", "bipartite_mc_slim_equivalence",
        "bipartite_nullity1_structure", "bipartite_parity_check",
        "is_minimal_configuration",
    ),
    "perturb": (
        "EdgeCandidate", "PerturbationReport", "apply_and_report",
        "candidate_edges", "greedy_densify", "remove_and_report",
        "safe_additions", "verify_cv_ncv_theorem",
    ),
    "rng": ("SplitMix64",),
    "trees": (
        "ReductionTrace", "cfvr_perfect_matching", "end_vertex_core_vertices",
        "incidence_rank_check", "inverse_subdivision", "is_mc_tree",
        "pendant_reduction", "subdivision_charpoly_identity",
        "tree_nullity_identity",
    ),
    "verify": ("SUITES", "SuiteResult", "VerifySuiteConfig", "run_suite"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module("." + name, __name__)
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module("." + mod, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys() | _SUBMODULES)
