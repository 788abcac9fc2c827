"""Radon complexes of point configurations and a curvature flow on them.

The package is organized around one pipeline: points -> signed circuits
(an acyclic oriented matroid) -> the Radon complex, a polyhedral sphere
embedded in a hyperplane-slice polytope -> a discrete curvature flow that
pulls perturbed embeddings back to flat position -> recovery of a point
configuration from the flat embedding.  The macphersonian module treats
the poset of all such matroids at small size.
"""

from .complexes import (
    CircuitGraph,
    DegeneratePointError,
    GammaMembershipError,
    RadonComplex,
    SphereReport,
    combinatorial_circuit_graph,
    geometric_radon_complex,
    graphs_equal,
    project_to_gamma,
    validate_sphere,
)
from .core import (
    EPS_MEM,
    EPS_SIGN,
    TOL_CURV,
    AxiomReport,
    Circuit,
    GroundSet,
    OrientedMatroid,
    PointConfiguration,
    RankDeficientError,
    check_circuit_axioms,
    circuits_of_points,
    same_chirotope,
    weak_map_leq,
)
from .flow import (
    EmbeddedSphere,
    FlowTrace,
    IntegrationError,
    NotFlatError,
    OUTCOME_CONVERGED,
    OUTCOME_STALLED,
    OUTCOME_STEP_LIMIT,
    TraceSample,
    curvature_decay_stats,
    integrate,
    recover_configuration,
)
from .macphersonian import (
    M42Report,
    MatroidPoset,
    MatroidTable,
    NotACWPosetError,
    SimplicialComplex,
    UnsupportedRangeError,
    cell_structure_m42,
    cellular_homology,
    chain_counts,
    enumerate_acyclic_oms,
    gf2_betti,
    grades,
    order_complex,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "Circuit",
    "CircuitGraph",
    "DegeneratePointError",
    "EPS_MEM",
    "EPS_SIGN",
    "EmbeddedSphere",
    "FlowTrace",
    "GammaMembershipError",
    "GroundSet",
    "IntegrationError",
    "M42Report",
    "MatroidPoset",
    "MatroidTable",
    "NotACWPosetError",
    "NotFlatError",
    "OUTCOME_CONVERGED",
    "OUTCOME_STALLED",
    "OUTCOME_STEP_LIMIT",
    "OrientedMatroid",
    "PointConfiguration",
    "RadonComplex",
    "RankDeficientError",
    "SimplicialComplex",
    "SphereReport",
    "TOL_CURV",
    "TraceSample",
    "UnsupportedRangeError",
    "cell_structure_m42",
    "cellular_homology",
    "chain_counts",
    "check_circuit_axioms",
    "circuits_of_points",
    "combinatorial_circuit_graph",
    "curvature_decay_stats",
    "enumerate_acyclic_oms",
    "geometric_radon_complex",
    "gf2_betti",
    "grades",
    "graphs_equal",
    "integrate",
    "order_complex",
    "project_to_gamma",
    "recover_configuration",
    "same_chirotope",
    "validate_sphere",
    "weak_map_leq",
]
