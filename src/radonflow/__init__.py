"""Radon complexes of point configurations and a curvature flow on them.

The package is organized around one pipeline: points -> signed circuits
(an acyclic oriented matroid) -> the Radon complex, a polyhedral sphere
embedded in a hyperplane-slice polytope -> a discrete curvature flow that
pulls perturbed embeddings back to flat position -> recovery of a point
configuration from the flat embedding.  The macphersonian module treats
the poset of all such matroids at small size.
"""

from .complexes import (
    Cell,
    CircuitGraph,
    Cycle,
    DegeneratePointError,
    GammaMembershipError,
    RadonComplex,
    SphereReport,
    combinatorial_circuit_graph,
    geometric_radon_complex,
    graphs_equal,
    matroid_of_complex,
    project_to_gamma,
    validate_sphere,
)
from .core import (
    COLLISION_DIST,
    EPS_MEM,
    EPS_SIGN,
    AxiomReport,
    Circuit,
    GroundSet,
    OrientedMatroid,
    PointConfiguration,
    RankDeficientError,
    SignedCircuitVertex,
    check_circuit_axioms,
    circuits_of_points,
    is_radon_partition,
    weak_map_leq,
)
from .flow import (
    EmbeddedSphere,
    FlowParams,
    FlowTrace,
    IntegrationError,
    NotFlatError,
    OUTCOME_CONVERGED,
    OUTCOME_FACE_EXIT,
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
    SimplicialComplex,
    UnsupportedRangeError,
    cell_structure_m42,
    enumerate_acyclic_oms,
    gf2_betti,
    order_complex,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "COLLISION_DIST",
    "Cell",
    "Circuit",
    "CircuitGraph",
    "Cycle",
    "DegeneratePointError",
    "EPS_MEM",
    "EPS_SIGN",
    "EmbeddedSphere",
    "FlowParams",
    "FlowTrace",
    "GammaMembershipError",
    "GroundSet",
    "IntegrationError",
    "M42Report",
    "MatroidPoset",
    "NotFlatError",
    "OUTCOME_CONVERGED",
    "OUTCOME_FACE_EXIT",
    "OUTCOME_STALLED",
    "OUTCOME_STEP_LIMIT",
    "OrientedMatroid",
    "PointConfiguration",
    "RadonComplex",
    "RankDeficientError",
    "SignedCircuitVertex",
    "SimplicialComplex",
    "SphereReport",
    "TraceSample",
    "UnsupportedRangeError",
    "cell_structure_m42",
    "check_circuit_axioms",
    "circuits_of_points",
    "combinatorial_circuit_graph",
    "curvature_decay_stats",
    "enumerate_acyclic_oms",
    "geometric_radon_complex",
    "gf2_betti",
    "graphs_equal",
    "integrate",
    "is_radon_partition",
    "matroid_of_complex",
    "order_complex",
    "project_to_gamma",
    "recover_configuration",
    "validate_sphere",
    "weak_map_leq",
]
