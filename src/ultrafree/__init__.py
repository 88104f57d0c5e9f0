"""Exact computations in free spaces over finite ultrametric spaces.

Transport (free-space) norms with primal/dual certificates, nearest-point
retraction chains and their monotone bases, the real-tree quotient with its
branching points and 4-Lipschitz retraction, and the edge-flow l1 oracle.
All arithmetic is exact rational.
"""

from .metric import (
    CertificationError,
    FiniteMetricSpace,
    StructuralError,
    ValidationReport,
    bilipschitz_distortion,
    identity_distortion,
    random_ultrametric,
    round_to_dyadic,
    validate,
    with_base,
)
from .freespace import (
    FreeNormCertificate,
    FreeVector,
    LipFunction,
    PointMap,
    dirac,
    free_norm,
    free_norm_certificate,
    lip_norm,
    lipschitz_constant,
    molecule,
    operator_norm_of_extension,
    push_forward,
    zero_vector,
)
from .chain import (
    BasisFamily,
    ChainReport,
    RetractionChain,
    basis_constant,
    basis_vectors,
    build_chain,
    expand_in_basis,
    retraction_map,
    verify_chain,
    verify_projection_algebra,
)
from .rtree import (
    DendrogramTree,
    TreePoint,
    branching_points,
    canonicalize,
    dendrogram,
    four_point_check,
    node_space,
    retract_to_space,
    rooted_node_space,
    segment_point,
    tree_distance,
    verify_branching_witnesses,
    verify_retraction_claims,
    verify_segment_axioms,
)
from .ell1 import (
    EdgeFlowCoordinates,
    L1Constants,
    PipelineReport,
    ThreePointReport,
    edge_flow_coordinates,
    edge_molecule_isometry,
    edge_molecules,
    l1_equivalence_constants,
    oracle_vs_lp,
    pipeline,
    three_point_report,
    three_point_space,
    tree_free_norm,
    tree_norm_certificate,
    vector_from_edge_flows,
)
from .campaign import CampaignConfig, Report, emit_report, run_campaign
from .serialize import IngestError, ingest, load_space

__version__ = "0.1.0"
