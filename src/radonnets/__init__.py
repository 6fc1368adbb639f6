"""Exact invariants, weak epsilon-nets, and lower-bound certificates for
finite abstract convexity spaces."""

from .space import (
    ConsistencyError,
    ConvexFamily,
    ConvexitySpace,
    Distribution,
    GroundSet,
    MissingEmptySet,
    MissingFullSet,
    NotIntersectionClosed,
    PointSet,
    SpaceAxiomError,
    TooLarge,
    format_distribution_file,
    format_space_file,
    halfspaces,
    intersection_closure,
    is_separable,
    parse_distribution_file,
    parse_space_file,
    size_cap,
    validate_space,
)
from .invariants import (
    InvariantReport,
    analyze,
    helly_number,
    radon_number,
    vc_dimension,
)
from .exact import (
    Graph,
    HittingSetInstance,
    dense_sets,
    exact_chromatic_number,
    hitting_instance,
    minimal_weak_net,
)
from .nets import (
    EmptyIntersection,
    NetCheck,
    NetNode,
    NetParams,
    PackingBoundWarning,
    WeakNet,
    amplification_depth,
    build_weak_net,
    verify_weak_net,
)
from .bounds import (
    DisjointnessGraph,
    LowerBoundCertificate,
    chromatic_lower_bound,
    kneser_chromatic_number,
    kneser_embedding,
    kneser_graph,
    radon_lower_bound,
)
from .generators import (
    GeneratorSpec,
    cylinder_space,
    lattice_convex_space,
    linear_extension_space,
    power_set_space,
    random_separable,
    subtree_space,
)

__version__ = "0.1.0"
