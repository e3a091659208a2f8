"""Structural stability certification and simulation of reaction networks."""

from .network import (
    Complex,
    ParseError,
    Reaction,
    ReactionNetwork,
    Species,
    parse_network,
    parse_network_file,
)
from .structure import (
    RationalBasis,
    StructureReport,
    structure_report,
)
from .siphons import (
    EnumerationCapError,
    SiphonCatalog,
    SiphonEntry,
    minimal_semi_locking_sets,
)
from .certify import (
    Certificate,
    FaceStatus,
    FaceVerdict,
    OverallStatus,
    certify,
    check_discrete,
    check_empty_all_classes,
)
from .dynamics import (
    MASS_ACTION,
    ConvergenceError,
    EquilibriumResult,
    HypothesesError,
    IntegrationError,
    KineticsSpec,
    Trajectory,
    complex_balanced_point,
    find_equilibrium,
    generalized_kinetics,
    jacobian,
    lyapunov,
    persistence_margin,
    rhs,
    simulate,
    write_trajectory_csv,
)

__version__ = "0.1.0"
