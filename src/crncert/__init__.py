"""Structural stability certification and simulation of reaction networks."""

from .network import (
    Complex,
    ParseError,
    Reaction,
    ReactionNetwork,
    Species,
    parse_network,
    parse_network_file,
    reaction_vector,
    serialize_network,
)
from .structure import (
    RationalBasis,
    StructureReport,
    conservation_basis,
    stoichiometric_basis,
    structure_report,
)
from .siphons import (
    EnumerationCapError,
    SiphonCatalog,
    SiphonEntry,
    all_semi_locking_sets,
    is_locking,
    is_semi_locking,
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
    complex_balance_residual,
    complex_balanced_point,
    find_equilibrium,
    generalized_kinetics,
    jacobian,
    lyapunov,
    persistence_margin,
    reaction_rates,
    rhs,
    simulate,
    write_trajectory_csv,
)

__version__ = "0.1.0"
