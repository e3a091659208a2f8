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

__version__ = "0.1.0"

# The numeric names, read from ``dynamics`` on each access (PEP 562) and
# never stored here, so importing the package loads no numpy, and a name
# patched in ``dynamics`` reads patched here too.
_DYNAMICS_NAMES = frozenset({
    "MASS_ACTION", "ConvergenceError", "EquilibriumResult", "HypothesesError",
    "IntegrationError", "KineticsSpec", "Trajectory", "complex_balanced_point",
    "find_equilibrium", "generalized_kinetics", "jacobian", "lyapunov",
    "persistence_margin", "rhs", "simulate", "write_trajectory_csv",
})


def __getattr__(name: str):
    if name in _DYNAMICS_NAMES:
        from . import dynamics

        return getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_DYNAMICS_NAMES})
