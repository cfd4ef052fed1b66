"""Monte Carlo oracle: exact event-driven and hybrid simulators of the path
functionals, with counter-based reproducible streams."""

from .config import (
    EscapeLevel,
    McConfig,
    McEstimate,
    classical_ruin_bound,
    default_escape_level,
)
from .driver import build_simulator, estimate, sample
from .functionals import (
    EV_LOWER,
    EV_NONE,
    EV_RUIN,
    EV_UPCROSS,
    PathFunctional,
)
from .streams import Stream

__all__ = [
    "EscapeLevel",
    "McConfig",
    "McEstimate",
    "PathFunctional",
    "Stream",
    "build_simulator",
    "classical_ruin_bound",
    "default_escape_level",
    "estimate",
    "sample",
    "EV_NONE",
    "EV_RUIN",
    "EV_UPCROSS",
    "EV_LOWER",
]
