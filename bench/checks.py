"""Correctness checks applied to every benchmark output."""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import PROBABILITIES

REFERENCE = Path(__file__).resolve().parent / "reference" / "sweep_values.json"

# Tolerance against the values recorded at the seed commit.  1e-6 relative is
# loose enough for exact closed forms replacing quadrature or finite differences
# (ROADMAP items 2-3) and far tighter than any formula error.  The absolute floor
# covers values next to 0 and the seed's own finite-difference noise: under
# 1e-12 input perturbations gs_density_e2 moves by up to 1.5e-8 (4.5e-6 relative).
REF_REL = 1e-6
REF_ABS = 1e-7

# Laplace-consistency tolerance of a dist grid, as in acceptance criterion 07.
DIST_LT_TOL = 1e-4
DIST_LT_P = (0.5, 1.0, 2.0)


# Roundoff allowed past a range bound: a transform that is 0 in exact arithmetic
# (ruin before up-crossing from x = b) comes out as -1e-15.
RANGE_SLACK = 1e-12


def in_range(identity: str, value: float) -> bool:
    """Probabilities lie in [0, 1]; transforms and densities are finite and >= 0."""
    if not math.isfinite(value) or value < -RANGE_SLACK:
        return False
    return value <= 1.0 + RANGE_SLACK or identity not in PROBABILITIES


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["values"]


def matches(value: float, ref: float) -> bool:
    return abs(value - ref) <= REF_REL * abs(ref) + REF_ABS
