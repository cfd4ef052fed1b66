"""Poissonian occupation times and Parisian ruin of spectrally negative Levy
risk processes: closed-form identities cross-validated against an independent
Monte Carlo oracle.

Imports.  The closed-form identities use ``math`` alone.  numpy is loaded at the
first array operation (a transition density, a quadrature, an occupation-law
density other than a Brownian one, or a Monte Carlo campaign), and scipy at a
Monte Carlo stream's first normal draw, which only Brownian campaigns make;
importing this package, the registry, the CLI or :mod:`levyruin.mc` loads
neither.  So no module may touch numpy at import time: each takes it through
:func:`levyruin.util.lazy_module` and builds its constants with ``math`` or at
their first use.
"""

from .errors import DomainError, NumericalError, UnsupportedFunctional, UsageError
from .models import LevyModel, TransitionDensity, model_from_dict, phi, psi, psi_prime, transition
from .occupation import OccupationLaw, joint_lt_upcross, lt_occupation_inf, occupation_law
from .parisian import (
    FixedDelayResult,
    deficit_transform_erlang2,
    deficit_transform_t0,
    delayed_w_functional,
    fixed_delay_approx,
    gerber_shiu_density,
    gs_density_e2,
    gs_lt_infinite,
    gs_lt_infinite_e2,
    gs_lt_two_sided,
    gs_lt_two_sided_e2,
    lt_occupation_exp_horizon,
    ruin_prob_erlang2,
    ruin_prob_erlang_n,
    ruin_prob_sum_exp,
    t0_joint_lt,
    up_cross_before_ruin,
    up_cross_e2,
    up_cross_three_barrier,
    upcross_before_t0,
    upcross_before_t0_two_sided,
)
from .scale import ScaleContext, scale_context, script_w, w, w_prime, w_tilde, z, z_tilde

__version__ = "0.1.0"
