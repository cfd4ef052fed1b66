"""Printed closed forms that the library does not compute with.

The per-model Erlang(2) ruin formulas below circulate as the final worked-example
results for the two models.  They are kept verbatim so the acceptance suite can
re-check, on every run, that they disagree with :func:`levyruin.ruin_prob_erlang2`
and with the Monte Carlo oracle.
"""

import math

from levyruin import LevyModel, phi


def erlang2_ruin_alternative_form(model: LevyModel, x: float, lam: float) -> float:
    """Alternative printed closed forms for the Erlang(2) ruin probability.

    These per-model expressions circulate as the final worked-example formulas for
    the two models.  They are retained verbatim for the validation report: the
    Monte Carlo oracle and :func:`ruin_prob_erlang2` disagree with them (see the
    acceptance suite), so they must not be used for computation.
    """
    ph = phi(model, lam)
    if model.kind == "brownian":
        mu, s2 = model.mu, model.sigma ** 2
        pref = (math.sqrt(mu * mu + 2.0 * s2 * lam) - mu) ** 2 / (lam * lam * s2 * s2)
        return 1.0 - pref * (1.0 / ph - math.exp(-2.0 * mu / s2 * x) / (ph + 2.0 * mu / s2))
    c, eta, alpha = model.c, model.eta, model.alpha
    return 1.0 - (1.0 / lam) * (
        1.0 / ph ** 2
        - (eta / (c * alpha)) * math.exp((eta / c - alpha) * x) / (ph + alpha - eta / c) ** 2
    )
