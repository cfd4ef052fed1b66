"""Exact fixed-delay Parisian ruin, the oracle for the Erlang(n) approximation.

With a fixed delay r and E[X_1] > 0 (Loeffen, Czarna & Palmowski, Bernoulli 19, 2013):

    P_x(kappa_r < inf) = 1 - E[X_1] int_0^inf W(x+z) z P(X_r in dz) / int_0^inf z P(X_r in dz)

W = W_0 is written out from the model's parameters, so no library code enters:

* Brownian: E[X_1] W(y) = 1 - e^{-2 mu y / sigma^2}, X_r ~ N(mu r, sigma^2 r);
* Cramer-Lundberg with Exp(alpha) claims at rate eta: E[X_1] W(y) = 1 - (eta/c alpha)
  e^{-(alpha - eta/c) y}, and X_r = c r - S_r has an atom e^{-eta r} at c r plus, below
  it, the density e^{-eta r - alpha v} sqrt(eta r alpha/v) I_1(2 sqrt(eta r alpha v)),
  v = c r - z.

Both integrals are mpmath quadratures at 30 digits.
"""

from __future__ import annotations

import mpmath as mp


def fixed_delay_ruin(model, x: float, r: float) -> float:
    """P_x(kappa_r < inf) for the fixed delay r > 0."""
    with mp.workdps(30):
        x, r = mp.mpf(x), mp.mpf(r)
        if model.kind == "brownian":
            mu, sig = mp.mpf(model.mu), mp.mpf(model.sigma)
            mean = mu

            def w(y):
                return (1 - mp.exp(-2 * mu * y / sig ** 2)) / mu if y > 0 else mp.mpf(0)

            pts = [0, mu * r, mu * r + 10 * sig * mp.sqrt(r), mp.inf]
            num = mp.quad(lambda z: w(x + z) * z * mp.npdf(z, mu * r, sig * mp.sqrt(r)), pts)
            den = mp.quad(lambda z: z * mp.npdf(z, mu * r, sig * mp.sqrt(r)), pts)
        else:
            c, eta, alpha = mp.mpf(model.c), mp.mpf(model.eta), mp.mpf(model.alpha)
            mean = c - eta / alpha

            def w(y):
                if y < 0:
                    return mp.mpf(0)
                return (1 - eta / (c * alpha) * mp.exp(-(alpha - eta / c) * y)) / mean

            top, atom = c * r, mp.exp(-eta * r)

            def dens(z):
                v = top - z
                return (mp.exp(-eta * r - alpha * v) * mp.sqrt(eta * r * alpha / v)
                        * mp.besseli(1, 2 * mp.sqrt(eta * r * alpha * v)))

            num = atom * w(x + top) * top + mp.quad(lambda z: w(x + z) * z * dens(z), [0, top])
            den = atom * top + mp.quad(lambda z: z * dens(z), [0, top])
        return float(1 - mean * num / den)
