"""Shared test utilities: analytic reference states and the Wigner fixture."""

import math

import numpy as np

from osctomo import WignerGrid
from osctomo.selftest import _driven_state as driven_state

SQRT2 = math.sqrt(2.0)


def wigner_from_density_function(rho, extent, n, u_max=12.0, u_count=801):
    """Sampled Wigner function W(q, p) = integral rho(q+u/2, q-u/2) e^{-1j p u} du.

    Test-only utility: the library never constructs Wigner functions, it
    only consumes them, so the standard transform lives here to exercise
    the projection route without widening the package surface.  The
    normalisation convention is (2 pi)^{-1} * double integral W = trace,
    i.e. the vacuum maps to W = 2 exp(-q^2 - p^2).
    """
    axis = np.linspace(-extent, extent, n)
    u = np.linspace(-u_max, u_max, u_count)
    values = np.empty((n, n))
    phases = np.exp(-1j * np.outer(axis, u))  # (p, u)
    for i, q in enumerate(axis):
        integrand = rho(q + u / 2.0, q - u / 2.0)[None, :] * phases
        values[i] = np.real(np.trapezoid(integrand, x=u, axis=1))
    return WignerGrid(extent, values)
