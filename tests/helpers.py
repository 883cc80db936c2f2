"""Shared test utilities: analytic reference states, the Wigner fixture and
the strategy of drive profiles the property tests draw from."""

import math

import numpy as np
from hypothesis import strategies as st

from osctomo import DriveProfile, WignerGrid
from osctomo.selftest import _driven_state as driven_state

SQRT2 = math.sqrt(2.0)

TABLE_T = np.linspace(0.0, 8.0, 9)


@st.composite
def classical_profiles(draw):
    """(profile, autonomous): constant omega_sq (negative included) with a
    constant force, resonance or a table, the last two with a cos force."""
    kind = draw(st.sampled_from(["constant", "resonance", "table"]))
    c, w = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.0, 2.0))
    if kind == "constant":
        w2 = draw(st.floats(-1.0, 4.0))
        return DriveProfile.custom(lambda t: w2, lambda t: c), True
    force = lambda t: c * np.cos(w * t)
    if kind == "resonance":
        return DriveProfile.parametric_resonance(draw(st.floats(-0.49, 0.49)), force), False
    rows = np.array(draw(st.lists(st.floats(0.2, 3.0), min_size=9, max_size=9)))
    return DriveProfile.custom(lambda t: np.interp(t, TABLE_T, rows), force), False


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
