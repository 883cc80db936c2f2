"""Shared test utilities: analytic reference states, the Wigner fixture,
the strategy of drive profiles the property tests draw from, and the
independent routes the package's results are compared against: the ladder
pair reassembled into (Lambda, Delta), the ladder commutator, the
unit-frequency propagator with the force folded into beta, and running
products of RK4 steps through the solver's workspace."""

import cmath
import math

import numpy as np
from hypothesis import strategies as st

from osctomo import (
    ConsistencyError,
    DriveProfile,
    LadderInvariant,
    LinearInvariant,
    WignerGrid,
    green_sho,
)
from osctomo.dynamics import _block_products, _lay_out, _workspace
from osctomo.selftest import _driven_state as driven_state
from osctomo.states import _finite

SQRT2 = math.sqrt(2.0)

#: Largest imaginary residue tolerated when collapsing complex algebra to reals.
IMAG_RESIDUE_TOL = 1e-10

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


def _to_real(value: complex, what: str) -> float:
    if not abs(value.imag) <= IMAG_RESIDUE_TOL:  # a NaN residue fails too
        raise ConsistencyError(
            f"{what} has imaginary residue {value.imag:.3e} above {IMAG_RESIDUE_TOL}"
        )
    return float(value.real)


def ladder_commutator(a: LadderInvariant, b: LadderInvariant) -> complex:
    """Scalar commutator [a, b] of two linear forms, using [q, p] = 1j.

    [a, b] = (a.cp b.cq - a.cq b.cp) [p, q] = -1j (a.cp b.cq - a.cq b.cp);
    for a canonical pair from :func:`osctomo.ladder_pair` this equals 1.
    """
    return -1j * (a.cp * b.cq - a.cq * b.cp)


def invariant_from_ladder(
    a: LadderInvariant, adag: LadderInvariant, t: float = 0.0
) -> LinearInvariant:
    """Reassemble (Lambda, Delta) from the ladder pair.

    Agrees componentwise with :func:`osctomo.lambda_matrix` /
    :func:`osctomo.delta_vector` built from the same (eps, eps_dot, beta);
    the reference the matrix form is compared against.
    """
    i_p = [(a.cp - adag.cp) / (SQRT2 * 1j), (a.cq - adag.cq) / (SQRT2 * 1j),
           (a.c0 - adag.c0) / (SQRT2 * 1j)]
    i_q = [(a.cp + adag.cp) / SQRT2, (a.cq + adag.cq) / SQRT2,
           (a.c0 + adag.c0) / SQRT2]
    lam = np.array([
        [_to_real(i_p[0], "I_p p-coefficient"), _to_real(i_p[1], "I_p q-coefficient")],
        [_to_real(i_q[0], "I_q p-coefficient"), _to_real(i_q[1], "I_q q-coefficient")],
    ])
    delta = np.array([_to_real(i_p[2], "I_p shift"), _to_real(i_q[2], "I_q shift")])
    return LinearInvariant(lam, delta, t)


def quantum_propagator_from_shift(
    X: float, Xp: float, Z: float, Zp: float, t: float, beta: complex
) -> complex:
    """Driven unit-frequency propagator with the force folded into the shift beta.

    The unit-frequency cross-check of :func:`osctomo.quantum_propagator`, by
    an independent route: the force enters only
    through beta(t) = -(1j/sqrt 2) integral eps f, via the factor

        exp{ -(1j/sqrt 2) [ beta e^{-1j t} (-1j D + E)
                          + conj(beta) e^{1j t} (1j D + E) ] },

    D = X - Xp,  E = (Z - Zp - D cos t) / sin t,

    multiplying the force-free oscillator propagator.
    """
    X, Xp, Z, Zp, t, beta = _finite(X=X, Xp=Xp, Z=Z, Zp=Zp, t=t, beta=beta)
    k_sho = green_sho(X, Z, t) * green_sho(Xp, Zp, t).conjugate()
    s = math.sin(t)
    beta = complex(beta)
    d = X - Xp
    e = (Z - Zp) / s - d * math.cos(t) / s
    shift = (-1j / SQRT2) * (
        beta * cmath.exp(-1j * t) * (-1j * d + e)
        + beta.conjugate() * cmath.exp(1j * t) * (1j * d + e)
    )
    return k_sho * cmath.exp(shift)


def _prefix_products(steps: np.ndarray) -> np.ndarray:
    """Running products of (2, 2, n) differences from the identity, through
    the workspace of :func:`osctomo.solve_epsilon`: column k of the result is
    (1 + A_k)...(1 + A_0) - 1."""
    n = steps.shape[-1]
    levels, spare = _workspace(n)
    _lay_out(steps, levels[0])
    _block_products(levels, spare, n)
    return levels[0].transpose(0, 1, 3, 2).reshape(2, 2, -1)[..., :n]
