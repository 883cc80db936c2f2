"""Tomographic probability representation of the forced parametric oscillator.

Quantum states are represented by the marginal distribution function
(tomogram) w(X, mu, nu, t): a genuine probability density for the
quadrature X = mu*q + nu*p, indexed by the phase-space frame (mu, nu).
The package provides

* :mod:`osctomo.dynamics` -- the auxiliary complex trajectory eps(t), the
  drive shift beta(t), the flow (eps, eps_dot, beta) at one time and
  Hermite utilities;
* :mod:`osctomo.invariants` -- linear and ladder integrals of motion;
* :mod:`osctomo.propagators` -- the affine classical propagator of the
  tomogram evolution equation and the quantum Green functions;
* :mod:`osctomo.states` -- closed-form coherent and Fock tomograms,
  Fourier-space forms and wavefunctions;
* :mod:`osctomo.transforms` -- the tomogram <-> density matrix <-> Wigner
  transform web;
* :mod:`osctomo.cli` -- the ``osctomo`` command line driver (``figure``,
  ``eval``, ``selftest``).

``import osctomo`` loads only :mod:`osctomo.errors`, whose exceptions it
re-exports.  Every other public name is listed once, in a table of the
submodule that defines it, and ``__all__`` is built from that table and
``errors.__all__``.  The submodule is imported on first use:
``osctomo.coherent_mdf`` (or ``from osctomo import coherent_mdf``) imports
:mod:`osctomo.states` then, and ``osctomo.states`` itself works the same
way.  The command line driver reaches the library through these same
names.

Dimensionless units throughout: hbar = m = 1, and omega = 1 for the
constant-frequency oscillator.  All public functions are pure; grids and
trajectories are immutable after construction, so everything is safe to
evaluate concurrently.
"""

import importlib

from . import errors
from .errors import *

__version__ = "0.1.0"

# The one record of where each public name lives: every public name outside
# errors, by the submodule that defines it.  The submodule is imported on
# first access (PEP 562) and the name is looked up on it each time, never
# copied here, so a patched submodule attribute is what the package root
# returns too.
_SUBMODULE_OF = {
    name: module
    for module, names in {
        "dynamics": (
            "DriveProfile", "EpsilonTrajectory", "solve_epsilon", "beta_shift", "flow_at",
            "parametric_resonance_epsilon", "hermite", "hermite_gauss",
        ),
        "invariants": (
            "LinearInvariant", "LadderInvariant", "lambda_matrix", "delta_vector",
            "linear_invariant", "ladder_pair",
        ),
        "propagators": (
            "ClassicalPropagator", "fokker_planck_residual", "green_sho", "green_free",
            "green_driven", "quantum_propagator",
        ),
        "states": (
            "coherent_mdf", "mean_X", "variance_X", "coherent_mdf_fourier",
            "fourier_ladder_apply", "annihilation_eigencheck", "fock_mdf", "cross_mdf",
            "coherent_wavefunction",
        ),
        "transforms": (
            "DensityGrid", "WignerGrid", "QuadratureSpec", "mdf_from_density",
            "density_from_mdf", "density_grid_from_mdf", "mdf_from_wigner",
        ),
    }.items()
    for name in names
}

__all__ = [*_SUBMODULE_OF, *errors.__all__, "__version__"]


def __getattr__(name):
    if name in _SUBMODULE_OF:
        # the import system binds a submodule here only once it has finished
        # loading, so a loaded one is read without import_module's lock
        module = _SUBMODULE_OF[name]
        return getattr(globals().get(module) or importlib.import_module(f".{module}", __name__), name)
    if name in _SUBMODULE_OF.values():
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULE_OF})
