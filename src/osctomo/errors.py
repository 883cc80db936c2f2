"""Exception types shared across the package."""

__all__ = [
    "OscTomoError",
    "EvaluationError",
    "WronskianDriftError",
    "ConsistencyError",
    "DegenerateFrameError",
    "CausticError",
    "FrameUnsupportedError",
    "UnsupportedOrderError",
    "QuadratureConvergenceError",
    "OutOfSupportWarning",
]


class OscTomoError(Exception):
    """Base class for all library-specific errors."""


class EvaluationError(OscTomoError):
    """A profile function returned a non-finite value, the drive integral
    over its finite values overflowed, or a Hermite polynomial, the
    weak-resonance closed form, a Green function's phase or a coherent
    frame's |r|^2 overflowed at a finite argument."""


class WronskianDriftError(OscTomoError):
    """Integration quality failure: the Wronskian drifted beyond tolerance.

    Carries the maximum observed drift in ``max_drift``.
    """

    def __init__(self, max_drift, tol):
        self.max_drift = max_drift
        self.tol = tol
        super().__init__(
            f"Wronskian drift {max_drift:.3e} exceeds tolerance {tol:.3e}"
        )


class ConsistencyError(OscTomoError):
    """Two algebraically equivalent evaluations disagree beyond roundoff."""


class DegenerateFrameError(OscTomoError):
    """The frame coefficient r = eps_dot*nu + eps*mu vanished."""


class CausticError(OscTomoError):
    """Propagator requested at a focal point (sin t = 0), where it is singular."""


class FrameUnsupportedError(OscTomoError):
    """Transform kernel is singular in the requested frame (nu = 0)."""


class UnsupportedOrderError(OscTomoError):
    """Hermite order outside the supported range."""


class QuadratureConvergenceError(OscTomoError):
    """Refining the quadrature changed the result by more than the tolerance."""


class OutOfSupportWarning(UserWarning):
    """A projection line missed the sampled grid entirely; the result is 0."""
