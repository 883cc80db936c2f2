import warnings

import pytest

from osctomo import DriveProfile, solve_epsilon

# When a hypothesis property fails, hypothesis' pytest plugin imports
# hypothesis.extra._patching (and with it libcst) to report it.  libcst's
# import warns that mypy_extensions.TypedDict is deprecated, and under
# `pytest -W error` that warning turns the report into an INTERNALERROR
# that hides the falsifying example.  Importing the module here first,
# with only that one warning ignored, keeps every other warning an error.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def constant_traj():
    return solve_epsilon(DriveProfile.constant(1.0), 20.0, 1e-3)


@pytest.fixture(scope="session")
def free_traj():
    return solve_epsilon(DriveProfile.free(), 20.0, 1e-3)


@pytest.fixture(scope="session")
def resonance_traj():
    return solve_epsilon(DriveProfile.parametric_resonance(0.01), 20.0, 1e-3)
