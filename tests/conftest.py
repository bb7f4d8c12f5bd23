"""Shared fixtures for the test suite.

The simulated "hardware" constants used here are deliberately coarse
(δ = 10 ms, ε = 2 ms, ρ = 10⁻⁴) so that drift and delay effects are visible in
runs of a handful of rounds, which keeps each test well under a second.
"""

import pytest

from repro.core import SyncParameters


@pytest.fixture(scope="session")
def small_params() -> SyncParameters:
    """The smallest interesting configuration: n = 4, f = 1."""
    return SyncParameters.derive(n=4, f=1, rho=1e-4, delta=0.01, epsilon=0.002)


@pytest.fixture(scope="session")
def medium_params() -> SyncParameters:
    """The workhorse configuration of the paper-claim tests: n = 7, f = 2."""
    return SyncParameters.derive(n=7, f=2, rho=1e-4, delta=0.01, epsilon=0.002)


@pytest.fixture(scope="session")
def driftfree_params() -> SyncParameters:
    """No drift, no delay uncertainty: the algorithm should be near-exact."""
    return SyncParameters.derive(n=4, f=1, rho=0.0, delta=0.01, epsilon=0.0,
                                 round_length=0.5)
