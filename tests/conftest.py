"""Fixtures shared by the test modules."""

import pytest

from thermoforge import kernels


@pytest.fixture
def _power_calls(monkeypatch):
    """Step counts and last shifts of each ``kernels.debruijn_power`` call, in call order."""
    steps, sigmas = [], []
    original = kernels.debruijn_power

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        steps.append(result[1])
        sigmas.append(result.sigma)
        return result

    monkeypatch.setattr(kernels, "debruijn_power", counted)
    return steps, sigmas


@pytest.fixture
def kernel_steps(_power_calls):
    """The step count of each ``kernels.debruijn_power`` call in the test, in call order."""
    return _power_calls[0]


@pytest.fixture
def kernel_sigmas(_power_calls):
    """The shift of the last step of each ``kernels.debruijn_power`` call, in call order."""
    return _power_calls[1]
