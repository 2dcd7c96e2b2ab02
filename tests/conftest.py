"""Fixtures shared by the test modules."""

import pytest

from thermoforge import kernels


@pytest.fixture
def kernel_steps(monkeypatch):
    """The step count of each ``kernels.debruijn_power`` call in the test, in call order."""
    steps = []
    original = kernels.debruijn_power

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        steps.append(result[1])
        return result

    monkeypatch.setattr(kernels, "debruijn_power", counted)
    return steps
