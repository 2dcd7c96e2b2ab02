"""Tests for the numeric kernels."""

import numpy as np
import pytest

from thermoforge import kernels


class TestPowerIteration:
    def test_matches_dense_eigenvalue(self):
        rng = np.random.default_rng(7)
        n, window = 3, 4
        weights = np.exp(rng.uniform(-1.0, 1.0, size=n**window))
        tail = n ** (window - 2)
        n_states = n ** (window - 1)
        dense = np.zeros((n_states, n_states))
        for u in range(n_states):
            for j in range(n):
                dense[u, (u % tail) * n + j] += weights[u * n + j]
        expected = np.abs(np.linalg.eigvals(dense)).max()
        lam, _, converged = kernels.debruijn_power(weights, n, tail)
        assert converged
        assert lam == pytest.approx(expected, rel=1e-10)

    def test_sigma_shifts_eigenvalue_by_exactly_sigma(self):
        rng = np.random.default_rng(11)
        weights = np.exp(rng.uniform(-1.0, 0.0, size=16))
        lam0, _, c0 = kernels.debruijn_power(weights, 2, 4)
        lam1, _, c1 = kernels.debruijn_power(weights, 2, 4, sigma=0.25)
        assert c0 and c1
        assert lam1 - 0.25 == pytest.approx(lam0, rel=1e-12)

    def test_reports_unconverged_when_iterations_run_out(self):
        weights = np.exp(np.linspace(-1.0, 1.0, 16))
        lam, iterations, converged = kernels.debruijn_power(weights, 2, 4, max_iter=2)
        assert not converged
        assert iterations == 2
        assert np.isfinite(lam)


class TestSliceSweep:
    def test_solutions_satisfy_both_constraints(self):
        n, t, a0 = 20.0, 1.0, 3.0
        a1 = (a0 - np.log(n)) / t + 0.3
        ks = np.arange(1, 20, dtype=np.int64)
        za, zb, a2, ok = kernels.two_block_sweep(ks, n, t, a0, a1)
        assert ok.any()
        for i in np.flatnonzero(ok):
            k = float(ks[i])
            ea = k * np.exp(t * za[i] - a0)
            eb = (n - k) * np.exp(t * zb[i] - a0)
            assert za[i] <= zb[i]
            assert abs(ea + eb - 1.0) <= 1e-12
            assert abs(za[i] * ea + zb[i] * eb - a1) <= 1e-12
            assert a2[i] == pytest.approx(
                za[i] ** 2 * ea + zb[i] ** 2 * eb - a1**2, abs=1e-12
            )

    def test_infeasible_multiplicities_hold_nan(self):
        # A mean target above the single-slice reach: splits with a large
        # remaining block cannot hit it and must come back NaN / not-ok.
        n, t, a0 = 20.0, 1.0, 3.0
        a1 = (a0 - np.log(n)) / t + 0.3
        ks = np.arange(0, 21, dtype=np.int64)
        za, zb, a2, ok = kernels.two_block_sweep(ks, n, t, a0, a1)
        assert not ok.all()
        bad = ~ok
        assert np.isnan(za[bad]).all()
        assert np.isnan(zb[bad]).all()
        assert np.isnan(a2[bad]).all()
        # Degenerate splits (empty block on either side) are never solvable.
        assert not ok[0] and not ok[-1]
