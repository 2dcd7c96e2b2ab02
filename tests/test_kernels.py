"""Tests for the numeric kernels."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoforge import kernels


def _dense_word_graph(weights, n, tail):
    """Dense transfer matrix of base-``n``-ordered word weights."""
    n_states = weights.size // n
    dense = np.zeros((n_states, n_states))
    for u in range(n_states):
        for j in range(n):
            dense[u, (u % tail) * n + j] += weights[u * n + j]
    return dense


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
        lam, _, converged = kernels.debruijn_power(weights.reshape(-1, n).T.ravel(), n)
        assert converged
        assert lam == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize(
        "n, window, sigma",
        [(2, 2, 0.0), (4, 2, 0.0), (5, 3, 0.0), (2, 5, 1.0), (3, 3, 1.0)],
    )
    def test_layout_against_eigvals(self, n, window, sigma):
        rng = np.random.default_rng(100 * n + window)
        weights = np.exp(rng.uniform(-1.0, 1.0, size=n**window))
        tail = n ** (window - 2)
        dense = _dense_word_graph(weights, n, tail)
        expected = np.abs(np.linalg.eigvals(dense)).max()
        layout = weights.reshape(-1, n).T.ravel()
        result = kernels.debruijn_power(layout, n, sigma=sigma)
        rho, _, converged = result
        assert converged
        assert rho == pytest.approx(expected, rel=1e-10)
        # A successor index spelling out the (tail, n) transposition is the
        # same step, bit for bit.
        succ = (np.arange(tail) * n + np.arange(n)[:, None]).ravel()
        assert kernels.debruijn_power(layout, n, sigma=sigma, succ=succ) == result

    def test_sigma_shifts_eigenvalue_by_exactly_sigma(self):
        # The iteration runs on A + sigma*I, which shares A's Perron vector,
        # and its bracket reads Ax before sigma*x is added: a starting shift
        # never changes rho.
        rng = np.random.default_rng(11)
        weights = np.exp(rng.uniform(-1.0, 0.0, size=16))
        rho0 = kernels.debruijn_power(weights, 2)[0]
        for sigma in (0.0, 0.25, 1.0, 10.0):
            result = kernels.debruijn_power(weights, 2, sigma=sigma)
            rho, _, converged = result
            assert converged
            assert rho == pytest.approx(rho0, rel=1e-12)
            assert result.sigma == sigma  # no stall, so the shift never switched

    def test_periodic_table_converges_from_sigma_zero(self):
        # The 3-cycle at window 2: only the words 01, 12 and 20 have weight,
        # so the unshifted iterate cycles with period 3 until the shift
        # switches to the bracket's geometric mean at step 64.
        weights = np.zeros(9)
        weights[[1, 5, 6]] = (0.3, 1.0, 0.6)
        result = kernels.debruijn_power(weights.reshape(-1, 3).T.ravel(), 3, sigma=0.0)
        rho, iterations, converged = result
        assert converged
        assert 64 < iterations < 300
        assert rho == pytest.approx((0.3 * 1.0 * 0.6) ** (1.0 / 3.0), rel=1e-12)
        assert result.sigma > 0.0

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 5),
        window=st.integers(2, 4),
        sigma=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_against_eigvals(self, n, window, sigma, seed):
        weights = np.exp(np.random.default_rng(seed).uniform(-1.0, 1.0, size=n**window))
        tail = n ** (window - 2)
        expected = np.abs(np.linalg.eigvals(_dense_word_graph(weights, n, tail))).max()
        result = kernels.debruijn_power(weights.reshape(-1, n).T.ravel(), n, sigma=sigma)
        rho, iterations, converged = result
        assert converged
        assert iterations % 4 == 0
        assert rho == pytest.approx(expected, rel=1e-10)
        # The bracket is at most tol wide and holds, up to rounding, both the
        # returned weighted mean and the dense eigenvalue.
        low, high = result.bracket
        assert high - low <= 1e-13 * low
        assert low * (1.0 - 1e-14) <= rho <= high * (1.0 + 1e-14)
        assert low * (1.0 - 1e-14) <= expected <= high * (1.0 + 1e-14)

    @pytest.mark.parametrize("max_iter", range(1, 10))
    def test_last_allowed_step_is_tested(self, monkeypatch, max_iter):
        # All-ones weights on n=2, tail 1: the uniform start is already the
        # eigenvector, so whichever step is tested first passes.
        monkeypatch.setattr(kernels, "_MAX_ITER", max_iter)
        lam, iterations, converged = kernels.debruijn_power(np.ones(4), 2)
        assert converged
        assert iterations <= max_iter
        assert lam == 2.0

    def test_peak_memory_is_the_three_state_buffers(self):
        n, window = 2, 14
        weights = np.exp(np.random.default_rng(13).uniform(-1.0, 1.0, size=n**window))
        state_bytes = 8 * n ** (window - 1)
        tracemalloc.start()
        try:
            kernels.debruijn_power(weights, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * state_bytes

    def test_reports_unconverged_when_iterations_run_out(self, monkeypatch):
        monkeypatch.setattr(kernels, "_MAX_ITER", 2)
        weights = np.exp(np.linspace(-1.0, 1.0, 16))
        lam, iterations, converged = kernels.debruijn_power(weights, 2)
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


def _atan_residual(za, zb):
    return math.atan(za), zb


def _atan_direction(za, zb, r):
    return kernels.newton_step(1.0 / (1.0 + za * za), 0.0, 0.0, 1.0, r[0], r[1])


def _l1(f1, f2):
    return abs(f1) + abs(f2)


class TestDampedNewton:
    def test_newton_step_solves_the_linear_system(self):
        dza, dzb = kernels.newton_step(2.0, 1.0, 1.0, 3.0, 5.0, 10.0)
        # J @ (dza, dzb) = -(f1, f2)
        assert 2.0 * dza + 1.0 * dzb == pytest.approx(-5.0, abs=1e-15)
        assert 1.0 * dza + 3.0 * dzb == pytest.approx(-10.0, abs=1e-15)

    @pytest.mark.parametrize(
        "jacobian", [(1.0, 2.0, 2.0, 4.0), (math.inf, 0.0, 0.0, 1.0), (math.nan, 0.0, 0.0, 1.0)]
    )
    def test_newton_step_is_none_for_a_singular_jacobian(self, jacobian):
        assert kernels.newton_step(*jacobian, 1.0, 1.0) is None

    def test_overshooting_step_is_accepted_after_halving(self):
        # From atan's za = 2 the full Newton step lands at -3.53, where
        # |atan| is larger than at the start; half the step lands at -0.77.
        full = -math.atan(2.0) * (1.0 + 4.0)
        assert abs(math.atan(2.0 + full)) > math.atan(2.0)
        za, zb, r, best, steps = kernels.damped_newton(
            _atan_residual, _atan_direction, 2.0, 0.0, 0.0, 1, _l1
        )
        assert steps == 1
        assert za == 2.0 + 0.5 * full
        assert r == _atan_residual(za, zb)
        assert best == abs(math.atan(za)) < math.atan(2.0)
        za, _, _, best, _ = kernels.damped_newton(
            _atan_residual, _atan_direction, 2.0, 0.0, 1e-15, 60, _l1
        )
        assert best <= 1e-15
        assert abs(za) <= 1e-15

    def test_no_direction_stops_without_raising(self):
        za, zb, r, best, steps = kernels.damped_newton(
            _atan_residual, lambda za, zb, r: None, 2.0, 3.0, 0.0, 60, _l1
        )
        assert (za, zb, steps) == (2.0, 3.0, 0)
        assert r == _atan_residual(2.0, 3.0)
        assert best == math.atan(2.0) + 3.0

    def test_step_without_descent_stops_after_forty_halvings(self):
        calls = []

        def residual(za, zb):
            calls.append(za)
            return za, zb

        za, _, _, best, steps = kernels.damped_newton(
            residual, lambda za, zb, r: (1.0, 0.0), 1.0, 0.0, 0.0, 60, _l1
        )
        assert (za, best, steps) == (1.0, 1.0, 1)
        assert len(calls) == 1 + 40

    def test_max_iter_is_respected(self):
        # Newton on za**2 halves za every step and never reaches tol = 0.
        def residual(za, zb):
            return za * za, zb

        def direction(za, zb, r):
            return kernels.newton_step(2.0 * za, 0.0, 0.0, 1.0, r[0], r[1])

        za, _, _, best, steps = kernels.damped_newton(
            residual, direction, 1.0, 0.0, 0.0, 5, _l1
        )
        assert steps == 5
        assert za == 2.0**-5
        assert best == 2.0**-10

    def test_converged_start_takes_no_step(self):
        za, zb, _, best, steps = kernels.damped_newton(
            _atan_residual, _atan_direction, 0.0, 0.0, 1e-15, 60, _l1
        )
        assert (za, zb, best, steps) == (0.0, 0.0, 0.0, 0)
