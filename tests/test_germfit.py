"""Realizing (value, slope[, curvature]) targets with finite value sets."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_values import EXTREME_PAIR_ROWS, UPPER_BRANCH_ROOT
from thermoforge import germfit, kernels
from thermoforge.errors import (
    DomainError,
    FeasibilityError,
    NoSolutionError,
    RangeError,
)
from thermoforge.germfit import (
    FitResult,
    Germ,
    feasibility_level1,
    feasible_a2_range,
    fit_level1,
    fit_level2,
    invert_zexp,
    solve_extreme_pair,
    solve_extreme_pair_full,
)
from thermoforge.pressure import pressure_jet

E2 = math.exp(2.0)


def _random_feasible_germ(rng, n, with_curvature=False):
    t_star = float(rng.uniform(0.2, 3.0))
    a0 = float(rng.uniform(-2.0, 4.0))
    lower = (a0 - math.log(n)) / t_star
    upper = a0 / t_star
    margin = 1e-3 * (upper - lower)
    a1 = float(rng.uniform(lower + margin, upper - margin))
    germ = Germ(t_star, (a0, a1))
    if not with_curvature:
        return germ
    low, high = feasible_a2_range(germ, n)
    u = float(rng.uniform(0.05, 0.95))
    return Germ(t_star, (a0, a1, low + u * (high - low)))


class TestGerm:
    def test_coefficient_accessors(self):
        germ = Germ(1.5, (2.0, 1.0))
        assert (germ.t_star, germ.a0, germ.a1, germ.a2) == (1.5, 2.0, 1.0, None)
        full = Germ(1.5, (2.0, 1.0, 0.3))
        assert full.a2 == 0.3

    def test_validation(self):
        with pytest.raises(DomainError):
            Germ(0.0, (1.0, 0.5))
        with pytest.raises(DomainError):
            Germ(-1.0, (1.0, 0.5))
        with pytest.raises(DomainError):
            Germ(1.0, (1.0,))
        with pytest.raises(DomainError):
            Germ(1.0, (1.0, 0.5, 0.1, 0.0))
        with pytest.raises(DomainError):
            Germ(1.0, (math.nan, 0.5))
        with pytest.raises(DomainError):
            Germ(1.0, (1.0, 0.5, -0.1))


class TestFeasibility:
    def test_strict_interval(self):
        germ_mid = Germ(1.0, (2.0, 1.5))
        assert feasibility_level1(germ_mid, 3)
        # Both endpoints are excluded.
        assert not feasibility_level1(Germ(1.0, (2.0, 2.0)), 3)
        assert not feasibility_level1(Germ(1.0, (2.0, 2.0 - math.log(3.0))), 3)
        assert not feasibility_level1(Germ(1.0, (2.0, 5.0)), 3)
        assert not feasibility_level1(Germ(1.0, (2.0, -5.0)), 3)

    def test_accepts_real_sizes(self):
        germ = Germ(1.0, (2.0, 1.9))
        assert feasibility_level1(germ, 2.5)
        assert isinstance(feasibility_level1(germ, 1e300), bool)
        with pytest.raises(DomainError):
            feasibility_level1(germ, 1.5)
        with pytest.raises(DomainError):
            feasibility_level1(germ, math.inf)

    def test_interval_widens_with_size(self):
        # A slope below a0/t_star eventually becomes attainable as the
        # value-set size grows.
        germ = Germ(1.0, (0.0, -3.0))
        assert not feasibility_level1(germ, 10)
        assert feasibility_level1(germ, 100)


class TestFitLevel1:
    def test_random_round_trips(self):
        rng = np.random.Generator(np.random.Philox(101))
        for _ in range(40):
            n = int(rng.integers(2, 120))
            germ = _random_feasible_germ(rng, n)
            result = fit_level1(germ, n)
            assert isinstance(result, FitResult)
            assert len(result.z) == n
            assert result.z == tuple(sorted(result.z))
            assert result.achieved.derivs[0] == pytest.approx(germ.a0, abs=1e-12)
            assert result.achieved.derivs[1] == pytest.approx(
                germ.a1, rel=1e-10, abs=1e-10
            )
            scale = max(1.0, math.exp(germ.a0))
            assert result.residuals["value"] <= 1e-10 * scale
            assert result.residuals["slope"] <= 1e-10 * scale
            assert result.feasible_a2 is None

    def test_two_value_structure(self):
        result = fit_level1(Germ(1.0, (2.0, 1.0)), 11)
        assert len(set(result.z)) == 2
        assert result.z.count(result.z[0]) == 10

    def test_recomputed_jet_is_independent(self):
        result = fit_level1(Germ(1.0, (1.0, 0.4)), 5)
        jet = pressure_jet(result.potential(), 1.0, 2)
        assert jet.derivs == result.achieved.derivs

    def test_infeasible_target_raises_with_bounds(self):
        with pytest.raises(FeasibilityError) as info:
            fit_level1(Germ(1.0, (2.0, 2.0)), 3)
        assert "a0/t_star" in str(info.value) or "< a1 <" in str(info.value)


class TestFeasibleCurvatureRange:
    def test_two_values_give_degenerate_range(self):
        germ = Germ(1.0, (1.0, 0.6))
        low, high = feasible_a2_range(germ, 2)
        assert low == pytest.approx(high, rel=1e-12)
        assert low >= 0.0

    def test_range_is_ordered_and_non_negative(self):
        rng = np.random.Generator(np.random.Philox(103))
        for _ in range(15):
            n = int(rng.integers(3, 40))
            germ = _random_feasible_germ(rng, n)
            low, high = feasible_a2_range(germ, n)
            assert 0.0 <= low <= high

    def test_endpoints_are_attained_by_two_value_splits(self):
        germ = Germ(1.0, (2.0, 1.0))
        low, high = feasible_a2_range(germ, 6)
        for target in (low, high):
            result = fit_level2(Germ(1.0, (2.0, 1.0, target)), 6)
            assert result.residuals["curvature"] <= 1e-8
            assert len(set(result.z)) <= 2

    def test_infeasible_slope_raises(self):
        with pytest.raises(FeasibilityError):
            feasible_a2_range(Germ(1.0, (2.0, 9.0)), 4)

    def test_skipped_split_warns_from_both_entry_points(self, monkeypatch):
        original = kernels.two_block_sweep
        # At n = 6 this germ reaches the slope target from split k = 4 on,
        # so both the scan and the bisection solve split 4.
        broken_k = 4

        def drop_split(ks, *args, **kwargs):
            za, zb, a2, ok = (arr.copy() for arr in original(ks, *args, **kwargs))
            broken = ks == broken_k
            za[broken] = zb[broken] = a2[broken] = np.nan
            ok[broken] = False
            return za, zb, a2, ok

        monkeypatch.setattr(kernels, "two_block_sweep", drop_split)
        with pytest.warns(UserWarning) as range_warnings:
            low, high = feasible_a2_range(Germ(1.0, (2.0, 1.0)), 6)
        with pytest.warns(UserWarning) as fit_warnings:
            result = fit_level2(Germ(1.0, (2.0, 1.0, high)), 6)
        assert result.feasible_a2 == (low, high)
        messages = [str(w.message) for w in range_warnings]
        assert messages == ["1 two-value split(s) skipped: Newton did not converge"]
        assert [str(w.message) for w in fit_warnings] == messages
        # The warning points at the caller, not inside the package.
        assert {w.filename for w in [*range_warnings, *fit_warnings]} == {__file__}


class TestSplitProbes:
    @staticmethod
    def _count_sweeps(monkeypatch):
        calls = []
        original = kernels.two_block_sweep

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(kernels, "two_block_sweep", counting)
        return calls

    @pytest.mark.parametrize("n", [12, 1000, 2**16])
    def test_check_then_fit_sweeps_once_then_bisects(self, monkeypatch, n):
        # The germ of ROADMAP item 3: slope 0.05 above its lower limit.
        a0 = 2.0
        germ = Germ(1.0, (a0, a0 - math.log(n) + 0.05))
        calls = self._count_sweeps(monkeypatch)
        if n <= 1000:
            low, high = feasible_a2_range(germ, n)
            assert calls == [n - 1]
        else:
            # A full sweep takes seconds here; solve the two end splits instead.
            k_min = int(n * (1.0 - math.exp(-0.05))) + 1
            _, _, (low, high), _ = kernels.two_block_sweep(
                np.array([k_min, n - 1]), float(n), 1.0, *germ.coeffs
            )
        calls.clear()
        result = fit_level2(Germ(1.0, (*germ.coeffs, 0.5 * (low + high))), n)
        assert result.residuals["curvature"] <= 1e-8
        assert calls and set(calls) == {1}
        assert len(calls) <= math.ceil(math.log2(n)) + 4


class TestFitLevel2:
    def test_intermediate_targets(self):
        rng = np.random.Generator(np.random.Philox(107))
        for _ in range(12):
            n = int(rng.integers(3, 40))
            germ = _random_feasible_germ(rng, n, with_curvature=True)
            result = fit_level2(germ, n)
            assert len(result.z) == n
            assert result.residuals["curvature"] <= 1e-8
            scale = max(1.0, math.exp(germ.a0))
            assert result.residuals["value"] <= 1e-9 * scale
            assert result.residuals["slope"] <= 1e-9 * scale
            assert result.feasible_a2 is not None
            low, high = result.feasible_a2
            assert low - 1e-10 <= germ.a2 <= high + 1e-10
            # One sliding coordinate added to a two-value split.
            assert len(set(result.z)) <= 3

    def test_achieved_jet_matches_all_three_targets(self):
        germ = Germ(0.8, (1.2, 0.9, 0.4))
        low, high = feasible_a2_range(Germ(0.8, (1.2, 0.9)), 7)
        target = min(max(germ.a2, low), high)
        result = fit_level2(Germ(0.8, (1.2, 0.9, target)), 7)
        assert result.achieved.derivs[0] == pytest.approx(1.2, abs=1e-10)
        assert result.achieved.derivs[1] == pytest.approx(0.9, abs=1e-10)
        assert result.achieved.derivs[2] == pytest.approx(target, abs=1e-8)

    def test_out_of_range_curvature_reports_the_range(self):
        germ = Germ(1.0, (2.0, 1.0))
        low, high = feasible_a2_range(germ, 5)
        with pytest.raises(RangeError) as info:
            fit_level2(Germ(1.0, (2.0, 1.0, high + 1.0)), 5)
        message = str(info.value)
        assert "range" in message
        assert str(high)[:6] in message
        assert low > 0.1  # this germ cannot be flattened at size 5 ...
        with pytest.raises(RangeError):
            fit_level2(Germ(1.0, (2.0, 1.0, 0.0)), 5)  # ... so zero is below range

    def test_requires_curvature_coefficient(self):
        with pytest.raises(DomainError):
            fit_level2(Germ(1.0, (2.0, 1.0)), 5)


_PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def _feasible_germs(draw, min_n):
    n = draw(st.integers(min_n, 64))
    t_star = draw(st.floats(0.2, 3.0))
    a0 = draw(st.floats(-2.0, 4.0))
    lower, upper = (a0 - math.log(n)) / t_star, a0 / t_star
    fraction = draw(st.floats(1e-3, 1.0 - 1e-3))
    return n, Germ(t_star, (a0, lower + fraction * (upper - lower)))


@st.composite
def _wide_scale_germs(draw):
    """Germs whose fitted values all lie below -40, where rounding grows with |z|."""
    n = draw(st.integers(3, 300))
    t_star = draw(st.floats(0.2, 0.3))
    a0 = draw(st.floats(-20.0, -12.0))
    lower, upper = (a0 - math.log(n)) / t_star, a0 / t_star
    fraction = draw(st.floats(1e-3, 1.0 - 1e-3))
    return n, Germ(t_star, (a0, lower + fraction * (upper - lower)))


def _full_table_fit(germ, n):
    """``fit_level2``'s values and range from a solve of every split.

    The reference selection: the split nearest the target if it matches,
    else the first adjacent pair of converged splits that brackets it.
    Returns ``(sorted z, feasible_a2)``.
    """
    za, zb, a2, ok = kernels.two_block_sweep(
        np.arange(1, n), float(n), germ.t_star, germ.a0, germ.a1, germfit._NEWTON_TOL
    )
    splits = [
        (k, float(za[i]), float(zb[i]), float(a2[i]))
        for i, k in enumerate(range(1, n)) if ok[i]
    ]
    curvatures = [split[3] for split in splits]
    bounds = (max(min(curvatures), 0.0), max(curvatures))
    target = germ.a2
    k, za_k, zb_k, a2_k = min(splits, key=lambda split: abs(split[3] - target))
    if abs(a2_k - target) <= germfit._CURVATURE_TOL:
        return sorted(k * [za_k] + (n - k) * [zb_k]), bounds
    for (k, _, _, a2_k), upper in zip(splits, splits[1:]):
        if upper[0] == k + 1 and min(a2_k, upper[3]) <= target <= max(a2_k, upper[3]):
            return sorted(germfit._slide(germ, n, k, upper)), bounds
    raise AssertionError(f"no adjacent splits bracket {target}")


class TestFitProperties:
    @_PROPERTY_SETTINGS
    @given(_feasible_germs(min_n=2))
    def test_level1_round_trips(self, case):
        n, germ = case
        result = fit_level1(germ, n)
        assert len(result.z) == n
        scale = max(1.0, math.exp(germ.a0))
        assert result.residuals["value"] <= 1e-10 * scale
        assert result.residuals["slope"] <= 1e-10 * scale

    @_PROPERTY_SETTINGS
    @given(_feasible_germs(min_n=3), st.floats(0.0, 1.0))
    def test_level2_round_trips_inside_the_range(self, case, fraction):
        n, germ = case
        low, high = feasible_a2_range(germ, n)
        target = Germ(germ.t_star, (*germ.coeffs, low + fraction * (high - low)))
        result = fit_level2(target, n)
        assert len(result.z) == n
        assert len(set(result.z)) <= 3
        assert result.residuals["curvature"] <= 1e-8
        scale = max(1.0, math.exp(germ.a0))
        assert result.residuals["value"] <= 1e-9 * scale
        assert result.residuals["slope"] <= 1e-9 * scale

    @_PROPERTY_SETTINGS
    @given(_feasible_germs(min_n=3), st.floats(0.0, 1.0))
    def test_level2_after_the_range_matches_a_cold_fit(self, case, fraction):
        n, germ = case
        low, high = feasible_a2_range(germ, n)
        target = Germ(germ.t_star, (*germ.coeffs, low + fraction * (high - low)))
        warm = fit_level2(target, n)
        cold = fit_level2(target, n)
        assert warm.feasible_a2 == (low, high)
        # Float reprs round-trip, so equal reprs are equal bits.
        assert repr(warm) == repr(cold)

    @_PROPERTY_SETTINGS
    @given(_feasible_germs(min_n=3), st.floats(0.0, 1.0))
    def test_level2_matches_the_full_table_selection(self, case, fraction):
        n, germ = case
        low, high = feasible_a2_range(germ, n)
        target = Germ(germ.t_star, (*germ.coeffs, low + fraction * (high - low)))
        result = fit_level2(target, n)
        z, bounds = _full_table_fit(target, n)
        assert result.feasible_a2 == bounds
        assert list(result.z) == z

    @_PROPERTY_SETTINGS
    @given(_wide_scale_germs(), st.floats(0.0, 1.0))
    def test_wide_scale_level2_round_trips(self, case, fraction):
        n, germ = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no split may be skipped
            low, high = feasible_a2_range(germ, n)
            target = Germ(germ.t_star, (*germ.coeffs, low + fraction * (high - low)))
            result = fit_level2(target, n)
        assert max(abs(v) for v in result.z) >= 40.0
        assert result.feasible_a2 == (low, high)
        assert result.residuals["curvature"] <= 1e-8
        scale = max(1.0, math.exp(germ.a0))
        assert result.residuals["value"] <= 1e-9 * scale
        assert result.residuals["slope"] <= 1e-9 * scale


class TestExtremePair:
    @pytest.mark.parametrize("row", EXTREME_PAIR_ROWS[::6] + (EXTREME_PAIR_ROWS[-1],))
    def test_matches_frozen_references(self, row):
        exponent, z_low_str, z_high_str = row
        result = solve_extreme_pair_full(10.0**exponent)
        assert result["z_low"] == pytest.approx(float(z_low_str), rel=5e-12)
        assert result["z_high"] == pytest.approx(float(z_high_str), rel=5e-12)
        assert max(result["residuals"]) <= 1e-13 * E2
        assert 0 < result["iterations"] <= 60

    def test_matches_general_fitter_at_small_size(self):
        # The extreme pair at multiplicity N is the (N, 1) two-value fit
        # of the unit-parameter target (value 2, slope 1).
        pair = solve_extreme_pair(10.0)
        fit = fit_level1(Germ(1.0, (2.0, 1.0)), 11)
        assert fit.z[0] == pytest.approx(pair[0], rel=1e-12)
        assert fit.z[-1] == pytest.approx(pair[1], rel=1e-12)

    def test_huge_multiplicities_stay_finite(self):
        result = solve_extreme_pair_full(1e40)
        assert math.isfinite(result["z_low"])
        assert result["z_low"] == pytest.approx(-94.6851001796304, rel=1e-12)
        assert 1.0 < result["z_high"] < 2.0

    def test_low_value_drifts_like_minus_log(self):
        lows = [solve_extreme_pair(10.0**k)[0] for k in (2, 4, 8, 16)]
        assert all(a > b for a, b in zip(lows, lows[1:]))
        # Remainder after removing the leading drift stays order-one.
        for k, low in zip((2, 4, 8, 16), lows):
            logn = k * math.log(10.0)
            remainder = low + logn + math.log(logn)
            assert 1.0 < remainder < 2.0

    @pytest.mark.parametrize("multiplicity, steps", [(1e1, 6), (2.5e3, 5), (1e40, 7)])
    def test_newton_step_counts(self, multiplicity, steps):
        # The counts table3 reports (pinned in tests/cli_golden.json).
        assert solve_extreme_pair_full(multiplicity)["iterations"] == steps

    def test_small_multiplicity_rejected(self):
        for bad in (9.999, 0.0, -5.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                solve_extreme_pair_full(bad)


class TestInvertZexp:
    def test_round_trips_on_both_branches(self):
        rng = np.random.Generator(np.random.Philox(113))
        for _ in range(50):
            t_star = float(rng.uniform(0.3, 2.5))
            z_upper = float(rng.uniform(-1.0 / t_star, 5.0))
            y = z_upper * math.exp(t_star * z_upper)
            back = invert_zexp(y, "upper", t_star)
            assert back == pytest.approx(z_upper, rel=1e-10, abs=1e-12)
            z_lower = float(rng.uniform(-20.0, -1.0 / t_star))
            y = z_lower * math.exp(t_star * z_lower)
            back = invert_zexp(y, "lower", t_star)
            assert back == pytest.approx(z_lower, rel=1e-10, abs=1e-12)

    def test_frozen_upper_root(self):
        # The upper-branch solution of z*exp(z) = e**2.
        root = invert_zexp(E2, "upper", 1.0)
        assert root == pytest.approx(float(UPPER_BRANCH_ROOT), rel=1e-13)

    def test_junction_and_minimum(self):
        t_star = 2.0
        minimum = -math.exp(-1.0) / t_star
        assert invert_zexp(minimum, "lower", t_star) == pytest.approx(-0.5, rel=1e-12)
        assert invert_zexp(minimum, "upper", t_star) == pytest.approx(-0.5, rel=1e-12)

    def test_no_solution_cases(self):
        minimum = -math.exp(-1.0)
        with pytest.raises(NoSolutionError):
            invert_zexp(minimum - 1e-6, "lower", 1.0)
        with pytest.raises(NoSolutionError):
            invert_zexp(0.0, "lower", 1.0)
        with pytest.raises(NoSolutionError):
            invert_zexp(1.0, "lower", 1.0)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            invert_zexp(1.0, "middle", 1.0)
        with pytest.raises(DomainError):
            invert_zexp(1.0, "upper", 0.0)

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("branch", ["lower", "upper"])
    def test_non_finite_values_rejected(self, y, branch):
        with pytest.raises(DomainError, match="finite"):
            invert_zexp(y, branch, 1.0)

    def test_huge_upper_value_does_not_overflow(self):
        # The root is near 684; doubling the bracket past it would overflow exp.
        # A rounding of z moves z*exp(z) by about z ulps, so check the logs.
        root = invert_zexp(1e300, "upper", 1.0)
        assert 684.0 < root < 685.0
        assert math.log(root) + root == pytest.approx(math.log(1e300), rel=1e-15)
        assert root * math.exp(root) == pytest.approx(1e300, rel=1e-12)

    def test_large_parameter_upper_branch(self):
        # exp(t_star * z) overflows at the default bracket z = 1.
        root = invert_zexp(1.0, "upper", 1000.0)
        assert math.log(root) + 1000.0 * root == pytest.approx(0.0, abs=1e-12)
