"""Curvature diagnostics and the two obstruction inequalities."""

import json
import math

import mpmath as mp
import numpy as np
import pytest

from thermoforge.errors import DomainError, InsufficientDataError
from thermoforge.rigidity import (
    MIN_DECAY_RATE,
    CandidateFunction,
    RigidityReport,
    divergence_diagnostic,
    fabc_curvature_parts,
    fabc_derivs,
    rigidity_inequalities,
)
from thermoforge.symbolic import CylinderPotential, SubshiftSpec

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(values):
    return CylinderPotential(SubshiftSpec(len(values)), 1, values)


def _fd_derivs(a, b, c, t):
    """Independent finite-difference oracle for the closed family.

    Each order gets its own step: the 1/h**k amplification of rounding
    noise forces progressively larger steps for higher derivatives.
    """

    def f(u):
        w = math.exp(-c * u * u)
        return a * u + b + w * (1.0 + 1.0 / u)

    def second(h):
        return (f(t + h) - 2.0 * f(t) + f(t - h)) / h**2

    def third(h):
        return (
            f(t + 2 * h) - 2.0 * f(t + h) + 2.0 * f(t - h) - f(t - 2 * h)
        ) / (2.0 * h**3)

    h1, h2, h3 = 1e-6, 2e-4, 2e-3
    f1 = (f(t + h1) - f(t - h1)) / (2.0 * h1)
    f2 = (4.0 * second(h2 / 2.0) - second(h2)) / 3.0
    f3 = (4.0 * third(h3 / 2.0) - third(h3)) / 3.0
    return f1, f2, f3


class TestClosedFamily:
    def test_value_at_one(self):
        # a=1, b=4, c=1:  F(1) = 1 + 4 + e**-1 * (1 + 1) = 5 + 2/e.
        f0, _, _, _ = fabc_derivs(1.0, 4.0, 1.0, 1.0)
        assert f0 == pytest.approx(5.0 + 2.0 / math.e, rel=1e-15)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.Generator(np.random.Philox(211))
        for _ in range(50):
            a = float(rng.uniform(0.2, 3.0))
            b = float(rng.uniform(0.2, 3.0))
            c = float(rng.uniform(MIN_DECAY_RATE + 0.05, 2.5))
            t = float(rng.uniform(0.3, 4.0))
            f0, f1, f2, f3 = fabc_derivs(a, b, c, t)
            o1, o2, o3 = _fd_derivs(a, b, c, t)
            assert f1 == pytest.approx(o1, rel=1e-6, abs=1e-8)
            # The absolute floors are set by the oracle's rounding noise
            # (~|f| * 1e-16 / h**k), not by the closed forms under test.
            assert f2 == pytest.approx(o2, rel=1e-5, abs=1e-6)
            assert f3 == pytest.approx(o3, rel=1e-4, abs=1e-4)

    def test_factored_parts_reassemble(self):
        for t in (0.1, 0.7, 2.0, 9.0):
            _, _, f2, f3 = fabc_derivs(0.8, 1.2, 1.1, t)
            lw, poly2, poly3 = fabc_curvature_parts(0.8, 1.2, 1.1, t)
            assert math.exp(lw) * poly2 == pytest.approx(f2, rel=1e-14)
            assert math.exp(lw) * poly3 == pytest.approx(f3, rel=1e-14)

    def test_convex_on_positive_axis(self):
        for t in (0.01, 0.1, 1.0, 10.0, 50.0):
            _, poly2, _ = fabc_curvature_parts(1.0, 1.0, 1.0, t)
            assert poly2 > 0.0

    def test_approaches_supporting_line_from_above(self):
        a, b, c = 1.3, 0.7, 1.0
        for t in (0.5, 1.0, 5.0):
            f0, *_ = fabc_derivs(a, b, c, t)
            assert f0 > a * t + b
        # Far out the Gaussian gap drops below one float ulp of the line.
        f_far, *_ = fabc_derivs(a, b, c, 20.0)
        assert f_far >= a * 20.0 + b
        assert f_far - (a * 20.0 + b) < 1e-12

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            fabc_derivs(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            fabc_derivs(1.0, -1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            fabc_derivs(1.0, 1.0, MIN_DECAY_RATE, 1.0)
        with pytest.raises(DomainError):
            fabc_derivs(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            fabc_derivs(1.0, 1.0, 1.0, -2.0)


class TestDivergenceDiagnostic:
    def test_golden_value_at_twenty(self):
        fn = CandidateFunction.from_fabc(1.0, 1.0, 1.0)
        (d,), (ok,) = divergence_diagnostic(fn, [20.0])
        assert ok
        assert d / 20.0 == pytest.approx(-1.9951136720675655, rel=1e-12)

    def test_grows_without_bound(self):
        fn = CandidateFunction.from_fabc(1.0, 1.0, 1.0)
        grid = [5.0, 20.0, 60.0, 100.0]
        d_values, flags = divergence_diagnostic(fn, grid)
        assert all(flags)
        assert all(a > b for a, b in zip(d_values, d_values[1:]))
        for threshold in (10.0, 50.0, 100.0):
            assert min(d_values) < -threshold
        # Large-t behavior ~ -2*c*t.
        assert d_values[-1] / 100.0 == pytest.approx(-2.0, abs=0.05)

    def test_underflowed_weight_keeps_diagnostic_finite(self):
        fn = CandidateFunction.from_fabc(1.0, 1.0, 1.0)
        # exp(-t**2) underflows past t ~ 27; the factored form must survive.
        (d,), (ok,) = divergence_diagnostic(fn, [40.0])
        assert ok
        assert math.isfinite(d)
        assert d == pytest.approx(-80.0, rel=0.05)

    def test_pressure_candidate_stays_small(self):
        fn = CandidateFunction.from_potential(_phi([0.0, 1.0]))
        grid = np.linspace(0.5, 50.0, 12)
        d_values, flags = divergence_diagnostic(fn, grid)
        assert all(flags)
        assert max(abs(d) for d in d_values) < 10.0

    def test_flat_candidate_is_flagged_not_dropped(self):
        fn = CandidateFunction.from_potential(_phi([2.0, 2.0]))
        d_values, flags = divergence_diagnostic(fn, [1.0, 2.0])
        assert flags == (False, False)
        assert all(math.isnan(d) for d in d_values)


class TestCandidateValidation:
    def test_kind_must_be_known(self):
        with pytest.raises(DomainError):
            CandidateFunction(kind="mystery")

    def test_fabc_needs_params(self):
        with pytest.raises(DomainError):
            CandidateFunction(kind="fabc")

    def test_potential_candidates_need_simple_potentials(self):
        with pytest.raises(DomainError):
            CandidateFunction(kind="potential")
        wide = CylinderPotential(SubshiftSpec(2), 2, [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            CandidateFunction.from_potential(wide)

    def test_tabulated_needs_uniform_increasing_grid(self):
        grid = tuple(np.linspace(1.0, 2.0, 9))
        values = tuple(float(x) ** 2 for x in grid)
        CandidateFunction.from_table(grid, values)  # fine
        with pytest.raises(InsufficientDataError):
            CandidateFunction.from_table(grid[:5], values[:5])
        with pytest.raises(DomainError):
            CandidateFunction.from_table(grid, values[:-1])
        with pytest.raises(DomainError):
            CandidateFunction.from_table(tuple(reversed(grid)), values)
        ragged = grid[:4] + (grid[4] + 0.01,) + grid[5:]
        with pytest.raises(DomainError):
            CandidateFunction.from_table(ragged, values)

    def test_domain_start_must_be_positive(self):
        with pytest.raises(DomainError):
            CandidateFunction.from_fabc(1.0, 1.0, 1.0, domain_start=-1.0)

    def test_grid_respects_domain_start(self):
        fn = CandidateFunction.from_fabc(1.0, 1.0, 1.0, domain_start=2.0)
        with pytest.raises(DomainError):
            divergence_diagnostic(fn, [1.0, 3.0])
        d_values, _ = divergence_diagnostic(fn, [3.0])
        assert len(d_values) == 1

    def test_tabulated_rejects_boundary_and_off_grid_points(self):
        grid = tuple(np.linspace(0.0, 1.0, 11))
        values = tuple(x * x for x in grid)
        fn = CandidateFunction.from_table(grid, values)
        with pytest.raises(DomainError):
            divergence_diagnostic(fn, [0.1])  # index 1: stencil needs two nodes left
        with pytest.raises(DomainError):
            divergence_diagnostic(fn, [0.55])  # not a node


class TestTabulatedDerivatives:
    def test_match_closed_family(self):
        a, b, c = 1.0, 1.0, 1.0
        h = 0.02
        grid = tuple(1.0 + h * i for i in range(101))
        values = tuple(fabc_derivs(a, b, c, t)[0] for t in grid)
        fn = CandidateFunction.from_table(grid, values)
        report = rigidity_inequalities(fn, [1.5, 2.0], m_phi=1.0)
        for i, t in enumerate(report.grid):
            _, _, f2, f3 = fabc_derivs(a, b, c, t)
            assert report.second[i] == pytest.approx(f2, rel=1e-3)
            assert report.third[i] == pytest.approx(f3, rel=2e-2, abs=1e-3)


class TestRigidityInequalities:
    def test_constant_potential_holds_trivially(self):
        fn = CandidateFunction.from_potential(_phi([1.0, 1.0, 1.0]))
        report = rigidity_inequalities(fn, [0.5, 1.0], m_phi=0.0)
        assert report.curvature_ok == (False, False)
        assert report.cubic_holds == (True, True)
        assert report.quartic_holds == (True, True)
        assert report.cubic_lhs == (0.0, 0.0)
        assert report.tension["cubic_fail_count"] == 0

    def test_symmetric_potential_has_zero_cubic_left_side(self):
        fn = CandidateFunction.from_potential(_phi([-0.5, 0.5]))
        report = rigidity_inequalities(fn, [0.0], m_phi=0.0)
        # At the symmetry point the third derivative vanishes exactly.
        assert report.cubic_lhs[0] == pytest.approx(0.0, abs=1e-16)
        assert report.cubic_holds[0]

    def test_skewed_potential_fails_cubic_at_zero_m_phi(self):
        fn = CandidateFunction.from_potential(_phi([0.0, 0.0, 1.0]))
        report = rigidity_inequalities(fn, [1.0], m_phi=0.0)
        assert not report.cubic_holds[0]
        assert report.cubic_lhs[0] > 0.0
        assert report.cubic_rhs[0] == 0.0
        assert report.quartic_holds[0]
        assert report.tension["cubic_fail_count"] == 1
        assert "m_phi" in report.tension["note"]

    def test_left_side_matches_independent_recomputation(self):
        values = np.array([0.0, 0.0, 1.0])
        fn = CandidateFunction.from_potential(_phi(values))
        t = 1.0
        report = rigidity_inequalities(fn, [t], m_phi=0.0)
        # Recompute the cumulants directly from the weighted distribution.
        w = np.exp(t * values)
        p = w / w.sum()
        mean = float(p @ values)
        centered = values - mean
        k2 = float(p @ centered**2)
        k3 = float(p @ centered**3)
        expected_lhs = abs(k3 * (1.0 - SQRT_2PI * k2**1.5))
        assert report.cubic_lhs[0] == pytest.approx(expected_lhs, rel=1e-12)

    def test_large_m_phi_restores_both_inequalities(self):
        fn = CandidateFunction.from_potential(_phi([0.0, 0.0, 1.0]))
        report = rigidity_inequalities(fn, [0.5, 1.0, 2.0], m_phi=10.0)
        assert all(report.cubic_holds)
        assert all(report.quartic_holds)
        assert report.tension["cubic_fail_count"] == 0

    def test_report_is_complete_and_serializable(self):
        fn = CandidateFunction.from_fabc(1.0, 1.0, 1.0)
        grid = tuple(np.linspace(1.0, 5.0, 9))
        report = rigidity_inequalities(fn, grid, m_phi=0.5)
        assert isinstance(report, RigidityReport)
        n = len(grid)
        for name in (
            "second",
            "third",
            "fourth",
            "d_values",
            "curvature_ok",
            "cubic_lhs",
            "cubic_rhs",
            "cubic_holds",
            "quartic_lhs",
            "quartic_rhs",
            "quartic_holds",
        ):
            assert len(getattr(report, name)) == n
        payload = json.dumps(report.to_dict())
        assert json.loads(payload)["m_phi"] == 0.5

    def test_m_phi_validation(self):
        fn = CandidateFunction.from_fabc(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            rigidity_inequalities(fn, [1.0], m_phi=-0.1)
        with pytest.raises(DomainError):
            rigidity_inequalities(fn, [1.0], m_phi=math.nan)

    def test_fourth_derivative_against_independent_differences(self):
        a, b, c = 1.0, 1.0, 1.0
        fn = CandidateFunction.from_fabc(a, b, c)
        report = rigidity_inequalities(fn, [1.0, 2.0, 3.0], m_phi=1.0)
        h = 1e-4
        for i, t in enumerate(report.grid):
            f2 = lambda u: fabc_derivs(a, b, c, u)[2]  # noqa: E731
            oracle = (f2(t + h) - 2.0 * f2(t) + f2(t - h)) / h**2
            assert report.fourth[i] == pytest.approx(oracle, rel=1e-4, abs=1e-4)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.5])
    def test_fourth_derivative_matches_high_precision_differentiation(self, c):
        grid = [0.3, 0.7, 1.0, 1.5, 2.2, 3.1]
        report = rigidity_inequalities(CandidateFunction.from_fabc(1.0, 1.0, c), grid, 1.0)
        with mp.workdps(40):
            for t, fourth in zip(grid, report.fourth):
                # a*t + b has no fourth derivative; only the Gaussian part remains.
                exact = mp.diff(lambda u: mp.exp(-c * u * u) * (1 + 1 / u), mp.mpf(t), 4)
                assert abs(fourth - exact) <= 1e-13 * abs(exact)
