"""Monte Carlo orbit-sum simulation against the limiting normal law."""

import concurrent.futures
import math
import os
import threading

import numpy as np
import pytest
from scipy.special import ndtr

from thermoforge import cltsim
from thermoforge.cltsim import (
    MIN_SAMPLES,
    CltReport,
    SimConfig,
    _ndtr,
    center_potential,
    edgeworth_correction,
    simulate_gm,
)
from thermoforge.errors import DegeneratePotentialError, DomainError, SizeLimitError
from thermoforge.symbolic import MAX_TABLE_SIZE, CylinderPotential, SubshiftSpec


def _phi(values):
    return CylinderPotential(SubshiftSpec(len(values)), 1, values)


def _config(**overrides):
    base = dict(
        potential=_phi([-0.5, 0.5]),
        t_star=0.0,
        orbit_lengths=(100, 400),
        samples_per_m=MIN_SAMPLES,
        seed=7,
        workers=1,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestCenterPotential:
    def test_symmetric_potential_at_zero_parameter(self):
        centered = center_potential(_phi([0.0, 1.0]), 0.0)
        assert np.allclose(centered.values, [-0.5, 0.5])

    def test_log_weighted_example(self):
        # Values (0, log 3) at parameter 1 have weights (1/4, 3/4), so the
        # mean is (3/4)*log 3.
        log3 = math.log(3.0)
        centered = center_potential(_phi([0.0, log3]), 1.0)
        assert centered.values[0] == pytest.approx(-0.75 * log3, rel=1e-14)
        assert centered.values[1] == pytest.approx(0.25 * log3, rel=1e-14)

    def test_centered_mean_is_zero(self):
        rng = np.random.Generator(np.random.Philox(311))
        for _ in range(20):
            values = rng.uniform(-2.0, 2.0, size=int(rng.integers(2, 6)))
            t_star = float(rng.uniform(-1.5, 1.5))
            centered = center_potential(_phi(values), t_star)
            w = np.exp(t_star * centered.values)
            mean = float((w / w.sum()) @ centered.values)
            assert mean == pytest.approx(0.0, abs=1e-13)

    def test_centering_is_idempotent(self):
        once = center_potential(_phi([0.3, -0.9, 1.4]), 0.7)
        twice = center_potential(once, 0.7)
        assert np.allclose(once.values, twice.values, atol=1e-15)


class TestSimConfig:
    def test_valid_config_normalizes_types(self):
        config = _config(orbit_lengths=[10, 20], samples_per_m=float(MIN_SAMPLES))
        assert config.orbit_lengths == (10, 20)
        assert config.samples_per_m == MIN_SAMPLES

    def test_rejects_constant_potential(self):
        with pytest.raises(DegeneratePotentialError):
            _config(potential=_phi([1.0, 1.0]))

    def test_rejects_wide_window(self):
        wide = CylinderPotential(SubshiftSpec(2), 2, [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            _config(potential=wide)

    def test_rejects_bad_lengths(self):
        with pytest.raises(DomainError):
            _config(orbit_lengths=())
        with pytest.raises(DomainError):
            _config(orbit_lengths=(100, 100))
        with pytest.raises(DomainError):
            _config(orbit_lengths=(100, 50))
        with pytest.raises(DomainError):
            _config(orbit_lengths=(0, 10))

    def test_rejects_small_sample_counts(self):
        with pytest.raises(DomainError):
            _config(samples_per_m=MIN_SAMPLES - 1)

    def test_rejects_huge_lengths_and_sample_counts(self):
        assert _config(orbit_lengths=(1, 2**63 - 1)).orbit_lengths == (1, 2**63 - 1)
        for lengths in ((2**63,), (10, 1e300)):
            with pytest.raises(DomainError, match="2\\*\\*63"):
                _config(orbit_lengths=lengths)
        assert _config(samples_per_m=MAX_TABLE_SIZE).samples_per_m == MAX_TABLE_SIZE
        for samples in (MAX_TABLE_SIZE + 1, 10**21):
            with pytest.raises(SizeLimitError):
                _config(samples_per_m=samples)

    def test_rejects_bad_seed_and_workers(self):
        with pytest.raises(DomainError):
            _config(seed=-1)
        with pytest.raises(DomainError):
            _config(seed=2**64)
        with pytest.raises(DomainError):
            _config(workers=0)
        with pytest.raises(DomainError):
            _config(t_star=math.inf)


class TestSimulateGm:
    def test_cumulants_of_symmetric_two_point_distribution(self):
        # Values (-1/2, 1/2) at parameter 0: variance 1/4, third cumulant
        # 0, fourth cumulant m4 - 3*m2**2 = 1/16 - 3/16 = -1/8.  All three
        # are exact binary fractions.
        report = simulate_gm(_config())
        assert report.deltas == (0.25, 0.0, -0.125)
        assert report.centered

    def test_bound_arithmetic(self):
        report = simulate_gm(_config(orbit_lengths=(100,)))
        d2, d3, d4 = report.deltas
        expected = (9.0 * abs(d3) + 2.0 * abs(d4)) / (
            math.sqrt(2.0 * math.pi**3 * 100.0) * d2**1.5
        )
        assert report.bounds[0] == pytest.approx(expected, rel=1e-12)
        assert report.bounds[0] == pytest.approx(0.02539745437369639, rel=1e-12)

    def test_reports_are_deterministic(self):
        first = simulate_gm(_config())
        second = simulate_gm(_config())
        assert first == second

    def test_seed_changes_the_samples(self):
        base = simulate_gm(_config())
        other = simulate_gm(_config(seed=8))
        assert base.ks_distances != other.ks_distances

    def test_reports_do_not_depend_on_workers(self):
        # 10,000 samples span three blocks, so every width splits them; with
        # four lengths, the queue holds two while the first two are reduced.
        assert -(-MIN_SAMPLES // cltsim._BLOCK) == 3
        for lengths in ((100, 400), (10, 40, 160, 640)):
            serial = simulate_gm(_config(orbit_lengths=lengths, workers=1))
            assert simulate_gm(_config(orbit_lengths=lengths, workers=2)) == serial
            assert simulate_gm(_config(orbit_lengths=lengths, workers=3)) == serial

    def test_pool_width_is_capped_by_cpu_count(self, monkeypatch):
        widths = []

        class SerialPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        simulate_gm(_config(workers=10**6))
        assert widths == [min(10**6, os.cpu_count() or 1)]

    def test_next_length_is_queued_before_this_one_is_read(self, monkeypatch):
        # A pool that runs a block only when its result is read, so the
        # blocks submitted but not yet read are the ones outstanding.
        submitted = []
        outstanding = set()
        peak = []

        class LazyFuture:
            def __init__(self, fn, args):
                self.fn, self.args = fn, args

            def result(self):
                outstanding.discard(self.args[-2:])
                return self.fn(*self.args)

        class RecordingPool:
            def __init__(self, max_workers):
                pass

            def submit(self, fn, *args):
                cell = args[-2:]
                submitted.append(cell)
                outstanding.add(cell)
                peak.append(len({m_idx for m_idx, _ in outstanding}))
                return LazyFuture(fn, args)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        lengths = (10, 40, 160, 640)
        simulate_gm(_config(orbit_lengths=lengths, workers=2))
        blocks = -(-MIN_SAMPLES // cltsim._BLOCK)
        assert submitted == [(m, b) for m in range(len(lengths)) for b in range(blocks)]
        assert max(peak) == 2
        assert not outstanding

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failed_block_propagates_and_stops_the_pool(self, workers, monkeypatch):
        failure = RuntimeError("block failed")
        cells = []
        sample_sums = cltsim._sample_sums

        def failing(values, probabilities, m, size, seed, m_idx, block_idx):
            cells.append((m_idx, block_idx))
            if (m_idx, block_idx) == (0, 1):
                raise failure
            return sample_sums(values, probabilities, m, size, seed, m_idx, block_idx)

        monkeypatch.setattr(cltsim, "_sample_sums", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            simulate_gm(_config(orbit_lengths=(10, 40, 160, 640), workers=workers))
        assert raised.value is failure
        assert threading.active_count() == threads
        # Lengths 0 and 1 were queued when the failure was read; the rest never were.
        assert {m_idx for m_idx, _ in cells} <= {0, 1}

    def test_sample_moments_match_theory(self):
        report = simulate_gm(_config(orbit_lengths=(400,), samples_per_m=20_000))
        d2 = report.deltas[0]
        n = 20_000
        # Mean of scaled sums ~ N(0, d2/n); variance estimator has
        # standard error ~ d2*sqrt(2/n).  Allow four standard errors.
        assert abs(report.sample_means[0]) <= 4.0 * math.sqrt(d2 / n)
        assert abs(report.sample_variances[0] - d2) <= 4.0 * d2 * math.sqrt(2.0 / n)

    def test_ks_distance_shrinks_with_orbit_length(self):
        report = simulate_gm(
            _config(orbit_lengths=(100, 1000, 10000), samples_per_m=100_000, seed=3)
        )
        ks = report.ks_distances
        assert all(0.0 <= d <= 1.0 for d in ks)
        assert ks[0] > ks[-1]
        # Empirical decay rate across two decades of orbit length.
        slope = (math.log(ks[-1]) - math.log(ks[0])) / (
            math.log(10000.0) - math.log(100.0)
        )
        assert -0.75 < slope < -0.25

    def test_first_m_below_bound_is_honest(self):
        report = simulate_gm(_config(orbit_lengths=(100, 400)))
        if report.first_m_below_bound is None:
            assert all(k > b for k, b in zip(report.ks_distances, report.bounds))
        else:
            i = report.orbit_lengths.index(report.first_m_below_bound)
            assert report.ks_distances[i] <= report.bounds[i]
            for j in range(i):
                assert report.ks_distances[j] > report.bounds[j]

    def test_three_symbol_potential_runs(self):
        report = simulate_gm(
            _config(potential=_phi([0.0, 0.3, 1.1]), t_star=0.8, orbit_lengths=(50,))
        )
        assert len(report.ks_distances) == 1
        assert report.deltas[0] > 0.0

    def test_report_serializes(self):
        report = simulate_gm(_config(orbit_lengths=(100,)))
        payload = report.to_dict()
        assert payload["orbit_lengths"] == [100]
        assert payload["seed"] == 7
        assert "workers" not in payload
        assert isinstance(payload["deltas"], list)

    def test_normal_cdf_matches_reference(self):
        x = np.linspace(-37.0, 8.0, 90_001)
        np.testing.assert_allclose(_ndtr(x), ndtr(x), rtol=1e-13, atol=0.0)


class TestEdgeworthCorrection:
    def test_vanishes_for_symmetric_distributions(self):
        assert edgeworth_correction(0.4, 100, 0.25, 0.0) == 0.0

    def test_vanishes_at_unit_scaled_offset(self):
        d2 = 0.25
        assert edgeworth_correction(math.sqrt(d2), 100, d2, 0.7) == pytest.approx(
            0.0, abs=1e-16
        )

    def test_spot_value(self):
        # y=0, m=100, d2 arbitrary, d3=0.3: 0.3 / (6*10) = 0.005.
        assert edgeworth_correction(0.0, 100, 0.25, 0.3) == pytest.approx(
            0.005, rel=1e-15
        )

    def test_scales_like_inverse_sqrt_m(self):
        a = edgeworth_correction(0.2, 100, 0.25, 0.3)
        b = edgeworth_correction(0.2, 400, 0.25, 0.3)
        assert a == pytest.approx(2.0 * b, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            edgeworth_correction(0.0, 0, 0.25, 0.3)
        with pytest.raises(DomainError):
            edgeworth_correction(0.0, 100, 0.0, 0.3)
        with pytest.raises(DomainError):
            edgeworth_correction(0.0, 100, -1.0, 0.3)
