"""Envelope discretization and pressure convergence for decaying potentials."""

import json
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from thermoforge import approx
from thermoforge.approx import (
    ConvergenceRow,
    DecayingPotentialSpec,
    convergence_study,
    discretize,
)
from thermoforge.errors import DomainError, SizeLimitError
from thermoforge.pressure import pressure
from thermoforge.symbolic import CylinderPotential, SubshiftSpec

GOLDEN = DecayingPotentialSpec(2, (0.0, 1.0), 0.5)


class TestSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            DecayingPotentialSpec(1, (0.0,), 0.5)
        with pytest.raises(DomainError):
            DecayingPotentialSpec(2, (0.0,), 0.5)
        with pytest.raises(DomainError):
            DecayingPotentialSpec(2, (0.0, math.inf), 0.5)
        with pytest.raises(DomainError):
            DecayingPotentialSpec(2, (0.0, 1.0), 0.0)
        with pytest.raises(DomainError):
            DecayingPotentialSpec(2, (0.0, 1.0), 1.0)

    def test_sizes_and_entries_are_checked_not_truncated(self):
        assert DecayingPotentialSpec(3.0, (0, 1, 2), 0.5).n == 3
        assert type(DecayingPotentialSpec(np.int64(2), (0.0, 1.0), 0.5).n) is int
        for n in (3.7, "3", True):
            with pytest.raises(DomainError, match="'n' must be an integer"):
                DecayingPotentialSpec(n, (0.0, 1.0, 2.0), 0.5)
        for f in ((0.1, None, 0.3), "abc", (0.1, "0.2", 0.3), (0.1, True, 0.3)):
            with pytest.raises(DomainError, match="base table entry must be a number"):
                DecayingPotentialSpec(3, f, 0.5)
        with pytest.raises(DomainError, match="list of numbers"):
            DecayingPotentialSpec(3, None, 0.5)
        for r in ("x", "0.5", None):
            with pytest.raises(DomainError, match="decay ratio must be a number"):
                DecayingPotentialSpec(2, (0.0, 1.0), r)
        with pytest.raises(DomainError, match="decay ratio"):
            DecayingPotentialSpec(2, (0.0, 1.0), math.nan)

    def test_tail_bounds(self):
        spec = DecayingPotentialSpec(2, (-1.0, 3.0), 0.5)
        # max|f| = 3, span = 4, 1/(1-r) = 2.
        assert spec.tail_norm_bound(0) == pytest.approx(6.0, rel=1e-15)
        assert spec.tail_norm_bound(3) == pytest.approx(0.75, rel=1e-15)
        assert spec.tail_span(3) == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(DomainError):
            spec.tail_norm_bound(-1)

    def test_json_round_trip(self):
        text = json.dumps(GOLDEN.to_dict())
        back = DecayingPotentialSpec.from_json(text)
        assert back == GOLDEN

    def test_json_errors(self):
        with pytest.raises(DomainError):
            DecayingPotentialSpec.from_json("{bad")
        with pytest.raises(DomainError):
            DecayingPotentialSpec.from_json(json.dumps([1, 2]))
        with pytest.raises(DomainError):
            DecayingPotentialSpec.from_json(json.dumps({"n": 2, "f": [0, 1]}))


class TestDiscretize:
    def test_window_one_tables(self):
        # Head: f values (0, 1).  Tail scale: 0.5/(1-0.5) = 1.
        assert np.array_equal(discretize(GOLDEN, 1, "inf").values, [0.0, 1.0])
        assert np.array_equal(discretize(GOLDEN, 1, "sup").values, [1.0, 2.0])
        assert np.array_equal(discretize(GOLDEN, 1, "mid").values, [0.5, 1.5])

    def test_window_two_spot_values(self):
        table = discretize(GOLDEN, 2, "inf").values
        # Word (a, b) -> f[a] + 0.5*f[b] + 0.5 * min f; indices are
        # most-significant-symbol first.
        assert table[0] == pytest.approx(0.0)  # (0, 0)
        assert table[1] == pytest.approx(0.5)  # (0, 1)
        assert table[2] == pytest.approx(1.0)  # (1, 0)
        assert table[3] == pytest.approx(1.5)  # (1, 1)

    def test_sup_minus_inf_is_constant_tail_span(self):
        for window in (1, 2, 4, 6):
            low = discretize(GOLDEN, window, "inf").values
            high = discretize(GOLDEN, window, "sup").values
            span = GOLDEN.tail_span(window)
            assert np.allclose(high - low, span, atol=1e-15)
            assert span == pytest.approx(2.0 ** (1 - window), rel=1e-15)

    def test_mid_is_halfway(self):
        low = discretize(GOLDEN, 3, "inf").values
        mid = discretize(GOLDEN, 3, "mid").values
        high = discretize(GOLDEN, 3, "sup").values
        assert np.allclose(mid, 0.5 * (low + high), atol=1e-15)

    def test_three_symbol_head_sums(self):
        spec = DecayingPotentialSpec(3, (0.0, 1.0, 5.0), 0.1)
        table = discretize(spec, 2, "inf").values
        # Word (2, 1): 5 + 0.1*1 + (0.01/0.9)*0.
        assert table[2 * 3 + 1] == pytest.approx(5.1, rel=1e-14)

    def test_guards(self):
        with pytest.raises(DomainError):
            discretize(GOLDEN, 0, "inf")
        with pytest.raises(DomainError):
            discretize(GOLDEN, 2, "median")
        with pytest.raises(SizeLimitError):
            discretize(GOLDEN, 27, "inf")

    def test_matches_per_digit_sums_bit_for_bit(self):
        spec = DecayingPotentialSpec(3, (0.3, -0.7, 0.9), 0.7)
        window = 6
        f = np.asarray(spec.f)
        head = np.zeros(3**window)
        for k in range(window):
            digits = (np.arange(3**window) // 3 ** (window - 1 - k)) % 3
            head += spec.r**k * f[digits]
        tail = spec.r**window / (1.0 - spec.r)
        low = discretize(spec, window, "inf").values
        assert np.array_equal(low, head + tail * float(f.min()))

    def test_peak_memory_near_the_table(self):
        spec = DecayingPotentialSpec(3, (0.3, -0.7, 0.9), 0.7)
        tracemalloc.start()
        try:
            table = discretize(spec, 12, "inf").values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The table is handed to the potential, not copied into it.
        assert peak < 1.5 * table.nbytes


class TestConvergenceStudy:
    def test_envelopes_pinch_monotonically(self):
        rows = convergence_study(GOLDEN, 1.0, range(1, 11))
        assert all(isinstance(row, ConvergenceRow) for row in rows)
        for a, b in zip(rows, rows[1:]):
            assert b.p_inf >= a.p_inf - 1e-12
            assert b.p_sup <= a.p_sup + 1e-12
            assert b.gap <= a.gap + 1e-12
        for row in rows:
            assert row.gap >= -1e-15
            assert row.gap == pytest.approx(row.p_sup - row.p_inf, abs=1e-15)

    def test_gap_obeys_lipschitz_tail_bound(self):
        for t in (0.5, 1.0, 2.0, -1.3):
            rows = convergence_study(GOLDEN, t, (1, 3, 5, 8))
            for row in rows:
                bound = 2.0 * abs(t) * GOLDEN.tail_norm_bound(row.window)
                assert row.gap <= bound + 1e-12

    def test_golden_gap_halves_each_window(self):
        rows = convergence_study(GOLDEN, 1.0, range(1, 13))
        # For this spec the envelope tables differ by the exact constant
        # 2**(1-W), so the pressure gap equals it exactly.
        for row in rows:
            assert row.gap == pytest.approx(2.0 ** (1 - row.window), rel=1e-10)
        assert rows[-1].gap / rows[1].gap == pytest.approx(2.0**-10, rel=1e-9)
        assert rows[-1].gap / rows[1].gap < 2.0**-8

    def test_mid_pressure_between_envelopes(self):
        for window in (2, 4, 6):
            low = pressure(discretize(GOLDEN, window, "inf"), 1.0)
            mid = pressure(discretize(GOLDEN, window, "mid"), 1.0)
            high = pressure(discretize(GOLDEN, window, "sup"), 1.0)
            assert low - 1e-13 <= mid <= high + 1e-13

    def test_negative_parameter_swaps_envelopes(self):
        rows = convergence_study(GOLDEN, -1.0, (1, 2, 4, 6))
        for a, b in zip(rows, rows[1:]):
            assert b.gap <= a.gap + 1e-12
        for row in rows:
            assert row.gap >= -1e-15

    def test_constant_base_table_has_zero_gap(self):
        spec = DecayingPotentialSpec(2, (1.0, 1.0), 0.5)
        rows = convergence_study(spec, 1.0, (1, 2, 3))
        for row in rows:
            assert row.gap == pytest.approx(0.0, abs=1e-14)
            # Pressure is log 2 plus the full geometric sum of the decay.
            assert row.p_inf == pytest.approx(math.log(2.0) + 2.0, rel=1e-12)

    def test_one_pressure_solve_per_window(self, monkeypatch):
        windows = []

        def counting(potential, t):
            windows.append(potential.window)
            return pressure(potential, t)

        monkeypatch.setattr(approx, "pressure", counting)
        convergence_study(GOLDEN, 1.3, (1, 2, 4, 7))
        assert windows == [1, 2, 4, 7]

    def test_upper_envelope_is_lower_plus_tail_span(self):
        spec = DecayingPotentialSpec(3, (0.3, -0.7, 0.9), 0.7)
        for t in (1.3, -1.3):
            for row in convergence_study(spec, t, range(1, 7)):
                assert row.p_sup == row.p_inf + abs(t) * spec.tail_span(row.window)
                assert row.gap == row.p_sup - row.p_inf

    def test_window_validation(self):
        with pytest.raises(DomainError):
            convergence_study(GOLDEN, 1.0, ())
        with pytest.raises(DomainError):
            convergence_study(GOLDEN, 1.0, (2, 2))
        with pytest.raises(DomainError):
            convergence_study(GOLDEN, 1.0, (3, 1))
        with pytest.raises(DomainError):
            convergence_study(GOLDEN, math.nan, (1, 2))


def _closed_form_envelope(spec, t, window, tail_value):
    """Envelope pressure from its closed form, to 50 digits.

    A window-``W`` table value is the head sum ``sum_k r**k f[x_k]`` plus a
    constant tail value.  Each term ``r**k f[x_k]`` is cohomologous to
    ``r**k f[x_0]``, and pressure is invariant under coboundaries, so the
    pressure is ``logsumexp(t*f*(1-r**W)/(1-r)) + t*r**W/(1-r)*tail_value``.
    """
    with mp.workdps(50):
        r, t = mp.mpf(spec.r), mp.mpf(t)
        head = (1 - r**window) / (1 - r)
        weights = mp.fsum(mp.exp(t * mp.mpf(x) * head) for x in spec.f)
        return mp.log(weights) + t * r**window / (1 - r) * mp.mpf(tail_value)


class TestClosedFormEnvelope:
    """``convergence_study`` against the exact envelope pressures."""

    def _assert_rows_match(self, spec, t, rows):
        low, high = (min(spec.f), max(spec.f)) if t >= 0.0 else (max(spec.f), min(spec.f))
        for row in rows:
            for value, tail_value in ((row.p_inf, low), (row.p_sup, high)):
                exact = _closed_form_envelope(spec, t, row.window, tail_value)
                assert abs(mp.mpf(value) - exact) <= 1e-15 * abs(exact), (spec, t, row)

    def test_seeded_specs(self):
        rng = np.random.default_rng(2024)
        for _ in range(8):
            n = int(rng.integers(2, 5))
            spec = DecayingPotentialSpec(n, tuple(rng.uniform(-1.0, 1.0, n)), rng.uniform(0.2, 0.9))
            t = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 2.0))
            self._assert_rows_match(spec, t, convergence_study(spec, t, range(1, 9)))

    def test_two_to_the_twenty_words(self):
        # 4**10 words: far beyond a dense eigensolve of the 4**9 states.
        spec = DecayingPotentialSpec(4, (0.3, -0.7, 0.1, 0.9), 0.8)
        for t in (1.5, -0.8):
            self._assert_rows_match(spec, t, convergence_study(spec, t, [10]))


class TestLiftConsistency:
    def test_envelope_agrees_with_direct_lift(self):
        # A window-W envelope reinterpreted at window W+1 (by repeating
        # each entry per extra trailing symbol) must keep its pressure.
        low = discretize(GOLDEN, 3, "inf")
        lifted_values = np.repeat(low.values, GOLDEN.n)
        lifted = CylinderPotential(SubshiftSpec(GOLDEN.n), 4, lifted_values)
        assert pressure(lifted, 1.0) == pytest.approx(
            pressure(low, 1.0), abs=1e-11
        )

    def test_pressure_is_lipschitz_across_windows(self):
        # |P(W+1 table) - P(W table)| <= |t| * sup distance between the
        # lifted tables.
        t = 1.7
        low3 = discretize(GOLDEN, 3, "inf")
        low4 = discretize(GOLDEN, 4, "inf")
        lifted = np.repeat(low3.values, GOLDEN.n)
        sup_dist = float(np.max(np.abs(lifted - low4.values)))
        p3 = pressure(low3, t)
        p4 = pressure(low4, t)
        assert abs(p4 - p3) <= abs(t) * sup_dist + 1e-11
