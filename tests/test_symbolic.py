"""Shift-space descriptions, word indexing, and product-measure weights."""

import json
import math

import numpy as np
import pytest

from thermoforge.errors import (
    DomainError,
    SizeLimitError,
    UnsupportedConfigurationError,
)
from thermoforge.symbolic import (
    BernoulliWeights,
    CylinderPotential,
    SubshiftSpec,
    equilibrium_weights,
    index_to_word,
    potential_from_dict,
    potential_from_json,
    potential_to_dict,
    word_index,
)


def _full_shift_potential(values, window=1):
    values = np.asarray(values, dtype=np.float64)
    n = round(len(values) ** (1.0 / window))
    return CylinderPotential(SubshiftSpec(n), window, values)


class TestSubshiftSpec:
    def test_full_shift_is_irreducible(self):
        space = SubshiftSpec(3)
        assert space.is_full_shift
        assert space.irreducible
        assert space.transition_matrix() is None

    def test_upper_triangular_graph_is_reducible(self):
        space = SubshiftSpec(2, ((1, 1), (0, 1)))
        assert not space.irreducible

    def test_swap_graph_is_irreducible(self):
        space = SubshiftSpec(2, ((0, 1), (1, 0)))
        assert space.irreducible

    def test_golden_mean_graph_is_irreducible(self):
        space = SubshiftSpec(2, ((1, 1), (1, 0)))
        assert space.irreducible
        matrix = space.transition_matrix()
        assert matrix.shape == (2, 2)
        assert matrix.dtype == np.float64

    def test_rejects_bad_alphabet_sizes(self):
        with pytest.raises(DomainError):
            SubshiftSpec(1)
        with pytest.raises(DomainError):
            SubshiftSpec(2**16 + 1)

    def test_rejects_malformed_transition_matrices(self):
        with pytest.raises(DomainError):
            SubshiftSpec(2, ((1, 1, 1), (1, 1, 1)))
        with pytest.raises(DomainError):
            SubshiftSpec(2, ((1, 2), (1, 1)))
        with pytest.raises(DomainError):
            SubshiftSpec(2, ((0, 0), (1, 1)))
        with pytest.raises(DomainError):
            SubshiftSpec(2, ((1, 0), (1, 0)))
        with pytest.raises(DomainError, match="2x2"):
            SubshiftSpec(2, ((1, 1), (1,)))
        # Entries that are not exactly 0 or 1 are errors, never truncated.
        for entry in (0.5, 0.7, -1, math.nan, math.inf, "1", None, 1j):
            with pytest.raises(DomainError, match="0 or 1"):
                SubshiftSpec(2, ((1, entry), (1, 1)))

    def test_allowed_is_one_read_only_array(self):
        space = SubshiftSpec(2, ((1.0, True), (1, 0)))
        assert space.transition == ((1, 1), (1, 0))
        assert all(type(x) is int for row in space.transition for x in row)
        assert space == SubshiftSpec(2, ((1, 1), (1, 0)))
        assert hash(space) == hash(SubshiftSpec(2, ((1, 1), (1, 0))))
        assert space.allowed.dtype == bool
        assert not space.allowed.flags.writeable
        assert np.array_equal(space.allowed, [[True, True], [True, False]])
        assert SubshiftSpec(2).allowed is None

    @pytest.mark.parametrize(
        "transition, period",
        [
            (None, 1),
            (((1, 1), (1, 0)), 1),
            (((0, 1), (1, 0)), 2),
            (((0, 1, 0), (0, 0, 1), (1, 0, 0)), 3),
            (((0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0)), 2),
            (((0, 1, 1), (0, 0, 1), (1, 0, 0)), 1),  # cycles of length 2 and 3
        ],
    )
    def test_period_is_gcd_of_cycle_lengths(self, transition, period):
        n = 2 if transition is None else len(transition)
        assert SubshiftSpec(n, transition).period == period


class TestWordIndexing:
    def test_most_significant_symbol_first(self):
        assert word_index((1, 0), 2) == 2
        assert word_index((0, 1), 2) == 1
        assert word_index((2, 1, 0), 3) == 21
        assert word_index((), 5) == 0

    def test_round_trip_all_words(self):
        for n, window in ((2, 3), (3, 2), (5, 1)):
            for index in range(n**window):
                word = index_to_word(index, n, window)
                assert len(word) == window
                assert word_index(word, n) == index

    def test_rejects_bad_symbols_and_indices(self):
        with pytest.raises(DomainError):
            word_index((2,), 2)
        with pytest.raises(DomainError):
            word_index((-1,), 2)
        with pytest.raises(DomainError):
            index_to_word(8, 2, 3)
        with pytest.raises(DomainError):
            index_to_word(-1, 2, 3)


class TestCylinderPotential:
    def test_window_and_table_size_must_agree(self):
        with pytest.raises(DomainError):
            CylinderPotential(SubshiftSpec(2), 2, [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            CylinderPotential(SubshiftSpec(2), 0, [1.0])
        with pytest.raises(DomainError):
            CylinderPotential(SubshiftSpec(2), 1, [1.0, np.inf])

    def test_huge_tables_are_refused(self):
        with pytest.raises(SizeLimitError):
            CylinderPotential(SubshiftSpec(2), 27, [])

    def test_values_are_read_only_copies(self):
        source = np.array([0.0, 1.0])
        phi = _full_shift_potential(source)
        source[0] = 99.0
        assert phi.values[0] == 0.0
        with pytest.raises(ValueError):
            phi.values[0] = 1.0

    def test_shifted_adds_constant(self):
        phi = _full_shift_potential([0.0, 1.0])
        assert np.array_equal(phi.shifted(2.5).values, [2.5, 3.5])

    def test_adopt_takes_the_array_and_keeps_the_checks(self):
        values = np.array([0.0, 1.0, 2.0, 3.0])
        phi = CylinderPotential._adopt(SubshiftSpec(2), 2, values)
        assert np.shares_memory(phi.values, values)
        with pytest.raises(ValueError):
            phi.values[0] = 1.0
        with pytest.raises(DomainError):
            CylinderPotential._adopt(SubshiftSpec(2), 2, np.array([0.0, 1.0, 2.0]))
        with pytest.raises(DomainError):
            CylinderPotential._adopt(SubshiftSpec(2), 1, np.array([1.0, np.inf]))
        with pytest.raises(DomainError):
            CylinderPotential._adopt(SubshiftSpec(2), 0, np.array([1.0]))
        with pytest.raises(SizeLimitError):
            CylinderPotential._adopt(SubshiftSpec(2), 27, np.zeros(1))


class TestEquilibriumWeights:
    def test_zero_temperature_parameter_gives_uniform(self):
        phi = _full_shift_potential([0.0, 1.0])
        weights = equilibrium_weights(phi, 0.0)
        assert weights.probabilities == pytest.approx((0.5, 0.5), rel=1e-15)

    def test_two_symbol_example(self):
        phi = _full_shift_potential([0.0, 1.0])
        weights = equilibrium_weights(phi, 1.0)
        e = math.e
        assert weights.probabilities == pytest.approx(
            (1.0 / (1.0 + e), e / (1.0 + e)), rel=1e-15
        )

    def test_log_three_example(self):
        phi = _full_shift_potential([0.0, math.log(3.0)])
        weights = equilibrium_weights(phi, 1.0)
        assert weights.probabilities == pytest.approx((0.25, 0.75), rel=1e-14)

    def test_extreme_values_do_not_overflow(self):
        # Max-subtraction keeps the big exponential at 1; a gap of 500
        # leaves the small weight tiny but representable.
        phi = _full_shift_potential([0.0, 500.0])
        weights = equilibrium_weights(phi, 1.0)
        assert weights.probabilities[1] == pytest.approx(1.0, abs=1e-200)
        assert all(p > 0.0 for p in weights.probabilities)

    def test_underflowed_weight_is_rejected_not_silently_zero(self):
        phi = _full_shift_potential([0.0, 1000.0])
        with pytest.raises(DomainError):
            equilibrium_weights(phi, 1.0)

    def test_requires_window_one_full_shift(self):
        wide = _full_shift_potential([0.0, 1.0, 2.0, 3.0], window=2)
        with pytest.raises(UnsupportedConfigurationError):
            equilibrium_weights(wide, 1.0)
        constrained = CylinderPotential(
            SubshiftSpec(2, ((1, 1), (1, 0))), 1, [0.0, 1.0]
        )
        with pytest.raises(UnsupportedConfigurationError):
            equilibrium_weights(constrained, 1.0)


class TestBernoulliWeights:
    def test_validation(self):
        with pytest.raises(DomainError):
            BernoulliWeights((1.0,))
        with pytest.raises(DomainError):
            BernoulliWeights((0.0, 1.0))
        with pytest.raises(DomainError):
            BernoulliWeights((0.3, 0.3))
        weights = BernoulliWeights((0.25, 0.75))
        assert np.array_equal(weights.as_array(), [0.25, 0.75])


class TestSerialization:
    def test_dict_round_trip_full_shift(self):
        phi = _full_shift_potential([0.0, 0.5, 1.0, 1.5], window=2)
        obj = potential_to_dict(phi)
        assert obj == {"n": 2, "window": 2, "values": [0.0, 0.5, 1.0, 1.5]}
        back = potential_from_dict(obj)
        assert back.window == phi.window
        assert back.space.is_full_shift
        assert np.array_equal(back.values, phi.values)

    def test_dict_round_trip_with_transition(self):
        phi = CylinderPotential(SubshiftSpec(2, ((1, 1), (1, 0))), 1, [0.0, 1.0])
        obj = potential_to_dict(phi)
        assert obj["transition"] == [[1, 1], [1, 0]]
        back = potential_from_dict(obj)
        assert back.space.transition == ((1, 1), (1, 0))

    def test_json_round_trip_and_wrapped_form(self):
        phi = _full_shift_potential([0.0, 1.0])
        text = json.dumps(potential_to_dict(phi))
        back = potential_from_json(text)
        assert np.array_equal(back.values, phi.values)
        wrapped = json.dumps({"potential": potential_to_dict(phi), "extra": 1})
        back = potential_from_json(wrapped)
        assert np.array_equal(back.values, phi.values)

    def test_json_errors_are_domain_errors(self):
        with pytest.raises(DomainError):
            potential_from_json("{not json")
        with pytest.raises(DomainError):
            potential_from_json(json.dumps({"n": 2, "window": 1}))
        with pytest.raises(DomainError):
            potential_from_json(json.dumps([1, 2, 3]))
