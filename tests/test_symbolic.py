"""Shift-space descriptions, word indexing, and product-measure weights."""

import copy
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoforge.errors import (
    DomainError,
    SizeLimitError,
    UnsupportedConfigurationError,
)
from thermoforge.symbolic import (
    BernoulliWeights,
    _irreducible,
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


def _connectivity_oracle(rows):
    """Strong connectivity and period by plain Python breadth-first search.

    The reference for the numpy ``_irreducible``: levels from symbol 0
    over the edges and over the reversed edges.  The period, the gcd of
    ``level[i] + 1 - level[j]`` over every edge ``i -> j`` from a reached
    symbol, labels the known graphs.
    """
    n = len(rows)

    def levels(adj):
        level = [None] * n
        level[0] = 0
        frontier = [0]
        for i in frontier:
            for j in range(n):
                if adj[i][j] and level[j] is None:
                    level[j] = level[i] + 1
                    frontier.append(j)
        return level

    forward = levels(rows)
    reverse = tuple(tuple(rows[j][i] for j in range(n)) for i in range(n))
    irreducible = None not in forward and None not in levels(reverse)
    period = 0
    for i in range(n):
        if forward[i] is None:
            continue
        for j in range(n):
            if rows[i][j]:
                period = math.gcd(period, forward[i] + 1 - forward[j])
    return irreducible, period


@st.composite
def _graphs(draw):
    """Random, cyclic, periodic and reducible graphs on 2 to 12 symbols."""
    n = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(("random", "cycle", "periodic", "reducible")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = rng.random((n, n)) < draw(st.floats(0.05, 0.9))
    if kind == "cycle":
        edges = np.roll(np.eye(n, dtype=bool), 1, axis=1)
    elif kind == "periodic":
        # Edges run from class c to class c + 1 (mod p) only, and symbol c
        # (of class c) has an edge to every symbol of class c + 1 and from
        # every symbol of class c - 1: irreducible with period p.
        p = draw(st.integers(2, n))
        classes = np.concatenate([np.arange(p), rng.integers(0, p, n - p)])
        edges &= (classes[:, None] + 1) % p == classes[None, :]
        edges[np.arange(n), (classes + 1) % p] = True
        edges[(classes - 1) % p, np.arange(n)] = True
    elif kind == "reducible":
        split = draw(st.integers(1, n - 1))
        edges[split:, :split] = False
    order = rng.permutation(n)  # so that symbol 0 plays no special part
    return edges[np.ix_(order, order)]


_KNOWN_GRAPHS = [
    (((1, 1), (1, 0)), True, 1),  # golden mean
    (((0, 1), (1, 0)), True, 2),  # swap
    (((1, 1), (0, 1)), False, 1),  # upper triangular
    (((0, 1, 0), (0, 0, 1), (1, 0, 0)), True, 3),
    (((0, 1, 1), (1, 0, 1), (1, 1, 0)), True, 1),
    (((0, 1, 1), (0, 0, 1), (1, 0, 0)), True, 1),  # cycles of length 2 and 3
    (((0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0)), True, 2),
    (((1, 1, 1), (1, 1, 1), (1, 1, 1)), True, 1),
    (((0, 1, 0), (1, 0, 0), (0, 0, 1)), False, 2),  # a 2-cycle beside a loop
    (((0, 1, 0), (1, 0, 0), (1, 0, 1)), False, 2),  # the loop is not reached
]


class TestConnectivity:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_graphs())
    def test_matches_the_python_search(self, edges):
        rows = tuple(map(tuple, edges.astype(int).tolist()))
        irreducible = _connectivity_oracle(rows)[0]
        assert _irreducible(edges) is irreducible
        if edges.any(axis=0).all() and edges.any(axis=1).all():
            assert SubshiftSpec(len(edges), edges).irreducible is irreducible

    @pytest.mark.parametrize("rows, irreducible, period", _KNOWN_GRAPHS)
    def test_known_graphs(self, rows, irreducible, period):
        assert _connectivity_oracle(rows) == (irreducible, period)
        assert SubshiftSpec(len(rows), rows).irreducible is irreducible

    def test_long_cycle(self):
        n = 4096
        cycle = np.zeros((n, n), dtype=bool)
        cycle[np.arange(n), (np.arange(n) + 1) % n] = True
        assert _irreducible(cycle)
        cycle[0, 1] = False
        cycle[0, 2] = True  # skips symbol 1, which is still a way into 2
        assert not _irreducible(cycle)


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

    def test_equality_and_hash_do_not_depend_on_the_input_type(self):
        rows = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
        inputs = (
            rows,
            [list(row) for row in rows],
            np.array(rows),
            np.array(rows, dtype=np.uint8),
            np.array(rows, dtype=float),
            np.array(rows, dtype=bool),
        )
        spaces = [SubshiftSpec(3, matrix) for matrix in inputs]
        spaces.append(SubshiftSpec(n=3, transition=rows))
        for space in spaces:
            assert space == spaces[0]
            assert hash(space) == hash(spaces[0])
            assert space.transition == rows
            assert all(type(x) is int for row in space.transition for x in row)
        assert len(set(spaces)) == 1
        assert spaces[0] != SubshiftSpec(3, np.ones((3, 3), dtype=bool))
        assert spaces[0] != SubshiftSpec(3)
        assert spaces[0] != rows
        assert SubshiftSpec(3) == SubshiftSpec(3)
        assert hash(SubshiftSpec(3)) == hash(SubshiftSpec(3))
        assert SubshiftSpec(3) != SubshiftSpec(4)

    def test_input_array_is_copied(self):
        matrix = np.array([[1, 1], [1, 0]], dtype=bool)
        space = SubshiftSpec(2, matrix)
        matrix[1, 1] = True
        assert space.transition == ((1, 1), (1, 0))
        assert space.allowed is not matrix

    def test_large_alphabet_keeps_one_matrix(self):
        n = 4096
        matrix = np.random.default_rng(0).integers(0, 5, (n, n), dtype=np.uint8) == 0
        tracemalloc.start()
        try:
            space = SubshiftSpec(n, matrix)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 1.1 * matrix.nbytes
        assert peak < 3 * matrix.nbytes
        assert space.irreducible
        assert np.array_equal(space.allowed, matrix)

    def test_sizes_are_whole_numbers(self):
        assert SubshiftSpec(3.0).n == 3
        assert type(SubshiftSpec(np.int64(3)).n) is int
        for bad in (2.9, "3", True, None, math.nan):
            with pytest.raises(DomainError, match="'n' must be an integer"):
                SubshiftSpec(bad)

    @pytest.mark.parametrize(
        "round_trip", [lambda space: pickle.loads(pickle.dumps(space)), copy.deepcopy]
    )
    @pytest.mark.parametrize("transition", [None, ((1, 1), (1, 0)), ((1, 1), (0, 1))])
    def test_pickle_and_deepcopy_rebuild_a_read_only_space(self, round_trip, transition):
        space = SubshiftSpec(2, transition)
        copied = round_trip(space)
        assert copied == space and hash(copied) == hash(space)
        assert copied.irreducible == space.irreducible
        if transition is None:
            assert copied.allowed is None
        else:
            assert not copied.allowed.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                copied.allowed[0, 0] = False


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

    def test_window_is_a_whole_number(self):
        assert CylinderPotential(SubshiftSpec(2), 1.0, [0.0, 1.0]).window == 1
        assert type(CylinderPotential(SubshiftSpec(2), np.int64(1), [0.0, 1.0]).window) is int
        for bad in (1.5, "1", True):
            with pytest.raises(DomainError, match="'window' must be an integer"):
                CylinderPotential(SubshiftSpec(2), bad, [0.0, 1.0])

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

    @pytest.mark.parametrize(
        "round_trip", [lambda phi: pickle.loads(pickle.dumps(phi)), copy.deepcopy]
    )
    @pytest.mark.parametrize("transition", [None, ((1, 1), (1, 0))])
    def test_pickle_and_deepcopy_rebuild_a_read_only_potential(self, round_trip, transition):
        phi = CylinderPotential(SubshiftSpec(2, transition), 2, [0.0, 1.0, 2.0, 3.0])
        copied = round_trip(phi)
        assert copied.space == phi.space and copied.window == phi.window
        assert np.array_equal(copied.values, phi.values)
        assert copied.values.dtype == np.float64
        assert not copied.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            copied.values[0] = 1.0

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

    def test_constructor_errors_pass_through(self):
        with pytest.raises(SizeLimitError, match=r"^table size 2\*\*27 exceeds"):
            potential_from_dict({"n": 2, "window": 27, "values": [0.0]})
        with pytest.raises(DomainError, match=r"^expected 2 values, got 3$"):
            potential_from_dict({"n": 2, "window": 1, "values": [0.0, 1.0, 2.0]})
        for values in ([0.0, None], [10**20, None], [0.0, {}], [0.0, 10**400]):
            with pytest.raises(DomainError, match=r"^potential values must be numbers$"):
                potential_from_dict({"n": 2, "window": 1, "values": values})
        big = potential_from_dict({"n": 2, "window": 1, "values": [10**20, 1]})
        assert big.values.tolist() == [1e20, 1.0]

    def test_json_errors_are_domain_errors(self):
        with pytest.raises(DomainError):
            potential_from_json("{not json")
        with pytest.raises(DomainError):
            potential_from_json(json.dumps({"n": 2, "window": 1}))
        with pytest.raises(DomainError):
            potential_from_json(json.dumps([1, 2, 3]))
