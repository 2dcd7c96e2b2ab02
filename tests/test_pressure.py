"""Pressure values, derivative jets, and the constraint-sum quadruple."""

import importlib
import itertools
import math
import re
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scipy.special import logsumexp

from thermoforge import kernels
from thermoforge.errors import (
    ConvergenceError,
    DomainError,
    NumericError,
    OrderLimitError,
    SizeLimitError,
    UnsupportedConfigurationError,
)
from thermoforge.pressure import (
    MAX_JET_ORDER,
    _live_word_grid,
    _logsumexp,
    TaylorJet,
    finite_difference_jet,
    pressure,
    pressure_jet,
    pressure_spectral,
    q_values,
    verify_derivative_formulas,
)
from thermoforge.symbolic import CylinderPotential, SubshiftSpec, word_index

# The package's ``pressure`` attribute is the function, not this module.
pressure_module = importlib.import_module("thermoforge.pressure")


def _phi(values, window=1, transition=None):
    values = np.asarray(values, dtype=np.float64)
    n = round(len(values) ** (1.0 / window))
    return CylinderPotential(SubshiftSpec(n, transition), window, values)


def _transfer_log_radius(values, n, window, t):
    """Independent spectral oracle: dense transfer matrix on (window-1)-words."""
    values = np.asarray(values, dtype=np.float64)
    if window == 1:
        # Degenerate case: the closed form is its own oracle.
        return math.log(np.exp(t * values).sum())
    states = n ** (window - 1)
    matrix = np.zeros((states, states))
    for word_value in range(n**window):
        prefix = word_value // n
        suffix = word_value % states
        matrix[prefix, suffix] += math.exp(t * values[word_value])
    eigenvalues = np.linalg.eigvals(matrix)
    return math.log(max(abs(eigenvalues)))


class TestPressureValues:
    def test_two_symbol_closed_form(self):
        phi = _phi([0.0, 1.0])
        assert pressure(phi, 1.0) == pytest.approx(math.log(1.0 + math.e), rel=1e-15)
        assert pressure(phi, 0.0) == pytest.approx(math.log(2.0), rel=1e-15)
        assert pressure(phi, -1.0) == pytest.approx(
            math.log(1.0 + math.exp(-1.0)), rel=1e-15
        )

    def test_zero_potential_gives_log_alphabet_size(self):
        for n in (2, 3, 5):
            phi = _phi([0.0] * n)
            assert pressure(phi, 3.7) == pytest.approx(math.log(n), rel=1e-15)
        for window in (2, 3):
            phi = _phi([0.0] * 2**window, window=window)
            assert pressure(phi, 1.3) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_wide_window_matches_dense_eigenvalue_oracle(self):
        rng = np.random.Generator(np.random.Philox(42))
        for window in (2, 3):
            for n in (2, 3):
                values = rng.uniform(-1.5, 1.5, size=n**window)
                phi = _phi(values, window=window)
                for t in (-0.7, 0.0, 1.0, 2.3):
                    expected = _transfer_log_radius(values, n, window, t)
                    assert pressure(phi, t) == pytest.approx(expected, abs=1e-10)

    def test_window_lift_preserves_pressure(self):
        # Viewing a window-1 potential as window-2 (ignore the second
        # symbol) must not change the pressure.
        rng = np.random.Generator(np.random.Philox(7))
        values = rng.uniform(-1.0, 1.0, size=3)
        lifted = np.repeat(values, 3)
        for t in (-1.0, 0.5, 2.0):
            assert pressure(_phi(lifted, window=2), t) == pytest.approx(
                pressure(_phi(values), t), abs=1e-11
            )

    def test_golden_mean_graph_spectral_value(self):
        phi = CylinderPotential(SubshiftSpec(2, ((1, 1), (1, 0))), 1, [0.0, 0.0])
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        assert pressure_spectral(phi, 1.0) == pytest.approx(math.log(golden), rel=1e-12)

    def test_all_ones_graph_matches_full_shift_closed_form(self):
        values = [0.3, -0.2, 1.1]
        ones = tuple((1,) * 3 for _ in range(3))
        constrained = CylinderPotential(SubshiftSpec(3, ones), 1, values)
        assert pressure_spectral(constrained, 0.8) == pytest.approx(
            pressure(_phi(values), 0.8), abs=1e-12
        )

    def test_window_one_graph_matches_dense_eigenvalue_oracle(self):
        rng = np.random.Generator(np.random.Philox(31))
        n = 6
        graph = (rng.uniform(size=(n, n)) < 0.4).astype(int)
        cycle = rng.permutation(n)
        graph[cycle, np.roll(cycle, -1)] = 1
        transition = tuple(tuple(int(x) for x in row) for row in graph)
        values = rng.uniform(-1.0, 1.0, size=n)
        phi = CylinderPotential(SubshiftSpec(n, transition), 1, values)
        for t in (-0.8, 0.5, 1.7):
            weighted = graph * np.exp(t * values)[None, :]
            expected = math.log(np.abs(np.linalg.eigvals(weighted)).max())
            assert pressure_spectral(phi, t) == pytest.approx(expected, abs=1e-12)

    def test_spectral_entry_point_rejects_full_shift(self):
        with pytest.raises(UnsupportedConfigurationError):
            pressure_spectral(_phi([0.0, 1.0]), 1.0)

    def test_pressure_rejects_transition_constrained_space(self):
        phi = CylinderPotential(SubshiftSpec(2, ((1, 1), (1, 0))), 1, [0.0, 0.0])
        with pytest.raises(UnsupportedConfigurationError):
            pressure(phi, 1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_is_domain_error(self, t):
        with pytest.raises(DomainError, match="must be finite"):
            pressure(_phi([0.0, 1.0]), t)
        with pytest.raises(DomainError, match="must be finite"):
            pressure(_phi([0.0, 1.0, 0.5, 2.0], window=2), t)
        with pytest.raises(DomainError, match="must be finite"):
            pressure_spectral(_phi([0.0, 1.0], transition=((1, 1), (1, 0))), t)


class TestPeriodicGraphs:
    """Periodic graphs stall the unshifted iteration until its shift switches on."""

    SWAP = SubshiftSpec(2, ((0, 1), (1, 0)))
    GRAPHS = {
        "swap": ((0, 1), (1, 0)),
        "3-cycle": ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
        "4-cycle": ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0)),
        "bipartite": ((0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0)),
    }

    def test_window_one_swap_graph_converges_promptly(self, kernel_steps):
        values = (0.3, -0.7)
        phi = CylinderPotential(self.SWAP, 1, values)
        # B = [[0, e^{t c1}], [e^{t c0}, 0]] has spectral radius e^{t (c0 + c1) / 2}.
        assert pressure_spectral(phi, 1.3) == pytest.approx(1.3 * (0.3 - 0.7) / 2, abs=1e-12)
        assert 0 < sum(kernel_steps) <= 100

    def test_window_two_swap_graph_converges_promptly(self, kernel_steps):
        # Only the words 01 and 10 are allowed; 00 and 11 are masked out.
        values = (5.0, 0.2, 0.9, -3.0)
        phi = CylinderPotential(self.SWAP, 2, values)
        assert pressure_spectral(phi, 1.3) == pytest.approx(1.3 * (0.2 + 0.9) / 2, abs=1e-12)
        assert 0 < sum(kernel_steps) <= 100

    @pytest.mark.parametrize("graph", GRAPHS.values(), ids=GRAPHS.keys())
    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    def test_matches_eigvals(self, graph, window, kernel_steps):
        n = len(graph)
        values = np.random.default_rng(window).uniform(-1.0, 1.0, n**window)
        phi = CylinderPotential(SubshiftSpec(n, graph), window, values)
        expected = _constrained_log_radius(graph, values, window, 1.3)
        assert abs(pressure_spectral(phi, 1.3) - expected) <= 1e-12 * max(1.0, abs(expected))
        assert len(kernel_steps) == 1 and kernel_steps[0] < 300


def test_unconverged_solve_names_each_shift_and_its_iterations(monkeypatch):
    full_run = kernels._MAX_ITER

    def stop_at(max_iter):
        monkeypatch.setattr(kernels, "_MAX_ITER", max_iter)

    stop_at(3)
    values = np.random.default_rng(9).uniform(-1.0, 1.0, 2**14)
    phi = CylinderPotential(SubshiftSpec(2), 14, values)
    with pytest.raises(ConvergenceError) as err:
        pressure(phi, 0.7)
    bracket = re.fullmatch(
        r"power iteration did not converge in 3 steps \(shift 0, bracket \[(\S+), (\S+)\]\)",
        str(err.value),
    )
    assert bracket is not None
    # The bracket holds the radius of the weights exp(t * values - shift).
    stop_at(full_run)
    radius = math.exp(pressure(phi, 0.7) - 0.7 * values.max())
    assert float(bracket[1]) < radius < float(bracket[2])
    # The 3-cycle stalls until step 64, then needs more than 16 shifted steps.
    stop_at(80)
    cycle = CylinderPotential(SubshiftSpec(3, _THREE_CYCLE), 1, (0.0, 1.0, 2.0))
    with pytest.raises(ConvergenceError, match=r"in 80 steps \(shift 0\.\d+, bracket \[.+\]\)$"):
        pressure_spectral(cycle, 0.5)


class TestLogSumExp:
    def test_matches_scipy_bit_for_bit(self):
        rng = np.random.Generator(np.random.Philox(31))
        for trial in range(400):
            a = rng.normal(size=int(rng.integers(1, 200))) * rng.uniform(0.01, 50.0)
            if trial % 2:
                # Tied maxima, as fitted potentials have.
                a[rng.choice(a.size, int(rng.integers(1, a.size + 1)), replace=False)] = a.max()
            assert _logsumexp(a) == float(logsumexp(a))

    def test_non_finite_entries_follow_scipy(self):
        for a in ([np.inf, 0.0], [-np.inf, 1.0], [-np.inf, -np.inf], [np.nan, 1.0]):
            a = np.array(a)
            np.testing.assert_equal(_logsumexp(a), float(logsumexp(a)))


def _constrained_log_radius(graph, values, window, t):
    """Dense oracle on a transition graph: log of the largest eigenvalue modulus.

    Window 1 is the symbol graph ``B[i, j] = A[i, j] * exp(t * c_j)``; a wider
    window is the graph on ``(window-1)``-words with the allowed words as edges.
    """
    n = len(graph)
    if window == 1:
        matrix = np.array(graph) * np.exp(t * np.asarray(values))
    else:
        states = n ** (window - 1)
        matrix = np.zeros((states, states))
        for word in itertools.product(range(n), repeat=window):
            if TestLiveWordGrid._allowed(graph, word):
                code = word_index(word, n)
                matrix[code // n, code % states] = math.exp(t * values[code])
    return math.log(np.abs(np.linalg.eigvals(matrix)).max())


class TestLiveWordGrid:
    """The compressed word graph against brute-force word enumeration."""

    GRAPHS = (
        ((1, 1, 0), (0, 1, 1), (1, 0, 1)),
        # Aperiodic (3 -> 3), and symbol 0 has the single successor 1.
        ((0, 1, 0, 0), (0, 0, 1, 1), (1, 1, 0, 1), (1, 0, 1, 1)),
    )

    @staticmethod
    def _allowed(graph, word):
        return all(graph[a][b] for a, b in zip(word, word[1:]))

    @pytest.mark.parametrize("graph", GRAPHS, ids=("n3", "n4"))
    @pytest.mark.parametrize("window", [1, 2, 3, 5])
    def test_matches_word_enumeration(self, graph, window, monkeypatch):
        n = len(graph)
        mids = [
            b for b in itertools.product(range(n), repeat=max(window - 2, 0))
            if self._allowed(graph, b)
        ]
        m = len(mids)
        codes, forbidden, succ = _live_word_grid(SubshiftSpec(n, graph), window)
        # The empty word of windows 1 and 2 has code 0.
        assert codes.tolist() == [word_index(b, n) for b in mids]
        assert forbidden.shape == (n, n, m)
        for j, a, (cell, b) in itertools.product(range(n), range(n), enumerate(mids)):
            word = (a,) + b + (j,)
            assert forbidden[j, a, cell] == (not self._allowed(graph, word))
        if m < n ** max(window - 2, 0):
            assert succ.shape == (n * m,)
            assert succ.min() >= 0 and succ.max() < n * m
        else:
            assert succ is None
        for j, (cell, b) in itertools.product(range(n), enumerate(mids)):
            state = b + (j,)
            if not self._allowed(graph, state):
                # Only forbidden words reach this cell: its weight is 0.
                assert forbidden[j, :, cell].all()
                continue
            expected = state[0] * m + mids.index(state[1:])
            # Without trimming the successor is the kernel's transposition.
            got = cell * n + j if succ is None else succ[j * m + cell]
            assert got == expected
        # The kernel receives the weight of the word a·b·j at [j, a, cell]:
        # values 1e-3 * code at t = 1 read back as each word's code, and as
        # c_j = 1e-3 * j for the window-1 word (a, j).
        received = []
        original = kernels.debruijn_power

        def capture(weights, n, **kwargs):
            received.append(weights.copy())
            return original(weights, n, **kwargs)

        monkeypatch.setattr(kernels, "debruijn_power", capture)
        values = 1e-3 * np.arange(n**window)
        pressure_spectral(CylinderPotential(SubshiftSpec(n, graph), window, values), 1.0)
        (weights,) = received
        assert weights.shape == (n, n, m)
        with np.errstate(divide="ignore"):
            codes_seen = np.rint((np.log(weights) + values.max()) * 1e3)
        for j, a, (cell, b) in itertools.product(range(n), range(n), enumerate(mids)):
            word = (a,) + b + (j,)
            if forbidden[j, a, cell]:
                assert weights[j, a, cell] == 0.0
            else:
                assert codes_seen[j, a, cell] == (j if window == 1 else word_index(word, n))

    @pytest.mark.parametrize("graph", GRAPHS, ids=("n3", "n4"))
    @pytest.mark.parametrize("window", [3, 4, 5])
    def test_pressure_matches_explicit_word_graph(self, graph, window):
        n = len(graph)
        values = np.random.default_rng(10 * n + window).uniform(-1.0, 1.0, n**window)
        phi = CylinderPotential(SubshiftSpec(n, graph), window, values)
        for t in (-0.6, 1.3):
            expected = _constrained_log_radius(graph, values, window, t)
            assert pressure_spectral(phi, t) == pytest.approx(expected, rel=1e-10)


class TestOverflowingWeights:
    """A t*value that overflows gives the infinite pressure at once."""

    GOLDEN = SubshiftSpec(2, ((1, 1), (1, 0)))

    @pytest.fixture(autouse=True)
    def no_kernel_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the power iteration ran")

        monkeypatch.setattr(kernels, "debruijn_power", refuse)

    @staticmethod
    def _quiet(evaluate, phi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return evaluate(phi, 1e200)

    @pytest.mark.parametrize(
        "values, expected",
        [([1e200, 0.0, 0.0, 0.0], math.inf), ([-1e200] * 4, -math.inf)],
    )
    def test_window_two_full_shift(self, values, expected):
        assert self._quiet(pressure, CylinderPotential(SubshiftSpec(2), 2, values)) == expected
        # The window-1 closed form agrees.
        assert self._quiet(pressure, CylinderPotential(SubshiftSpec(2), 1, values[:2])) == expected

    @pytest.mark.parametrize(
        "window, values, expected",
        [
            (1, [1e200, 0.0], math.inf),
            (2, [1e200, 0.0, 0.0, 0.0], math.inf),
            (1, [-1e200] * 2, -math.inf),
            (2, [-1e200] * 4, -math.inf),
        ],
    )
    def test_golden_mean(self, window, values, expected):
        phi = CylinderPotential(self.GOLDEN, window, values)
        assert self._quiet(pressure_spectral, phi) == expected


class TestPeakMemory:
    """Temporaries of a word-graph pressure, as a multiple of the table."""

    @staticmethod
    def _peak_ratio(evaluate, phi):
        tracemalloc.start()
        try:
            evaluate(phi, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / phi.values.nbytes

    def test_full_shift_wide_window(self):
        values = np.random.default_rng(3).uniform(-1.0, 1.0, 2**18)
        phi = CylinderPotential(SubshiftSpec(2), 18, values)
        assert self._peak_ratio(pressure, phi) < 3.0

    def test_three_symbols_wide_window(self):
        values = np.random.default_rng(5).uniform(-1.0, 1.0, 3**11)
        phi = CylinderPotential(SubshiftSpec(3), 11, values)
        assert self._peak_ratio(pressure, phi) < 2.5

    def test_golden_mean_wide_window(self):
        values = np.random.default_rng(4).uniform(-1.0, 1.0, 2**16)
        phi = CylinderPotential(SubshiftSpec(2, ((1, 1), (1, 0))), 16, values)
        assert self._peak_ratio(pressure_spectral, phi) < 0.5

    def test_golden_mean_window_twenty(self):
        values = np.random.default_rng(6).uniform(-1.0, 1.0, 2**20)
        phi = CylinderPotential(SubshiftSpec(2, ((1, 1), (1, 0))), 20, values)
        assert self._peak_ratio(pressure_spectral, phi) < 0.25

    def test_window_one_random_graph(self):
        # The (n, n, 1) weight table is the one n**2-word array; beside it
        # only the 1-byte forbidden-word mask has n**2 entries.  The
        # potential holds n values, so the table is n times its bytes.
        n = 2048
        rng = np.random.default_rng(8)
        space = SubshiftSpec(n, rng.random((n, n)) < 0.5)
        phi = CylinderPotential(space, 1, rng.uniform(-1.0, 1.0, n))
        assert self._peak_ratio(pressure_spectral, phi) / n < 1.25


class TestWordTableBits:
    """Exact bits of the three ways a word table is laid out.

    The full shift reads every word in place, window 1 broadcasts ``c_j``
    over the graph's ``(a, j)`` pairs, and the golden mean at window 6
    keeps 8 of its 16 ``(w-2)``-words.  Any change to how the table is
    built, masked or scaled moves these bits.
    """

    @pytest.mark.parametrize(
        "transition, n, window, seed, pinned",
        [
            pytest.param(None, 3, 4, 21, (
                "0x1.383bb9e557a68p+0", "0x1.332570da3d490p+0", "0x1.ca4e5bdb1f022p+0",
            ), id="full-n3-w4"),
            pytest.param(TestLiveWordGrid.GRAPHS[1], 4, 1, 22, (
                "0x1.625a06b65fe7ep-1", "0x1.0749948889effp+0", "0x1.b165abcea4383p-1",
            ), id="graph-n4-w1"),
            pytest.param(((1, 1), (1, 0)), 2, 6, 23, (
                "0x1.5be729f07c1a6p-1", "0x1.e7a7ce0ae2976p-2", "0x1.90a5ab2b834c2p+0",
            ), id="golden-w6"),
        ],
    )
    def test_pinned(self, transition, n, window, seed, pinned):
        values = np.random.default_rng(seed).uniform(-1.0, 1.0, n**window)
        phi = CylinderPotential(SubshiftSpec(n, transition), window, values)
        evaluate = pressure if transition is None else pressure_spectral
        assert tuple(evaluate(phi, t).hex() for t in (1.0, -0.6, 2.5)) == pinned


class TestWordTableCeiling:
    """A window-1 potential of n values still has an n**2-word table."""

    GRAPH = SubshiftSpec(4, ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)))

    def test_raises_past_the_ceiling(self, monkeypatch):
        phi = CylinderPotential(self.GRAPH, 1, [0.0, 1.0, 2.0, 3.0])
        monkeypatch.setattr(pressure_module, "MAX_TABLE_SIZE", 15)
        with pytest.raises(SizeLimitError, match=r"^word table of 4\*4\*1 words exceeds 15$"):
            pressure_spectral(phi, 1.0)
        monkeypatch.setattr(pressure_module, "MAX_TABLE_SIZE", 16)
        assert math.isfinite(pressure_spectral(phi, 1.0))

    def test_trimmed_grid_counts_its_live_cells(self, monkeypatch):
        # The golden mean at window 4 keeps 3 of the 4 two-symbol words.
        phi = CylinderPotential(TestOverflowingWeights.GOLDEN, 4, np.zeros(16))
        monkeypatch.setattr(pressure_module, "MAX_TABLE_SIZE", 11)
        with pytest.raises(SizeLimitError, match=r"^word table of 2\*2\*3 words exceeds 11$"):
            pressure_spectral(phi, 1.0)
        monkeypatch.setattr(pressure_module, "MAX_TABLE_SIZE", 12)
        assert math.isfinite(pressure_spectral(phi, 1.0))


class TestPressureProperties:
    def test_convexity_in_parameter(self):
        rng = np.random.Generator(np.random.Philox(11))
        values = rng.uniform(-2.0, 2.0, size=4)
        phi = _phi(values)
        ts = np.linspace(-2.0, 2.0, 17)
        ps = [pressure(phi, t) for t in ts]
        for a, b, c in zip(ps, ps[1:], ps[2:]):
            assert b <= 0.5 * (a + c) + 1e-12

    def test_shift_equivariance(self):
        phi = _phi([0.1, -0.4, 0.9])
        for t in (-1.5, 0.0, 0.7, 2.0):
            for delta in (-3.0, 0.25, 10.0):
                assert pressure(phi.shifted(delta), t) == pytest.approx(
                    pressure(phi, t) + t * delta, rel=1e-13, abs=1e-13
                )

    def test_monotone_in_potential(self):
        rng = np.random.Generator(np.random.Philox(23))
        low = rng.uniform(-1.0, 1.0, size=4)
        high = low + rng.uniform(0.0, 0.5, size=4)
        for t in (0.5, 1.0, 2.0):
            assert pressure(_phi(low), t) <= pressure(_phi(high), t) + 1e-14


# Transition matrices of random-graph potentials: the full shift and two
# aperiodic graphs.  Periodic graphs have a property of their own, against
# exact values (TestExactOracles.test_periodic_lifted_cases).
_GRAPHS = {
    2: (None, ((1, 1), (1, 0))),
    3: (None, ((0, 1, 1), (1, 0, 1), (1, 1, 0))),
}
_INVARIANT_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)
_VALUES = st.floats(-2.0, 2.0)


def _any_pressure(phi, t):
    return pressure(phi, t) if phi.space.is_full_shift else pressure_spectral(phi, t)


def _close(a, b):
    return abs(a - b) <= 1e-11 * max(1.0, abs(a))


@st.composite
def _potentials(draw, min_window=1):
    n = draw(st.sampled_from((2, 3)))
    window = draw(st.integers(min_window, 4 if n == 2 else 3))
    transition = draw(st.sampled_from(_GRAPHS[n]))
    values = draw(st.lists(_VALUES, min_size=n**window, max_size=n**window))
    return CylinderPotential(SubshiftSpec(n, transition), window, values)


def _rebuild(phi, values, window=None):
    return CylinderPotential(phi.space, window or phi.window, values)


class TestPressureInvariants:
    """Invariants of pressure on random graphs and windows (Walters, ch. 9)."""

    @_INVARIANT_SETTINGS
    @given(_potentials(), _VALUES, _VALUES)
    def test_convex_in_parameter(self, phi, t1, t2):
        middle = _any_pressure(phi, 0.5 * (t1 + t2))
        chord = 0.5 * (_any_pressure(phi, t1) + _any_pressure(phi, t2))
        assert middle <= chord + 1e-11 * max(1.0, abs(chord))

    @_INVARIANT_SETTINGS
    @given(_potentials(), st.data(), st.floats(0.0, 2.0))
    def test_monotone_in_potential(self, phi, data, t):
        bump = data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=phi.values.size, max_size=phi.values.size)
        )
        higher = _rebuild(phi, phi.values + np.array(bump))
        low, high = _any_pressure(phi, t), _any_pressure(higher, t)
        assert low <= high + 1e-11 * max(1.0, abs(high))

    @_INVARIANT_SETTINGS
    @given(_potentials(), st.data(), _VALUES)
    def test_lipschitz_in_sup_norm(self, phi, data, t):
        offsets = data.draw(
            st.lists(_VALUES, min_size=phi.values.size, max_size=phi.values.size)
        )
        other = _rebuild(phi, phi.values + np.array(offsets))
        gap = abs(_any_pressure(phi, t) - _any_pressure(other, t))
        bound = abs(t) * max(abs(x) for x in offsets)
        assert gap <= bound + 1e-11 * max(1.0, bound)

    @_INVARIANT_SETTINGS
    @given(_potentials(min_window=2), st.data(), _VALUES)
    def test_coboundary_invariance(self, phi, data, t):
        # g - g∘σ for g on (w-1)-words: word x_0..x_{w-1} gets
        # g(x_0..x_{w-2}) - g(x_1..x_{w-1}).
        n_states = phi.values.size // phi.n
        g = np.array(data.draw(st.lists(_VALUES, min_size=n_states, max_size=n_states)))
        words = np.arange(phi.values.size)
        coboundary = g[words // phi.n] - g[words % n_states]
        moved = _rebuild(phi, phi.values + coboundary)
        assert _close(_any_pressure(moved, t), _any_pressure(phi, t))

    @_INVARIANT_SETTINGS
    @given(_potentials(), _VALUES)
    def test_window_lift_invariance(self, phi, t):
        # Ignoring an appended symbol (repeat) or a prepended one (tile,
        # i.e. phi∘σ) leaves the pressure unchanged.
        expected = _any_pressure(phi, t)
        for lifted in (np.repeat(phi.values, phi.n), np.tile(phi.values, phi.n)):
            assert _close(_any_pressure(_rebuild(phi, lifted, phi.window + 1), t), expected)

    @pytest.mark.parametrize("t", [2.0, 4.0])
    def test_periodic_graph_with_wide_weight_spread(self, kernel_steps, t):
        # A coboundary on the 3-cycle has pressure exactly 0, but its largest
        # weight is exp(3t) times the spectral radius, so the stalled iterate's
        # ratios spread over that range and the shift must come from the
        # bracket, not from an estimate of rho.
        three_cycle = SubshiftSpec(3, ((0, 1, 0), (0, 0, 1), (1, 0, 0)))
        g = np.array([0.0, 2.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0])
        words = np.arange(27)
        phi = CylinderPotential(three_cycle, 3, g[words // 3] - g[words % 9])
        assert abs(pressure_spectral(phi, t)) <= 1e-12
        assert sum(kernel_steps) <= _ORACLE_MAX_ITERATIONS

    @_INVARIANT_SETTINGS
    @given(st.lists(_VALUES, min_size=2, max_size=6), st.floats(0.2, 2.0))
    def test_jet_agrees_with_finite_differences(self, values, t_star):
        phi = _phi(values)
        analytic = pressure_jet(phi, t_star, 4)
        numeric = finite_difference_jet(phi, t_star, 4)
        for k in range(5):
            scale = max(1.0, abs(analytic.derivs[k]))
            assert abs(numeric.derivs[k] - analytic.derivs[k]) <= 1e-6 * scale


def test_pressure_invariants_never_stall(kernel_steps):
    # Replays the derandomized examples of each property above: before the
    # kernel shifted itself, four of their calls ran 100,000 unshifted steps.
    # Hypothesis binds a test method to one instance per thread, and pytest
    # ran the properties on instances of its own, so the replay gets a thread.
    suite = TestPressureInvariants()
    with ThreadPoolExecutor(1) as pool:
        for name in dir(suite):
            test = getattr(suite, name)
            if getattr(test, "is_hypothesis_test", False):
                pool.submit(test).result()
    assert max(kernel_steps) <= 5000
    assert sum(kernel_steps) <= 50_000


def _lifted_case(transition, base, window, amplitude, t, seed=0):
    """A window-``window`` potential and its exact pressure at ``t``.

    ``base`` is the weighted adjacency ``B[i, j]`` of the ``n`` symbols at
    ``t`` (0 where the transition matrix forbids ``i -> j``).  The window-2
    potential ``log(B[i, j]) / t`` is lifted by ignoring appended symbols, a
    higher block presentation that keeps the nonzero spectrum (Lind & Marcus
    1995, §2.3), and a coboundary ``h(x_0..x_{w-2}) - h(x_1..x_{w-1})`` with
    ``h`` uniform in ``[-amplitude, amplitude]`` is added, which leaves the
    pressure unchanged and widens the weight spread by up to
    ``exp(2*t*amplitude)``.  The pressure is ``log`` of the spectral radius
    of ``base``.
    """
    base = np.asarray(base, dtype=np.float64)
    n = base.shape[0]
    values = np.log(np.where(base > 0.0, base, 1.0)).ravel() / t
    values = np.repeat(values, n ** (window - 2))
    states = n ** (window - 1)
    h = amplitude * np.random.default_rng(seed).uniform(-1.0, 1.0, states)
    words = np.arange(n**window)
    values += h[words // n] - h[words % states]
    exact = math.log(max(abs(np.linalg.eigvals(base))))
    return CylinderPotential(SubshiftSpec(n, transition), window, values), exact


_GOLDEN_MEAN = ((1, 1), (1, 0))
_THREE_CYCLE = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
_PERIODIC = {
    "swap": ((0, 1), (1, 0)),
    "3-cycle": _THREE_CYCLE,
    "bipartite": ((0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0)),
}
_CYCLE_BASE = np.array(_THREE_CYCLE) * np.exp([0.3, -0.5, 1.1])
# Near-cyclic: eigenvalues eps +- sqrt(3), so |lambda_2| / lambda_1 is about
# 1 - 1.15 * eps, and the unshifted power iteration needs about 2,550 steps
# at eps = 1e-2; its stall shift brings that to 72.  The bound allows no stall.
_ORACLE_MAX_ITERATIONS = 3000


class TestExactOracles:
    """Lifted bases with coboundaries: exact pressure at windows past dense solves."""

    @pytest.mark.parametrize(
        "transition, base, window, amplitude, t, seed",
        [
            pytest.param(None, [[0.7, 1.9], [0.4, 1.3]], 12, 2.0, 2.0, 0, id="full-w12"),
            pytest.param(None, [[0.7, 1.9], [0.4, 1.3]], 8, 4.0, 4.0, 0, id="full-w8-wide"),
            pytest.param(None, [[1e-2, 1.0], [3.0, 1e-2]], 12, 1.0, 1.0, 0,
                         id="near-cyclic-1e-2"),
            pytest.param(_GOLDEN_MEAN, [[0.7, 1.9], [0.4, 0.0]], 12, 2.0, 2.0, 0,
                         id="golden-w12"),
            pytest.param(_GOLDEN_MEAN, [[0.7, 1.9], [0.4, 0.0]], 8, 4.0, 4.0, 0,
                         id="golden-w8-wide"),
            pytest.param(_THREE_CYCLE, _CYCLE_BASE, 8, 2.0, 2.0, 0, id="three-cycle-w8"),
            pytest.param(_THREE_CYCLE, _CYCLE_BASE, 12, 1.0, 1.0, 0, id="three-cycle-w12"),
            # Another coboundary draw of the same size.
            pytest.param(_THREE_CYCLE, _CYCLE_BASE, 8, 2.0, 2.0, 1, id="three-cycle-w8-draw-1"),
            pytest.param(_THREE_CYCLE, _CYCLE_BASE, 8, 4.0, 4.0, 0, id="three-cycle-wide"),
            # Window 2 with a wide coboundary: the Perron vector spans
            # exp(+-2 t a), so only a stop rule that bounds the error of rho
            # itself holds the gate.
            pytest.param(None, [[0.7, 1.9], [0.4, 1.3]], 2, 4.0, 4.0, 0, id="full-w2-wide"),
            pytest.param(None, [[1e-2, 1.0], [3.0, 1e-2]], 2, 4.0, 4.0, 0,
                         id="near-cyclic-w2-wide"),
            pytest.param(None, [[1e-3, 1.0], [3.0, 1e-3]], 12, 0.0, 1.0, 0,
                         id="near-cyclic-1e-3"),
        ],
    )
    def test_lifted_base_pressure(
        self, kernel_steps, transition, base, window, amplitude, t, seed
    ):
        phi, exact = _lifted_case(transition, base, window, amplitude, t, seed)
        assert abs(_any_pressure(phi, t) - exact) <= 1e-12 * max(1.0, abs(exact))
        assert sum(kernel_steps) <= _ORACLE_MAX_ITERATIONS

    # kernel_steps collects the calls of every example; each is bounded.
    @settings(derandomize=True, max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from(sorted(_PERIODIC)),
        st.integers(2, 6),
        st.floats(0.0, 2.0),
        st.floats(0.5, 2.0),
        st.integers(0, 2**32 - 1),
    )
    def test_periodic_lifted_cases(self, kernel_steps, graph, window, amplitude, t, seed):
        transition = np.array(_PERIODIC[graph])
        base = transition * np.exp(np.random.default_rng(seed).uniform(-1.0, 1.0, transition.shape))
        phi, exact = _lifted_case(_PERIODIC[graph], base, window, amplitude, t, seed)
        assert abs(pressure_spectral(phi, t) - exact) <= 1e-12 * max(1.0, abs(exact))
        assert max(kernel_steps) <= _ORACLE_MAX_ITERATIONS


@pytest.mark.xfail(raises=ConvergenceError, strict=True,
                   reason="weights that underflow to 0 split the word graph (ROADMAP item 2)")
def test_underflowed_weights_split_the_word_graph(monkeypatch):
    # exp(-1000) underflows to 0, which leaves two loops of weights 1 and
    # exp(-0.5), so the pressure is log 1 = 0; the smaller loop's ratio keeps
    # min r at exp(-0.5) and the bracket never closes.  The full step budget
    # fails the same way after 100,000 steps.
    monkeypatch.setattr(kernels, "_MAX_ITER", 400)
    phi = CylinderPotential(SubshiftSpec(2), 2, [0.0, -1000.0, -1000.0, -0.5])
    assert abs(pressure(phi, 1.0)) <= 1e-12


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bench_shaped_inputs_converge_unshifted(kernel_steps, kernel_sigmas, seed):
    # Window-14 potentials with values uniform in [0, 0.5] at t = 1, on the
    # full shift and the golden mean: the shape of the calls that the
    # perfbench spectral workload times.  Their bracket narrows fast enough
    # that no stall check switches the shift.
    rng = np.random.default_rng(seed)
    for transition in (None, _GOLDEN_MEAN):
        phi = CylinderPotential(SubshiftSpec(2, transition), 14, rng.uniform(0.0, 0.5, 2**14))
        _any_pressure(phi, 1.0)
    assert kernel_sigmas == [0.0, 0.0]
    assert max(kernel_steps) <= 200


class TestPressureJet:
    def test_against_high_precision_differentiation(self):
        phi = _phi([0.0, 1.0])
        jet = pressure_jet(phi, 1.0, 6)
        with mp.workdps(40):
            f = lambda t: mp.log(1 + mp.exp(t))  # noqa: E731 - oracle closure
            for k in range(7):
                expected = float(mp.diff(f, mp.mpf(1), k))
                assert jet.derivs[k] == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_order_zero_and_metadata(self):
        phi = _phi([0.0, 1.0])
        jet = pressure_jet(phi, 2.0, 0)
        assert jet.order == 0
        assert jet.t_star == 2.0
        assert jet.derivs == (pressure(phi, 2.0),)

    def test_first_derivative_is_weighted_mean(self):
        values = np.array([-0.3, 0.8, 1.7])
        phi = _phi(values)
        jet = pressure_jet(phi, 0.6, 1)
        weights = np.exp(0.6 * values)
        weights /= weights.sum()
        assert jet.derivs[1] == pytest.approx(float(weights @ values), rel=1e-14)

    def test_constant_potential_has_flat_jet(self):
        phi = _phi([1.5, 1.5, 1.5])
        jet = pressure_jet(phi, 1.0, 4)
        assert jet.derivs[0] == pytest.approx(math.log(3.0) + 1.5, rel=1e-15)
        assert jet.derivs[1] == pytest.approx(1.5, rel=1e-15)
        assert jet.derivs[2:] == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_order_limits(self):
        phi = _phi([0.0, 1.0])
        with pytest.raises(OrderLimitError):
            pressure_jet(phi, 1.0, MAX_JET_ORDER + 1)
        with pytest.raises(DomainError):
            pressure_jet(phi, 1.0, -1)

    def test_requires_window_one(self):
        phi = _phi([0.0, 1.0, 2.0, 3.0], window=2)
        with pytest.raises(UnsupportedConfigurationError):
            pressure_jet(phi, 1.0, 2)


class TestQValues:
    def test_hand_example(self):
        q = q_values([0.0, 1.0], 1.0)
        e = math.e
        assert q.log_scale == 0.0
        assert q.q0 == pytest.approx(1.0 + e, rel=1e-15)
        assert q.q1 == pytest.approx(e, rel=1e-15)
        assert q.q2 == pytest.approx(e, rel=1e-15)
        assert q.r2 == pytest.approx(e, rel=1e-15)

    def test_identity_holds_for_random_inputs(self):
        rng = np.random.Generator(np.random.Philox(5))
        for _ in range(200):
            z = rng.uniform(-3.0, 3.0, size=rng.integers(1, 9))
            t = rng.uniform(-2.0, 2.0)
            q = q_values(z, t)
            # The subtracted form loses accuracy to cancellation at the
            # scale of q0*r2, so the comparison budget must carry both terms.
            residual = abs(q.q2 - (q.q0 * q.r2 - q.q1**2))
            assert residual <= 1e-12 * abs(q.q2) + 1e-12 * abs(q.q0 * q.r2) + 1e-300

    def test_extreme_inputs_use_scaled_representation(self):
        q = q_values([0.0, 400.0], 1.0)
        assert q.log_scale == 400.0
        assert all(map(math.isfinite, (q.q0, q.q1, q.q2, q.r2)))
        # Ratios of same-scale fields are scale-free.
        assert q.q1 / q.q0 == pytest.approx(400.0, rel=1e-150)

    def test_moderate_shift_is_unscaled(self):
        q = q_values([0.0, 200.0], 1.0)
        assert q.log_scale == 0.0
        assert q.q0 == pytest.approx(1.0 + math.exp(200.0), rel=1e-15)

    def test_near_constant_values_do_not_raise(self):
        for eps in (0.0, 1e-12, 1e-8):
            q = q_values([1.0, 1.0 + eps, 1.0 - eps], 1.0)
            assert q.q2 >= 0.0

    def test_input_validation(self):
        with pytest.raises(DomainError):
            q_values([], 1.0)
        with pytest.raises(DomainError):
            q_values([0.0, np.nan], 1.0)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameter_is_domain_error(self, t):
        with pytest.raises(DomainError, match="must be finite"):
            q_values([0.0, 1.0], t)

    def test_overflowing_sums_fail_the_audit(self):
        # t * z overflows to inf and leaves nan in every sum; a nan residual
        # must not pass the identity check.
        with pytest.raises(NumericError, match="pair-sum identity violated"):
            q_values([0.0, 1e300], 1e10)

    def test_large_input_satisfies_identity(self):
        # 10**5 values: the pair sum would be a 10**10-entry matrix.
        z = np.random.default_rng(41).normal(size=100_000)
        q = q_values(z, 0.8)
        residual = abs(q.q2 - (q.q0 * q.r2 - q.q1**2))
        assert q.q2 > 0.0
        assert residual <= 1e-12 * abs(q.q2) + 1e-12 * abs(q.q0 * q.r2)


class TestDerivativeVerification:
    def test_passes_on_random_potentials(self):
        rng = np.random.Generator(np.random.Philox(17))
        for _ in range(30):
            n = int(rng.integers(2, 7))
            values = rng.uniform(-2.0, 2.0, size=n)
            t_star = float(rng.uniform(0.1, 2.5))
            report = verify_derivative_formulas(_phi(values), t_star)
            assert report["passed"], report
            for name in ("second", "third", "fourth"):
                assert report[name]["ok"]
                assert report[name]["residual"] <= report[name]["tolerance"]

    def test_report_shape(self):
        report = verify_derivative_formulas(_phi([0.0, 1.0]), 1.0)
        assert set(report) == {"second", "third", "fourth", "passed"}
        entry = report["second"]
        assert set(entry) == {"derivative", "moment_form", "residual", "tolerance", "ok"}


class TestFiniteDifferenceJet:
    def test_agrees_with_analytic_jet(self):
        rng = np.random.Generator(np.random.Philox(29))
        for _ in range(10):
            n = int(rng.integers(2, 6))
            values = rng.uniform(-2.0, 2.0, size=n)
            t_star = float(rng.uniform(0.2, 2.0))
            phi = _phi(values)
            analytic = pressure_jet(phi, t_star, 4)
            numeric = finite_difference_jet(phi, t_star, 4)
            for k in range(5):
                scale = max(1.0, abs(analytic.derivs[k]))
                assert abs(numeric.derivs[k] - analytic.derivs[k]) <= 1e-6 * scale

    def test_order_guard(self):
        phi = _phi([0.0, 1.0])
        with pytest.raises(OrderLimitError):
            finite_difference_jet(phi, 1.0, 5)
        with pytest.raises(OrderLimitError):
            finite_difference_jet(phi, 1.0, 0)


def test_taylor_jet_coerces_to_floats():
    jet = TaylorJet(1, (2, 3))
    assert jet.t_star == 1.0
    assert jet.derivs == (2.0, 3.0)
    assert jet.order == 1
