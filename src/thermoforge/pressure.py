"""Pressure of locally constant potentials and its derivatives.

On the full shift a window-1 potential has pressure ``log sum exp(t*c_i)``
in closed form; wider windows and transition-constrained spaces go
through the leading eigenvalue of the weighted word-graph transfer
matrix.  Derivatives of any order up to 12 come from the
moment-to-cumulant recursion applied to the value distribution under the
product-measure weights; an independent finite-difference path and a
partition-sum composition path serve as cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .combinatorics import compose_derivatives
from .errors import (
    ConvergenceError,
    DomainError,
    NumericError,
    OrderLimitError,
    SizeLimitError,
    UnsupportedConfigurationError,
)
from .symbolic import MAX_TABLE_SIZE, CylinderPotential, SubshiftSpec, equilibrium_weights

__all__ = [
    "MAX_JET_ORDER",
    "TaylorJet",
    "QValues",
    "pressure",
    "pressure_spectral",
    "pressure_jet",
    "q_values",
    "verify_derivative_formulas",
    "finite_difference_jet",
]

MAX_JET_ORDER = 12


@dataclass(frozen=True)
class TaylorJet:
    """Value and derivatives of a pressure function at one parameter point.

    ``derivs[k]`` is the ``k``-th derivative at ``t_star`` (``derivs[0]``
    is the pressure value itself).
    """

    t_star: float
    derivs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_star", float(self.t_star))
        object.__setattr__(self, "derivs", tuple(float(d) for d in self.derivs))

    @property
    def order(self) -> int:
        return len(self.derivs) - 1


@dataclass(frozen=True)
class QValues:
    """The four weighted sums used by the germ-fitting constraints.

    For values ``z`` and parameter ``t``:

    * ``q0 = sum exp(t z_i)``
    * ``q1 = sum z_i exp(t z_i)``
    * ``q2 = sum over pairs i<j of (z_i - z_j)**2 exp(t (z_i + z_j))``
    * ``r2 = sum z_i**2 exp(t z_i)``

    ``log_scale`` is 0 whenever the plain values are representable; for
    extreme inputs the stored numbers are scaled by ``exp(-log_scale)``
    (``exp(-2*log_scale)`` for ``q2``) to avoid overflow, and ratios of
    the stored fields are unaffected.
    """

    q0: float
    q1: float
    q2: float
    r2: float
    log_scale: float = 0.0


def pressure(potential: CylinderPotential, t: float) -> float:
    """Pressure of ``t`` times a locally constant potential on the full shift.

    Window 1 uses the exact closed form ``log sum exp(t*c_i)``; larger
    windows use the word-graph spectral value, which reduces to the same
    number for window 1 and keeps pressure monotone in the potential for
    every window.
    """
    if not potential.space.is_full_shift:
        raise UnsupportedConfigurationError(
            "pressure() expects the full shift; use pressure_spectral() "
            "for transition-constrained spaces"
        )
    t = _finite_parameter(t)
    if potential.window == 1:
        with np.errstate(over="ignore"):  # an infinite t*c_i gives +-inf
            return _logsumexp(t * potential.values)
    return _word_graph_log_radius(potential, t)


def _logsumexp(a: np.ndarray) -> float:
    """``log(sum(exp(a)))``, bit for bit the max-shifted ``logsumexp`` oracle of the tests.

    Every entry equal to the max leaves the shifted sum and is counted, so
    ties, as fitted potentials have, add exactly ``log(count)``.  A
    non-finite result (an infinite or nan entry) falls back to the direct
    formula, as the oracle does.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max()
        ties = a == top
        count = np.count_nonzero(ties)
        rest = np.exp(np.where(ties, -np.inf, a) - top).sum()
        value = np.log1p(rest / count) + np.log(count) + top
        if not np.isfinite(value):
            value = np.log(np.exp(a).sum())
    return float(value)


def pressure_spectral(potential: CylinderPotential, t: float) -> float:
    """Pressure on a transition-constrained space via the transfer matrix.

    The length-``w`` words allowed by the transition matrix, weighted by
    ``exp(t * value)``, form the word graph whose leading eigenvalue power
    iteration finds; the result is its log.  A window-1 potential is read
    as the window-2 potential whose word ``(i, j)`` carries ``c_j``, so
    that its weighted adjacency is ``B[i, j] = A[i, j] * exp(t * c_j)``.
    The iteration runs on the live states only: after each head symbol it
    keeps just the allowed ``(w-2)``-words, 754 cells instead of 8192
    states on the golden mean at window 14.  Once a ``(w-2)``-word is
    forbidden (from window 4 on, if ``A`` has a zero), each step gathers
    the iterate through a successor index where the full grid makes a
    strided copy.  If some ``t * value`` overflows, the result is that
    infinity, as in the window-1 closed form.  The iteration stops once
    the width of its Collatz-Wielandt bracket
    ``min (Ax)_i/x_i <= rho <= max (Ax)_i/x_i``, over the states with a
    nonzero row, is at most ``1e-13`` times the bracket's lower end, which
    bounds the relative error of the radius by ``1e-13``.
    Requires an irreducible transition matrix; a periodic one needs no
    special case, since the power iteration shifts itself to the
    bracket's geometric mean when the graph's period stalls it.
    """
    if potential.space.is_full_shift:
        raise UnsupportedConfigurationError(
            "pressure_spectral() requires a transition matrix; "
            "use pressure() on the full shift"
        )
    if not potential.space.irreducible:
        raise DomainError("transition matrix is not irreducible")
    t = _finite_parameter(t)
    return _word_graph_log_radius(potential, t)


def _finite_parameter(t) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"parameter t must be finite, got {t!r}")
    return t


def _live_word_grid(space: SubshiftSpec, window: int):
    """The word graph of a transition-constrained space on its live cells.

    A state of the word graph is a ``(window-1)``-word ``a·b``; the grid
    keeps every head symbol ``a`` but only the ``m`` allowed
    ``(window-2)``-words ``b`` (the empty word for windows 1 and 2), as
    sorted base-``n`` codes built one appended symbol at a time, so no
    array has ``n**window`` entries (Lind & Marcus 1995, §4.4).  Returns
    ``(codes, forbidden, succ)`` in the layout of the ``kernels`` header:
    ``forbidden[j, a, b]`` marks the words ``a·b·j`` that the transition
    matrix forbids, and ``succ`` is the kernel's successor index, with
    some cell of weight 0 where ``b·j`` is forbidden; it is ``None`` when
    no ``b`` was trimmed.  Raises :class:`SizeLimitError` before building
    ``forbidden`` when the ``(n, n, m)`` table would exceed
    ``MAX_TABLE_SIZE``, which a window-1 potential reaches past 8192
    symbols.
    """
    n = space.n
    allowed = space.allowed
    symbols = np.arange(n)
    codes = np.zeros(1, dtype=np.intp)
    for length in range(window - 2):
        extend = allowed[codes % n] if length else np.ones((1, n), dtype=bool)
        codes = (codes[:, None] * n + symbols)[extend]
    m = codes.size
    if n * n * m > MAX_TABLE_SIZE:
        raise SizeLimitError(f"word table of {n}*{n}*{m} words exceeds {MAX_TABLE_SIZE}")
    succ = None
    if window <= 2:
        forbidden = ~allowed.T[:, :, None]
    else:
        first, rest = np.divmod(codes, n ** (window - 3))
        forbidden = ~allowed[:, first][None, :, :] | ~allowed[codes % n].T[:, None, :]
        if m < n ** (window - 2):
            tails = np.searchsorted(codes, rest * n + symbols[:, None])
            succ = (first * m + np.minimum(tails, m - 1)).reshape(-1)
    return codes, forbidden, succ


def _word_graph_log_radius(potential: CylinderPotential, t: float) -> float:
    n, values = potential.n, potential.values
    # words[j, a, b] is the value of the word a·b·j, the kernel's layout, as a
    # view; window 1 gives the word (a, j) the value c_j.
    if potential.window == 1:
        words = np.broadcast_to(values[:, None, None], (n, n, 1))
    else:
        words = values.reshape(n, -1, n).transpose(2, 0, 1)
    forbidden = succ = None
    if not potential.space.is_full_shift:
        codes, forbidden, succ = _live_word_grid(potential.space, potential.window)
        if succ is not None:
            words = words[:, :, codes]
    # t*values, the forbidden-word -inf and exp(. - shift) share one buffer.
    with np.errstate(over="ignore"):
        weights = np.multiply(t, words, order="C")
        if forbidden is not None:
            # Forbidden words get weight exp(-inf) = 0 and so cannot set the
            # scale; the largest allowed weight is 1.
            np.copyto(weights, -np.inf, where=forbidden)
        shift = float(weights.max())
        if not math.isfinite(shift):
            # Some t*value overflowed: the pressure is that infinity, as in
            # the window-1 closed form, and the weights would be nan.
            return shift
        weights -= shift
    np.exp(weights, out=weights)
    radius, iterations, converged = result = kernels.debruijn_power(weights, n, succ=succ)
    if not converged:
        low, high = result.bracket
        raise ConvergenceError(
            f"power iteration did not converge in {iterations} steps "
            f"(shift {result.sigma:g}, bracket [{low:.17g}, {high:.17g}])"
        )
    if radius <= 0.0:
        raise NumericError("transfer matrix has non-positive leading eigenvalue")
    return shift + math.log(radius)


def pressure_jet(potential: CylinderPotential, t_star: float, order: int) -> TaylorJet:
    """Pressure and derivatives ``1..order`` at ``t_star`` for window-1 potentials.

    ``derivs[k]`` for ``k >= 1`` is the ``k``-th cumulant of the value
    distribution under the product-measure weights at ``t_star``, obtained
    from central moments by the recursion

    ``kappa_m = mu_m - sum over k in 1..m-1 of C(m-1, k-1) kappa_k mu_{m-k}``

    with the first cumulant (the raw weighted mean) spliced back in.
    """
    order = int(order)
    if order < 0:
        raise DomainError(f"order must be non-negative, got {order}")
    if order > MAX_JET_ORDER:
        raise OrderLimitError(
            f"derivative order {order} exceeds the supported cap {MAX_JET_ORDER}"
        )
    _require_level0(potential, "pressure_jet")
    t_star = float(t_star)
    value = pressure(potential, t_star)
    if order == 0:
        return TaylorJet(t_star, (value,))
    p = equilibrium_weights(potential, t_star).as_array()
    c = potential.values
    mean = float(p @ c)
    centered = c - mean
    mu = [0.0] * (order + 1)
    for m in range(2, order + 1):
        mu[m] = float(p @ centered**m)
    kappa = [0.0] * (order + 1)
    for m in range(2, order + 1):
        correction = 0.0
        for k in range(2, m):
            correction += math.comb(m - 1, k - 1) * kappa[k] * mu[m - k]
        kappa[m] = mu[m] - correction
    derivs = [value, mean] + [kappa[m] for m in range(2, order + 1)]
    return TaylorJet(t_star, tuple(derivs))


def q_values(z, t: float) -> QValues:
    """Evaluate the four constraint sums at values ``z`` and parameter ``t``.

    All four quantities share one max-subtracted scale so extreme inputs
    cannot overflow.  The pair sum equals ``q0`` times the weighted spread
    about the mean ``q1/q0``, so ``q2`` comes from that centred sum in
    O(n) (the stable two-pass weighted variance) and is audited against
    the identity ``q2 = q0*r2 - q1**2`` before returning; a ``t*z`` that
    overflows even so fails that audit with :class:`NumericError`.
    """
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    if z.size == 0:
        raise DomainError("q_values requires at least one value")
    if not np.all(np.isfinite(z)):
        raise DomainError("q_values requires finite values")
    t = _finite_parameter(t)
    # An overflowing t*z leaves nan in the sums for the audit to reject.
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = t * z
        shift = float(scaled.max())
        ey = np.exp(scaled - shift)
        q0 = float(ey.sum())
        q1 = float(z @ ey)
        r2 = float((z * z) @ ey)
        centred = z - q1 / q0
        q2 = q0 * float((centred * centred) @ ey)
    residual = abs(q2 - (q0 * r2 - q1 * q1))
    tolerance = 1e-12 * abs(q2) + 1e-14 * abs(q0 * r2) + 1e-300
    if not residual <= tolerance:
        raise NumericError(
            f"pair-sum identity violated: residual {residual:.3e} "
            f"exceeds tolerance {tolerance:.3e}"
        )
    if abs(shift) <= 300.0:
        factor = math.exp(shift)
        return QValues(q0 * factor, q1 * factor, q2 * factor * factor, r2 * factor, 0.0)
    return QValues(q0, q1, q2, r2, shift)


def verify_derivative_formulas(potential: CylinderPotential, t_star: float) -> dict:
    """Check the closed moment forms of derivatives 2..4 on a window-1 potential.

    The left side of each check is the derivative obtained by composing
    ``log`` with the raw-moment derivatives through the partition-sum
    chain rule — an arithmetic path independent of the central-moment
    expressions on the right side:

    * second derivative vs the centered second moment,
    * third derivative vs the centered third moment,
    * fourth derivative vs ``m4 - 3*m2**2``.

    Returns a report dict with one entry per check (``derivative``,
    ``moment_form``, ``residual``, ``tolerance``, ``ok``) plus ``passed``.
    """
    _require_level0(potential, "verify_derivative_formulas")
    t_star = float(t_star)
    p = equilibrium_weights(potential, t_star).as_array()
    c = potential.values
    raw = [float(p @ c**j) for j in range(1, 5)]
    log_derivs = [1.0, -1.0, 2.0, -6.0]  # d^q/dy^q log(y) at y = 1
    composed = [compose_derivatives(log_derivs, raw, k) for k in (2, 3, 4)]
    mean = raw[0]
    centered = c - mean
    m2 = float(p @ centered**2)
    m3 = float(p @ centered**3)
    m4 = float(p @ centered**4)
    targets = [m2, m3, m4 - 3.0 * m2 * m2]
    names = ["second", "third", "fourth"]
    report: dict = {}
    passed = True
    for name, derivative, target in zip(names, composed, targets):
        residual = abs(derivative - target)
        tolerance = 1e-10 * max(1.0, abs(target))
        ok = residual <= tolerance
        passed = passed and ok
        report[name] = {
            "derivative": derivative,
            "moment_form": target,
            "residual": residual,
            "tolerance": tolerance,
            "ok": ok,
        }
    report["passed"] = passed
    return report


_FD_BASE_STEP = 1e-2


def finite_difference_jet(
    potential: CylinderPotential, t_star: float, order: int = 4
) -> TaylorJet:
    """Derivative oracle: Richardson-extrapolated central differences.

    Evaluates the pressure increment around ``t_star`` in a doubly
    centered form (values recentred at the weighted mean, pressure
    recentred at zero) so the differenced function is tiny and the
    ``h**-4`` roundoff amplification stays below the 1e-6 agreement
    target.  Supports orders 1..4 with base step 1e-2 extrapolated twice.
    """
    order = int(order)
    if not 1 <= order <= 4:
        raise OrderLimitError(f"finite differences support orders 1..4, got {order}")
    _require_level0(potential, "finite_difference_jet")
    t_star = float(t_star)
    p = equilibrium_weights(potential, t_star).as_array()
    c = potential.values
    mean = float(p @ c)
    centered = c - mean
    logp = np.log(p)

    def g(u: float) -> float:
        # log of sum p_i * exp(u * d_i): zero at u = 0, curvature-sized nearby.
        return _logsumexp(u * centered + logp)

    h0 = _FD_BASE_STEP
    steps = [h0, 2.0 * h0, 4.0 * h0]
    values = {0.0: 0.0}
    for h in steps:
        for m in (-2, -1, 1, 2):
            u = m * h
            if u not in values:
                values[u] = g(u)

    def stencil(k: int, h: float) -> float:
        f = lambda m: values[m * h]  # noqa: E731 - tiny local accessor
        if k == 1:
            return (f(1) - f(-1)) / (2.0 * h)
        if k == 2:
            return (f(1) - 2.0 * f(0) + f(-1)) / (h * h)
        if k == 3:
            return (f(2) - 2.0 * f(1) + 2.0 * f(-1) - f(-2)) / (2.0 * h**3)
        return (f(2) - 4.0 * f(1) + 6.0 * f(0) - 4.0 * f(-1) + f(-2)) / h**4

    derivs = [pressure(potential, t_star)]
    for k in range(1, order + 1):
        a_h, a_2h, a_4h = (stencil(k, h) for h in steps)
        r1_h = (4.0 * a_h - a_2h) / 3.0
        r1_2h = (4.0 * a_2h - a_4h) / 3.0
        extrapolated = (16.0 * r1_h - r1_2h) / 15.0
        derivs.append(extrapolated + mean if k == 1 else extrapolated)
    return TaylorJet(t_star, tuple(derivs))


def _require_level0(potential: CylinderPotential, name: str) -> None:
    if not potential.space.is_full_shift:
        raise UnsupportedConfigurationError(f"{name} requires the full shift")
    if potential.window != 1:
        raise UnsupportedConfigurationError(
            f"{name} requires a window-1 potential, got window {potential.window}"
        )
