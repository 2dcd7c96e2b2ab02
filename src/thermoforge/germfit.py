"""Fit prescribed pressure jets with window-1 potentials on the full shift.

Level-1 fitting prescribes the pressure value and slope at a parameter
point ``t_star`` and realizes them with a two-value potential (``n - 1``
coordinates at a low value, one at a high value).  Level-2 fitting adds a
curvature target: the attainable curvature range is scanned over all
ordered two-value splits, a bisection over the splits finds the adjacent
pair whose curvatures bracket a target, and intermediate targets are
reached by letting one coordinate slide continuously between the two
values.  The same machinery tabulates the extreme-split solutions whose
low value drifts like ``-log n - log log n``, and inverts the scalar map
``z -> z*exp(t*z)`` on its monotone branches.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import kernels
from .errors import (
    DomainError,
    FeasibilityError,
    NoSolutionError,
    NumericError,
    RangeError,
)
from .pressure import TaylorJet, pressure_jet
from .symbolic import MAX_ALPHABET, CylinderPotential, SubshiftSpec

__all__ = [
    "Germ",
    "FitResult",
    "feasibility_level1",
    "fit_level1",
    "feasible_a2_range",
    "fit_level2",
    "solve_extreme_pair",
    "solve_extreme_pair_full",
    "invert_zexp",
]

_NEWTON_TOL = 1e-13
_CURVATURE_TOL = 1e-8


@dataclass(frozen=True)
class Germ:
    """A truncated expansion ``a0 + a1*(t - t_star) [+ a2/2*(t - t_star)**2]``.

    ``coeffs`` holds two entries for a level-1 target and three for a
    level-2 target; the curvature coefficient must be non-negative since
    pressure functions are convex.
    """

    t_star: float
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        t_star = float(self.t_star)
        if not (math.isfinite(t_star) and t_star > 0.0):
            raise DomainError(f"t_star must be a positive real, got {self.t_star!r}")
        coeffs = tuple(float(x) for x in self.coeffs)
        if len(coeffs) not in (2, 3):
            raise DomainError(f"expected 2 or 3 coefficients, got {len(coeffs)}")
        if any(not math.isfinite(x) for x in coeffs):
            raise DomainError("coefficients must be finite")
        if len(coeffs) == 3 and coeffs[2] < 0.0:
            raise DomainError(
                f"curvature target must be non-negative, got {coeffs[2]!r}"
            )
        object.__setattr__(self, "t_star", t_star)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def a0(self) -> float:
        return self.coeffs[0]

    @property
    def a1(self) -> float:
        return self.coeffs[1]

    @property
    def a2(self) -> float | None:
        return self.coeffs[2] if len(self.coeffs) == 3 else None


@dataclass(frozen=True)
class FitResult:
    """A fitted potential with its independently recomputed jet.

    ``z`` lists the fitted values in ascending order; ``achieved`` is the
    jet of the fitted potential recomputed through the pressure module;
    ``residuals`` maps constraint names to absolute errors; ``feasible_a2``
    carries the scanned curvature range when one was computed.
    """

    z: tuple[float, ...]
    achieved: TaylorJet
    residuals: dict
    feasible_a2: tuple[float, float] | None = None

    def potential(self) -> CylinderPotential:
        """The fitted values as a window-1 full-shift potential."""
        return CylinderPotential(SubshiftSpec(len(self.z)), 1, self.z)


def feasibility_level1(germ: Germ, n) -> bool:
    """Whether the (value, slope) target is strictly attainable at size ``n``.

    The attainable slopes at pressure level ``a0`` form the open interval
    ``((a0 - log n)/t_star, a0/t_star)``; both endpoints are excluded.
    """
    n = _check_size_real(n)
    lower = (germ.a0 - math.log(n)) / germ.t_star
    upper = germ.a0 / germ.t_star
    return lower < germ.a1 < upper


def fit_level1(germ: Germ, n: int) -> FitResult:
    """Realize a (value, slope) target with an ``(n-1, 1)`` two-value split.

    Returns the fitted values ``z`` (low value repeated ``n - 1`` times,
    then the high value) together with the recomputed jet and the
    constraint residuals.
    """
    n = _check_size_int(n)
    _require_feasible(germ, n)
    za, zb, _, ok = kernels.two_block_sweep(
        np.array([n - 1], dtype=np.int64),
        float(n),
        germ.t_star,
        germ.a0,
        germ.a1,
        _NEWTON_TOL,
    )
    if not bool(ok[0]):
        raise NumericError(
            f"two-value solve failed for a feasible target (n={n}, germ={germ.coeffs})"
        )
    z = (n - 1) * [float(za[0])] + [float(zb[0])]
    return _finish_fit(germ, z, feasible_a2=None)


def feasible_a2_range(germ: Germ, n: int) -> tuple[float, float]:
    """Scan ordered two-value splits for the attainable curvature range.

    Every split ``(k, n-k)`` that can match the slope target is solved;
    the minimum and maximum of the resulting curvatures form an inner
    approximation of the exact attainable range (richer value patterns
    could widen it).  Splits whose solver fails are skipped with a
    warning; all splits failing is an error.
    """
    n = _check_size_int(n)
    _require_feasible(germ, n)
    ks = np.arange(1, n, dtype=np.int64)
    _, _, a2, ok = kernels.two_block_sweep(
        ks, float(n), germ.t_star, germ.a0, germ.a1, _NEWTON_TOL
    )
    a2 = a2[ok]
    failed = int(np.count_nonzero(_slope_reachable(germ, n, ks) & ~ok))
    _check_splits(germ, n, failed, float(a2.min()) if a2.size else None)
    return max(float(a2.min()), 0.0), float(a2.max())


def fit_level2(germ: Germ, n: int) -> FitResult:
    """Realize a (value, slope, curvature) target at size ``n``.

    The curvature target must lie in the range spanned by the first
    converged split that can meet the slope target and the last converged
    split.  Curvature has not decreased with ``k`` on any germ tried, so
    this is the range :func:`feasible_a2_range` scans.  A bisection on
    ``k`` then solves about ``log2 n`` single splits to find the adjacent
    pair that brackets the target, whatever the order of the curvatures.
    A split already matching the target is returned directly; otherwise
    one coordinate slides continuously from the low value to the high
    value between the pair, re-solving the value/slope constraints at
    every step.  Probed splits whose solver fails are skipped with a
    warning.
    """
    n = _check_size_int(n)
    if germ.a2 is None:
        raise DomainError("fit_level2 needs a three-coefficient target")
    _require_feasible(germ, n)
    target = germ.a2
    probes = {}

    def converged(ks):
        """The first converged split ``(k, z_low, z_high, curvature)`` of ``ks``."""
        for k in ks:
            if k not in probes:
                za, zb, a2, ok = kernels.two_block_sweep(
                    np.array([k], dtype=np.int64), float(n),
                    germ.t_star, germ.a0, germ.a1, _NEWTON_TOL,
                )
                probes[k] = (k, float(za[0]), float(zb[0]), float(a2[0])) if ok[0] else None
            if probes[k] is not None:
                return probes[k]
        return None

    # The least split that can meet the slope target: the slope limit
    # (a0 - log(n - k))/t_star grows with k and exceeds a1 at k = n - 1.
    ks = np.arange(1, n, dtype=np.int64)
    first = converged(range(int(ks[np.argmax(_slope_reachable(germ, n, ks))]), n))
    last = first and converged(range(n - 1, first[0] - 1, -1))
    # Keep curvature(lo) < target <= curvature(hi) while the pair is apart;
    # a failed probe moves to its nearest converged neighbour in between.
    lo, hi = first, last
    if first is not None:
        if target <= first[3]:
            hi = first
        elif target > last[3]:
            lo = last
    while lo is not None and hi[0] - lo[0] > 1:
        mid = (lo[0] + hi[0]) // 2
        nearby = zip_longest(range(mid, hi[0]), range(mid - 1, lo[0], -1))
        split = converged(k for pair in nearby for k in pair if k is not None)
        if split is None:
            break
        if split[3] < target:
            lo = split
        else:
            hi = split
    failed = list(probes.values()).count(None)
    _check_splits(germ, n, failed, first[3] if first else None)
    low, high = first[3], last[3]
    bounds = (max(low, 0.0), high)
    slack = 1e-12 * max(1.0, abs(high))
    if not (low - slack <= target <= high + slack):
        raise RangeError(
            f"curvature target {target} outside the attainable range "
            f"[{bounds[0]}, {bounds[1]}] for n={n}"
        )
    # A split already matching the target closes the problem.
    k, za, zb, a2 = min((lo, hi), key=lambda split: abs(split[3] - target))
    if abs(a2 - target) <= _CURVATURE_TOL:
        return _finish_fit(germ, k * [za] + (n - k) * [zb], feasible_a2=bounds)
    if hi[0] - lo[0] != 1:
        raise NumericError(
            f"no adjacent splits bracket curvature {target} in [{low}, {high}]"
        )
    return _finish_fit(germ, _slide(germ, n, lo[0], hi), feasible_a2=bounds)


def _slide(germ: Germ, n: int, k: int, start) -> list[float]:
    """Values reaching the curvature target between splits ``k`` and ``k + 1``.

    One coordinate slides between the low and high values while the other
    ``n - 1`` sit on the splits' two values; bisection on its position
    ``theta`` re-solves the value/slope constraints from the last point.
    ``start`` is the converged split ``k + 1`` as ``(k + 1, z_low, z_high,
    curvature)``, where ``theta = 0`` begins.
    """
    target = germ.a2
    # theta = 0 places the sliding coordinate at the low value (split k+1);
    # theta = 1 places it at the high value (split k).
    lo_t, hi_t = 0.0, 1.0
    h_lo = start[3] - target
    state = start[1:3]
    for _ in range(300):
        mid = 0.5 * (lo_t + hi_t)
        za, zb, a2_mid = _solve_slider(germ, n, k, mid, state)
        state = (za, zb)
        if abs(a2_mid - target) <= 0.1 * _CURVATURE_TOL:
            break
        if (a2_mid - target > 0.0) == (h_lo > 0.0):
            lo_t = mid
            h_lo = a2_mid - target
        else:
            hi_t = mid
        if hi_t - lo_t < 1e-15:
            break
    else:
        raise NumericError(
            f"curvature homotopy did not reach target {target} for n={n}"
        )
    zc = (1.0 - mid) * za + mid * zb
    return k * [za] + [zc] + (n - k - 1) * [zb]


def _check_splits(germ: Germ, n: int, failed: int, low: float | None) -> None:
    """Warn about ``failed`` skipped splits; raise unless a split converged.

    ``low`` is the least curvature of the converged splits (``None`` when
    none converged); a negative one is an error too.
    """
    if failed:
        # Level 3 is the user's call of feasible_a2_range or fit_level2.
        warnings.warn(
            f"{failed} two-value split(s) skipped: Newton did not converge",
            stacklevel=3,
        )
    if low is None:
        raise NumericError(
            f"no two-value split converged for germ={germ.coeffs}, n={n}"
        )
    if low < -1e-10:
        raise NumericError(f"negative curvature {low} from a converged split")


def _solve_slider(
    germ: Germ, n: int, k: int, theta: float, start: tuple[float, float]
) -> tuple[float, float, float]:
    """Damped Newton for the value/slope constraints with a sliding coordinate.

    ``k`` coordinates sit at ``z_a``, ``n - k - 1`` at ``z_b``, and one at
    ``(1 - theta) * z_a + theta * z_b``; the two constraint equations are
    solved for ``(z_a, z_b)`` starting from ``start``.  Returns
    ``(z_a, z_b, curvature)``.
    """
    t, a0, a1 = germ.t_star, germ.a0, germ.a1
    rest = float(n - k - 1)

    def residual(za: float, zb: float):
        zc = (1.0 - theta) * za + theta * zb
        ea = k * math.exp(t * za - a0)
        eb = rest * math.exp(t * zb - a0) if rest > 0.0 else 0.0
        ec = math.exp(t * zc - a0)
        return ea + eb + ec - 1.0, za * ea + zb * eb + zc * ec - a1, ea, eb, ec, zc

    def direction(za: float, zb: float, r):
        f1, f2, ea, eb, ec, zc = r
        j11, j12 = t * (ea + (1.0 - theta) * ec), t * (eb + theta * ec)
        j21 = ea * (1.0 + t * za) + (1.0 - theta) * ec * (1.0 + t * zc)
        j22 = eb * (1.0 + t * zb) + theta * ec * (1.0 + t * zc)
        return kernels.newton_step(j11, j12, j21, j22, f1, f2)

    za, zb, (_, _, ea, eb, ec, zc), best, _ = kernels.damped_newton(
        residual, direction, *start, _NEWTON_TOL, 80, lambda f1, f2: abs(f1) + abs(f2)
    )
    if best > _NEWTON_TOL * max(1.0, abs(za), abs(zb)):
        raise NumericError(
            f"sliding-coordinate solve stalled at residual {best:.3e} "
            f"(n={n}, k={k}, theta={theta})"
        )
    return za, zb, za * za * ea + zb * zb * eb + zc * zc * ec - a1 * a1


def _finish_fit(germ: Germ, z: list[float], feasible_a2) -> FitResult:
    z_sorted = sorted(float(v) for v in z)
    potential = CylinderPotential(SubshiftSpec(len(z_sorted)), 1, z_sorted)
    achieved = pressure_jet(potential, germ.t_star, 2)
    scale = math.exp(germ.a0)
    residuals = {
        "value": abs(achieved.derivs[0] - germ.a0) * scale,
        "slope": abs(achieved.derivs[1] - germ.a1) * scale,
    }
    if germ.a2 is not None:
        residuals["curvature"] = abs(achieved.derivs[2] - germ.a2)
    return FitResult(tuple(z_sorted), achieved, residuals, feasible_a2)


def _slope_reachable(germ: Germ, n: int, ks: np.ndarray) -> np.ndarray:
    limits = (germ.a0 - np.log(n - ks.astype(np.float64))) / germ.t_star
    return germ.a1 < limits


def _require_feasible(germ: Germ, n) -> None:
    if not feasibility_level1(germ, n):
        lower = (germ.a0 - math.log(n)) / germ.t_star
        upper = germ.a0 / germ.t_star
        raise FeasibilityError(
            "infeasible target: the slope must satisfy "
            f"(a0 - log n)/t_star < a1 < a0/t_star, i.e. {lower!r} < a1 < {upper!r}; "
            f"got a1 = {germ.a1!r} (both endpoints excluded)"
        )


def _check_size_int(n) -> int:
    n = int(n)
    if not 2 <= n <= MAX_ALPHABET:
        raise DomainError(f"alphabet size must be in [2, {MAX_ALPHABET}], got {n}")
    return n


def _check_size_real(n) -> float:
    n = float(n)
    if not (math.isfinite(n) and n >= 2.0):
        raise DomainError(f"alphabet size must be a real >= 2, got {n}")
    return n


# ---------------------------------------------------------------------------
# Extreme-split tabulation and the scalar branch inversion.
# ---------------------------------------------------------------------------

_E2 = math.exp(2.0)


def solve_extreme_pair(multiplicity: float) -> tuple[float, float]:
    """Low and high values of the extreme two-value solution at this size.

    Solves ``N*exp(z_a) + exp(z_b) = e**2`` and
    ``N*z_a*exp(z_a) + z_b*exp(z_b) = e**2`` for the branch
    ``z_a < -1 < z_b`` — the unit-parameter system whose low value drifts
    like ``-log N - log log N`` as the multiplicity ``N`` grows.  ``N``
    may be astronomically large (it enters only through its logarithm).
    """
    result = solve_extreme_pair_full(multiplicity)
    return result["z_low"], result["z_high"]


def solve_extreme_pair_full(multiplicity: float) -> dict:
    """Like :func:`solve_extreme_pair` with residuals and iteration count."""
    N = float(multiplicity)
    if not (math.isfinite(N) and N >= 10.0):
        raise DomainError(f"multiplicity must be a real >= 10, got {multiplicity!r}")
    logN = math.log(N)
    za = -logN - math.log(logN) - 1.0
    zb = 2.0

    def residual(za: float, zb: float):
        ea = math.exp(logN + za)
        eb = math.exp(zb)
        return ea + eb - _E2, za * ea + zb * eb - _E2, ea, eb

    def direction(za: float, zb: float, r):
        # The Jacobian factors as ea*eb*(zb - za); solve it in that form.
        f1, f2, ea, eb = r
        det = ea * eb * (zb - za)
        if det == 0.0 or not math.isfinite(det):
            raise NumericError("singular Jacobian in the extreme-pair solve")
        dza = -((1.0 + zb) * eb * f1 - eb * f2) / det
        return dza, -(-(1.0 + za) * ea * f1 + ea * f2) / det

    za, zb, (f1, f2, _, _), best, iterations = kernels.damped_newton(
        residual, direction, za, zb, 1e-14 * _E2, 60,
        lambda f1, f2: max(abs(f1), abs(f2)),
    )
    if best > 1e-13 * _E2:
        raise NumericError(
            f"extreme-pair Newton stagnated at residual {best:.3e} "
            f"for multiplicity {multiplicity!r}"
        )
    if not za < -1.0 < zb:
        raise NumericError(
            f"extreme-pair solve left the expected branch: z_low={za}, z_high={zb}"
        )
    return {
        "multiplicity": N,
        "z_low": za,
        "z_high": zb,
        "residuals": (abs(f1), abs(f2)),
        "iterations": iterations,
    }


def invert_zexp(y: float, branch: str, t_star: float) -> float:
    """Invert ``z -> z * exp(t_star * z)`` on one of its monotone branches.

    The map decreases on ``(-inf, -1/t_star]`` and increases on
    ``[-1/t_star, inf)``, with minimum ``-1/(e*t_star)`` at the junction.
    ``branch`` selects ``"lower"`` (the decreasing piece, whose range is
    ``[-1/(e*t_star), 0)``) or ``"upper"`` (the increasing piece).
    """
    t_star = float(t_star)
    if not (math.isfinite(t_star) and t_star > 0.0):
        raise DomainError(f"t_star must be a positive real, got {t_star!r}")
    if branch not in ("lower", "upper"):
        raise DomainError(f"branch must be 'lower' or 'upper', got {branch!r}")
    y = float(y)
    if not math.isfinite(y):
        raise DomainError(f"y must be finite, got {y!r}")
    junction = -1.0 / t_star
    minimum = -math.exp(-1.0) / t_star
    if y < minimum - 1e-15 * abs(minimum):
        raise NoSolutionError(
            f"no real solution: {y!r} is below the minimum {minimum!r}"
        )
    if y <= minimum:
        return junction

    def s(z: float) -> float:
        return z * math.exp(t_star * z)

    if branch == "upper":

        def below(z: float) -> bool:
            # An exp that overflows is above every finite y.
            try:
                return s(z) < y
            except OverflowError:
                return False

        lo = junction
        hi = max(junction + 1.0, 1.0)
        step = 1.0
        while below(hi):
            step *= 2.0
            hi += step
        # increasing branch: s(lo) <= y <= s(hi)
        for _ in range(500):
            mid = 0.5 * (lo + hi)
            if below(mid):
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * max(1.0, abs(hi)):
                break
        return 0.5 * (lo + hi)
    if y >= 0.0:
        raise NoSolutionError(
            f"the decreasing branch only attains values in [{minimum!r}, 0); got {y!r}"
        )
    hi = junction
    lo = junction - 1.0
    step = 1.0
    while s(lo) <= y:
        step *= 2.0
        lo -= step
    # decreasing branch: s(lo) > y >= s(hi)
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        if s(mid) > y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)
