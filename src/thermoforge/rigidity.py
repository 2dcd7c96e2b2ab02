"""Diagnostics for curvature-driven obstructions to germ fitting.

The central object is the scalar diagnostic ``D(t) = F'''/F'' - sqrt(2*pi*F'')``
evaluated along a grid for a candidate convex function ``F``: a closed
three-parameter family with prescribed line asymptote, the pressure of a
window-1 potential, or tabulated data.  Two companion inequalities are
evaluated pointwise — a cubic-order one involving ``F''`` and ``F'''`` and a
quartic-order one that also needs ``F''''`` — parametrized by a user-supplied
constant ``m_phi``.  The evaluator asserts only its own arithmetic: it
records where the inequalities hold or fail and serializes known tensions
instead of adjudicating them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InsufficientDataError
from .pressure import pressure_jet
from .symbolic import CylinderPotential

__all__ = [
    "MIN_DECAY_RATE",
    "CandidateFunction",
    "RigidityReport",
    "fabc_derivs",
    "fabc_curvature_parts",
    "divergence_diagnostic",
    "rigidity_inequalities",
]

# Decay rates at or below this value break convexity of the closed family.
MIN_DECAY_RATE = 0.5 / math.sqrt(2.0)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2PI3 = math.sqrt(2.0 * math.pi**3)
_KINDS = ("fabc", "potential", "tabulated")


def _check_fabc_params(a: float, b: float, c: float) -> tuple[float, float, float]:
    a, b, c = float(a), float(b), float(c)
    if not (math.isfinite(a) and a > 0.0):
        raise DomainError(f"asymptote slope must be positive, got {a!r}")
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError(f"asymptote intercept must be positive, got {b!r}")
    if not (math.isfinite(c) and c > MIN_DECAY_RATE):
        raise DomainError(
            f"decay rate must exceed {MIN_DECAY_RATE!r} for convexity, got {c!r}"
        )
    return a, b, c


def fabc_derivs(a: float, b: float, c: float, t: float) -> tuple[float, float, float, float]:
    """Closed-form value and first three derivatives of the asymptote family.

    The family is ``F(t) = a*t + b + exp(-c*t**2) + exp(-c*t**2)/t`` on
    ``t > 0``; it approaches the line ``a*t + b`` at infinity and the
    vertical axis at 0.  Returns ``(F, F', F'', F''')``.
    """
    a, b, c = _check_fabc_params(a, b, c)
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"evaluation point must be positive, got {t!r}")
    weight = math.exp(-c * t * t)
    f0 = a * t + b + weight * (1.0 + 1.0 / t)
    f1 = a - weight * (2.0 * c * t + 2.0 * c + 1.0 / t**2)
    _, poly2, poly3 = fabc_curvature_parts(a, b, c, t)
    return f0, f1, weight * poly2, weight * poly3


def fabc_curvature_parts(
    a: float, b: float, c: float, t: float
) -> tuple[float, float, float]:
    """Factored second and third derivatives of the asymptote family.

    Returns ``(log_weight, poly2, poly3)`` with
    ``F'' = exp(log_weight) * poly2`` and ``F''' = exp(log_weight) * poly3``.
    The factored form stays informative where the Gaussian weight
    underflows: ``poly2 > 0`` certifies convexity and ``poly3/poly2`` is
    the weight-free part of the divergence diagnostic.
    """
    a, b, c = _check_fabc_params(a, b, c)
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"evaluation point must be positive, got {t!r}")
    poly2 = 4.0 * c * c * t * t + 4.0 * c * c * t - 2.0 * c + 2.0 * c / t + 2.0 / t**3
    poly3 = (
        -8.0 * c**3 * t**3
        - 8.0 * c**3 * t * t
        + 12.0 * c * c * t
        - 6.0 * c / t**2
        - 6.0 / t**4
    )
    return -c * t * t, poly2, poly3


def _fabc_poly4(c: float, t: float) -> float:
    """The factor ``poly4`` of the closed ``F'''' = exp(-c*t**2) * poly4``."""
    return (
        16.0 * c**4 * t**4
        + 16.0 * c**4 * t**3
        - 48.0 * c**3 * t * t
        - 16.0 * c**3 * t
        + 12.0 * c * c
        + 12.0 * c * c / t
        + 24.0 * c / t**3
        + 24.0 / t**5
    )


@dataclass(frozen=True)
class CandidateFunction:
    """A convex candidate whose curvature diagnostics are to be evaluated.

    Exactly one of three kinds:

    ``"fabc"``
        The closed family with parameters ``params = (a, b, c)``; requires
        ``a, b > 0`` and ``c > MIN_DECAY_RATE``.
    ``"potential"``
        The pressure function of a window-1 full-shift potential;
        derivatives come from the pressure jet.
    ``"tabulated"``
        Uniformly spaced samples ``values`` at points ``grid``;
        derivatives come from central differences at interior nodes.

    ``domain_start``, when given, must be positive and excludes grid
    points at or below it.  The closed family always additionally
    requires positive evaluation points.
    """

    kind: str
    params: tuple[float, float, float] | None = None
    potential: CylinderPotential | None = None
    grid: tuple[float, ...] | None = None
    values: tuple[float, ...] | None = None
    domain_start: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.domain_start is not None:
            start = float(self.domain_start)
            if not (math.isfinite(start) and start > 0.0):
                raise DomainError(
                    f"domain start must be positive when given, got {self.domain_start!r}"
                )
            object.__setattr__(self, "domain_start", start)
        if self.kind == "fabc":
            if self.params is None:
                raise DomainError("kind 'fabc' needs params=(a, b, c)")
            object.__setattr__(self, "params", _check_fabc_params(*self.params))
        elif self.kind == "potential":
            if self.potential is None:
                raise DomainError("kind 'potential' needs a potential")
            if self.potential.window != 1 or not self.potential.space.is_full_shift:
                raise DomainError(
                    "candidate pressure functions need a window-1 full-shift potential"
                )
        else:
            if self.grid is None or self.values is None:
                raise DomainError("kind 'tabulated' needs grid and values")
            grid = tuple(float(x) for x in self.grid)
            values = tuple(float(x) for x in self.values)
            if len(grid) != len(values):
                raise DomainError(
                    f"grid and values lengths differ: {len(grid)} vs {len(values)}"
                )
            if len(grid) < 7:
                raise InsufficientDataError(
                    f"tabulated candidates need at least 7 nodes, got {len(grid)}"
                )
            if any(not math.isfinite(x) for x in grid + values):
                raise DomainError("tabulated grid and values must be finite")
            steps = np.diff(grid)
            if steps.min() <= 0.0:
                raise DomainError("tabulated grid must be strictly increasing")
            spread = float(steps.max() - steps.min())
            if spread > 1e-9 * float(steps.max()):
                raise DomainError("tabulated grid must be uniformly spaced")
            object.__setattr__(self, "grid", grid)
            object.__setattr__(self, "values", values)

    @classmethod
    def from_fabc(cls, a: float, b: float, c: float, domain_start: float | None = None):
        return cls(kind="fabc", params=(a, b, c), domain_start=domain_start)

    @classmethod
    def from_potential(
        cls, potential: CylinderPotential, domain_start: float | None = None
    ):
        return cls(kind="potential", potential=potential, domain_start=domain_start)

    @classmethod
    def from_table(cls, grid, values):
        return cls(kind="tabulated", grid=tuple(grid), values=tuple(values))


@dataclass(frozen=True)
class RigidityReport:
    """Pointwise curvature diagnostics along a grid.

    ``curvature_ok[i]`` is False where the second derivative is not
    strictly positive; such points are flagged rather than dropped so the
    sup over the diagnostic stays honest.  ``d_values`` holds
    ``F'''/F'' - sqrt(2*pi*F'')`` (NaN at flagged points).  The cubic
    inequality compares ``|F'''*(1 - sqrt(2*pi)*(F'')**1.5)|`` against
    ``3*m_phi*F''``; the quartic one compares
    ``sqrt(2*pi**3)*(F'')**1.5*|F'''|`` against
    ``9*|F'''| + 2*|F''''| + 3*sqrt(2*pi**3)*m_phi*(F'')**2.5``.
    ``tension`` records known interpretation caveats in plain language.
    """

    grid: tuple[float, ...]
    second: tuple[float, ...]
    third: tuple[float, ...]
    fourth: tuple[float, ...]
    d_values: tuple[float, ...]
    curvature_ok: tuple[bool, ...]
    cubic_lhs: tuple[float, ...]
    cubic_rhs: tuple[float, ...]
    cubic_holds: tuple[bool, ...]
    quartic_lhs: tuple[float, ...]
    quartic_rhs: tuple[float, ...]
    quartic_holds: tuple[bool, ...]
    m_phi: float
    tension: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "m_phi": self.m_phi,
            "grid": list(self.grid),
            "second": list(self.second),
            "third": list(self.third),
            "fourth": list(self.fourth),
            "d_values": list(self.d_values),
            "curvature_ok": list(self.curvature_ok),
            "cubic_lhs": list(self.cubic_lhs),
            "cubic_rhs": list(self.cubic_rhs),
            "cubic_holds": list(self.cubic_holds),
            "quartic_lhs": list(self.quartic_lhs),
            "quartic_rhs": list(self.quartic_rhs),
            "quartic_holds": list(self.quartic_holds),
            "tension": dict(self.tension),
        }


def _check_grid(fn: CandidateFunction, grid) -> tuple[float, ...]:
    pts = tuple(float(t) for t in grid)
    if not pts:
        raise DomainError("grid must be non-empty")
    if any(not math.isfinite(t) for t in pts):
        raise DomainError("grid points must be finite")
    start = fn.domain_start
    if fn.kind == "fabc":
        start = max(0.0, start if start is not None else 0.0)
    if start is not None:
        bad = [t for t in pts if t <= start]
        if bad:
            raise DomainError(
                f"grid points {bad[:3]} fall at or below the domain start {start}"
            )
    if fn.kind == "tabulated":
        assert fn.grid is not None
        for t in pts:
            _table_index(fn, t)
    return pts


def _table_index(fn: CandidateFunction, t: float) -> int:
    grid = fn.grid
    assert grid is not None
    h = grid[1] - grid[0]
    i = int(round((t - grid[0]) / h))
    if not (0 <= i < len(grid)) or abs(grid[i] - t) > 1e-9 * h:
        raise DomainError(f"evaluation point {t!r} is not a node of the table")
    if not (2 <= i <= len(grid) - 3):
        raise DomainError(
            f"evaluation point {t!r} is too close to the table boundary "
            "for the derivative stencils (needs two nodes on each side)"
        )
    return i


def _point_derivs(fn: CandidateFunction, t: float) -> tuple[float, float, float, bool]:
    """Second, third, and fourth derivatives plus strict-convexity flag."""
    if fn.kind == "fabc":
        a, b, c = fn.params  # type: ignore[misc]
        lw, poly2, poly3 = fabc_curvature_parts(a, b, c, t)
        weight = math.exp(lw)
        return weight * poly2, weight * poly3, weight * _fabc_poly4(c, t), poly2 > 0.0
    if fn.kind == "potential":
        jet = pressure_jet(fn.potential, t, 4)
        p2, p3, p4 = jet.derivs[2], jet.derivs[3], jet.derivs[4]
        return p2, p3, p4, p2 > 0.0
    i = _table_index(fn, t)
    v = fn.values
    assert v is not None and fn.grid is not None
    h = fn.grid[1] - fn.grid[0]
    p2 = (v[i - 1] - 2.0 * v[i] + v[i + 1]) / h**2
    p3 = (-v[i - 2] + 2.0 * v[i - 1] - 2.0 * v[i + 1] + v[i + 2]) / (2.0 * h**3)
    p4 = (v[i - 2] - 4.0 * v[i - 1] + 6.0 * v[i] - 4.0 * v[i + 1] + v[i + 2]) / h**4
    return p2, p3, p4, p2 > 0.0


def _d_value(fn: CandidateFunction, t: float, p2: float, p3: float, ok: bool) -> float:
    if not ok:
        return math.nan
    if fn.kind == "fabc":
        # Factored form: survives Gaussian-weight underflow at large t.
        a, b, c = fn.params  # type: ignore[misc]
        lw, poly2, poly3 = fabc_curvature_parts(a, b, c, t)
        return poly3 / poly2 - math.sqrt(2.0 * math.pi * poly2) * math.exp(0.5 * lw)
    return p3 / p2 - math.sqrt(2.0 * math.pi * p2)


def _scan(fn: CandidateFunction, grid):
    """The checked grid, and per point ``(F'', F''', F'''', ok, D)`` as columns."""
    pts = _check_grid(fn, grid)
    rows = []
    for t in pts:
        p2, p3, p4, ok = _point_derivs(fn, t)
        rows.append((p2, p3, p4, ok, _d_value(fn, t, p2, p3, ok)))
    return pts, tuple(zip(*rows))


def divergence_diagnostic(
    fn: CandidateFunction, grid
) -> tuple[tuple[float, ...], tuple[bool, ...]]:
    """Evaluate ``D(t) = F'''/F'' - sqrt(2*pi*F'')`` along a grid.

    Returns ``(d_values, curvature_ok)``.  Points where the second
    derivative is not strictly positive are flagged False and their
    diagnostic reported as NaN; they are never silently dropped.  For the
    closed family the diagnostic behaves like ``-2*c*t`` for large ``t``,
    so its magnitude grows without bound.
    """
    _, (_, _, _, flags, d_values) = _scan(fn, grid)
    return d_values, flags


def rigidity_inequalities(fn: CandidateFunction, grid, m_phi: float) -> RigidityReport:
    """Evaluate both obstruction inequalities pointwise along a grid.

    ``m_phi`` parametrizes the right-hand sides; it bounds a derivative
    quantity that is not computable from the data available here, so the
    caller supplies it and the report is explicit about that dependence.
    The evaluator checks only its own arithmetic — hold/fail per point —
    and serializes the known tension that small ``m_phi`` values force
    the cubic inequality to fail for value distributions with nonzero
    third cumulant.
    """
    m_phi = float(m_phi)
    if not (math.isfinite(m_phi) and m_phi >= 0.0):
        raise DomainError(f"m_phi must be a non-negative real, got {m_phi!r}")
    pts, (second, third, fourth, flags, d_values) = _scan(fn, grid)
    cubic_lhs, cubic_rhs, cubic_holds = [], [], []
    quartic_lhs, quartic_rhs, quartic_holds = [], [], []
    for p2, p3, p4 in zip(second, third, fourth):
        if p2 >= 0.0:
            gate = _SQRT_2PI * p2**1.5
            c_lhs = abs(p3 * (1.0 - gate))
            c_rhs = 3.0 * m_phi * p2
            q_lhs = _SQRT_2PI3 * p2**1.5 * abs(p3)
            q_rhs = 9.0 * abs(p3) + 2.0 * abs(p4) + 3.0 * _SQRT_2PI3 * m_phi * p2**2.5
        else:
            c_lhs = c_rhs = q_lhs = q_rhs = math.nan
        cubic_lhs.append(c_lhs)
        cubic_rhs.append(c_rhs)
        cubic_holds.append(bool(c_lhs <= c_rhs))
        quartic_lhs.append(q_lhs)
        quartic_rhs.append(q_rhs)
        quartic_holds.append(bool(q_lhs <= q_rhs))
    cubic_fail = sum(1 for h in cubic_holds if not h)
    quartic_fail = sum(1 for h in quartic_holds if not h)
    tension = {
        "m_phi": m_phi,
        "cubic_fail_count": cubic_fail,
        "quartic_fail_count": quartic_fail,
        "note": (
            "The cubic bound scales with m_phi, so m_phi = 0 demands "
            "|F'''| * |1 - sqrt(2*pi)*(F'')**1.5| = 0 at every point; skewed "
            "two-value distributions produce a strictly positive left side, "
            "so failures at small m_phi document a tension in the bound's "
            "constant rather than an arithmetic defect. This report records "
            "the data without adjudicating the underlying claim."
        ),
    }
    return RigidityReport(
        grid=pts,
        second=second,
        third=third,
        fourth=fourth,
        d_values=d_values,
        curvature_ok=flags,
        cubic_lhs=tuple(cubic_lhs),
        cubic_rhs=tuple(cubic_rhs),
        cubic_holds=tuple(cubic_holds),
        quartic_lhs=tuple(quartic_lhs),
        quartic_rhs=tuple(quartic_rhs),
        quartic_holds=tuple(quartic_holds),
        m_phi=m_phi,
        tension=tension,
    )
