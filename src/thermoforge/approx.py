"""Window discretization of geometrically decaying potentials.

The potential class here assigns coordinate ``k`` the contribution
``r**k * f[x_k]`` for a fixed base table ``f`` and ratio ``r in (0, 1)``.
Truncating at a window ``W`` leaves a tail whose extrema are exact
geometric series, so the lower/upper locally constant envelopes of the
potential are computed bit-faithfully rather than sampled.  The
convergence study solves the lower envelope's pressure and derives the
upper one from ``P(t * (phi + c)) = P(t * phi) + t * c``.  The envelopes
pinch the true pressure monotonically as the window grows, and their
gap decays at the ratio ``r`` per window step.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeLimitError
from .pressure import pressure
from .symbolic import MAX_TABLE_SIZE, CylinderPotential, SubshiftSpec, _whole

__all__ = [
    "DecayingPotentialSpec",
    "ConvergenceRow",
    "discretize",
    "convergence_study",
]

_MODES = ("inf", "sup", "mid")


@dataclass(frozen=True)
class DecayingPotentialSpec:
    """A potential ``x -> sum_k r**k * f[x_k]`` with geometric decay.

    ``f`` is the per-symbol base table (length = alphabet size) and
    ``r`` the decay ratio.  The tail beyond any window ``W`` is bounded
    in norm by ``r**W * max|f| / (1 - r)``.
    """

    n: int
    f: tuple[float, ...]
    r: float

    def __post_init__(self) -> None:
        n = _whole(self.n, "n")
        if n < 2:
            raise DomainError(f"alphabet size must be at least 2, got {n}")
        try:
            f = tuple(_number(x, "base table entry") for x in self.f)
        except TypeError:  # not iterable
            raise DomainError(f"base table must be a list of numbers, got {self.f!r}") from None
        if len(f) != n:
            raise DomainError(f"base table must have {n} entries, got {len(f)}")
        if any(not math.isfinite(x) for x in f):
            raise DomainError("base table entries must be finite")
        r = _number(self.r, "decay ratio")
        if not 0.0 < r < 1.0:
            raise DomainError(f"decay ratio must lie in (0, 1), got {r!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "r", r)

    def tail_norm_bound(self, window: int) -> float:
        """Norm bound ``r**W * max|f| / (1 - r)`` on the discarded tail."""
        window = int(window)
        if window < 0:
            raise DomainError(f"window must be non-negative, got {window}")
        return self.r**window * max(abs(x) for x in self.f) / (1.0 - self.r)

    def tail_span(self, window: int) -> float:
        """Exact spread ``r**W * (max f - min f) / (1 - r)`` of the tail."""
        window = int(window)
        if window < 0:
            raise DomainError(f"window must be non-negative, got {window}")
        return self.r**window * (max(self.f) - min(self.f)) / (1.0 - self.r)

    def to_dict(self) -> dict:
        return {"n": self.n, "f": list(self.f), "r": self.r}

    @classmethod
    def from_dict(cls, data: dict) -> "DecayingPotentialSpec":
        try:
            return cls(data["n"], data["f"], data["r"])
        except KeyError as missing:
            raise DomainError(f"decay spec is missing key {missing}") from None

    @classmethod
    def from_json(cls, text: str) -> "DecayingPotentialSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise DomainError(f"invalid decay spec JSON: {err}") from None
        if not isinstance(data, dict):
            raise DomainError("decay spec JSON must be an object")
        return cls.from_dict(data)


def _number(value, name: str) -> float:
    """``value`` as a float; a bool, string or other non-number is an error."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise DomainError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class ConvergenceRow:
    """Envelope pressures and their gap at one window size."""

    window: int
    p_inf: float
    p_sup: float
    gap: float


def discretize(
    spec: DecayingPotentialSpec, window: int, mode: str
) -> CylinderPotential:
    """Window-``W`` locally constant envelope of the decaying potential.

    Each window word receives its exact head sum plus the tail extremum:
    the infimum (``"inf"``), supremum (``"sup"``), or their midpoint
    (``"mid"``).  Exactness holds because the tail extremum is attained
    coordinatewise for this potential class.
    """
    window = int(window)
    if window < 1:
        raise DomainError(f"window must be at least 1, got {window}")
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}, got {mode!r}")
    size = spec.n**window
    if size > MAX_TABLE_SIZE:
        raise SizeLimitError(
            f"table of {spec.n}^{window} values exceeds the {MAX_TABLE_SIZE} ceiling"
        )
    f = np.asarray(spec.f)
    # Word index is most-significant-digit first, so appending coordinate k
    # as the new last digit is an outer add; the sums run in order of k.
    values = np.zeros(1)
    for k in range(window):
        values = (values[:, None] + spec.r**k * f).reshape(-1)
    tail_scale = spec.r**window / (1.0 - spec.r)
    if mode == "inf":
        values += tail_scale * float(f.min())
    elif mode == "sup":
        values += tail_scale * float(f.max())
    else:
        values += tail_scale * 0.5 * (float(f.min()) + float(f.max()))
    return CylinderPotential._adopt(SubshiftSpec(spec.n), window, values)


def convergence_study(
    spec: DecayingPotentialSpec, t: float, windows
) -> tuple[ConvergenceRow, ...]:
    """Envelope pressures across a growing sequence of windows.

    For each window the lower envelope of the scaled potential ``t * phi``
    (the ``"inf"`` table, or the ``"sup"`` table for negative ``t``) is
    solved on the word graph.  The upper envelope is that table plus the
    constant ``tail_span(W)``, and ``P(t * (phi + c)) = P(t * phi) + t * c``,
    so ``p_sup = p_inf + |t| * tail_span(W)`` needs no second solve.
    ``p_inf`` is nondecreasing, ``p_sup`` nonincreasing, and
    ``gap = p_sup - p_inf`` obeys
    ``gap <= 2 * |t| * r**W * max|f| / (1 - r)`` (pressure is
    1-Lipschitz in the potential's sup norm).
    """
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"parameter t must be finite, got {t!r}")
    wins = [int(w) for w in windows]
    if not wins:
        raise DomainError("windows must be non-empty")
    if any(b <= a for a, b in zip(wins, wins[1:])):
        raise DomainError(f"windows must be strictly increasing, got {wins}")
    rows = []
    for window in wins:
        p_lower = pressure(discretize(spec, window, "inf" if t >= 0.0 else "sup"), t)
        p_upper = p_lower + abs(t) * spec.tail_span(window)
        rows.append(ConvergenceRow(window, p_lower, p_upper, p_upper - p_lower))
    return tuple(rows)
