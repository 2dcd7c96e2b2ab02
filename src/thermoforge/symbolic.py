"""Shift spaces of finite type and locally constant potentials.

A shift space is described by its alphabet size ``n`` and an optional 0/1
transition matrix; a locally constant potential assigns one real value to
every word of a fixed window length ``w``, stored in base-``n`` word
order.  For the window-1 full-shift case this module also produces the
product-measure weights ``p_i ∝ exp(t * c_i)`` that play the role of the
equilibrium distribution everywhere else in the library.

Symbols are 0-based.  Two-sided windows collapse to one-sided ones of the
same total length without changing any pressure value, so only one-sided
windows are stored.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, SizeLimitError, UnsupportedConfigurationError

__all__ = [
    "MAX_ALPHABET",
    "MAX_TABLE_SIZE",
    "SubshiftSpec",
    "CylinderPotential",
    "BernoulliWeights",
    "word_index",
    "index_to_word",
    "equilibrium_weights",
    "potential_to_dict",
    "potential_from_dict",
    "potential_from_json",
]

MAX_ALPHABET = 2**16
MAX_TABLE_SIZE = 2**26


@dataclass(frozen=True, init=False, eq=False)
class SubshiftSpec:
    """Alphabet size plus an optional 0/1 transition matrix.

    ``transition[i][j] == 1`` means symbol ``j`` may follow symbol ``i``.
    The matrix is stored once, as the read-only bool array ``allowed`` that
    equality, hashing and ``transition`` read; both are ``None`` for the full
    shift.  ``irreducible`` (strong connectivity) is computed at
    construction.  Pickling and copying rebuild the space through the
    constructor.
    """

    n: int
    allowed: np.ndarray | None
    irreducible: bool

    def __init__(self, n: int, transition: Sequence[Sequence[int]] | np.ndarray | None = None):
        n = _whole(n, "n")
        if not 2 <= n <= MAX_ALPHABET:
            raise DomainError(f"alphabet size must be in [2, {MAX_ALPHABET}], got {n}")
        allowed = None if transition is None else _allowed(transition, n)
        irreducible = allowed is None or _irreducible(allowed)
        vars(self).update(n=n, allowed=allowed, irreducible=irreducible)

    def __reduce__(self):
        return SubshiftSpec, (self.n, self.allowed)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SubshiftSpec) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        return self.n, None if self.allowed is None else self.allowed.tobytes()

    @property
    def transition(self) -> tuple[tuple[int, ...], ...] | None:
        """The transition matrix as rows of ints, rebuilt from ``allowed``."""
        if self.allowed is None:
            return None
        return tuple(map(tuple, self.allowed.astype(int).tolist()))

    @property
    def is_full_shift(self) -> bool:
        return self.allowed is None

    def transition_matrix(self) -> np.ndarray | None:
        """Transition matrix as a float array, or ``None`` for the full shift."""
        return None if self.allowed is None else self.allowed.astype(np.float64)


def _allowed(transition, n: int) -> np.ndarray:
    """``transition`` checked and copied into a read-only bool array."""
    try:
        matrix = np.asarray(transition)
    except ValueError:
        matrix = None  # ragged rows
    if matrix is None or matrix.shape != (n, n):
        raise DomainError(f"transition matrix must be {n}x{n}")
    allowed = matrix.astype(bool) if matrix.dtype.kind in "biuf" else None
    # Strings, None and the like fail the dtype test; NaN, infinities and
    # fractions fail the 0/1 test instead of being truncated.
    if allowed is None or not np.array_equal(allowed, matrix):
        raise DomainError("transition entries must be 0 or 1")
    allowed.setflags(write=False)
    if not allowed.any(axis=1).all():
        raise DomainError("transition matrix has an all-zero row")
    if not allowed.any(axis=0).all():
        raise DomainError("transition matrix has an all-zero column")
    return allowed


def _irreducible(allowed: np.ndarray) -> bool:
    """Strong connectivity: a search from symbol 0 reaches every symbol both ways."""
    for adjacency in (allowed, allowed.T):
        seen = frontier = np.arange(len(allowed)) == 0
        while frontier.any():
            # The next level ORs the frontier's rows, less the symbols seen.
            frontier = adjacency[frontier].any(axis=0) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


@dataclass(frozen=True, eq=False)
class CylinderPotential:
    """A locally constant potential: window length ``w`` and ``n**w`` values.

    ``values[word_index(word, n)]`` is the value on the cylinder of the
    length-``w`` word; the table is stored as a read-only float64 array.
    Pickling and copying rebuild the potential through the constructor.
    """

    space: SubshiftSpec
    window: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self._freeze(copy=True)

    def __reduce__(self):
        return CylinderPotential, (self.space, self.window, self.values)

    @classmethod
    def _adopt(cls, space: SubshiftSpec, window: int, values: np.ndarray) -> "CylinderPotential":
        """Internal constructor that takes over a fresh float64 array.

        Runs the public constructor's checks and marks ``values`` read-only
        instead of copying it, so the caller must not keep writing to it.
        """
        potential = object.__new__(cls)
        object.__setattr__(potential, "space", space)
        object.__setattr__(potential, "window", window)
        object.__setattr__(potential, "values", values)
        potential._freeze(copy=False)
        return potential

    def _freeze(self, copy: bool) -> None:
        window = _whole(self.window, "window")
        if window < 1:
            raise DomainError(f"window must be >= 1, got {window}")
        object.__setattr__(self, "window", window)
        size = self.space.n**self.window
        if size > MAX_TABLE_SIZE:
            raise SizeLimitError(
                f"table size {self.space.n}**{self.window} exceeds {MAX_TABLE_SIZE}"
            )
        # With numpy >= 2, copy=False raises rather than copy a non-float64 array.
        arr = np.array(self.values, dtype=np.float64, copy=copy).reshape(-1)
        if arr.size != size:
            raise DomainError(f"expected {size} values, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("potential values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.space.n

    def shifted(self, offset: float) -> "CylinderPotential":
        """Same potential with ``offset`` added to every value."""
        return CylinderPotential._adopt(self.space, self.window, self.values + float(offset))


@dataclass(frozen=True)
class BernoulliWeights:
    """A strictly positive probability vector over the alphabet."""

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probabilities)
        if len(probs) < 2:
            raise DomainError("need at least two symbols")
        if any(not p > 0.0 for p in probs):
            raise DomainError("probabilities must be strictly positive")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise DomainError(f"probabilities sum to {sum(probs)!r}, not 1")
        object.__setattr__(self, "probabilities", probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probabilities, dtype=np.float64)


def word_index(word: Sequence[int], n: int) -> int:
    """Base-``n`` integer value of a word over symbols ``0..n-1``."""
    n = int(n)
    if n < 2:
        raise DomainError(f"alphabet size must be >= 2, got {n}")
    value = 0
    for symbol in word:
        s = int(symbol)
        if not 0 <= s < n:
            raise DomainError(f"symbol {s} outside alphabet of size {n}")
        value = value * n + s
    return value


def index_to_word(index: int, n: int, window: int) -> tuple[int, ...]:
    """Inverse of :func:`word_index` for words of length ``window``."""
    n, window, index = int(n), int(window), int(index)
    if not 0 <= index < n**window:
        raise DomainError(f"index {index} outside table of size {n}**{window}")
    word = []
    for _ in range(window):
        index, symbol = divmod(index, n)
        word.append(symbol)
    return tuple(reversed(word))


def equilibrium_weights(potential: CylinderPotential, t: float) -> BernoulliWeights:
    """Product-measure weights ``p_i ∝ exp(t * c_i)`` of a window-1 potential.

    Only defined on the full shift with window 1; the exponentials are
    max-subtracted so extreme values cannot overflow.
    """
    if not potential.space.is_full_shift:
        raise UnsupportedConfigurationError(
            "equilibrium weights require the full shift (no transition matrix)"
        )
    if potential.window != 1:
        raise UnsupportedConfigurationError(
            f"equilibrium weights require window 1, got window {potential.window}"
        )
    scaled = float(t) * potential.values
    scaled = scaled - scaled.max()
    w = np.exp(scaled)
    p = w / w.sum()
    return BernoulliWeights(tuple(float(x) for x in p))


def potential_to_dict(potential: CylinderPotential) -> dict:
    """JSON-ready dict: ``{"n", "window", "values"[, "transition"]}``."""
    out: dict = {
        "n": potential.n,
        "window": potential.window,
        "values": [float(v) for v in potential.values],
    }
    if potential.space.allowed is not None:
        out["transition"] = potential.space.allowed.astype(int).tolist()
    return out


def potential_from_dict(obj: dict) -> CylinderPotential:
    """Build a potential from the dict schema of :func:`potential_to_dict`."""
    if not isinstance(obj, dict):
        raise DomainError(f"potential spec must be an object, got {type(obj).__name__}")
    missing = {"n", "window", "values"} - set(obj)
    if missing:
        raise DomainError(f"potential spec missing keys: {sorted(missing)}")
    space = SubshiftSpec(obj["n"], obj.get("transition"))
    window = _whole(obj["window"], "window")
    try:
        values = np.asarray(obj["values"])
        # An int past int64 makes an object array, where None would read as NaN.
        if values.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in values.flat):
            values = values.astype(np.float64)
    except (ValueError, OverflowError):  # ragged nesting; an int past float range
        values = None
    # Strings would otherwise be parsed as numbers, and bools read as 0 and 1.
    if values is None or values.dtype.kind not in "iuf":
        raise DomainError("potential values must be numbers")
    # The constructor's own errors (window, table size, count) pass through.
    return CylinderPotential(space, window, values)


def _whole(value, name: str) -> int:
    """``value`` as an int; a fraction, bool, string or other non-number is an error."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise DomainError(f"{name!r} must be an integer, got {value!r}")


def potential_from_json(text: str) -> CylinderPotential:
    """Parse a JSON potential spec (accepts output wrapped under ``"potential"``)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid potential JSON: {exc}") from exc
    if isinstance(obj, dict) and "potential" in obj and "values" not in obj:
        obj = obj["potential"]
    return potential_from_dict(obj)
