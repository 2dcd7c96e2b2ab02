"""Monte Carlo check of the central limit behavior of orbit sums.

Under the product equilibrium measure of a window-1 full-shift potential,
the sum of a length-``m`` orbit is an i.i.d. sum of symbol contributions,
so orbits can be sampled exactly through symbol counts: one multinomial
draw per orbit replaces ``m`` symbol draws.  The simulator measures the
Kolmogorov–Smirnov distance between the scaled sums and the limiting
normal law, and reports it next to the explicit tail bound
``(9*|d3| + 2*|d4|) / (sqrt(2*pi**3*m) * d2**1.5)`` built from the
pressure cumulants ``d2, d3, d4``.  The bound is recorded, never
asserted: it is an asymptotic statement, and the report notes the first
orbit length at which the empirical distance falls below it.

Each orbit length's samples are cut into fixed blocks of ``_BLOCK`` draws,
each with its own counter-based stream keyed by (seed, orbit-length index,
block index), so a fixed seed reproduces reports bit for bit whatever the
worker count and scheduling.  The blocks of the next orbit length are
queued on the worker pool before the current length's are reduced, so at
most two lengths of samples are held at once.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePotentialError, DomainError, SizeLimitError
from .pressure import pressure_jet
from .symbolic import MAX_TABLE_SIZE, CylinderPotential, equilibrium_weights

__all__ = [
    "MIN_SAMPLES",
    "SimConfig",
    "CltReport",
    "center_potential",
    "simulate_gm",
    "edgeworth_correction",
]

MIN_SAMPLES = 10_000
_BLOCK = 2**12


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation run.

    ``orbit_lengths`` must be strictly increasing and below 2**63;
    ``samples_per_m`` is the number of independent orbits drawn per
    length and must be at least ``MIN_SAMPLES`` so the statistical noise
    (~1/sqrt(samples)) stays small against the tested bounds, and at most
    ``MAX_TABLE_SIZE``.  ``workers`` is the most threads that draw the
    sample blocks; the report does not depend on it.
    """

    potential: CylinderPotential
    t_star: float
    orbit_lengths: tuple[int, ...]
    samples_per_m: int
    seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        if self.potential.window != 1 or not self.potential.space.is_full_shift:
            raise DomainError("simulation needs a window-1 full-shift potential")
        if np.ptp(self.potential.values) == 0.0:
            raise DegeneratePotentialError(
                "constant potential: the orbit-sum distribution is a point mass "
                "and the limit statement is vacuous"
            )
        t_star = float(self.t_star)
        if not math.isfinite(t_star):
            raise DomainError(f"t_star must be finite, got {self.t_star!r}")
        lengths = tuple(int(m) for m in self.orbit_lengths)
        if not lengths:
            raise DomainError("orbit_lengths must be non-empty")
        if any(not 1 <= m < 2**63 for m in lengths):
            raise DomainError(f"orbit lengths must lie in [1, 2**63), got {lengths}")
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise DomainError(f"orbit lengths must be strictly increasing, got {lengths}")
        samples = int(self.samples_per_m)
        if samples < MIN_SAMPLES:
            raise DomainError(
                f"samples_per_m must be at least {MIN_SAMPLES}, got {samples}"
            )
        if samples > MAX_TABLE_SIZE:
            raise SizeLimitError(f"samples_per_m exceeds {MAX_TABLE_SIZE}, got {samples}")
        seed = int(self.seed)
        if not 0 <= seed < 2**64:
            raise DomainError(f"seed must fit in 64 bits, got {self.seed!r}")
        workers = int(self.workers)
        if workers < 1:
            raise DomainError(f"workers must be positive, got {self.workers!r}")
        object.__setattr__(self, "t_star", t_star)
        object.__setattr__(self, "orbit_lengths", lengths)
        object.__setattr__(self, "samples_per_m", samples)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "workers", workers)


@dataclass(frozen=True)
class CltReport:
    """Per-orbit-length statistics of one simulation run.

    ``deltas`` holds the second, third, and fourth pressure cumulants of
    the centered potential at ``t_star``; ``bounds`` the corresponding
    theoretical tail bounds; ``first_m_below_bound`` the smallest tested
    orbit length whose empirical KS distance falls below its bound, or
    None when none does.
    """

    orbit_lengths: tuple[int, ...]
    ks_distances: tuple[float, ...]
    bounds: tuple[float, ...]
    deltas: tuple[float, float, float]
    centered: bool
    first_m_below_bound: int | None
    sample_means: tuple[float, ...]
    sample_variances: tuple[float, ...]
    samples_per_m: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "orbit_lengths": list(self.orbit_lengths),
            "ks_distances": list(self.ks_distances),
            "bounds": list(self.bounds),
            "deltas": list(self.deltas),
            "centered": self.centered,
            "first_m_below_bound": self.first_m_below_bound,
            "sample_means": list(self.sample_means),
            "sample_variances": list(self.sample_variances),
            "samples_per_m": self.samples_per_m,
            "seed": self.seed,
        }


def center_potential(potential: CylinderPotential, t_star: float) -> CylinderPotential:
    """Shift a window-1 potential so its equilibrium mean at ``t_star`` is 0.

    Subtracting the mean tilts the pressure by a linear term only, so all
    higher cumulants are unchanged; the centered values feed the orbit-sum
    simulation directly.
    """
    weights = equilibrium_weights(potential, float(t_star))
    mean = float(np.asarray(weights.probabilities) @ potential.values)
    return CylinderPotential(potential.space, 1, potential.values - mean)


def _sample_sums(
    values: np.ndarray,
    probabilities: np.ndarray,
    m: int,
    size: int,
    seed: int,
    m_idx: int,
    block_idx: int,
) -> np.ndarray:
    """Orbit sums for one (orbit length, block) cell via symbol counts."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(m_idx, block_idx))
    rng = np.random.Generator(np.random.Philox(seq))
    counts = rng.multinomial(m, probabilities, size=size)
    return counts.astype(np.float64) @ values


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF ``0.5 * erfc(-x / sqrt(2))``, accurate in both tails."""
    return 0.5 * np.fromiter(map(math.erfc, memoryview(x * -math.sqrt(0.5))), np.float64, x.size)


def simulate_gm(config: SimConfig) -> CltReport:
    """Run the simulation and compare against the limiting normal law.

    The potential is centered internally; cumulants come from the order-4
    pressure jet at ``t_star``.  For each orbit length the scaled sums
    are tested against N(0, d2) with the one-sample KS statistic.  Streams
    are keyed by sample block, so an identical seed gives a bit-identical
    report for any worker count.

    One pool of ``min(workers, cpu_count)`` threads draws the blocks.
    Length ``i+1``'s blocks are submitted before length ``i``'s are read,
    so the workers keep drawing while this thread concatenates, sorts and
    evaluates the normal CDF; no more than two lengths are outstanding.
    If a block raises, the blocks not yet started are cancelled and its
    exception propagates.
    """
    # Imported here so that importing the package does not load the thread pool.
    from concurrent.futures import ThreadPoolExecutor

    centered = center_potential(config.potential, config.t_star)
    jet = pressure_jet(centered, config.t_star, 4)
    d2, d3, d4 = jet.derivs[2], jet.derivs[3], jet.derivs[4]
    if d2 <= 0.0:
        raise DegeneratePotentialError(
            f"vanishing variance cumulant ({d2!r}): the limiting law is degenerate"
        )
    weights = equilibrium_weights(centered, config.t_star)
    probabilities = weights.as_array()
    values = np.asarray(centered.values)
    samples = config.samples_per_m
    sizes = [min(_BLOCK, samples - start) for start in range(0, samples, _BLOCK)]
    sigma = math.sqrt(d2)

    lengths = config.orbit_lengths
    ks_distances = []
    means = []
    variances = []
    bounds = []
    first_m = None
    pool = ThreadPoolExecutor(max_workers=min(config.workers, os.cpu_count() or 1))

    def queue(m_idx: int) -> list:
        return [
            pool.submit(
                _sample_sums, values, probabilities, lengths[m_idx], size, config.seed,
                m_idx, block_idx,
            )
            for block_idx, size in enumerate(sizes)
        ]

    try:
        queued = queue(0)
        for m_idx, m in enumerate(lengths):
            blocks = queued
            # The next length's blocks go in before this one's are read, so
            # the workers draw them while this thread sorts and runs _ndtr.
            if m_idx + 1 < len(lengths):
                queued = queue(m_idx + 1)
            scaled = np.sort(np.concatenate([block.result() for block in blocks]) / math.sqrt(m))
            n_samples = len(scaled)
            cdf = _ndtr(scaled / sigma)
            steps = np.arange(1, n_samples + 1, dtype=np.float64) / n_samples
            ks = float(max((steps - cdf).max(), (cdf - (steps - 1.0 / n_samples)).max()))
            bound = (9.0 * abs(d3) + 2.0 * abs(d4)) / (
                math.sqrt(2.0 * math.pi**3 * m) * d2**1.5
            )
            ks_distances.append(ks)
            bounds.append(bound)
            means.append(float(scaled.mean()))
            variances.append(float(scaled.var(ddof=1)))
            if first_m is None and ks <= bound:
                first_m = m
    finally:
        # Every block has been read unless one raised; then the queued ones
        # that have not started are dropped instead of drawn.
        pool.shutdown(cancel_futures=True)
    return CltReport(
        orbit_lengths=config.orbit_lengths,
        ks_distances=tuple(ks_distances),
        bounds=tuple(bounds),
        deltas=(d2, d3, d4),
        centered=True,
        first_m_below_bound=first_m,
        sample_means=tuple(means),
        sample_variances=tuple(variances),
        samples_per_m=config.samples_per_m,
        seed=config.seed,
    )


def edgeworth_correction(y: float, m: int, delta2: float, delta3: float) -> float:
    """First-order density correction to the limiting normal law.

    Returns ``(d3 / (6*sqrt(m))) * (1 - y**2/d2) * exp(-y**2/(2*d2))``;
    it vanishes identically for symmetric value distributions (``d3 = 0``)
    and at ``y = ±sqrt(d2)``.
    """
    m = int(m)
    if m < 1:
        raise DomainError(f"orbit length must be positive, got {m}")
    delta2 = float(delta2)
    if not (math.isfinite(delta2) and delta2 > 0.0):
        raise DomainError(f"variance cumulant must be positive, got {delta2!r}")
    y = float(y)
    ratio = y * y / delta2
    return (float(delta3) / (6.0 * math.sqrt(m))) * (1.0 - ratio) * math.exp(-0.5 * ratio)
