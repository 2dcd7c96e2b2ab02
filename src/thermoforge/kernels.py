"""Hot numeric kernels.

Two kernels dominate runtime: the word-graph transfer-matrix power
iteration behind spectral pressure values, and the two-value-slice sweep
behind curvature-range scans.  Each has exactly one implementation, in
numpy; there is no backend selection.  ``perfbench/run.py`` measures
them end to end and per layer.

Every 2x2 solve in the package (the sweep's split solve, the level-2
sliding-coordinate homotopy and the extreme-pair table in ``germfit``)
runs through one step-halving Newton, :func:`damped_newton`, with
:func:`newton_step` as the generic Jacobian solve.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PowerResult",
    "damped_newton",
    "debruijn_power",
    "newton_step",
    "two_block_sweep",
]


# ---------------------------------------------------------------------------
# Word-graph power iteration.
#
# The layout contract.  States are words of length w-1 over n symbols,
# encoded base-n; appending symbol j to state u = a * tail + b
# (tail = n**(w-2), 1 for w <= 2) moves to b * n + j.  The kernel takes
# the (already exponentiated, scaled) weights last-symbol-major, as
# table[j, a, b] = the weight of the length-w word a·b·j, with shape
# (n, n, tail) in C order; any array of that many entries is read so, and
# tail = weights.size // n**2.  One step is the contraction
# y[a, b] = sum_j table[j, a, b] * x[b, j], with the iterate x copied into
# xt[j, b] = x[b, j] first, so numpy's inner loop runs along the long b
# axis rather than over the n symbols.  A constrained graph can run on a
# compressed grid instead: b ranges over its allowed (w-2)-words only
# (tail of them), and succ[j * tail + b] names the cell of the state that
# j leads to from (., b), the same for every a, so the copy becomes the
# gather xt = x[succ].  succ=None is the full grid, where that cell is
# b * n + j.  The gather costs about twice the strided copy per state,
# which the full shift, where no state is dead, would pay for nothing.
#
# x, y and xt are the only state-sized buffers (xt is scratch for the
# ratios and the shift once the contraction has read it); nothing is
# allocated per step.  An ordinary step is four array passes: the copy or
# gather, the contraction y = Ax, the sum and x = y * (1 / sum), which
# keeps sum(x) = 1.  Every _TEST_EVERY-th step, and the last allowed one,
# also writes the ratios r = (Ax) / x into xt and tests the
# Collatz-Wielandt bracket min r <= rho <= max r (Collatz 1942; Wielandt
# 1950; Horn & Johnson, Matrix Analysis, 8.1).  The ratios are read before
# sigma x is added, so the bracket and the returned sum(Ax) are on rho
# itself at every sigma; while sigma is 0 that sum is also the step's
# normaliser.  A state whose words all have weight 0 has a zero row and,
# after one step, x = 0: its ratio 0/0 is replaced by sum(Ax), which moves
# neither end.  A bracket width that has not halved over _STALL_SPAN
# steps, checked from _STALL_FROM on, switches sigma once to
# sqrt(min r * max r), which makes a periodic A + sigma I primitive
# (Horn & Johnson, 8.5).  The call stops once max r - min r <= _TOL * min r,
# or after _MAX_ITER steps.
# ---------------------------------------------------------------------------

_TOL = 1e-13
_MAX_ITER = 100_000
_TEST_EVERY = 4
_STALL_FROM = 64
_STALL_SPAN = 32


class PowerResult(tuple):
    """``(rho, iterations, converged)``, with the last ``sigma`` and the final ``bracket``."""

    def __new__(cls, rho: float, iterations: int, converged: bool, sigma: float, bracket: tuple):
        result = super().__new__(cls, (rho, iterations, converged))
        result.sigma, result.bracket = sigma, bracket
        return result


def debruijn_power(
    weights: np.ndarray, n: int, sigma: float = 0.0, succ: np.ndarray | None = None
) -> PowerResult:
    """Spectral radius ``rho`` of the word-graph transfer matrix.

    ``weights`` and ``succ`` follow the layout contract, and the stop and
    shift rules are those of this module's header; the shift starts at
    ``sigma``, which does not change ``rho``.  Returns ``(rho, iterations,
    converged)``, whose ``sigma`` is the shift of the last step and whose
    ``bracket`` is the last ``(min r, max r)`` over the states that have a
    nonzero row.  ``rho`` is ``sum(Ax)`` for the iterate of sum 1, a
    weighted mean of ``r``, so it lies in the bracket up to rounding.
    ``iterations`` is a multiple of 4 or ``_MAX_ITER``, which an
    unconverged call reports.
    """
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    n, sigma, tol, max_iter = int(n), float(sigma), _TOL, _MAX_ITER
    n_states = weights.size // n
    tail = n_states // n
    table = weights.reshape(n, n, tail)
    x = np.full(n_states, 1.0 / n_states)
    y = np.empty(n_states)
    xt = np.empty((n, tail))
    y_ab, x_bj, scratch = y.reshape(n, tail), x.reshape(tail, n), xt.reshape(-1)
    # .min() reads the table without the temporary that .all() would make.
    dead = ~table.any(axis=0).reshape(-1) if weights.min() == 0.0 else None
    # width is the bracket's width at the last stall check; None once sigma switched.
    lam, bracket, width = 0.0, (0.0, math.inf), math.inf
    if succ is not None:
        succ = np.ascontiguousarray(succ, dtype=np.intp)
    # A dead state's ratio is 0/0 until it is replaced.
    with np.errstate(invalid="ignore"):
        for it in range(1, max_iter + 1):
            if succ is None:
                np.copyto(xt, x_bj.T)
            else:
                # "clip" writes straight into xt; "raise" would buffer the output.
                x.take(succ, out=scratch, mode="clip")
            # Plain einsum: optimize=True routes this through a slower path.
            np.einsum("jab,jb->ab", table, xt, out=y_ab)
            lam = y.sum()
            if it % _TEST_EVERY == 0 or it == max_iter:
                np.divide(y, x, out=scratch)
                if dead is not None:
                    np.putmask(scratch, dead, lam)
                bracket = low, high = scratch.min(), scratch.max()
                if high - low <= tol * low:
                    return PowerResult(lam, it, True, sigma, bracket)
                if width is not None and it % _STALL_SPAN == 0:
                    if it >= _STALL_FROM and high - low > 0.5 * width:
                        sigma, width = math.sqrt(low * high), None
                    else:
                        width = high - low
            if sigma != 0.0:
                y += np.multiply(sigma, x, out=scratch)
            # sum(y) is lam + sigma * sum(x), and sum(x) is 1.
            np.multiply(y, 1.0 / (lam + sigma), out=x)
    return PowerResult(lam, max_iter, False, sigma, bracket)


def newton_step(j11, j12, j21, j22, f1, f2):
    """Newton step ``-J**-1 f`` of a 2x2 system; ``None`` if ``J`` is singular."""
    det = j11 * j22 - j12 * j21
    if det == 0.0 or not math.isfinite(det):
        return None
    return -(j22 * f1 - j12 * f2) / det, -(-j21 * f1 + j11 * f2) / det


def damped_newton(residual, direction, za, zb, tol, max_iter, norm):
    """Step-halving Newton on a 2x2 system from ``(za, zb)``.

    ``residual(za, zb)`` returns ``(f1, f2, *extras)``; ``direction(za, zb,
    r)`` returns the step ``(dza, dzb)`` from the residual tuple ``r`` at
    that point, or ``None`` to stop.  Each step is halved up to 40 times
    until ``norm(f1, f2)`` drops; no drop ends the solve, as does reaching
    ``tol``.  Returns ``(za, zb, r, best, steps)``: the last accepted point,
    its residual tuple and norm, and the number of steps tried.  The caller
    decides whether ``best`` is good enough.
    """
    r = residual(za, zb)
    best = norm(r[0], r[1])
    steps = 0
    for _ in range(max_iter):
        if best <= tol:
            break
        step = direction(za, zb, r)
        if step is None:
            break
        dza, dzb = step
        steps += 1
        scale = 1.0
        for _ in range(40):
            za_try, zb_try = za + scale * dza, zb + scale * dzb
            trial = residual(za_try, zb_try)
            value = norm(trial[0], trial[1])
            if value < best:
                za, zb, r, best = za_try, zb_try, trial, value
                break
            scale *= 0.5
        else:
            break
    return za, zb, r, best, steps


# ---------------------------------------------------------------------------
# Two-value-slice sweep.
#
# For each multiplicity split k (k coordinates at the low value z_a, n - k at
# the high value z_b) solve the scaled constraints
#
#     k*exp(t*z_a - a0) + (n-k)*exp(t*z_b - a0) = 1
#     k*z_a*exp(t*z_a - a0) + (n-k)*z_b*exp(t*z_b - a0) = a1
#
# on the ordered branch z_a <= z_b.  A bracketing bisection on the reduced
# one-variable problem supplies the initial point; damped_newton on the
# two-variable system finishes to full precision.  The solve is accepted
# when its residual is at most newton_tol * max(1, |z_a|, |z_b|): the slope
# residual sums z * exp(...) terms, so its rounding floor grows with |z|.
# The curvature of the solved slice is reported as
# second-moment - a1**2 in the same scaled units.
# ---------------------------------------------------------------------------


def two_block_sweep(
    ks: np.ndarray,
    n: float,
    t: float,
    a0: float,
    a1: float,
    newton_tol: float = 1e-13,
    max_newton: int = 60,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve the ordered two-value slices for every multiplicity in ``ks``.

    Returns ``(z_low, z_high, curvature, ok)`` arrays aligned with ``ks``;
    entries with ``ok`` false (infeasible or unconverged slice) hold NaN.
    """
    ks = np.ascontiguousarray(ks, dtype=np.int64)
    n, t, a0, a1 = float(n), float(t), float(a0), float(a1)
    newton_tol, max_newton = float(newton_tol), int(max_newton)
    m = ks.shape[0]
    za_out = np.full(m, np.nan)
    zb_out = np.full(m, np.nan)
    a2_out = np.full(m, np.nan)
    ok = np.zeros(m, dtype=np.bool_)
    z_eq = (a0 - np.log(n)) / t

    def direction(za, zb, r):
        f1, f2, ea, eb = r
        j21, j22 = ea * (1.0 + t * za), eb * (1.0 + t * zb)
        return newton_step(t * ea, t * eb, j21, j22, f1, f2)

    for i in range(m):
        k = float(ks[i])
        rest = n - k
        if k < 1.0 or rest < 1.0:
            continue
        log_rest = np.log(rest)
        # The ordered branch only reaches mean targets below this limit.
        limit = (a0 - log_rest) / t
        if not a1 < limit:
            continue
        # --- Bracket the reduced problem g(z_a) between lo and hi. ---
        # g(z_eq) = z_eq - a1 < 0 for feasible targets; g tends to
        # (limit - a1) > 0 as z_a -> -inf.
        hi = z_eq
        step = 1.0 + abs(z_eq)
        lo = hi - step
        found = False
        for _ in range(200):
            ea = k * np.exp(t * lo - a0)
            beta = 1.0 - ea
            if beta > 0.0:
                zb = (a0 + np.log(beta) - log_rest) / t
                g = lo * ea + zb * beta - a1
                if g > 0.0:
                    found = True
                    break
            step *= 2.0
            lo = hi - step
        if not found:
            continue
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            ea = k * np.exp(t * mid - a0)
            beta = 1.0 - ea
            if beta <= 0.0:
                hi = mid
                continue
            zb = (a0 + np.log(beta) - log_rest) / t
            g = mid * ea + zb * beta - a1
            if g > 0.0:
                lo = mid
            else:
                hi = mid
        za = 0.5 * (lo + hi)
        ea = k * np.exp(t * za - a0)
        beta = 1.0 - ea
        if beta <= 0.0:
            continue
        zb = (a0 + np.log(beta) - log_rest) / t
        # --- Damped Newton on the full two-variable system. ---

        def residual(za, zb):
            ea = k * np.exp(t * za - a0)
            eb = rest * np.exp(t * zb - a0)
            return ea + eb - 1.0, za * ea + zb * eb - a1, ea, eb

        za, zb, (_, _, ea, eb), best, _ = damped_newton(
            residual, direction, za, zb, newton_tol, max_newton,
            lambda f1, f2: abs(f1) + abs(f2),
        )
        if not (best <= newton_tol * max(1.0, abs(za), abs(zb)) and za <= zb):
            continue
        za_out[i] = za
        zb_out[i] = zb
        a2_out[i] = za * za * ea + zb * zb * eb - a1 * a1
        ok[i] = True
    return za_out, zb_out, a2_out, ok
