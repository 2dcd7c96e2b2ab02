"""Hot numeric kernels.

Two kernels dominate runtime: the word-graph transfer-matrix power
iteration behind spectral pressure values, and the two-value-slice sweep
behind curvature-range scans.  Each has exactly one implementation, in
numpy; there is no backend selection.  ``perfbench/run.py`` measures
them end to end and per layer.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "debruijn_power",
    "two_block_sweep",
]


# ---------------------------------------------------------------------------
# Word-graph power iteration.
#
# States are words of length w-1 over n symbols, encoded base-n.  Appending
# symbol j to state u moves to (u % tail) * n + j with tail = n**(w-2), and
# traverses the length-w word u * n + j whose (already exponentiated, scaled)
# weight is weights[u * n + j].  The kernel returns the leading eigenvalue of
# the weighted adjacency plus sigma times the identity; sigma > 0 breaks
# periodic stalls without changing the answer (the eigenvalue shifts by
# exactly sigma).
# ---------------------------------------------------------------------------


def debruijn_power(
    weights: np.ndarray,
    n: int,
    tail: int,
    tol: float = 1e-13,
    max_iter: int = 100_000,
    sigma: float = 0.0,
) -> tuple[float, int, bool]:
    """Leading eigenvalue of the word-graph transfer matrix plus ``sigma*I``.

    ``weights`` holds one non-negative weight per length-``w`` word in
    base-``n`` order; ``tail`` is ``n**(w-2)`` (1 for ``w = 2``).  Returns
    ``(eigenvalue, iterations, converged)``.
    """
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    n, tail, tol, max_iter = int(n), int(tail), float(tol), int(max_iter)
    sigma = float(sigma)
    n_states = weights.shape[0] // n
    table = weights.reshape(n_states, n)
    idx = (np.arange(n_states) % tail)[:, None] * n + np.arange(n)[None, :]
    x = np.full(n_states, 1.0 / n_states)
    lam = 0.0
    for it in range(max_iter):
        y = (table * x[idx]).sum(axis=1) + sigma * x
        lam = y.sum()
        residual = np.abs(y - lam * x).sum()
        x = y / lam
        if residual <= tol * lam:
            return lam, it + 1, True
    return lam, max_iter, False


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
# one-variable problem supplies the initial point; a damped two-variable
# Newton (step halving on residual increase) finishes to full precision.
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
    za_out = np.empty(m)
    zb_out = np.empty(m)
    a2_out = np.empty(m)
    ok = np.zeros(m, dtype=np.bool_)
    z_eq = (a0 - np.log(n)) / t
    for i in range(m):
        k = float(ks[i])
        rest = n - k
        za_out[i] = np.nan
        zb_out[i] = np.nan
        a2_out[i] = np.nan
        if k < 1.0 or rest < 1.0:
            continue
        # The ordered branch only reaches mean targets below this limit.
        limit = (a0 - np.log(rest)) / t
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
                zb = (a0 + np.log(beta) - np.log(rest)) / t
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
            zb = (a0 + np.log(beta) - np.log(rest)) / t
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
        zb = (a0 + np.log(beta) - np.log(rest)) / t
        # --- Damped Newton on the full two-variable system. ---
        ea = k * np.exp(t * za - a0)
        eb = rest * np.exp(t * zb - a0)
        f1 = ea + eb - 1.0
        f2 = za * ea + zb * eb - a1
        best = abs(f1) + abs(f2)
        converged = best <= newton_tol
        for _ in range(max_newton):
            if converged:
                break
            j11 = t * ea
            j12 = t * eb
            j21 = ea * (1.0 + t * za)
            j22 = eb * (1.0 + t * zb)
            det = j11 * j22 - j12 * j21
            if det == 0.0 or not np.isfinite(det):
                break
            dza = -(j22 * f1 - j12 * f2) / det
            dzb = -(-j21 * f1 + j11 * f2) / det
            scale = 1.0
            improved = False
            for _ in range(40):
                za_try = za + scale * dza
                zb_try = zb + scale * dzb
                ea_try = k * np.exp(t * za_try - a0)
                eb_try = rest * np.exp(t * zb_try - a0)
                f1_try = ea_try + eb_try - 1.0
                f2_try = za_try * ea_try + zb_try * eb_try - a1
                norm = abs(f1_try) + abs(f2_try)
                if norm < best:
                    za, zb, ea, eb, f1, f2, best = (
                        za_try,
                        zb_try,
                        ea_try,
                        eb_try,
                        f1_try,
                        f2_try,
                        norm,
                    )
                    improved = True
                    break
                scale *= 0.5
            if not improved:
                break
            converged = best <= newton_tol
        if not (converged and za <= zb):
            continue
        za_out[i] = za
        zb_out[i] = zb
        a2_out[i] = za * za * ea + zb * zb * eb - a1 * a1
        ok[i] = True
    return za_out, zb_out, a2_out, ok
