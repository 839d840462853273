"""Independent stationary-vector solvers, used only to cross-check pscore.

Neither shares code with ``pscore.solver``: power iteration repeats
gamma <- gamma @ P from the uniform vector, and the LAPACK solve replaces
one equation of gamma (I - P) = 0 by sum(gamma) = 1.
"""

from __future__ import annotations

import numpy as np

from pscore import ConvergenceError, StationaryDistribution


def power_iteration(p_reduced, tol: float = 1e-12, max_iters: int = 100_000) -> StationaryDistribution:
    """Iterate gamma <- gamma @ P from the uniform vector until it settles.

    Requires an irreducible aperiodic matrix to converge; the reduced
    chain of a connected dataset qualifies because every group keeps some
    mass on itself through its own venues. Stops once the max-norm change
    per sweep drops to ``tol``; raises :class:`ConvergenceError` carrying
    the last change if ``max_iters`` sweeps are not enough.
    """
    p = np.asarray(p_reduced, dtype=np.float64)
    n = p.shape[0]
    gamma = np.full(n, 1.0 / n)

    delta = np.inf
    for _ in range(max_iters):
        nxt = gamma @ p
        nxt /= nxt.sum()
        delta = float(np.max(np.abs(nxt - gamma)))
        gamma = nxt
        if delta <= tol:
            residual = float(np.max(np.abs(gamma @ p - gamma)))
            return StationaryDistribution(gamma=gamma, residual=residual, method="power")
    raise ConvergenceError(
        f"power iteration did not converge within {max_iters} sweeps "
        f"(last change {delta:.3e})",
        residual=delta,
    )


def stationary_by_solve(p: np.ndarray) -> np.ndarray:
    """Solve gamma (I - P) = 0, sum(gamma) = 1 with one LAPACK linear solve."""
    n = p.shape[0]
    a = (np.eye(n) - p).T
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)
