"""Stationary distributions of the reduced group-to-group chain.

Every row of beta is ``d * volume[w] + (1 - d) * breadth``, so for a
probability vector gamma the reduced chain P = beta @ alpha acts as

    gamma @ P = d * (gamma @ volume) @ alpha + (1 - d) * breadth @ alpha

which is PageRank with contraction rate ``d`` and teleport vector
``breadth @ alpha``. For d < 1, :func:`steady_state` therefore applies
``gamma <- (gamma @ beta) @ alpha`` a fixed number of times, chosen in
advance from ``d`` so the 1-norm error is below :data:`SWEEP_EPS`; no
tolerance loop is needed, and the T x T matrix is never formed. Each sweep
runs over the nonzero counts only.

Grassmann-Taksar-Heyman state elimination covers d = 1, where the sweep
does not contract, and small chains where the sweeps would cost more than
the elimination. It uses only additions, multiplications, and divisions by
accumulated off-diagonal mass; because no like-signed quantities are ever
subtracted, it is stable even for badly conditioned chains and needs no
pivoting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ReputationChain, build_reduced
from .errors import ChainError, DisconnectedChainError

STOCHASTIC_TOL = 1e-9

# 1-norm error bound on the swept vector: ||gamma_k - gamma*||_1 <= 2 d^k
SWEEP_EPS = 1e-17


@dataclass(frozen=True)
class StationaryDistribution:
    """A solved stationary vector and the residual it achieves.

    ``residual`` is the max norm of (gamma @ P - gamma) against the input
    matrix; ``method`` records which solver produced the vector.
    """

    gamma: np.ndarray
    residual: float
    method: str


def _as_stochastic(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ChainError(f"expected a square matrix, got shape {p.shape}")
    if np.any(p < 0):
        raise ChainError("negative transition probability")
    drift = float(np.max(np.abs(p.sum(axis=1) - 1.0)))
    if drift > STOCHASTIC_TOL:
        raise ChainError(f"matrix is not row-stochastic: rows drift from 1 by {drift:.3e}")
    return p


def _residual(gamma: np.ndarray, p: np.ndarray) -> float:
    return float(np.max(np.abs(gamma @ p - gamma)))


def gth_steady_state(p_reduced) -> StationaryDistribution:
    """Solve gamma = gamma @ P by state elimination.

    States are eliminated from the last one down. Eliminating state ``n``
    divides the column of transitions into ``n`` by the total mass ``n``
    sends to the surviving states, then folds paths through ``n`` back
    into the surviving block. Back substitution rebuilds the unnormalized
    stationary weights in one forward sweep.

    Raises :class:`DisconnectedChainError` when a state to be eliminated
    has no outgoing mass towards the surviving states, which can only
    happen if the chain is reducible.
    """
    original = _as_stochastic(p_reduced)
    p = original.copy()
    n = p.shape[0]

    for k in range(n - 1, 0, -1):
        mass = p[k, :k].sum()
        if mass <= 0.0:
            raise DisconnectedChainError(
                f"state {k} has no transitions into the remaining states; "
                "the chain is reducible"
            )
        p[:k, k] /= mass
        p[:k, :k] += np.outer(p[:k, k], p[k, :k])

    gamma = np.zeros(n)
    gamma[0] = 1.0
    for k in range(1, n):
        gamma[k] = gamma[:k] @ p[:k, k]
    gamma /= gamma.sum()

    return StationaryDistribution(gamma=gamma, residual=_residual(gamma, original), method="gth")


def sweep_count(d: float) -> int:
    """Sweeps that bring the 1-norm error 2 d^k down to SWEEP_EPS (d < 1)."""
    if d == 0.0:
        return 0
    return math.ceil(math.log(SWEEP_EPS / 2) / math.log(d))


def sweep_steady_state(chain: ReputationChain, sweeps: int) -> StationaryDistribution:
    """Apply ``gamma <- (gamma @ beta) @ alpha`` ``sweeps`` times from ``breadth @ alpha``.

    For d < 1 the 1-norm distance to the stationary vector is at most
    ``2 d^sweeps``. The residual, max |gamma @ P - gamma|, costs one more
    sweep; the T x T matrix P is never formed.

    Each product runs over the nonzero counts only, splitting every row of
    beta into its volume part, nonzero where alpha is, and the shared
    breadth part. ``bincount`` sums them without BLAS, whose threaded
    matrix-vector products, called twice per sweep, each wait for a
    worker thread that a busy host may not schedule for milliseconds.
    """
    t, v = chain.num_groups, chain.num_venues
    venue, group = np.nonzero(chain.alpha)
    to_group = chain.alpha[venue, group]
    teleport = (1.0 - chain.d) * chain.breadth
    to_venue = chain.beta[group, venue] - teleport[venue]  # d * n(w, j) / n(w)

    def sweep(gamma: np.ndarray) -> np.ndarray:
        nu = np.bincount(venue, weights=gamma[group] * to_venue, minlength=v)
        nu += gamma.sum() * teleport
        return np.bincount(group, weights=nu[venue] * to_group, minlength=t)

    gamma = np.bincount(group, weights=chain.breadth[venue] * to_group, minlength=t)
    for _ in range(sweeps):
        gamma = sweep(gamma)
    gamma /= gamma.sum()  # rounding in the fixed block entries drifts the sum by ~1e-17 a sweep
    residual = float(np.max(np.abs(sweep(gamma) - gamma)))
    return StationaryDistribution(gamma=gamma, residual=residual, method="sweep")


def steady_state(chain: ReputationChain) -> StationaryDistribution:
    """Stationary group vector of ``chain``, by sweeps or by GTH.

    For d < 1 the k = ``sweep_count(d)`` sweeps cost at most O(k T V);
    they run when that is no more than GTH's O(T^3) elimination, i.e. when
    k V <= T^2. Otherwise, and always at d = 1, GTH solves the reduced
    matrix. The choice depends only on (d, T, V), so identical inputs take
    the same path; ``method`` on the result names it.
    """
    if chain.d < 1.0:
        k = sweep_count(chain.d)
        if k * chain.num_venues <= chain.num_groups ** 2:
            return sweep_steady_state(chain, k)
    return gth_steady_state(build_reduced(chain))
