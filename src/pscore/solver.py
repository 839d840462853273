"""Stationary group vector of the reputation chain, from the counts alone.

Every row of beta is ``d * volume[w] + (1 - d) * breadth``, so gamma = gamma
@ beta @ alpha solves ``gamma (I - d R) = (1 - d) t`` with t = breadth @ alpha
and R = volume @ alpha. R is reversible with respect to the group sizes N(w),
since ``N(w) R(w, w') = sum_j N(w, j) N(w', j) / N(j)`` is symmetric, so:

- at d = 1, gamma = N(w) / sum N exactly (``method="closed_form"``);
- for d < 1, y = gamma / sqrt(N(w)) solves a symmetric system whose spectrum
  lies in [1 - d, 1]. Chebyshev iteration on that interval (Golub and Varga
  1961; Saad, *Iterative Methods for Sparse Linear Systems*, section 12)
  commutes with the diagonal scaling, so it runs on gamma itself
  (``method="chebyshev"``). From y_0 = 0 the error obeys ||y_k - y*||_2 <=
  2 rho^k ||y*||_2 with rho = (1 - sqrt(1 - d)) / (1 + sqrt(1 - d)), and
  ||y*||_2^2 <= 1 / min N(w); Cauchy-Schwarz gives ||gamma_k - gamma*||_1 <=
  sqrt(sum N) ||y_k - y*||_2. That fixes the step count before the first
  step (:func:`iteration_count`); it grows like 1 / sqrt(1 - d), and a d
  that would need more than :data:`MAX_STEPS` is refused.

Grassmann-Taksar-Heyman state elimination, :func:`gth_steady_state`, solves
any dense row-stochastic matrix independently. It only adds, multiplies and
divides by accumulated off-diagonal mass, so it is stable without pivoting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _np as np
from .chain import TOL, ReputationChain
from .errors import ChainError, DisconnectedChainError, ParameterError

# 1-norm error bound on the Chebyshev iterate: ||gamma_k - gamma*||_1 <= EPS
EPS = 1e-17
# Chebyshev steps allowed before a d this close to 1 is refused (about 10 s at T = 1000)
MAX_STEPS = 100_000


@dataclass(frozen=True)
class StationaryDistribution:
    """A solved stationary vector and the residual it achieves.

    ``residual`` is the max norm of (gamma @ P - gamma) for the reduced
    matrix P; ``method`` records which solver produced the vector.
    """

    gamma: np.ndarray
    residual: float
    method: str


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
    original = np.asarray(p_reduced, dtype=np.float64)
    if original.ndim != 2 or original.shape[0] != original.shape[1]:
        raise ChainError(f"expected a square matrix, got shape {original.shape}")
    if np.any(original < 0):
        raise ChainError("negative transition probability")
    if not (drift := float(np.max(np.abs(original.sum(axis=1) - 1.0), initial=0.0))) <= TOL:  # a NaN too
        raise ChainError(f"transition matrix rows drift from 1 by {drift:.3e}")
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

    residual = float(np.max(np.abs(gamma @ original - gamma)))
    return StationaryDistribution(gamma=gamma, residual=residual, method="gth")


def iteration_count(n_group: np.ndarray, d: float) -> int:
    """Chebyshev steps k with 2 rho^k sqrt(sum N / min N(w)) <= EPS (d < 1).

    At d = 0 one step gives the exact answer, ``breadth @ alpha``; so does
    any d for which 1 - d rounds to 1.
    """
    root = math.sqrt(1.0 - d)
    rho = (1.0 - root) / (1.0 + root)
    if rho == 0.0:
        return 1
    scale = 2.0 * math.sqrt(int(n_group.sum()) / int(n_group.min()))
    return math.ceil(math.log(EPS / scale) / math.log(rho))


def steady_state(chain: ReputationChain) -> StationaryDistribution:
    """Stationary group vector of ``chain``, from its counts and its d.

    The closed form at d = 1 holds on a connected group-venue graph, which
    :func:`~pscore.chain.check_irreducible` decides; below 1 the chain is
    always irreducible. A d that needs over :data:`MAX_STEPS` steps raises :class:`ParameterError`.
    """
    d, n_group = chain.d, chain.counts.n_group

    def walk(gamma: np.ndarray) -> np.ndarray:
        """gamma @ volume @ alpha."""
        return chain.to_groups(chain.to_venues(gamma))

    teleport = (1.0 - d) * chain.to_groups(chain.breadth)
    if d == 1.0:
        gamma, method = n_group / n_group.sum(), "closed_form"
    else:
        steps = iteration_count(n_group, d)
        if steps > MAX_STEPS:
            raise ParameterError(f"d = {d!r} needs {steps} Chebyshev steps, more than the cap of "
                                 f"{MAX_STEPS}; take d further from 1, or d = 1, which has a closed form")
        # Chebyshev iteration for gamma (I - d R) = teleport from gamma = 0,
        # on the interval [1 - d, 1]: centre 1 - d/2, half-width d/2
        centre, half = 1.0 - d / 2, d / 2
        gamma, residual = np.zeros(len(n_group)), teleport.copy()
        step, ratio = residual / centre, half / centre
        for _ in range(steps - 1):
            gamma += step
            residual -= step - d * walk(step)
            denom = 2.0 * centre - half * ratio
            ratio, previous = half / denom, ratio
            step = (ratio * previous) * step + (2.0 / denom) * residual
        gamma += step
        # one sweep damps the rounding the recurrence leaves in fast-mixing directions
        gamma = d * walk(gamma / gamma.sum()) + teleport
        gamma, method = gamma / gamma.sum(), "chebyshev"
    residual = float(np.max(np.abs(d * walk(gamma) + teleport - gamma)))
    return StationaryDistribution(gamma=gamma, residual=residual, method=method)
