"""Stationary group vector of the reputation chain, from the counts alone.

Every row of beta is ``d * volume[w] + (1 - d) * breadth``, so gamma = gamma
@ beta @ alpha solves ``gamma (I - d R) = (1 - d) t`` with t = breadth @ alpha
and R = volume @ alpha. R is reversible with respect to the group sizes N(w),
since ``N(w) R(w, w') = sum_j N(w, j) N(w', j) / N(j)`` is symmetric, so
S = D^1/2 R D^-1/2 with D = diag(N) is symmetric, positive semidefinite, and
has u = sqrt(N) / ||sqrt(N)|| as an eigenvector for eigenvalue 1. Splitting
gamma along u gives

    gamma = N / sum N + (1 - d) (z * sqrt(N)),  z (I - d S) = b,
    b = (t - N / sum N) / sqrt(N),

with b and z orthogonal to u. On u's complement I - d S is symmetric with
its spectrum in [1 - d lambda_2, 1], so conjugate gradients (Hestenes and
Stiefel 1952) with u deflated (Nicolaides, SIAM J. Numer. Anal. 24(2), 1987;
Saad, Yeung, Erhel and Guyomarc'h, SIAM J. Sci. Comput. 21(5), 2000) solve
it in a number of steps set by the graph's spectral gap, not by 1 - d
(``method="cg"``). Since ||z_k - z*||_2 <= ||r_k||_2 / (1 - d), the factor
1 - d cancels and ||gamma_k - gamma*||_1 <= sqrt(sum N) ||r_k||_2 at every d.
At d = 1 the correction vanishes and no step runs: gamma = N / sum N
exactly (``method="closed_form"``).

Grassmann-Taksar-Heyman state elimination, :func:`gth_steady_state`, solves
any dense row-stochastic matrix independently. It only adds, multiplies and
divides by accumulated off-diagonal mass, so it is stable without pivoting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _np as np
from .chain import TOL, ReputationChain
from .errors import ChainError, DisconnectedChainError

# 1-norm error aimed at: ||gamma_k - gamma*||_1 <= sqrt(sum N) ||r_k||_2 <= EPS
EPS = 1e-17
# CG steps allowed per group, a guard against breakdown: exact arithmetic needs fewer than T
STEPS_PER_GROUP = 20


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


def steady_state(chain: ReputationChain) -> StationaryDistribution:
    """Stationary group vector of ``chain``, from its counts and its d.

    The closed form at d = 1 holds on a connected group-venue graph, which
    :func:`~pscore.chain.check_irreducible` decides; below 1 the chain is
    always irreducible. CG stops once ||r||_2 <= EPS / sqrt(sum N), or once
    ||r||_2 <= 2^-52 ||b||_2, since the first is out of float64's reach on
    most inputs; it never restarts, and stops after :data:`STEPS_PER_GROUP`
    steps per group at most. The pipeline holds the result to its
    fixed-point tolerance either way.
    """
    d, n_group = chain.d, chain.counts.n_group
    total = int(n_group.sum())
    root, prior, t = np.sqrt(n_group), n_group / total, chain.to_groups(chain.breadth)

    def walk(gamma: np.ndarray) -> np.ndarray:
        """gamma @ volume @ alpha."""
        return chain.to_groups(chain.to_venues(gamma))

    gamma, method = prior, "closed_form"
    if d < 1.0:
        u = root / math.sqrt(total)

        def dot(a: np.ndarray, b: np.ndarray) -> float:
            """Pairwise sum of a * b: BLAS's ddot sums in an order set by the CPU."""
            return float(np.add.reduce(a * b))

        def deflate(x: np.ndarray) -> np.ndarray:
            return x - dot(x, u) * u

        r = deflate((t - prior) / root)
        z, p, rr = np.zeros_like(r), r, dot(r, r)
        stop = max(EPS / math.sqrt(total), 2.0**-52 * math.sqrt(rr)) ** 2
        for _ in range(STEPS_PER_GROUP * len(n_group)):
            if rr <= stop:
                break
            q = (1.0 - d) * p + d * (p - walk(p * root) / root)  # p (I - d S); 1 - d survives d near 1
            step = rr / dot(p, q)
            z, r = z + step * p, deflate(r - step * q)  # rounding puts u back into r, where I - d S cannot see it
            rr, previous = dot(r, r), rr
            p = r + (rr / previous) * p
        gamma, method = prior + (1.0 - d) * (z * root), "cg"
    residual = float(np.max(np.abs(d * walk(gamma) + (1.0 - d) * t - gamma)))
    return StationaryDistribution(gamma=gamma, residual=residual, method=method)
