"""Construction of the two-block reputation chain.

The chain alternates between venue states and group states. The
venue-to-group block gives each group the fraction of a venue's papers it
contributed:

    alpha[j, w] = n(w, j) / n(j)

The group-to-venue block blends two signals under a mixing parameter
``d`` in [0, 1]: the fraction of the group's output appearing at the
venue (publication volume) and the venue's share of all distinct authors
(publication breadth):

    beta[w, j] = d * n(w, j) / n(w) + (1 - d) * D(j) / sum_k D(k)

Both blocks are row-stochastic by construction; drift beyond :data:`TOL`
is treated as a counting bug, not numerical noise, and raises instead of
being silently renormalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .counts import CountsTable
from .errors import ChainError, ParameterError

# The one tolerance: how far a sum that must be 1, or a fixed-point
# residual that must be 0, may drift in float64 before it is an error.
TOL = 1e-10


@dataclass(frozen=True)
class ReputationChain:
    """The two stochastic blocks plus the mixing parameter.

    ``alpha`` is venue-major (V x T) so both blocks iterate their rows
    contiguously; ``beta`` is group-major (T x V). ``breadth`` is the
    normalized distinct-author share per venue, D(j) / sum_k D(k).
    """

    alpha: np.ndarray
    beta: np.ndarray
    d: float
    breadth: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=np.float64))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=np.float64))
        object.__setattr__(self, "breadth", np.asarray(self.breadth, dtype=np.float64))
        v, t = self.alpha.shape
        if self.beta.shape != (t, v):
            raise ChainError(
                f"block shapes disagree: alpha is {self.alpha.shape}, beta is {self.beta.shape}"
            )
        if self.breadth.shape != (v,):
            raise ChainError("breadth vector length does not match the venue count")
        check_d(self.d)
        check_stochastic(self.alpha, "venue-to-group rows")
        check_stochastic(self.beta, "group-to-venue rows")
        check_stochastic(self.breadth, "breadth shares")

    @property
    def num_groups(self) -> int:
        return self.beta.shape[0]

    @property
    def num_venues(self) -> int:
        return self.beta.shape[1]


@dataclass(frozen=True)
class ConnectivityReport:
    """Partition of the group indices into connected components."""

    irreducible: bool
    components: tuple[frozenset[int], ...]

    def describe(self, group_names: Sequence[str]) -> str:
        """``N components: {a, b}; {c}``, naming each component's groups."""
        parts = "; ".join(
            "{" + ", ".join(group_names[w] for w in sorted(comp)) + "}" for comp in self.components
        )
        return f"{len(self.components)} components: {parts}"


def check_d(d: float) -> None:
    """Raise :class:`ParameterError` unless 0 <= d <= 1; NaN fails too."""
    if not 0.0 <= d <= 1.0:
        raise ParameterError(f"mixing parameter d must lie in [0, 1], got {d}")


def check_stochastic(matrix: np.ndarray, what: str) -> None:
    """Raise :class:`ChainError` unless ``matrix`` is nonnegative and its
    rows sum to 1 within :data:`TOL`; a vector counts as one row."""
    if np.any(matrix < 0):
        raise ChainError("negative transition probability")
    drift = float(np.max(np.abs(matrix.sum(axis=-1) - 1.0)))
    if drift > TOL:
        raise ChainError(f"{what} drift from 1 by {drift:.3e}")


def build_alpha(counts: CountsTable) -> np.ndarray:
    """Venue-to-group block: each venue splits its mass by paper share."""
    return (counts.n_group_venue / counts.n_venue[np.newaxis, :]).T


def build_beta(counts: CountsTable, d: float) -> np.ndarray:
    """Group-to-venue block: volume and breadth mixed by ``d``.

    At d = 1 the result is exactly the per-group publication fractions;
    at d = 0 every row equals the breadth vector.
    """
    check_d(d)
    volume = counts.n_group_venue / counts.n_group[:, np.newaxis]
    breadth = counts.d_venue / counts.d_venue.sum()
    return d * volume + (1.0 - d) * breadth[np.newaxis, :]


def build_chain(counts: CountsTable, d: float) -> ReputationChain:
    """Build and validate both blocks for one counts table."""
    return ReputationChain(
        alpha=build_alpha(counts),
        beta=build_beta(counts, d),
        d=float(d),
        breadth=counts.d_venue / counts.d_venue.sum(),
    )


def build_reduced(chain: ReputationChain) -> np.ndarray:
    """Collapse the alternating chain onto the groups: beta @ alpha.

    The product of two row-stochastic blocks is row-stochastic; its
    stationary vector is the group reputation vector.
    """
    return chain.beta @ chain.alpha


def check_irreducible(chain: ReputationChain) -> ConnectivityReport:
    """Report whether the reduced chain has a unique stationary vector.

    For d < 1 the breadth term puts positive mass on every venue, which
    makes the reduced chain strictly positive, hence irreducible. For
    d = 1 irreducibility is exactly connectivity of the bipartite
    group-venue graph induced by the nonzero counts; the partition of the
    groups is reported so callers can decide what to do about it.
    """
    t = chain.num_groups
    if chain.d < 1.0:
        return ConnectivityReport(irreducible=True, components=(frozenset(range(t)),))

    group, venue = np.nonzero(chain.beta)
    label = np.arange(t)  # ends as the lowest group index of each component
    while True:
        lowest = np.full(chain.num_venues, t)
        np.minimum.at(lowest, venue, label[group])
        spread = label.copy()
        np.minimum.at(spread, group, lowest[venue])
        spread = spread[spread]  # a label is a group of the same component
        if np.array_equal(spread, label):
            break
        label = spread
    components = tuple(frozenset(np.flatnonzero(label == root).tolist()) for root in np.unique(label))
    return ConnectivityReport(irreducible=len(components) == 1, components=components)


def format_matrix_tsv(row_labels, matrix: np.ndarray, comment: str | None = None) -> str:
    """Render a matrix as TSV (row label, then entries to 12 significant digits)."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    for label, row in zip(row_labels, np.atleast_2d(matrix)):
        lines.append(label + "\t" + "\t".join(format(x, ".12g") for x in row))
    return "".join(line + "\n" for line in lines)
