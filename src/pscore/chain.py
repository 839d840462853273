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

Both blocks are row-stochastic by construction on a valid counts table, so no
row is checked here; the pipeline holds the solve's fixed-point residual to
:data:`TOL`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import _np as np
from .records import CountsTable
from .errors import ParameterError

# The one tolerance: how far a sum that must be 1, or a fixed-point
# residual that must be 0, may drift in float64 before it is an error.
TOL = 1e-10


@dataclass(frozen=True)
class ReputationChain:
    """The counts' cells and the mixing parameter, which fix the chain.

    ``breadth`` is the distinct-author share per venue, D(j) / sum_k D(k).
    The cells of alpha are kept group-major and those of the volume venue-major,
    so a product with a block sums segments with ``np.add.reduceat``, pairwise;
    ``bincount``'s sequential sums moved 12th printed digits.
    """

    counts: CountsTable
    d: float
    breadth: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        check_d(self.d)
        c, by_venue = self.counts, np.argsort(self.counts.venue, kind="stable")
        object.__setattr__(self, "breadth", c.d_venue / c.d_venue.sum(dtype=np.float64))  # a float total cannot wrap
        alpha, volume = c.n_group_venue / c.n_venue[c.venue], c.n_group_venue / c.n_group[c.group]
        group_starts = np.flatnonzero(np.diff(c.group, prepend=-1))
        venue_starts = np.flatnonzero(np.diff(c.venue[by_venue], prepend=-1))
        object.__setattr__(self, "_alpha", (c.venue, alpha, group_starts))
        object.__setattr__(self, "_volume", (c.group[by_venue], volume[by_venue], venue_starts))

    def to_groups(self, nu: np.ndarray) -> np.ndarray:
        """``nu @ alpha``: a vector over the venues pushed onto the groups."""
        venue, alpha, starts = self._alpha
        return np.add.reduceat(nu[venue] * alpha, starts)

    def to_venues(self, gamma: np.ndarray) -> np.ndarray:
        """``gamma @ volume``: a vector over the groups pushed onto the venues."""
        group, volume, starts = self._volume
        return np.add.reduceat(gamma[group] * volume, starts)


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


def build_chain(counts: CountsTable, d: float) -> ReputationChain:
    """The chain on one counts table at mixing parameter ``d``."""
    return ReputationChain(counts, float(d))


def build_reduced(chain: ReputationChain) -> np.ndarray:
    """The reduced chain P' = beta @ alpha as a T x T matrix, one group's step per row.

    Row w is ``d * to_groups(to_venues(e_w)) + (1 - d) * to_groups(breadth)``;
    no T x V block is formed. Its stationary vector is the group reputation vector.
    """
    d, breadth = chain.d, chain.to_groups(chain.breadth)
    return np.array([d * chain.to_groups(chain.to_venues(e)) + (1.0 - d) * breadth
                     for e in np.eye(chain.counts.num_groups)])


def check_irreducible(chain: ReputationChain) -> ConnectivityReport:
    """Report whether the reduced chain has a unique stationary vector.

    For d < 1 the breadth term puts positive mass on every venue, which
    makes the reduced chain strictly positive, hence irreducible. For
    d = 1 irreducibility is exactly connectivity of the bipartite
    group-venue graph induced by the nonzero counts; the partition of the
    groups is reported so callers can decide what to do about it.
    """
    t = chain.counts.num_groups
    if chain.d < 1.0:
        return ConnectivityReport(irreducible=True, components=(frozenset(range(t)),))

    group, venue = chain.counts.group, chain.counts.venue
    label = np.arange(t)  # ends as the lowest group index of each component
    while True:
        lowest = np.full(chain.counts.num_venues, t)
        np.minimum.at(lowest, venue, label[group])
        spread = label.copy()
        np.minimum.at(spread, group, lowest[venue])
        spread = spread[spread]  # a label is a group of the same component
        if np.array_equal(spread, label):
            break
        label = spread
    components = tuple(frozenset(np.flatnonzero(label == root).tolist()) for root in np.unique(label))
    return ConnectivityReport(irreducible=len(components) == 1, components=components)
