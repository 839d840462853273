"""The one pipeline from a counts table to scores.

Builds the chain, checks that it has a unique stationary vector, solves
it, pushes the group reputations onto the venues and checks the result
against the defining fixed point. The CLI and library callers run the
same function.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import _np as np
from .chain import TOL, ReputationChain, build_chain, check_irreducible
from .errors import DisconnectedChainError, InternalError
from .records import CountsTable
from .scoring import ScoreVector, group_consistency_check, normalize_max_one, venue_scores
from .solver import StationaryDistribution, steady_state

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PipelineResult:
    """Solved scores over the full group/venue axes of ``counts``.

    ``groups`` and ``venues`` index the axes of ``counts`` that ``chain``
    and ``gamma`` were solved on: all of them, unless the solve ran on the
    largest connected component only. Groups and venues outside it are
    listed in ``excluded_groups`` and ``excluded_venues`` and score 0.
    ``nu_raw`` holds the raw venue scores, which sum to 1, and
    ``nu_max_one`` the same scores divided by the largest of them.
    """

    counts: CountsTable
    chain: ReputationChain
    gamma: StationaryDistribution
    groups: np.ndarray
    venues: np.ndarray
    group_scores: np.ndarray
    nu_raw: ScoreVector
    nu_max_one: np.ndarray
    excluded_groups: tuple[str, ...]
    excluded_venues: tuple[str, ...]
    consistency_residual: float


def solve_pipeline(
    counts: CountsTable,
    d: float,
    allow_largest_component: bool = False,
) -> PipelineResult:
    """Run chain construction, the stationary solve, and venue scoring.

    Raises :class:`DisconnectedChainError` when d = 1 splits the
    group-venue graph, unless ``allow_largest_component`` is set, in which
    case the largest component (most groups, then most publications, then
    lowest group index) is solved and everything outside it scores zero
    (raw venue scores still sum to 1 over the solved component).
    """
    chain = build_chain(counts, d)
    report = check_irreducible(chain)
    groups, venues = np.arange(counts.num_groups), np.arange(counts.num_venues)
    if not report.irreducible:
        if not allow_largest_component:
            raise DisconnectedChainError(
                f"the group-venue graph is disconnected at d = 1 "
                f"({report.describe(counts.group_names)}); "
                "drop d below 1, fix the data, or pass --allow-largest-component",
                components=report.components,
            )
        papers = counts.n_group
        largest = max(
            report.components,
            key=lambda comp: (len(comp), int(papers[sorted(comp)].sum()), -min(comp)),
        )
        groups = np.array(sorted(largest))
        log.warning(
            "disconnected at d = 1: solving on the largest component only "
            "(%d of %d groups); everything outside it scores 0",
            len(groups), counts.num_groups,
        )
        solved, venues = counts.restrict(groups)
        chain = build_chain(solved, d)

    gamma = steady_state(chain)
    nu = venue_scores(gamma, chain)
    residual = group_consistency_check(gamma, nu, chain)
    if not residual <= TOL:  # a NaN too
        raise InternalError(f"group/venue fixed point violated: residual {residual:.3e} exceeds {TOL}")

    group_scores = np.zeros(counts.num_groups)
    group_scores[groups] = gamma.gamma
    nu_full = np.zeros(counts.num_venues)
    nu_full[venues] = nu
    return PipelineResult(
        counts=counts,
        chain=chain,
        gamma=gamma,
        groups=groups,
        venues=venues,
        group_scores=group_scores,
        nu_raw=ScoreVector(counts.venue_names, nu_full),
        nu_max_one=normalize_max_one(nu_full),
        excluded_groups=tuple(np.delete(np.array(counts.group_names, dtype=object), groups)),
        excluded_venues=tuple(np.delete(np.array(counts.venue_names, dtype=object), venues)),
        consistency_residual=residual,
    )
