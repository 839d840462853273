"""Venue scores, fixed-point verification, and rankings.

Venue scores are the group reputation vector pushed through the
group-to-venue block, nu = gamma @ beta; they sum to 1 in raw form and are
optionally rescaled so the top venue scores exactly 1. Author scores are
score-weighted publication counts, ranked relative to the best author in
the compared set.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .chain import TOL, ReputationChain
from .errors import DegenerateInputError, InternalError, ValidationError
from .records import fold, normalize_name
from .solver import StationaryDistribution

log = logging.getLogger(__name__)

PRINTED_DECIMALS = 6


@dataclass(frozen=True)
class ScoreVector:
    """A named, ordered mapping from entities to nonnegative scores."""

    entity_kind: str  # "venue" | "group" | "author"
    names: tuple[str, ...]
    scores: np.ndarray
    normalization: str  # "raw" | "max_one"

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        if len(self.names) != len(self.scores):
            raise InternalError("score vector names and scores differ in length")
        if len({fold(n) for n in self.names}) != len(self.names):
            raise InternalError("score vector names are not duplicate-free")
        if not np.all(np.isfinite(self.scores)):
            raise InternalError("non-finite score")
        if np.any(self.scores < 0):
            raise InternalError("negative score")
        if self.normalization == "max_one":
            if self.scores.max(initial=0.0) != 1.0:
                raise InternalError("max_one score vector whose maximum is not exactly 1")
        elif self.normalization == "raw":
            if self.entity_kind == "venue" and abs(self.scores.sum() - 1.0) > TOL:
                raise InternalError("raw venue scores do not sum to 1")
        else:
            raise InternalError(f"unknown normalization {self.normalization!r}")


class RankEntry(NamedTuple):
    rank: int
    name: str
    score: float


@dataclass(frozen=True)
class Ranking:
    """Deterministic ordering of a score vector.

    Scores are nonincreasing down the list; scores equal to 6 decimals
    share a rank number and the next rank skips accordingly (1, 2, 2, 4),
    with tied names in case-folded lexicographic order.
    """

    entries: tuple[RankEntry, ...]


def make_ranking(names: Sequence[str], scores: Sequence[float]) -> Ranking:
    """Order names by descending score under the competition tie rule.

    Order and ties follow the score as printed, to 6 decimals: ``round``
    rounds correctly, as ``format(x, ".6f")`` does, so two scores share a
    rank exactly when their printed forms are equal. Entries keep the
    unrounded score.
    """
    values = [float(s) for s in scores]
    order = sorted(
        range(len(names)),
        key=lambda i: (-round(values[i], PRINTED_DECIMALS), fold(names[i]), names[i]),
    )
    entries = []
    prev_printed: float | None = None
    prev_rank = 0
    for position, i in enumerate(order, start=1):
        printed = round(values[i], PRINTED_DECIMALS)
        rank = prev_rank if printed == prev_printed else position
        entries.append(RankEntry(rank=rank, name=names[i], score=values[i]))
        prev_printed, prev_rank = printed, rank
    return Ranking(entries=tuple(entries))


def venue_scores(
    gamma: StationaryDistribution,
    chain: ReputationChain,
    venue_names: Sequence[str],
) -> ScoreVector:
    """Push group reputations through the group-to-venue block.

    The raw result is a probability vector over venues: nu_j is the
    stationary share of reputation that flows to venue j.
    """
    if gamma.gamma.shape != (chain.num_groups,):
        raise InternalError(
            f"gamma has {gamma.gamma.shape[0]} entries but the chain has "
            f"{chain.num_groups} groups"
        )
    if len(venue_names) != chain.num_venues:
        raise InternalError("venue name list does not match the chain width")
    nu = gamma.gamma @ chain.beta
    return ScoreVector(entity_kind="venue", names=tuple(venue_names), scores=nu, normalization="raw")


def normalize_max_one(scores: ScoreVector) -> ScoreVector:
    """Rescale so the best entity scores exactly 1."""
    top = float(scores.scores.max(initial=0.0))
    if top <= 0.0:
        raise DegenerateInputError("cannot normalize an all-zero score vector")
    return ScoreVector(
        entity_kind=scores.entity_kind,
        names=scores.names,
        scores=scores.scores / top,
        normalization="max_one",
    )


def group_consistency_check(
    gamma: StationaryDistribution,
    nu: ScoreVector,
    chain: ReputationChain,
) -> float:
    """Max-norm residual of the defining fixed point gamma = nu @ alpha.

    Venue scores feeding back through the venue-to-group block must
    reproduce the group reputations; this restates the stationary
    equation, so the residual is a pipeline-wide sanity value.
    """
    return float(np.max(np.abs(gamma.gamma - nu.scores @ chain.alpha)))


def _check_count(count: object, author: str) -> int:
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ValidationError(f"publication count for author {author!r} must be an integer, got {count!r}")
    if count < 0:
        raise ValidationError(f"publication count for author {author!r} must be nonnegative, got {count}")
    return int(count)


def rank_authors(
    author_pub_lists: Mapping[str, Mapping[str, int] | Iterable[tuple[str, int]]],
    nu: ScoreVector,
) -> Ranking:
    """Rank a set of authors relative to the best one among them.

    Each author's weighted score is divided by the maximum over the set,
    so the top author scores exactly 1. Raises
    :class:`DegenerateInputError` when nobody scores above zero.
    """
    if not author_pub_lists:
        raise DegenerateInputError("no authors to rank")
    smap = {fold(n): float(x) for n, x in zip(nu.names, nu.scores)}
    names: list[str] = []
    totals: list[float] = []
    unknown: set[str] = set()
    for author, pubs in author_pub_lists.items():
        items = pubs.items() if isinstance(pubs, Mapping) else pubs
        total = 0.0
        for venue, count in items:
            count = _check_count(count, author)
            weight = smap.get(fold(normalize_name(venue)))
            if weight is None:
                if count:
                    unknown.add(venue)
                continue
            total += weight * count
        names.append(author)
        totals.append(total)
    if unknown:
        log.warning(
            "%d venue(s) outside the scored set were ignored: %s",
            len(unknown), ", ".join(sorted(unknown, key=fold)),
        )
    top = max(totals)
    if top <= 0.0:
        raise DegenerateInputError("every author scored zero; nothing to rank against")
    return make_ranking(names, [t / top for t in totals])


def ranking_to_tsv(ranking: Ranking, comments: Sequence[str] = ()) -> str:
    """TSV report: rank, name, score to 6 decimals."""
    lines = [f"# {c}" for c in comments]
    lines.append("rank\tname\tscore")
    for entry in ranking.entries:
        lines.append(f"{entry.rank}\t{entry.name}\t{entry.score:.{PRINTED_DECIMALS}f}")
    return "".join(line + "\n" for line in lines)


def ranking_to_json(ranking: Ranking) -> str:
    """JSON report: array of {rank, name, score} with scores at 6 decimals."""
    payload = [
        {"rank": e.rank, "name": e.name, "score": round(e.score, PRINTED_DECIMALS)}
        for e in ranking.entries
    ]
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
