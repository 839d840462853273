"""Venue scores, fixed-point verification, and rankings.

Venue scores are the group reputation vector pushed through the
group-to-venue block, nu = gamma @ beta; they sum to 1 in raw form and are
optionally rescaled so the top venue scores exactly 1. Author scores are
score-weighted publication counts, ranked relative to the best author in
the compared set. Venue-score files, as TSV or JSON, are written and read
back here.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import IO, NamedTuple

from . import _np as np
from .chain import TOL, ReputationChain
from .errors import DegenerateInputError, InternalError, ValidationError
from .records import (MAX_COUNT, check_count, check_score, csv_rows, fold, json_loads, listed_name, locating,
                      required_name, text_stream)
from .solver import StationaryDistribution

log = logging.getLogger(__name__)

PRINTED_DECIMALS = 6


@dataclass(frozen=True)
class ScoreVector:
    """Raw venue scores under a venue-score file's rules: names, normalized, by :func:`~pscore.records.listed_name`,
    and scores, a tuple of floats, by :func:`~pscore.records.check_score`, that sum to 1 within
    :data:`~pscore.chain.TOL`. A broken rule is a :class:`ValidationError` with the ``entry`` it is at."""

    names: tuple[str, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        try:
            names, scores, seen = list(self.names), list(self.scores), {}
        except TypeError as exc:  # an argument that cannot be iterated
            raise ValidationError(f"score vector names and scores must be iterable ({exc})") from None
        if len(names) != len(scores):
            raise ValidationError(f"score vector names and scores differ in length ({len(names)} and {len(scores)})")
        for i, (name, score) in enumerate(zip(names, scores)):
            with locating(entry=i):
                scores[i] = check_score(score)
                names[i] = listed_name(name, "venue", seen, f"entry {i}")
        total = math.fsum(scores)
        if abs(total - 1.0) > TOL:
            raise ValidationError(f"raw venue scores sum to {total!r}, not 1 (tolerance {TOL})")
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "scores", tuple(scores))


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


def make_ranking(names: Iterable[str], scores: Iterable[float]) -> Ranking:
    """Order names by descending score under the competition tie rule.

    Order and ties follow the score as printed, to 6 decimals: ``round``
    rounds correctly, as ``format(x, ".6f")`` does, so two scores share a
    rank exactly when their printed forms are equal. Entries keep the
    unrounded score. Each name needs a score that ``float()`` reads as
    finite, else a :class:`ValidationError`, whose ``entry`` is that of
    a score that is not finite. Each argument is read once, so either may be an iterator.
    """
    try:
        names, scores = list(names), list(scores)
    except TypeError as exc:  # an argument that cannot be iterated
        raise ValidationError(f"names and scores to rank must be iterable ({exc})") from None
    if len(names) != len(scores):
        raise ValidationError(f"{len(names)} names to rank but {len(scores)} scores")
    try:
        scores = [float(s) for s in scores]  # rebound, so the list read from is freed
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"a score to rank is not a number ({exc})", field="score") from None
    if not all(map(math.isfinite, scores)):
        i = next(i for i, v in enumerate(scores) if not math.isfinite(v))
        with locating(entry=i):
            raise ValidationError(f"score must be finite, got {scores[i]!r}", field="score")
    # negated printed scores for the sort keys and the tie test, unboxed
    printed = array("d", [-round(v, PRINTED_DECIMALS) for v in scores])
    order = sorted(range(len(names)), key=names.__getitem__)  # three stable sorts, last key first: no key tuples
    order.sort(key=list(map(fold, names)).__getitem__)
    order.sort(key=printed.__getitem__)

    def ranked() -> Iterator[tuple[int, str, float]]:  # the entries' fields in order, competition ranks first
        rank, prev = 0, None
        for position, i in enumerate(order, start=1):
            if printed[i] != prev:
                rank, prev = position, printed[i]
            yield rank, names[i], scores[i]

    return Ranking(tuple(map(RankEntry._make, ranked())))


def venue_scores(gamma: StationaryDistribution, chain: ReputationChain) -> np.ndarray:
    """Push group reputations through the group-to-venue block.

    The raw result is a probability vector over the venues of
    ``chain.counts``: nu_j is the stationary share of reputation that
    flows to venue j.
    """
    if gamma.gamma.shape != (chain.counts.num_groups,):
        raise InternalError(f"gamma has {gamma.gamma.shape[0]} entries but the chain has "
                            f"{chain.counts.num_groups} groups")
    return chain.d * chain.to_venues(gamma.gamma) + (1.0 - chain.d) * gamma.gamma.sum() * chain.breadth


def normalize_max_one(scores: np.ndarray) -> np.ndarray:
    """Rescale so the best entity scores exactly 1."""
    top = float(scores.max(initial=0.0))
    if top <= 0.0:
        raise DegenerateInputError("cannot normalize an all-zero score vector")
    return scores / top


def group_consistency_check(gamma: StationaryDistribution, nu: np.ndarray, chain: ReputationChain) -> float:
    """Max-norm residual of the defining fixed point gamma = nu @ alpha.

    Venue scores feeding back through the venue-to-group block must
    reproduce the group reputations; this restates the stationary
    equation, so the residual is a pipeline-wide sanity value.
    """
    return float(np.max(np.abs(gamma.gamma - chain.to_groups(nu))))


def rank_authors(author_pub_lists: Mapping[str, Mapping[str, int]], nu: ScoreVector) -> Ranking:
    """Rank a set of authors relative to the best one among them.

    Each author maps to a mapping of venue to count, else a :class:`ValidationError` names the
    author. Each author's weighted score is divided by the maximum over the set, so the top
    author scores exactly 1. Author names follow the name rule and are ranked as given. Raises
    :class:`DegenerateInputError` when nobody scores above zero. The reference to
    ``author_pub_lists`` is dropped once the totals are summed, before the ranking is built.
    """
    if not author_pub_lists:
        raise DegenerateInputError("no authors to rank")
    smap = {fold(n): x for n, x in zip(nu.names, nu.scores)}
    weight_of: dict[str, float | None] = {}  # venue as given -> its score, None if unscored
    names: list[str] = []
    totals: list[float] = []
    unknown: set[str] = set()
    for author, pubs in author_pub_lists.items():
        if author.__class__ is not str or not author.isascii() or not author or author.isspace():
            required_name(author, "author")  # the name rule, called only when the guard fails
        if not isinstance(pubs, Mapping):
            raise ValidationError(f"author {author!r} must map venues to counts, got {type(pubs).__name__}")
        total = 0.0
        for venue, count in pubs.items():
            if count.__class__ is not int or not 0 <= count <= MAX_COUNT:
                count = check_count(count, 0, what=f"publication count for author {author!r}")
            try:
                weight = weight_of[venue]
            except (KeyError, TypeError):
                weight = weight_of[venue] = smap.get(fold(required_name(venue, "venue")))
            if weight is None:
                if count:
                    unknown.add(venue)
                continue
            total += weight * count
        names.append(author)
        totals.append(total)
    # the totals are all ranking needs: a mapping the caller no longer holds is freed here, not after the ranking
    del author_pub_lists, pubs
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
    lines = [f"# {c}\n" for c in comments]
    lines.append("rank\tname\tscore\n")
    lines.extend(f"{e.rank}\t{e.name}\t{e.score:.{PRINTED_DECIMALS}f}\n" for e in ranking.entries)
    return "".join(lines)


def ranking_to_json(ranking: Ranking) -> str:
    """JSON report: array of {rank, name, score} with scores at 6 decimals."""
    payload = [
        {"rank": e.rank, "name": e.name, "score": round(e.score, PRINTED_DECIMALS)}
        for e in ranking.entries
    ]
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def venue_report_tsv(nu_raw: ScoreVector, nu_max_one: np.ndarray, d: float) -> str:
    lines = ["# pscore venues\n", f"# d = {d!r}\n", "venue\traw_score\tnormalized_score\n"]
    lines.extend(map("{}\t{:.12g}\t{:.12g}\n".format, nu_raw.names, nu_raw.scores, nu_max_one))
    return "".join(lines)


def venue_report_json(nu_raw: ScoreVector, nu_max_one: np.ndarray) -> str:
    payload = [
        {
            "venue": name,
            "raw_score": float(format(raw, ".12g")),
            "normalized_score": float(format(norm, ".12g")),
        }
        for name, raw, norm in zip(nu_raw.names, nu_raw.scores, nu_max_one)
    ]
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def load_venue_scores(stream: IO[bytes] | IO[str]) -> ScoreVector:
    """Read a venue-score file written by the ``venues`` command.

    A file whose first non-whitespace character is ``[`` is a JSON array
    of ``{venue, raw_score}`` objects. Any other file is TSV with a header
    naming ``venue`` and ``raw_score``: tab-separated, with no quoting,
    ``#`` lines skipped above the header and blank lines anywhere. A
    ``raw_score`` follows the score rule of :func:`pscore.records.check_score`,
    and a venue the name and repeat rules of :func:`pscore.records.listed_name`.
    Every error carries the TSV ``line`` or the JSON ``entry`` it comes
    from, and its ``field``.
    """
    with text_stream(stream) as text:
        content = text.read().replace("\r\n", "\n").replace("\r", "\n")  # lines end at \n, \r or \r\n
    if content.lstrip().startswith("["):
        rows = [(f"entry {i}", None, i, item) for i, item in enumerate(json_loads(content))]  # where, line, entry, row
    else:
        lines = content.split("\n")
        header = next((i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")), len(lines))
        # '#' lines above the header are comments, below it rows; a skipped line stays, empty, to keep line numbers
        lines = ("" if i < header or not line.strip() else line for i, line in enumerate(lines))
        rows = [(f"line {n}", n, None, row)
                for n, row in csv_rows(lines, ("venue", "raw_score"), delimiter="\t", quoting=csv.QUOTE_NONE)]
    if not rows:
        raise ValidationError("no venue scores found")

    scores: dict[str, float] = {}  # venue -> raw score
    seen: dict[str, str] = {}
    for where, line, entry, row in rows:
        with locating(entry=entry):
            if entry is not None and not (isinstance(row, dict) and "venue" in row and "raw_score" in row):
                raise ValidationError("expected an object with venue and raw_score")
            score = check_score(row.get("raw_score"), line)
            scores[listed_name(row.get("venue"), "venue", seen, where, line)] = score
    return ScoreVector(tuple(scores), tuple(scores.values()))  # which checks the sum
