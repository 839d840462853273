"""Reputation scores for venues, research groups, and authors.

The model takes nothing but the publication records of a chosen set of
reference groups. Reputation flows around a two-block Markov chain:
venues split their mass among the groups publishing there, and groups
spread theirs over venues by a mix of publication volume and publication
breadth. Venue scores are the stationary flow into each venue; groups and
arbitrary author sets are ranked against those scores.

numpy loads when pscore first uses it (see :mod:`pscore._np`), so ranking
authors against a venue-score file runs without it.
"""

from .chain import ConnectivityReport, ReputationChain, build_chain, check_irreducible
from .counts import aggregate, parse_author_counts
from .errors import (
    ChainError,
    DatasetError,
    DegenerateInputError,
    DisconnectedChainError,
    InternalError,
    ParameterError,
    ParseError,
    PScoreError,
    ValidationError,
)
from .records import CountsTable, ingest, normalize_name
from .pipeline import PipelineResult, solve_pipeline
from .scoring import (
    Ranking,
    RankEntry,
    ScoreVector,
    group_consistency_check,
    make_ranking,
    normalize_max_one,
    rank_authors,
    ranking_to_json,
    ranking_to_tsv,
    venue_scores,
)
from .solver import StationaryDistribution, steady_state

__version__ = "0.1.0"

__all__ = [
    "ChainError",
    "ConnectivityReport",
    "CountsTable",
    "DatasetError",
    "DegenerateInputError",
    "DisconnectedChainError",
    "InternalError",
    "ParameterError",
    "ParseError",
    "PScoreError",
    "PipelineResult",
    "RankEntry",
    "Ranking",
    "ReputationChain",
    "ScoreVector",
    "StationaryDistribution",
    "ValidationError",
    "__version__",
    "aggregate",
    "build_chain",
    "check_irreducible",
    "group_consistency_check",
    "ingest",
    "make_ranking",
    "normalize_max_one",
    "normalize_name",
    "parse_author_counts",
    "rank_authors",
    "ranking_to_json",
    "ranking_to_tsv",
    "solve_pipeline",
    "steady_state",
    "venue_scores",
]
