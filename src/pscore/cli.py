"""Command-line front door.

Wires ingestion -> counts -> chain -> solver -> scoring and emits
deterministic reports. Reports go to the output file (or stdout); all
warnings and progress notes go to stderr, never interleaved with report
data. Identical inputs and flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from .chain import ReputationChain, build_chain, build_reduced, check_irreducible, format_matrix_tsv
from .counts import CountsTable, aggregate, parse_author_counts
from .errors import (
    DisconnectedChainError,
    InternalError,
    ParameterError,
    ParseError,
    PScoreError,
    ValidationError,
)
from .records import fold, ingest, jsonl_objects, normalize_name, text_stream
from .scoring import (
    CONSISTENCY_TOL,
    VENUE_SUM_TOL,
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

log = logging.getLogger(__name__)

DEFAULT_D = 0.5


@dataclass
class RunConfig:
    """Everything one invocation needs, decoupled from argparse."""

    command: str
    input: str | None = None
    input_format: str | None = None
    groups_file: str | None = None
    group_flags: tuple[str, ...] = ()
    d: float = DEFAULT_D
    years: tuple[int | None, int | None] | None = None
    author_counts: str | None = None
    venue_scores: str | None = None
    author_pubs: str | None = None
    output: str | None = None
    format: str = "tsv"
    emit_debug_matrices: bool = False
    allow_largest_component: bool = False


@dataclass(frozen=True)
class PipelineResult:
    """Solved scores over the full group/venue axes.

    When the solve ran on the largest connected component only, the
    excluded groups and venues are listed and carry score 0.
    """

    counts: CountsTable
    chain: ReputationChain
    gamma: StationaryDistribution
    group_scores: np.ndarray
    nu_raw: ScoreVector
    nu_max_one: ScoreVector
    excluded_groups: tuple[str, ...]
    excluded_venues: tuple[str, ...]
    consistency_residual: float


def _largest_component(components, counts: CountsTable) -> frozenset[int]:
    # most groups, then most publications, then lowest group index
    return max(
        components,
        key=lambda comp: (len(comp), int(counts.n_group[sorted(comp)].sum()), -min(comp)),
    )


def solve_pipeline(
    counts: CountsTable,
    d: float,
    allow_largest_component: bool = False,
) -> PipelineResult:
    """Run chain construction, the stationary solve, and venue scoring.

    Raises :class:`DisconnectedChainError` when d = 1 splits the
    group-venue graph, unless ``allow_largest_component`` is set, in which
    case the largest component is solved and everything outside it scores
    zero (raw venue scores still sum to 1 over the solved component).
    """
    full_chain = build_chain(counts, d)
    report = check_irreducible(full_chain)
    if report.irreducible:
        used_counts, used_chain = counts, full_chain
        kept = tuple(range(counts.num_groups))
    else:
        if not allow_largest_component:
            parts = "; ".join(
                "{" + ", ".join(counts.group_names[w] for w in sorted(comp)) + "}"
                for comp in report.components
            )
            raise DisconnectedChainError(
                f"the group-venue graph is disconnected at d = 1 "
                f"({len(report.components)} components: {parts}); "
                "drop d below 1, fix the data, or pass --allow-largest-component",
                components=report.components,
            )
        comp = _largest_component(report.components, counts)
        kept = tuple(sorted(comp))
        log.warning(
            "disconnected at d = 1: solving on the largest component only "
            "(%d of %d groups); everything outside it scores 0",
            len(kept), counts.num_groups,
        )
        used_counts = counts.restrict(kept)
        used_chain = build_chain(used_counts, d)

    gamma = steady_state(used_chain)
    nu_sub = venue_scores(gamma, used_chain, used_counts.venue_names)
    residual = group_consistency_check(gamma, nu_sub, used_chain)
    if residual > CONSISTENCY_TOL:
        raise InternalError(
            f"group/venue fixed point violated: residual {residual:.3e} exceeds {CONSISTENCY_TOL}"
        )

    group_scores = np.zeros(counts.num_groups)
    group_scores[list(kept)] = gamma.gamma
    venue_pos = {fold(name): j for j, name in enumerate(counts.venue_names)}
    nu_full = np.zeros(counts.num_venues)
    for name, score in zip(nu_sub.names, nu_sub.scores):
        nu_full[venue_pos[fold(name)]] = score
    nu_raw = ScoreVector(
        entity_kind="venue", names=counts.venue_names, scores=nu_full, normalization="raw"
    )

    kept_set = set(kept)
    solved_venues = {fold(n) for n in used_counts.venue_names}
    return PipelineResult(
        counts=counts,
        chain=used_chain,
        gamma=gamma,
        group_scores=group_scores,
        nu_raw=nu_raw,
        nu_max_one=normalize_max_one(nu_raw),
        excluded_groups=tuple(
            name for w, name in enumerate(counts.group_names) if w not in kept_set
        ),
        excluded_venues=tuple(
            name for name in counts.venue_names if fold(name) not in solved_venues
        ),
        consistency_residual=residual,
    )


# ---------------------------------------------------------------------------
# input loading


@contextmanager
def _file_context(path: str):
    """Prefix line-addressed errors with the file they came from."""
    try:
        yield
    except (ParseError, ValidationError) as exc:
        located = type(exc)(f"{path}: {exc}")
        located.__dict__.update(vars(exc))  # keeps line and field
        raise located from exc


def _sniff_format(path: str) -> str:
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".json", ".ndjson"):
        return "jsonl"
    try:
        with open(path, "rb") as fh:
            # 4 bytes per character at most, so this holds the first 4096
            head = fh.read(4 * 4096).decode("utf-8-sig", errors="replace")[:4096].lstrip()
    except OSError:
        return "jsonl"
    return "jsonl" if head.startswith("{") else "csv"


def _load_reference_groups(config: RunConfig) -> list[str]:
    names: list[str] = []
    if config.groups_file:
        for line in Path(config.groups_file).read_text(encoding="utf-8-sig").splitlines():
            if line.strip():
                names.append(line.strip())
    names.extend(config.group_flags)
    if not names:
        raise ParameterError("no reference groups given; use --groups-file or --group")
    return names


def _load_dataset(config: RunConfig):
    """Read the small inputs first, then count the records in one pass."""
    assert config.input is not None
    groups = _load_reference_groups(config)
    overrides = None
    if config.author_counts:
        with _file_context(config.author_counts), open(config.author_counts, "rb") as fh:
            overrides = parse_author_counts(fh, _sniff_format(config.author_counts))
    fmt = config.input_format or _sniff_format(config.input)
    with _file_context(config.input), open(config.input, "rb") as fh:
        return ingest(fh, fmt, groups, years=config.years, corpus_author_counts=overrides)


def parse_year_range(text: str) -> tuple[int | None, int | None]:
    """Parse an inclusive ``A:B`` year range; either side may be empty."""
    if ":" not in text:
        raise ParameterError(f"year range must look like A:B, got {text!r}")
    lo_text, hi_text = text.split(":", 1)
    try:
        lo = int(lo_text) if lo_text.strip() else None
        hi = int(hi_text) if hi_text.strip() else None
    except ValueError:
        raise ParameterError(f"year range bounds must be integers, got {text!r}") from None
    if lo is not None and hi is not None and lo > hi:
        raise ParameterError(f"empty year range {text!r}")
    return lo, hi


def load_venue_scores(path: str) -> ScoreVector:
    """Read a venue-score file written by the ``venues`` command.

    Every error names the TSV line or the JSON entry it comes from: a
    malformed file, a ``raw_score`` that is not a finite nonnegative
    number, and a venue listed twice (names compare case-insensitively).
    """
    raw_text = Path(path).read_text(encoding="utf-8-sig")
    rows: list[tuple[str, str, object]] = []  # (where, venue, raw_score)
    if raw_text.lstrip().startswith("["):
        try:
            items = json.loads(raw_text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON: {exc.msg}", line=exc.lineno) from None
        for i, item in enumerate(items):
            if not isinstance(item, dict) or "venue" not in item or "raw_score" not in item:
                raise ValidationError(f"venue-score entry {i} lacks venue/raw_score")
            rows.append((f"venue-score entry {i}", str(item["venue"]), item["raw_score"]))
    else:
        header: list[str] | None = None
        for lineno, line in enumerate(raw_text.splitlines(), start=1):
            if not line.strip() or line.startswith("#"):
                continue
            cells = line.split("\t")
            if header is None:
                header = cells
                if "venue" not in header or "raw_score" not in header:
                    raise ParseError("venue-score header must name venue and raw_score", line=lineno)
                continue
            if len(cells) != len(header):
                raise ParseError("venue-score row width does not match the header", line=lineno)
            row = dict(zip(header, cells))
            rows.append((f"line {lineno}", row["venue"], row["raw_score"]))
    if not rows:
        raise ValidationError(f"no venue scores found in {path}")

    names: list[str] = []
    scores: list[float] = []
    first_seen: dict[str, str] = {}
    for where, venue, raw_score in rows:
        try:
            score = float(raw_score)
        except (TypeError, ValueError):
            raise ValidationError(f"{where}: raw_score is not a number: {raw_score!r}") from None
        if not math.isfinite(score) or score < 0:
            raise ValidationError(
                f"{where}: raw_score must be finite and nonnegative, got {raw_score!r}"
            )
        name = normalize_name(venue)
        earlier = first_seen.setdefault(fold(name), where)
        if earlier != where:
            raise ValidationError(f"{where}: venue {name!r} is listed twice (first at {earlier})")
        names.append(name)
        scores.append(score)
    total = float(np.asarray(scores, dtype=np.float64).sum())
    if abs(total - 1.0) > VENUE_SUM_TOL:
        raise ValidationError(f"raw venue scores sum to {total!r}, not 1 (tolerance {VENUE_SUM_TOL})")
    return ScoreVector(entity_kind="venue", names=tuple(names), scores=scores, normalization="raw")


def load_author_pubs(stream: IO[bytes] | IO[str]) -> dict[str, dict[str, int]]:
    """Read author publication lists (JSONL).

    Two line shapes are accepted and may be mixed: pre-aggregated
    ``{"author": ..., "venue": ..., "count": n}`` entries, and raw
    per-paper ``{"authors": [...], "venue": ...}`` records which credit
    every listed author with one paper at the venue.
    """
    author_display: dict[str, str] = {}
    venue_display: dict[str, str] = {}
    pubs: dict[str, dict[str, int]] = {}

    def add(author: object, venue: object, count: int, lineno: int) -> None:
        a = normalize_name(author) if isinstance(author, str) else ""
        if not a:
            raise ValidationError("missing or empty 'author'", line=lineno, field="author")
        v = normalize_name(venue) if isinstance(venue, str) else ""
        if not v:
            raise ValidationError("missing or empty 'venue'", line=lineno, field="venue")
        a = author_display.setdefault(fold(a), a)
        v = venue_display.setdefault(fold(v), v)
        per_author = pubs.setdefault(a, {})
        per_author[v] = per_author.get(v, 0) + count

    with text_stream(stream) as text:
        for lineno, obj in jsonl_objects(text):
            if "count" in obj or "author" in obj:
                count = obj.get("count")
                if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                    raise ValidationError(
                        f"'count' must be a positive integer, got {count!r}", line=lineno, field="count"
                    )
                add(obj.get("author"), obj.get("venue"), count, lineno)
            elif "authors" in obj:
                authors = obj.get("authors")
                if not isinstance(authors, list) or not authors:
                    raise ValidationError(
                        "'authors' must be a nonempty array", line=lineno, field="authors"
                    )
                for author in authors:
                    add(author, obj.get("venue"), 1, lineno)
            else:
                raise ParseError(
                    "expected author/venue/count or authors/venue keys", line=lineno
                )
    if not pubs:
        raise ValidationError("author publication file holds no entries")
    return pubs


# ---------------------------------------------------------------------------
# report emission


def venue_report_tsv(nu_raw: ScoreVector, nu_max_one: ScoreVector, d: float) -> str:
    lines = ["# pscore venues", f"# d = {d!r}", "venue\traw_score\tnormalized_score"]
    for name, raw, norm in zip(nu_raw.names, nu_raw.scores, nu_max_one.scores):
        lines.append(f"{name}\t{format(raw, '.12g')}\t{format(norm, '.12g')}")
    return "".join(line + "\n" for line in lines)


def venue_report_json(nu_raw: ScoreVector, nu_max_one: ScoreVector) -> str:
    payload = [
        {
            "venue": name,
            "raw_score": float(format(raw, ".12g")),
            "normalized_score": float(format(norm, ".12g")),
        }
        for name, raw, norm in zip(nu_raw.names, nu_raw.scores, nu_max_one.scores)
    ]
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def _emit_debug_matrices(config: RunConfig, result: PipelineResult) -> None:
    if config.output is None or config.output == "-":
        raise ParameterError("--emit-debug-matrices requires -o FILE to name the siblings")
    base = Path(config.output)
    # restrict() preserves order, so filtering the full name lists recovers
    # the axes of the chain that was actually solved
    excluded_venues = {fold(x) for x in result.excluded_venues}
    excluded_groups = set(result.excluded_groups)
    solved_venues = [n for n in result.counts.venue_names if fold(n) not in excluded_venues]
    solved_groups = [n for n in result.counts.group_names if n not in excluded_groups]
    for suffix, labels, matrix, comment in (
        (".alpha.tsv", solved_venues, result.chain.alpha, "venue -> group block (one venue per row)"),
        (".beta.tsv", solved_groups, result.chain.beta, "group -> venue block (one group per row)"),
        (".reduced.tsv", solved_groups, build_reduced(result.chain), "group -> group reduced chain"),
    ):
        target = base.with_name(base.name + suffix)
        target.write_text(format_matrix_tsv(labels, matrix, comment), encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# commands


def _cmd_venues(config: RunConfig) -> int:
    table = aggregate(_load_dataset(config))
    result = solve_pipeline(table, config.d, config.allow_largest_component)
    if config.format == "json":
        text = venue_report_json(result.nu_raw, result.nu_max_one)
    else:
        text = venue_report_tsv(result.nu_raw, result.nu_max_one, config.d)
    _write_output(text, config.output)
    if config.emit_debug_matrices:
        _emit_debug_matrices(config, result)
    return 0


def _cmd_groups(config: RunConfig) -> int:
    table = aggregate(_load_dataset(config))
    result = solve_pipeline(table, config.d, config.allow_largest_component)
    ranking = make_ranking(table.group_names, result.group_scores)
    if config.format == "json":
        text = ranking_to_json(ranking)
    else:
        text = ranking_to_tsv(ranking, comments=("pscore groups", f"d = {config.d!r}"))
    _write_output(text, config.output)
    if config.emit_debug_matrices:
        _emit_debug_matrices(config, result)
    return 0


def _cmd_authors(config: RunConfig) -> int:
    assert config.venue_scores is not None and config.author_pubs is not None
    with _file_context(config.venue_scores):
        nu = load_venue_scores(config.venue_scores)
    with _file_context(config.author_pubs), open(config.author_pubs, "rb") as fh:
        pubs = load_author_pubs(fh)
    ranking = rank_authors(pubs, nu)
    if config.format == "json":
        text = ranking_to_json(ranking)
    else:
        text = ranking_to_tsv(ranking, comments=("pscore authors",))
    _write_output(text, config.output)
    return 0


def _cmd_validate(config: RunConfig) -> int:
    dataset = _load_dataset(config)
    table = aggregate(dataset)
    chain = build_chain(table, config.d)
    report = check_irreducible(chain)
    lines = [
        f"reference groups: {len(dataset.groups)}",
        f"venues: {len(dataset.venues)}",
        f"records kept: {dataset.kept}",
        f"records dropped (outside reference set): {dataset.dropped_foreign}",
        f"duplicate records merged: {dataset.dedup_merged}",
    ]
    if report.irreducible:
        lines.append(f"chain (d = {config.d!r}): irreducible")
    else:
        parts = "; ".join(
            "{" + ", ".join(table.group_names[w] for w in sorted(comp)) + "}"
            for comp in report.components
        )
        lines.append(
            f"chain (d = {config.d!r}): disconnected into "
            f"{len(report.components)} components: {parts}"
        )
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


_COMMANDS = {
    "venues": _cmd_venues,
    "groups": _cmd_groups,
    "authors": _cmd_authors,
    "validate": _cmd_validate,
}


def run(config: RunConfig) -> int:
    """Execute one configured command; returns the process exit status."""
    if not 0.0 <= config.d <= 1.0:
        raise ParameterError(f"--d must lie in [0, 1], got {config.d}")
    return _COMMANDS[config.command](config)


# ---------------------------------------------------------------------------
# argument parsing


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="publication records file (JSONL or CSV)")
    p.add_argument("--input-format", choices=["jsonl", "csv"], help="record format (default: sniffed)")
    p.add_argument("--groups-file", help="reference group names, one per line")
    p.add_argument("--group", action="append", default=[], metavar="NAME",
                   help="add one reference group (repeatable)")
    p.add_argument("--years", metavar="A:B", help="keep only records with year in the inclusive range")
    p.add_argument("--author-counts", metavar="PATH",
                   help="per-venue distinct-author override file (JSONL or CSV)")
    p.add_argument("--d", type=float, default=DEFAULT_D, metavar="D",
                   help="volume/breadth mixing parameter in [0, 1] (default: 0.5)")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["tsv", "json"], default="tsv", help="report format")
    p.add_argument("-o", "--output", metavar="PATH", help="report path (default: stdout)")


def _add_solve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--emit-debug-matrices", action="store_true",
                   help="also write the chain blocks as TSV next to the output file")
    p.add_argument("--allow-largest-component", action="store_true",
                   help="at d = 1, solve the largest connected component instead of failing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pscore",
        description="Rank venues, reference groups, and authors from publication patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    venues = sub.add_parser("venues", help="compute raw and max-one venue scores")
    _add_dataset_args(venues)
    _add_output_args(venues)
    _add_solve_args(venues)

    groups = sub.add_parser("groups", help="rank the reference groups by reputation")
    _add_dataset_args(groups)
    _add_output_args(groups)
    _add_solve_args(groups)

    authors = sub.add_parser("authors", help="rank authors against precomputed venue scores")
    authors.add_argument("--venue-scores", required=True, metavar="PATH",
                         help="venue-score file produced by the venues command")
    authors.add_argument("--author-pubs", required=True, metavar="PATH",
                         help="author publication lists (JSONL)")
    _add_output_args(authors)

    validate = sub.add_parser("validate", help="parse inputs and print dataset statistics")
    _add_dataset_args(validate)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    if args.command in ("venues", "groups", "validate"):
        config.input = args.input
        config.input_format = args.input_format
        config.groups_file = args.groups_file
        config.group_flags = tuple(args.group)
        config.d = args.d
        config.author_counts = args.author_counts
        if args.years is not None:
            config.years = parse_year_range(args.years)
    if args.command in ("venues", "groups"):
        config.format = args.format
        config.output = args.output
        config.emit_debug_matrices = args.emit_debug_matrices
        config.allow_largest_component = args.allow_largest_component
    if args.command == "authors":
        config.venue_scores = args.venue_scores
        config.author_pubs = args.author_pubs
        config.format = args.format
        config.output = args.output
    return config


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="pscore: %(levelname)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        return run(config)
    except PScoreError as exc:
        print(f"pscore: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"pscore: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
