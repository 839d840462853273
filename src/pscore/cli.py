"""Command-line front door: argument parsing and file I/O.

Reads the input files, runs the library pipeline and emits deterministic
reports. Reports go to the output file (or stdout); all warnings and
progress notes go to stderr, never interleaved with report data.
Identical inputs and flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import IO

from . import _np as np
from .chain import TOL, build_alpha, build_beta, build_chain, build_reduced, check_d, check_irreducible, format_matrix_tsv
from .counts import aggregate, parse_author_counts
from .errors import ParameterError, ParseError, PScoreError, ValidationError
from .pipeline import PipelineResult, solve_pipeline
from .records import MAX_COUNT, CountsTable, fold, ingest, json_loads, jsonl_objects, normalize_name, text_stream
from .scoring import ScoreVector, make_ranking, rank_authors, ranking_to_json, ranking_to_tsv

DEFAULT_D = 0.5


# ---------------------------------------------------------------------------
# input loading


@contextmanager
def _file_context(path: str):
    """Prefix line-addressed errors with the file they came from.

    Bytes that are not UTF-8 become a :class:`ParseError` naming the line
    they are on.
    """
    try:
        try:
            yield
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason})", line=_undecodable_line(path)) from exc
    except (ParseError, ValidationError) as exc:
        located = type(exc)(f"{path}: {exc}")
        located.__dict__.update(vars(exc))  # keeps line and field
        raise located from exc


def _undecodable_line(path: str) -> int | None:
    """Line of the first bytes in ``path`` that are not UTF-8; None for a pipe, which cannot be read again."""
    if not Path(path).is_file():
        return None
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]  # lines end as the readers end them: at \n, \r or \r\n
        return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
    return None


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


def _load_reference_groups(args: argparse.Namespace) -> list[str]:
    names: list[str] = []
    if args.groups_file:
        with _file_context(args.groups_file):
            text = Path(args.groups_file).read_text(encoding="utf-8-sig")
        for line in text.splitlines():
            if line.strip():
                names.append(line.strip())
    names.extend(args.group)
    if not names:
        raise ParameterError("no reference groups given; use --groups-file or --group")
    return names


def _load_counts(args: argparse.Namespace) -> CountsTable:
    """Check the flags, read the small inputs, then count the records in one pass."""
    years = parse_year_range(args.years) if args.years is not None else None
    check_d(args.d)
    groups = _load_reference_groups(args)
    overrides = None
    if args.author_counts:
        with _file_context(args.author_counts), open(args.author_counts, "rb") as fh:
            overrides = parse_author_counts(fh, _sniff_format(args.author_counts))
    fmt = args.input_format or _sniff_format(args.input)
    np.ndarray  # load numpy now: loaded after the records, it leaves a larger peak
    with _file_context(args.input), open(args.input, "rb") as fh:
        table = ingest(fh, fmt, groups, years=years)
    return aggregate(table, overrides)


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
    number, a missing or empty venue name, and a venue listed twice (names
    compare case-insensitively).
    """
    raw_text = Path(path).read_text(encoding="utf-8-sig")
    rows: list[tuple[str, object, object]] = []  # (where, venue, raw_score)
    if raw_text.lstrip().startswith("["):
        for i, item in enumerate(json_loads(raw_text)):
            if not isinstance(item, dict) or "venue" not in item or "raw_score" not in item:
                raise ValidationError(f"venue-score entry {i} lacks venue/raw_score")
            rows.append((f"venue-score entry {i}", item["venue"], item["raw_score"]))
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
        raise ValidationError("no venue scores found")

    names: list[str] = []
    scores: list[float] = []
    first_seen: dict[str, str] = {}
    for where, venue, raw_score in rows:
        try:
            if isinstance(raw_score, bool):
                raise TypeError("JSON true and false are not scores")
            score = float(raw_score)
        except (TypeError, ValueError):
            raise ValidationError(f"{where}: raw_score is not a number: {raw_score!r}") from None
        if not math.isfinite(score) or score < 0:
            raise ValidationError(
                f"{where}: raw_score must be finite and nonnegative, got {raw_score!r}"
            )
        name = normalize_name(venue) if isinstance(venue, str) else ""
        if not name:
            raise ValidationError(f"{where}: missing or empty venue name: {venue!r}")
        earlier = first_seen.setdefault(fold(name), where)
        if earlier != where:
            raise ValidationError(f"{where}: venue {name!r} is listed twice (first at {earlier})")
        names.append(name)
        scores.append(score)
    total = math.fsum(scores)
    if abs(total - 1.0) > TOL:
        raise ValidationError(f"raw venue scores sum to {total!r}, not 1 (tolerance {TOL})")
    return ScoreVector(names, scores)


def load_author_pubs(stream: IO[bytes] | IO[str]) -> dict[str, dict[str, int]]:
    """Read author publication lists (JSONL).

    Two line shapes are accepted and may be mixed: pre-aggregated
    ``{"author": ..., "venue": ..., "count": n}`` entries, and raw
    per-paper ``{"authors": [...], "venue": ...}`` records which credit
    every distinct listed author (compared case-insensitively) with one
    paper at the venue. Authors and venues come back in first-seen order,
    under their first-seen spelling.
    """
    author_display: dict[str, str] = {}  # folded author -> display name
    venue_display: dict[str, str] = {}   # folded venue -> display name
    # raw venue -> display name; raw author strings are too many to be worth a memo
    venue_of: dict[str, str] = {}
    pubs: dict[str, dict[str, int]] = {}

    def author_name(author: object, lineno: int) -> str:
        a = normalize_name(author) if isinstance(author, str) else ""
        if not a:
            raise ValidationError("missing or empty 'author'", line=lineno, field="author")
        return author_display.setdefault(fold(a), a)

    def venue_name(venue: object, lineno: int) -> str:
        try:
            return venue_of[venue]
        except (KeyError, TypeError):
            pass
        v = normalize_name(venue) if isinstance(venue, str) else ""
        if not v:
            raise ValidationError("missing or empty 'venue'", line=lineno, field="venue")
        v = venue_of[venue] = venue_display.setdefault(fold(v), v)
        return v

    def add(author: str, venue: str, count: int, lineno: int) -> None:
        per_author = pubs.setdefault(author, {})
        total = per_author[venue] = per_author.get(venue, 0) + count
        if total > MAX_COUNT:  # one count or a sum of them
            raise ValidationError(f"'count' for {author!r} at {venue!r} exceeds 2**53", line=lineno, field="count")

    with text_stream(stream) as text:
        for lineno, obj in jsonl_objects(text):
            if "count" in obj or "author" in obj:
                count = obj.get("count")
                if count.__class__ is not int or count < 1:
                    raise ValidationError(
                        f"'count' must be a positive integer, got {count!r}", line=lineno, field="count"
                    )
                author = author_name(obj.get("author"), lineno)
                add(author, venue_name(obj.get("venue"), lineno), count, lineno)
            elif "authors" in obj:
                authors = obj.get("authors")
                if not isinstance(authors, list) or not authors:
                    raise ValidationError(
                        "'authors' must be a nonempty array", line=lineno, field="authors"
                    )
                venue = obj.get("venue")
                credited = set()
                for raw in authors:
                    author = author_name(raw, lineno)
                    display = venue_name(venue, lineno)  # a bad venue is reported after a bad first author
                    if author not in credited:
                        credited.add(author)
                        add(author, display, 1, lineno)
            else:
                raise ParseError(
                    "expected author/venue/count or authors/venue keys", line=lineno
                )
    if not pubs:
        raise ValidationError("author publication file holds no entries")
    return pubs


# ---------------------------------------------------------------------------
# report emission


def venue_report_tsv(nu_raw: ScoreVector, nu_max_one: np.ndarray, d: float) -> str:
    lines = ["# pscore venues", f"# d = {d!r}", "venue\traw_score\tnormalized_score"]
    for name, raw, norm in zip(nu_raw.names, nu_raw.scores, nu_max_one):
        lines.append(f"{name}\t{format(raw, '.12g')}\t{format(norm, '.12g')}")
    return "".join(line + "\n" for line in lines)


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


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def _emit_debug_matrices(output: str | None, result: PipelineResult) -> None:
    if output is None or output == "-":
        raise ParameterError("--emit-debug-matrices requires -o FILE to name the siblings")
    base, solved = Path(output), result.chain.counts
    venues, groups = solved.venue_names, solved.group_names
    for suffix, labels, matrix, comment in (
        (".alpha.tsv", venues, build_alpha(solved), "venue -> group block (one venue per row)"),
        (".beta.tsv", groups, build_beta(solved, result.chain.d), "group -> venue block (one group per row)"),
        (".reduced.tsv", groups, build_reduced(result.chain), "group -> group reduced chain"),
    ):
        target = base.with_name(base.name + suffix)
        target.write_text(format_matrix_tsv(labels, matrix, comment), encoding="utf-8", newline="\n")


def _venue_report(result: PipelineResult, args: argparse.Namespace) -> str:
    if args.format == "json":
        return venue_report_json(result.nu_raw, result.nu_max_one)
    return venue_report_tsv(result.nu_raw, result.nu_max_one, args.d)


def _group_report(result: PipelineResult, args: argparse.Namespace) -> str:
    ranking = make_ranking(result.counts.group_names, result.group_scores)
    if args.format == "json":
        return ranking_to_json(ranking)
    return ranking_to_tsv(ranking, comments=("pscore groups", f"d = {args.d!r}"))


# ---------------------------------------------------------------------------
# commands


def _cmd_solve(args: argparse.Namespace) -> int:
    """``venues`` and ``groups``: solve, then write the command's report."""
    table = _load_counts(args)
    result = solve_pipeline(table, args.d, args.allow_largest_component)
    _write_output(args.report(result, args), args.output)
    if args.emit_debug_matrices:
        _emit_debug_matrices(args.output, result)
    return 0


def _cmd_authors(args: argparse.Namespace) -> int:
    with _file_context(args.venue_scores):
        nu = load_venue_scores(args.venue_scores)
    with _file_context(args.author_pubs), open(args.author_pubs, "rb") as fh:
        pubs = load_author_pubs(fh)
    ranking = rank_authors(pubs, nu)
    if args.format == "json":
        text = ranking_to_json(ranking)
    else:
        text = ranking_to_tsv(ranking, comments=("pscore authors",))
    _write_output(text, args.output)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    table = _load_counts(args)
    report = check_irreducible(build_chain(table, args.d))
    status = "irreducible" if report.irreducible else f"disconnected into {report.describe(table.group_names)}"
    lines = [
        f"reference groups: {table.num_groups}",
        f"venues: {table.num_venues}",
        f"nonzero (group, venue) cells: {len(table.n_group_venue)}",
        f"records kept: {int(table.n_group.sum())}",
        f"records dropped (outside reference set): {table.dropped_foreign}",
        f"duplicate records merged: {table.dedup_merged}",
        f"chain (d = {args.d!r}): {status}",
    ]
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pscore",
        description="Rank venues, reference groups, and authors from publication patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, report in (
        ("venues", "compute raw and max-one venue scores", _venue_report),
        ("groups", "rank the reference groups by reputation", _group_report),
    ):
        solve = sub.add_parser(name, help=help_text)
        _add_dataset_args(solve)
        _add_output_args(solve)
        solve.add_argument("--emit-debug-matrices", action="store_true",
                           help="also write the chain blocks as TSV next to the output file")
        solve.add_argument("--allow-largest-component", action="store_true",
                           help="at d = 1, solve the largest connected component instead of failing")
        solve.set_defaults(func=_cmd_solve, report=report)

    authors = sub.add_parser("authors", help="rank authors against precomputed venue scores")
    authors.add_argument("--venue-scores", required=True, metavar="PATH",
                         help="venue-score file produced by the venues command")
    authors.add_argument("--author-pubs", required=True, metavar="PATH",
                         help="author publication lists (JSONL)")
    _add_output_args(authors)
    authors.set_defaults(func=_cmd_authors)

    validate = sub.add_parser("validate", help="parse inputs and print dataset statistics")
    _add_dataset_args(validate)
    validate.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="pscore: %(levelname)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PScoreError, OSError) as exc:
        print(f"pscore: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
