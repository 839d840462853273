"""Command-line front door: argument parsing and file I/O.

Reads the input files, runs the library pipeline and emits deterministic
reports. Reports go to the output file (or stdout); all warnings and
progress notes go to stderr, never interleaved with report data.
Identical inputs and flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import io
import logging
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import IO, Callable, Iterator

from . import _np as np
from .chain import build_chain, check_d, check_irreducible
from .counts import aggregate, parse_author_counts
from .errors import ParameterError, PScoreError
from .pipeline import PipelineResult, solve_pipeline
from .records import CountsTable, check_years, ingest, listed_name, load_author_pubs, locating, text_stream
from .scoring import (Ranking, load_venue_scores, make_ranking, rank_authors, ranking_to_json, ranking_to_tsv,
                      venue_report_json, venue_report_tsv)

DEFAULT_D = 0.5
SLICE = 1 << 16  # characters of a report written at a time


# ---------------------------------------------------------------------------
# input loading


@contextmanager
def _file_context(path: str) -> Iterator[IO[bytes]]:
    """Open the input file ``path`` as bytes; input errors it leads to are given it as their ``file``."""
    with open(path, "rb") as fh, locating(file=path):
        yield fh


def _read_file(path: str, read: Callable[[IO[bytes]], object]):
    """``read`` of the input file ``path``, opened by :func:`_file_context`."""
    with _file_context(path) as fh:
        return read(fh)


def _sniff_format(path: str, fh: io.BufferedReader) -> str:
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".json", ".ndjson"):
        return "jsonl"
    # peek reads no further than one buffer and consumes nothing, so a pipe keeps every byte for the reader
    head = fh.peek().decode("utf-8-sig", errors="replace").lstrip()
    return "jsonl" if head.startswith("{") else "csv"


def _load_reference_groups(args: argparse.Namespace) -> list[str]:
    """The ``--groups-file`` names, then the ``--group`` ones, read by the name and repeat rules."""
    names: list[str] = []
    seen: dict[str, str] = {}
    if args.groups_file:
        with _file_context(args.groups_file) as fh, text_stream(fh) as text:
            names = [listed_name(line, "group", seen, f"--groups-file line {n}", n)
                     for n, line in enumerate(text, start=1) if not line.isspace()]
    names += [listed_name(name, "group", seen, "--group") for name in args.group]
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
        with _file_context(args.author_counts) as fh:
            overrides = parse_author_counts(fh, _sniff_format(args.author_counts, fh))
    np.ndarray  # load numpy now: loaded after the records, it leaves a larger peak
    with _file_context(args.input) as fh:
        table = ingest(fh, args.input_format or _sniff_format(args.input, fh), groups, years=years)
    return aggregate(table, overrides)


def parse_year_range(text: str) -> tuple[int | None, int | None]:
    """Parse an inclusive ``A:B`` year range, either side of which may be empty, and check it by :func:`check_years`."""
    if ":" not in text:
        raise ParameterError(f"year range must look like A:B, got {text!r}")
    lo_text, hi_text = text.split(":", 1)
    try:
        lo = int(lo_text) if lo_text.strip() else None
        hi = int(hi_text) if hi_text.strip() else None
    except ValueError:
        raise ParameterError(f"year range bounds must be integers, got {text!r}") from None
    check_years((lo, hi))
    return lo, hi


# ---------------------------------------------------------------------------
# report emission


def _write_output(text: str, path: str | None) -> None:
    """Write ``text`` to stdout, or to ``path`` as UTF-8 with no newline translation, a slice at a time: no copy
    of the whole report is ever made as bytes."""
    with nullcontext(sys.stdout) if path in (None, "-") else open(path, "w", encoding="utf-8", newline="\n") as out:
        for start in range(0, len(text), SLICE):
            out.write(text[start:start + SLICE])


def _venue_report(result: PipelineResult, args: argparse.Namespace) -> str:
    if args.format == "json":
        return venue_report_json(result.nu_raw, result.nu_max_one)
    return venue_report_tsv(result.nu_raw, result.nu_max_one, args.d)


def _ranking_report(ranking: Ranking, args: argparse.Namespace, *comments: str) -> str:
    return ranking_to_json(ranking) if args.format == "json" else ranking_to_tsv(ranking, comments)


def _group_report(result: PipelineResult, args: argparse.Namespace) -> str:
    ranking = make_ranking(result.counts.group_names, result.group_scores)
    return _ranking_report(ranking, args, "pscore groups", f"d = {args.d!r}")


# ---------------------------------------------------------------------------
# commands


def _cmd_solve(args: argparse.Namespace) -> int:
    """``venues`` and ``groups``: solve, then write the command's report."""
    table = _load_counts(args)
    result = solve_pipeline(table, args.d, args.allow_largest_component)
    _write_output(args.report(result, args), args.output)
    return 0


def _cmd_authors(args: argparse.Namespace) -> int:
    nu = _read_file(args.venue_scores, load_venue_scores)
    # bound to no name here, the author lists are freed inside rank_authors once it has the totals
    ranking = rank_authors(_read_file(args.author_pubs, load_author_pubs), nu)
    _write_output(_ranking_report(ranking, args, "pscore authors"), args.output)
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
