"""Ingestion of publication records.

Reads JSONL/CSV publication lists and folds them, in one pass, into the
deduplicated counts that everything downstream operates on. Each distinct
raw name is normalized and case-folded once per run and interned to an
integer id; records are kept only as the ids they contribute, never as
objects. Parsing is eager and line-addressed: every error names the
offending line.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import DatasetError, ParseError, ValidationError

log = logging.getLogger(__name__)

CSV_COLUMNS = ("id", "title", "group", "authors", "venue", "year")
AUTHOR_SEP = ";"


def normalize_name(name: str) -> str:
    """Trim and collapse internal whitespace runs to a single space."""
    return " ".join(name.split())


def fold(name: str) -> str:
    """Case-insensitive comparison key for a normalized name.

    Names are compared case-folded but displayed with their first-seen
    casing, so "SIGIR" and "sigir" are the same venue and reports show
    whichever spelling appeared first.
    """
    return name.casefold()


def _paper_key(paper_id: str | None, title: str | None) -> str | None:
    """Identity used for distinct-paper counting.

    The opaque paper id wins; otherwise the case-folded normalized title.
    Records with neither are never merged (key ``None``).
    """
    if paper_id is not None:
        return "id:" + paper_id
    if title and (name := normalize_name(title)):
        return "title:" + fold(name)
    return None


@dataclass(frozen=True)
class PublicationRecord:
    """One paper occurrence: a group published something at a venue."""

    group: str
    authors: tuple[str, ...]
    venue: str
    paper_id: str | None = None
    title: str | None = None
    year: int | None = None


@dataclass(frozen=True, eq=False)
class Dataset:
    """Deduplicated publication counts over fixed group and venue axes.

    ``groups`` preserves caller order; ``venues`` is the sorted list of
    venues that actually received publications from the reference groups,
    so every venue is guaranteed a positive publication count downstream.
    ``n_group_venue[w, j]`` counts the distinct papers of group ``w`` at
    venue ``j``; ``d_venue[j]`` counts the distinct author names seen at
    venue ``j``. ``dropped_foreign`` and ``dedup_merged`` are ingestion
    diagnostics.
    """

    groups: tuple[str, ...]
    venues: tuple[str, ...]
    n_group_venue: np.ndarray
    d_venue: np.ndarray
    dropped_foreign: int = 0
    dedup_merged: int = 0

    @property
    def kept(self) -> int:
        """Records that survived filtering and deduplication."""
        return int(self.n_group_venue.sum())


@contextmanager
def text_stream(stream: IO[bytes] | IO[str]) -> Iterator[IO[str]]:
    """Read ``stream`` as text; bytes are decoded as UTF-8, BOM allowed.

    A binary stream is detached again on exit, so it stays open and owned
    by the caller and no wrapper is left behind to be closed.
    """
    if not isinstance(stream.read(0), bytes):
        yield stream
        return
    text = io.TextIOWrapper(stream, encoding="utf-8-sig", newline="")
    try:
        yield text
    finally:
        text.detach()


def jsonl_objects(text: IO[str]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each nonblank line of a JSONL stream."""
    for lineno, line in enumerate(text, start=1):
        if line.isspace():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON: {exc.msg}", line=lineno) from exc
        if not isinstance(obj, dict):
            raise ParseError("expected a JSON object", line=lineno)
        yield lineno, obj


def _required_name(value: object, name: str, line: int | None) -> str:
    if value is None:
        raise ValidationError(f"missing required field '{name}'", line=line, field=name)
    if not isinstance(value, str):
        raise ValidationError(f"field '{name}' must be a string", line=line, field=name)
    normalized = normalize_name(value)
    if not normalized:
        raise ValidationError(f"field '{name}' is empty", line=line, field=name)
    return normalized


def _optional_text(value: object, name: str, line: int | None) -> str | None:
    if value is None:
        return None
    if not isinstance(value, str):
        raise ValidationError(f"field '{name}' must be a string", line=line, field=name)
    return normalize_name(value) or None


def _author_names(raw: Iterable[object], line: int | None) -> list[str]:
    names = []
    for a in raw:
        if not isinstance(a, str):
            raise ValidationError("field 'authors' must be an array of strings", line=line, field="authors")
        if name := normalize_name(a):
            names.append(name)
    if not names:
        raise ValidationError("field 'authors' is empty", line=line, field="authors")
    return names


def _parse_year(value: object, line: int | None) -> int | None:
    if value is None or value == "":
        return None
    if isinstance(value, bool):
        raise ValidationError("field 'year' must be an integer", line=line, field="year")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            pass
    raise ValidationError(f"field 'year' must be an integer, got {value!r}", line=line, field="year")


def _in_years(year: int, start: int | None, end: int | None) -> bool:
    return (start is None or year >= start) and (end is None or year <= end)


def _jsonl_fields(text: IO[str]) -> Iterator[tuple]:
    for lineno, obj in jsonl_objects(text):
        raw_id = obj.get("id")
        if isinstance(raw_id, int) and not isinstance(raw_id, bool):
            raw_id = str(raw_id)
        if raw_id is not None and not isinstance(raw_id, str):
            raise ValidationError("field 'id' must be a string", line=lineno, field="id")
        authors = obj.get("authors")
        if authors is None:
            raise ValidationError("missing required field 'authors'", line=lineno, field="authors")
        if not isinstance(authors, list):
            raise ValidationError("field 'authors' must be an array of strings", line=lineno, field="authors")
        yield (lineno, raw_id.strip() or None if raw_id is not None else None, authors,
               obj.get("group"), obj.get("venue"), obj.get("title"), obj.get("year"))


def _csv_fields(text: IO[str]) -> Iterator[tuple]:
    reader = csv.DictReader(text, restkey="_extra", restval=None)
    header = reader.fieldnames
    if header is None:
        return  # zero-byte input: no rows at all
    missing = [c for c in CSV_COLUMNS if c not in header]
    if missing:
        raise ParseError(f"header is missing column(s): {', '.join(missing)}", line=1)
    for row in reader:
        lineno = reader.line_num
        if row.get("_extra"):
            raise ParseError("row has more fields than the header", line=lineno)
        authors = row.get("authors")
        if authors is None or not authors.strip():
            raise ValidationError("missing required field 'authors'", line=lineno, field="authors")
        yield (lineno, (row.get("id") or "").strip() or None, authors.split(AUTHOR_SEP),
               row.get("group") or None, row.get("venue") or None, row.get("title") or None,
               row.get("year"))


def _decode(text: IO[str], format: str) -> Iterator[tuple]:
    """Yield (line, paper_id, raw authors, group, venue, title, year) per record.

    The decoder checks the id and the shape of the author list; the
    consumer checks the author names, group, venue, title and year, in
    that order, which is the order errors have always been reported in.
    """
    if format == "jsonl":
        return _jsonl_fields(text)
    if format == "csv":
        return _csv_fields(text)
    raise ValidationError(f"unknown record format {format!r}; expected 'jsonl' or 'csv'")


def parse_records(stream: IO[bytes] | IO[str], format: str) -> list[PublicationRecord]:
    """Parse publication records from ``stream`` in input order.

    ``format`` is ``"jsonl"`` (one object per line, keys id/title/group/
    authors/venue/year) or ``"csv"`` (header row required, authors column
    semicolon-separated, RFC-4180 quoting, UTF-8). All names come out
    whitespace-normalized. Raises :class:`ParseError` for structural
    damage and :class:`ValidationError` for missing or ill-typed fields,
    both carrying the line number.
    """
    with text_stream(stream) as text:
        return [
            PublicationRecord(
                authors=tuple(_author_names(authors, line)),
                group=_required_name(group, "group", line),
                venue=_required_name(venue, "venue", line),
                paper_id=paper_id,
                title=_optional_text(title, "title", line),
                year=_parse_year(year, line),
            )
            for line, paper_id, authors, group, venue, title, year in _decode(text, format)
        ]


_BLANK = -1  # author memo entry for a name that normalizes to nothing


class _Tally:
    """The one counting core: folds records into integer ids as they arrive.

    Every distinct raw group, venue and author string is normalized and
    case-folded once and interned. A record that lies in the year window,
    belongs to a reference group and is not a duplicate (same paper key,
    same group) leaves one (venue, group) cell and one (author, venue)
    pair per author, all as integers; nothing else of it is kept.
    """

    def __init__(self, reference_groups: Sequence[str], years: tuple[int | None, int | None] | None):
        groups: list[str] = []
        group_index: dict[str, int] = {}
        for raw in reference_groups:
            name = normalize_name(raw)
            if not name:
                raise DatasetError("reference group list contains an empty name")
            key = fold(name)
            if key in group_index:
                raise DatasetError(f"duplicate reference group {name!r}")
            group_index[key] = len(groups)
            groups.append(name)
        if not groups:
            raise DatasetError("reference group list is empty")
        self.groups = tuple(groups)
        self._group_index = group_index
        self._years = None if years in (None, (None, None)) else years

        self._group_of: dict[str, int] = {}   # raw group -> row, -1 outside the reference set
        self._venue_of: dict[str, tuple[int, str]] = {}  # raw venue -> (venue id, normalized)
        self._venue_id: dict[str, int] = {}   # folded venue -> venue id
        self._shown: dict[int, str] = {}      # venue id -> spelling of its first kept record
        self._author_of: dict[str, int] = {}  # raw author -> author id, or _BLANK
        self._author_id: dict[str, int] = {}  # folded author -> author id
        self._seen: set[tuple[str, int]] = set()
        self._cells = array("q")  # venue * T + row, one per kept record
        self._pairs = array("q")  # author << 32 | venue, one per author of a kept record
        self.undated = self.dropped = self.merged = 0

    def _group(self, raw: object, line: int | None) -> int:
        name = _required_name(raw, "group", line)
        row = self._group_of[raw] = self._group_index.get(fold(name), -1)
        return row

    def _venue(self, raw: object, line: int | None) -> tuple[int, str]:
        name = _required_name(raw, "venue", line)
        venue = self._venue_of[raw] = (self._venue_id.setdefault(fold(name), len(self._venue_id)), name)
        return venue

    def _author(self, raw: object, line: int | None) -> int:
        if not isinstance(raw, str):
            raise ValidationError("field 'authors' must be an array of strings", line=line, field="authors")
        name = normalize_name(raw)
        author = self._author_id.setdefault(fold(name), len(self._author_id)) if name else _BLANK
        self._author_of[raw] = author
        return author

    def add(self, line: int | None, paper_id: str | None, authors: Iterable[object],
            group: object, venue: object, title: object, year: object) -> None:
        """Validate one record's fields in order, then count it if it survives."""
        author_of = self._author_of
        ids = []
        for raw in authors:
            try:
                author = author_of[raw]
            except (KeyError, TypeError):
                author = self._author(raw, line)
            if author != _BLANK:
                ids.append(author)
        if not ids:
            raise ValidationError("field 'authors' is empty", line=line, field="authors")
        try:
            row = self._group_of[group]
        except (KeyError, TypeError):
            row = self._group(group, line)
        try:
            venue_id, spelling = self._venue_of[venue]
        except (KeyError, TypeError):
            venue_id, spelling = self._venue(venue, line)
        if title is not None and not isinstance(title, str):
            raise ValidationError("field 'title' must be a string", line=line, field="title")
        if year is not None and year.__class__ is not int:
            year = _parse_year(year, line)

        if self._years is not None:
            if year is None:
                self.undated += 1
                return
            if not _in_years(year, *self._years):
                return
        if row < 0:
            self.dropped += 1
            return
        key = _paper_key(paper_id, title)
        if key is not None:
            pair = (key, row)
            if pair in self._seen:
                self.merged += 1
                return
            self._seen.add(pair)
        if venue_id not in self._shown:
            self._shown[venue_id] = spelling
        self._cells.append(venue_id * len(self.groups) + row)
        self._pairs.extend([author << 32 | venue_id for author in ids])

    def dataset(self) -> Dataset:
        """Check the tallies and lay them out on sorted venue axes."""
        if self.undated:
            log.warning("year filter excluded %d record(s) without a year", self.undated)
        if self.dropped:
            log.info("dropped %d record(s) from groups outside the reference set", self.dropped)
        if not self._cells:
            raise DatasetError("empty dataset: no records remain for the reference groups")
        t = len(self.groups)
        cells = np.frombuffer(self._cells, dtype=np.int64)
        rows, venue_ids = cells % t, cells // t
        for name, count in zip(self.groups, np.bincount(rows, minlength=t)):
            if count == 0:
                raise DatasetError(f"reference group {name!r} has no publications in the dataset")

        # kept venues in case-folded order (one venue per folded name)
        keys = list(self._venue_id)
        order = sorted(self._shown, key=keys.__getitem__)
        column = np.full(len(keys), -1, dtype=np.int64)
        column[order] = np.arange(len(order))
        v = len(order)

        matrix = np.bincount(rows * v + column[venue_ids], minlength=t * v).reshape(t, v)
        pairs = np.unique(np.frombuffer(self._pairs, dtype=np.int64))
        d_venue = np.bincount(column[pairs & 0xFFFFFFFF], minlength=v)

        return Dataset(
            groups=self.groups,
            venues=tuple(self._shown[j] for j in order),
            n_group_venue=matrix,
            d_venue=d_venue,
            dropped_foreign=self.dropped,
            dedup_merged=self.merged,
        )


def ingest(
    stream: IO[bytes] | IO[str],
    format: str,
    reference_groups: Sequence[str],
    *,
    years: tuple[int | None, int | None] | None = None,
) -> Dataset:
    """Read publication records and count them in one pass.

    Equivalent to :func:`parse_records`, keeping the records dated inside
    ``years``, then :func:`build_dataset`, with the same errors, but holds
    no record objects. ``years`` is an inclusive (start, end) window where
    either bound may be ``None``; undated records fall outside any window
    and are counted in a warning.
    """
    tally = _Tally(reference_groups, years)
    add = tally.add
    with text_stream(stream) as text:
        for fields in _decode(text, format):
            add(*fields)
    return tally.dataset()


def build_dataset(records: Iterable[PublicationRecord], reference_groups: Sequence[str]) -> Dataset:
    """Filter to the reference groups, deduplicate, and fix index spaces.

    Records from groups outside ``reference_groups`` are dropped (count
    reported). Records are deduplicated per (paper identity, group), so a
    paper coauthored across two reference groups still counts once for
    each. Venues are the sorted distinct venues of the surviving records.

    Raises :class:`DatasetError` if nothing survives or if any reference
    group ends up with zero publications, since a silent group has no
    publication fractions to propagate.
    """
    tally = _Tally(reference_groups, None)
    for rec in records:
        tally.add(None, rec.paper_id, rec.authors, rec.group, rec.venue, rec.title, rec.year)
    return tally.dataset()
