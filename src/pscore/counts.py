"""Per-venue distinct-author counts from an override file.

The counts table itself comes from :mod:`pscore.records`, which counts the
distinct authors seen at each venue. A file of per-venue counts, parsed
here, can override them before the chain is built.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import IO, Mapping

from .errors import ValidationError
from .records import CountsTable, check_count, csv_rows, fold, jsonl_objects, listed_name, text_stream

log = logging.getLogger(__name__)


def aggregate(table: CountsTable, author_counts: Mapping[str, int] | None = None) -> CountsTable:
    """Apply per-venue distinct-author overrides to a counts table.

    Distinct-author counts default to the distinct normalized author names
    observed at each venue within the records themselves; an entry in
    ``author_counts`` (venue -> count, as :func:`parse_author_counts`
    reads it from a file) overrides the count for that venue. Overrides
    for unknown venues are ignored with a warning. With no overrides the
    table itself comes back. Every override is checked, known venue or not,
    and its venue by the name and repeat rules of
    :func:`pscore.records.listed_name`.
    """
    if not author_counts:
        return table
    d_venue = table.d_venue.copy()
    venue_index = {fold(name): j for j, name in enumerate(table.venue_names)}
    seen: dict[str, str] = {}
    for name, count in author_counts.items():
        j = venue_index.get(fold(listed_name(name, "venue", seen, f"key {name!r}")))
        count = check_count(count, 1, what=f"author-count override for {name!r}")
        if j is None:
            log.warning("ignoring author-count override for unknown venue %r", name)
            continue
        d_venue[j] = count
    return dataclasses.replace(table, d_venue=d_venue)


def parse_author_counts(stream: IO[bytes] | IO[str], format: str) -> dict[str, int]:
    """Parse a per-venue distinct-author count file (JSONL or CSV).

    JSONL lines look like ``{"venue": "...", "count": 10}``, where the
    count is a JSON integer; CSV needs a ``venue,count`` header, and its
    count text is read as an integer. Returns a venue -> count mapping
    with normalized venue names.
    """
    counts: dict[str, int] = {}
    seen: dict[str, str] = {}

    def put(venue: object, count: object, lineno: int) -> None:
        name = listed_name(venue, "venue", seen, f"line {lineno}", lineno)
        if format == "csv":  # CSV fields are text; a JSON count must already be an integer
            try:
                count = int(count)
            except (TypeError, ValueError):
                pass  # check_count names the text
        counts[name] = check_count(count, 1, lineno)

    if format not in ("jsonl", "csv"):
        raise ValidationError(f"unknown author-count format {format!r}; expected 'jsonl' or 'csv'")
    with text_stream(stream) as text:
        if format == "jsonl":
            for lineno, obj in jsonl_objects(text):
                put(obj.get("venue"), obj.get("count"), lineno)
        else:
            for lineno, row in csv_rows(text, ("venue", "count")):
                put(row.get("venue"), row.get("count"), lineno)
    return counts
