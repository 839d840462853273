"""Per-venue distinct-author counts from an override file.

The counts table itself comes from :mod:`pscore.records`, which counts the
distinct authors seen at each venue. A file of per-venue counts, parsed
here, can override them before the chain is built.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import IO, Mapping

from . import _np as np
from .errors import ValidationError
from .records import MAX_COUNT, CountsTable, csv_rows, fold, jsonl_objects, normalize_name, text_stream

log = logging.getLogger(__name__)


def aggregate(table: CountsTable, author_counts: Mapping[str, int] | None = None) -> CountsTable:
    """Apply per-venue distinct-author overrides to a counts table.

    Distinct-author counts default to the distinct normalized author names
    observed at each venue within the records themselves; an entry in
    ``author_counts`` (venue -> count, as :func:`parse_author_counts`
    reads it from a file) overrides the count for that venue. Overrides
    for unknown venues are ignored with a warning. With no overrides the
    table itself comes back.
    """
    if not author_counts:
        return table
    d_venue = table.d_venue.copy()
    venue_index = {fold(name): j for j, name in enumerate(table.venue_names)}
    for name, count in author_counts.items():
        j = venue_index.get(fold(normalize_name(name)))
        if j is None:
            log.warning("ignoring author-count override for unknown venue %r", name)
            continue
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ValidationError(f"author-count override for {name!r} must be an integer")
        if not 1 <= count <= MAX_COUNT:
            raise ValidationError(f"author-count override for {name!r} must lie in [1, 2**53], got {count}")
        d_venue[j] = count
    return dataclasses.replace(table, d_venue=d_venue)


def parse_author_counts(stream: IO[bytes] | IO[str], format: str) -> dict[str, int]:
    """Parse a per-venue distinct-author count file (JSONL or CSV).

    JSONL lines look like ``{"venue": "...", "count": 10}``; CSV needs a
    ``venue,count`` header. Returns a venue -> count mapping with
    normalized venue names.
    """
    counts: dict[str, int] = {}
    seen: set[str] = set()

    def put(venue: object, count: object, lineno: int) -> None:
        if venue is None or not isinstance(venue, str) or not normalize_name(venue):
            raise ValidationError("missing or empty 'venue'", line=lineno, field="venue")
        name = normalize_name(venue)
        if isinstance(count, str):
            try:
                count = int(count.strip())
            except ValueError:
                raise ValidationError(f"'count' must be an integer, got {count!r}", line=lineno, field="count")
        if isinstance(count, bool) or not isinstance(count, int):
            raise ValidationError("'count' must be an integer", line=lineno, field="count")
        if count < 1:
            raise ValidationError(f"'count' must be >= 1, got {count}", line=lineno, field="count")
        if count > MAX_COUNT:
            raise ValidationError("'count' exceeds 2**53", line=lineno, field="count")
        key = fold(name)
        if key in seen:
            raise ValidationError(f"duplicate author-count entry for venue {name!r}", line=lineno)
        seen.add(key)
        counts[name] = count

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
