"""Aggregation of the dataset into the count statistics the model consumes.

Four statistics drive everything downstream: the per-group-per-venue
distinct paper counts, their two marginals, and the per-venue distinct
author counts. Counts stay exact integers here; fractions are formed only
when the chain blocks are built.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import InternalError, ParseError, ValidationError
from .records import Dataset, fold, jsonl_objects, normalize_name, text_stream

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CountsTable:
    """Publication counts over fixed group (rows) and venue (columns) axes.

    ``n_group_venue[w, j]`` is the number of distinct papers group ``w``
    published at venue ``j``; ``d_venue[j]`` is the number of distinct
    authors publishing at venue ``j``. The marginals ``n_venue`` and
    ``n_group`` are the matrix's column and row sums.
    """

    n_group_venue: np.ndarray
    d_venue: np.ndarray
    group_names: tuple[str, ...]
    venue_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "n_group_venue", np.asarray(self.n_group_venue, dtype=np.int64))
        object.__setattr__(self, "d_venue", np.asarray(self.d_venue, dtype=np.int64))
        object.__setattr__(self, "group_names", tuple(self.group_names))
        object.__setattr__(self, "venue_names", tuple(self.venue_names))
        t, v = self.n_group_venue.shape
        if len(self.group_names) != t or len(self.venue_names) != v or self.d_venue.shape != (v,):
            raise InternalError("counts table axes do not match the name lists")
        if np.any(self.n_group_venue < 0):
            raise InternalError("negative publication count")
        if np.any(self.n_venue < 1):
            raise InternalError("venue with zero publications in the counts table")
        if np.any(self.n_group < 1):
            raise InternalError("group with zero publications in the counts table")
        if np.any(self.d_venue < 1):
            raise InternalError("venue with zero distinct authors in the counts table")

    @property
    def n_venue(self) -> np.ndarray:
        return self.n_group_venue.sum(axis=0)

    @property
    def n_group(self) -> np.ndarray:
        return self.n_group_venue.sum(axis=1)

    @property
    def num_groups(self) -> int:
        return len(self.group_names)

    @property
    def num_venues(self) -> int:
        return len(self.venue_names)

    def restrict(self, group_indices: Sequence[int]) -> tuple["CountsTable", np.ndarray]:
        """Sub-table over a subset of groups and the venues they publish in.

        Venues that lose all their publications under the restriction are
        dropped, so the sub-table satisfies the same positivity invariants
        as a full one. Returns the sub-table and the indices, in this
        table, of the venues it keeps.
        """
        rows = sorted(group_indices)
        matrix = self.n_group_venue[rows, :]
        keep = np.flatnonzero(matrix.sum(axis=0) > 0)
        sub = CountsTable(
            matrix[:, keep],
            self.d_venue[keep],
            [self.group_names[w] for w in rows],
            [self.venue_names[j] for j in keep],
        )
        return sub, keep


def aggregate(dataset: Dataset, author_counts: Mapping[str, int] | None = None) -> CountsTable:
    """Aggregate a dataset into its counts table.

    Distinct-author counts default to the distinct normalized author names
    observed at each venue within the dataset itself; an entry in
    ``author_counts`` (venue -> count, as :func:`parse_author_counts`
    reads it from a file) overrides the count for that venue. Overrides
    for unknown venues are ignored with a warning.
    """
    d_venue = dataset.d_venue.copy()
    if author_counts:
        venue_index = {fold(name): j for j, name in enumerate(dataset.venues)}
        for name, count in author_counts.items():
            j = venue_index.get(fold(normalize_name(name)))
            if j is None:
                log.warning("ignoring author-count override for unknown venue %r", name)
                continue
            if isinstance(count, bool) or not isinstance(count, int):
                raise ValidationError(f"author-count override for {name!r} must be an integer")
            if count < 1:
                raise ValidationError(f"author-count override for {name!r} must be >= 1, got {count}")
            d_venue[j] = count

    return CountsTable(dataset.n_group_venue, d_venue, dataset.groups, dataset.venues)


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
            reader = csv.DictReader(text)
            if reader.fieldnames is not None:
                missing = [c for c in ("venue", "count") if c not in reader.fieldnames]
                if missing:
                    raise ParseError(f"header is missing column(s): {', '.join(missing)}", line=1)
                for row in reader:
                    put(row.get("venue"), row.get("count"), reader.line_num)
    return counts
