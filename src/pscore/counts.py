"""Aggregation of the dataset into the count statistics the model consumes.

Four statistics drive everything downstream: the per-group-per-venue
distinct paper counts, kept as a sparse list of nonzero cells, their two
marginals, and the per-venue distinct author counts. Counts stay exact
integers here; fractions are formed only when the chain is built.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import InternalError, ParseError, ValidationError
from .records import MAX_COUNT, Dataset, fold, jsonl_objects, normalize_name, text_stream

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CountsTable:
    """Publication counts as a sorted, group-major coordinate list.

    Cell ``k`` says group ``group[k]`` published ``n_group_venue[k]``
    distinct papers at venue ``venue[k]``. Only nonzero counts are stored,
    in strictly increasing (group, venue) order. ``d_venue[j]`` is the
    number of distinct authors publishing at venue ``j``. The marginals
    ``n_group`` and ``n_venue`` are computed once, from the cells.
    """

    group: np.ndarray
    venue: np.ndarray
    n_group_venue: np.ndarray
    d_venue: np.ndarray
    group_names: tuple[str, ...]
    venue_names: tuple[str, ...]
    n_group: np.ndarray = field(init=False, repr=False)
    n_venue: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("group", "venue", "n_group_venue", "d_venue"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        object.__setattr__(self, "group_names", tuple(self.group_names))
        object.__setattr__(self, "venue_names", tuple(self.venue_names))
        t, v, cells = self.num_groups, self.num_venues, self.n_group_venue.shape
        if len(cells) != 1 or not self.group.shape == self.venue.shape == cells or self.d_venue.shape != (v,):
            raise InternalError("counts table cells and axes do not match the name lists")
        if np.any((self.group < 0) | (self.group >= t) | (self.venue < 0) | (self.venue >= v)):
            raise InternalError("counts table cell outside the group or venue axis")
        if np.any(np.diff(self.group * v + self.venue) <= 0):
            raise InternalError("counts table cells are not sorted group-major without repeats")
        for name, axis, size in (("n_group", self.group, t), ("n_venue", self.venue, v)):
            total = np.bincount(axis, weights=self.n_group_venue, minlength=size)
            object.__setattr__(self, name, total.astype(np.int64))
        for values, what in ((self.n_group_venue, "cell with no publications"),
                             (self.n_venue, "venue with zero publications"),
                             (self.n_group, "group with zero publications"),
                             (self.d_venue, "venue with zero distinct authors")):
            if np.any(values < 1):
                raise InternalError(f"{what} in the counts table")

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
        rows = np.array(sorted(set(group_indices)), dtype=np.int64)
        kept = np.flatnonzero(np.isin(self.group, rows))  # still group-major
        keep = np.unique(self.venue[kept])
        # a cell's new index on either axis is its rank among the kept ones
        sub = CountsTable(np.searchsorted(rows, self.group[kept]), np.searchsorted(keep, self.venue[kept]),
                          self.n_group_venue[kept], self.d_venue[keep],
                          [self.group_names[w] for w in rows], [self.venue_names[j] for j in keep])
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
            if not 1 <= count <= MAX_COUNT:
                raise ValidationError(f"author-count override for {name!r} must lie in [1, 2**53], got {count}")
            d_venue[j] = count

    return CountsTable(dataset.group, dataset.venue, dataset.n_group_venue, d_venue,
                       dataset.groups, dataset.venues)


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
            reader = csv.DictReader(text)
            if reader.fieldnames is not None:
                missing = [c for c in ("venue", "count") if c not in reader.fieldnames]
                if missing:
                    raise ParseError(f"header is missing column(s): {', '.join(missing)}", line=1)
                for row in reader:
                    put(row.get("venue"), row.get("count"), reader.line_num)
    return counts
