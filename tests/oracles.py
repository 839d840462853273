"""Independent references, used only to cross-check pscore.

None of the solvers shares code with ``pscore.solver``: power iteration
repeats gamma <- gamma @ P from the uniform vector, the LAPACK solve
replaces one equation of gamma (I - P) = 0 by sum(gamma) = 1, and
``stationary_extended`` eliminates states in ``np.longdouble``. ``dense_blocks``
forms alpha and beta as dense matrices from a counts table's cells, and
``dense_reduced`` their product, for the sparse chain to be checked
against; ``components`` finds the connected components of the
group-venue graph by breadth-first search. ``count_records``
counts a list of parsed records the way ingestion did before it became a
single pass over integer ids, sharing no code with ``pscore.records``;
``filter_by_year`` is the year window it applies first. ``parse_records``
reads those records from JSONL with ``json.loads`` and from CSV with
``csv.DictReader``, and reports a bad record with the class, line and
message ``ingest`` gives it; ``serialize_records`` writes records back out
as JSONL or CSV.
``jsonl_objects``, ``load_author_pubs`` and ``rank_authors`` are the JSONL
reader and the author path as they were before lines were decoded in one C
call and venue names memoized: every line goes through ``json.loads``, and
every name is normalized and folded where it is met. A per-paper author line
is read by ``_authors``, the records' author rule.
``ranking_to_tsv`` and ``venue_report_tsv`` are the TSV report builders as
they were before each report became one list of finished lines: a list of
lines, each given its newline as the list is joined.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from pscore import (
    DegenerateInputError,
    ParseError,
    PScoreError,
    StationaryDistribution,
    ValidationError,
)
from pscore.records import AUTHOR_SEP, CSV_COLUMNS

log = logging.getLogger(__name__)


class ConvergenceError(PScoreError):
    """Power iteration did not settle within its iteration cap."""

    def __init__(self, message: str, residual: float):
        self.residual = residual
        super().__init__(message)


def power_iteration(p_reduced, tol: float = 1e-12, max_iters: int = 100_000) -> StationaryDistribution:
    """Iterate gamma <- gamma @ P from the uniform vector until it settles.

    Requires an irreducible aperiodic matrix to converge; the reduced
    chain of a connected dataset qualifies because every group keeps some
    mass on itself through its own venues. Stops once the max-norm change
    per sweep drops to ``tol``; raises :class:`ConvergenceError` carrying
    the last change if ``max_iters`` sweeps are not enough.
    """
    p = np.asarray(p_reduced, dtype=np.float64)
    n = p.shape[0]
    gamma = np.full(n, 1.0 / n)

    delta = np.inf
    for _ in range(max_iters):
        nxt = gamma @ p
        nxt /= nxt.sum()
        delta = float(np.max(np.abs(nxt - gamma)))
        gamma = nxt
        if delta <= tol:
            residual = float(np.max(np.abs(gamma @ p - gamma)))
            return StationaryDistribution(gamma=gamma, residual=residual, method="power")
    raise ConvergenceError(
        f"power iteration did not converge within {max_iters} sweeps "
        f"(last change {delta:.3e})",
        residual=delta,
    )


def stationary_by_solve(p: np.ndarray) -> np.ndarray:
    """Solve gamma (I - P) = 0, sum(gamma) = 1 with one LAPACK linear solve."""
    n = p.shape[0]
    a = (np.eye(n) - p).T
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def dense_counts(table) -> np.ndarray:
    """The T x V count matrix of a ``CountsTable``, from its cells."""
    n = np.zeros((table.num_groups, table.num_venues), dtype=np.int64)
    n[table.group, table.venue] = table.n_group_venue
    return n


def dense_blocks(counts, d: float, breadth=None, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """The blocks alpha (V x T) and beta (T x V), formed densely from the cells.

    Takes nothing from ``pscore`` but the table's fields: alpha divides
    each column of the count matrix by its sum, beta mixes the row shares
    with ``breadth`` under ``d``, in ``dtype``. ``breadth`` defaults to the
    distinct-author shares D(j) / sum_k D(k).
    """
    if breadth is None:
        breadth = counts.d_venue.astype(dtype) / counts.d_venue.sum(dtype=dtype)
    n = dense_counts(counts).astype(dtype)
    alpha = (n / n.sum(axis=0, keepdims=True)).T
    beta = dtype(d) * (n / n.sum(axis=1, keepdims=True)) + (dtype(1) - dtype(d)) * np.asarray(breadth, dtype)
    return alpha, beta


def dense_reduced(counts, d: float) -> np.ndarray:
    """The reduced chain beta @ alpha (T x T) in float64, from :func:`dense_blocks`."""
    alpha, beta = dense_blocks(counts, d)
    return beta @ alpha


def components(counts) -> tuple[frozenset[int], ...]:
    """Connected components of the bipartite group-venue graph, as sets of groups.

    Breadth-first search over the dense count matrix, ordered by each
    component's lowest group.
    """
    n = dense_counts(counts)
    unseen, found = set(range(n.shape[0])), []
    while unseen:
        frontier, component = [min(unseen)], set()
        while frontier:
            w = frontier.pop()
            if w in component:
                continue
            component.add(w)
            venues = np.flatnonzero(n[w])
            frontier.extend(np.flatnonzero(n[:, venues].any(axis=1)).tolist())
        unseen -= component
        found.append(frozenset(component))
    return tuple(found)


def stationary_extended(counts, d: float) -> np.ndarray:
    """Stationary group vector in ``np.longdouble``, by state elimination.

    Forms the reduced matrix d R + (1 - d) 1 t from the integer counts in
    extended precision, then eliminates states as GTH does. Where
    ``longdouble`` is the 80-bit format this is about 2000 times more
    precise than float64, enough to judge the last bits of a float64 solve.
    """
    ld = np.longdouble
    n = dense_counts(counts).astype(ld)
    volume = n / n.sum(axis=1, keepdims=True)
    alpha = (n / n.sum(axis=0, keepdims=True)).T
    breadth = counts.d_venue.astype(ld) / ld(int(counts.d_venue.sum()))
    p = ld(d) * (volume @ alpha) + (ld(1) - ld(d)) * (breadth @ alpha)[np.newaxis, :]
    for k in range(p.shape[0] - 1, 0, -1):
        p[:k, k] /= p[k, :k].sum()
        p[:k, :k] += np.outer(p[:k, k], p[k, :k])
    gamma = np.zeros(p.shape[0], dtype=ld)
    gamma[0] = 1
    for k in range(1, p.shape[0]):
        gamma[k] = gamma[:k] @ p[:k, k]
    return gamma / gamma.sum()


def count_records(records, reference_groups):
    """Record-based reference for the one-pass ingest.

    Keeps every surviving record as an object, as ingestion once did:
    drop records outside the reference groups, drop repeats of a (paper
    key, group) pair, sort the venues by (folded, first surviving
    spelling), then count papers per cell and distinct folded author names
    per venue. Returns (groups, venues, n_group_venue, d_venue, dropped,
    merged).
    """
    def norm(name):
        return " ".join(name.split())

    groups = [norm(g) for g in reference_groups]
    row_of = {g.casefold(): w for w, g in enumerate(groups)}
    survivors, seen, shown = [], set(), {}
    dropped = merged = 0
    for rec in records:
        w = row_of.get(norm(rec.group).casefold())
        if w is None:
            dropped += 1
            continue
        if rec.paper_id is not None:
            key = ("id", rec.paper_id)
        elif rec.title is not None and norm(rec.title):
            key = ("title", norm(rec.title).casefold())
        else:
            key = None
        if key is not None:
            if (key, w) in seen:
                merged += 1
                continue
            seen.add((key, w))
        shown.setdefault(norm(rec.venue).casefold(), norm(rec.venue))
        survivors.append((w, norm(rec.venue).casefold(), rec.authors))

    venues = sorted(shown.values(), key=lambda v: (v.casefold(), v))
    col_of = {v.casefold(): j for j, v in enumerate(venues)}
    matrix = np.zeros((len(groups), len(venues)), dtype=np.int64)
    authors_at = [set() for _ in venues]
    for w, venue, authors in survivors:
        matrix[w, col_of[venue]] += 1
        authors_at[col_of[venue]].update(norm(a).casefold() for a in authors if norm(a))
    d_venue = np.array([len(s) for s in authors_at], dtype=np.int64)
    return tuple(groups), tuple(venues), matrix, d_venue, dropped, merged


def filter_by_year(records, start=None, end=None):
    """Keep records whose year lies in the inclusive range [start, end].

    Records without a year are excluded whenever a bound is given, since
    their membership in the window cannot be established; the exclusion
    count is logged as a warning, worded as ``ingest`` words it.
    """
    records = list(records)
    if start is None and end is None:
        return records
    undated = sum(1 for rec in records if rec.year is None)
    if undated:
        log.warning("year filter excluded %d record(s) without a year", undated)
    return [
        rec for rec in records
        if rec.year is not None and (start is None or rec.year >= start) and (end is None or rec.year <= end)
    ]


class Record(NamedTuple):
    """One parsed publication record, with whitespace-normalized names."""

    group: str
    authors: tuple
    venue: str
    paper_id: str | None = None
    title: str | None = None
    year: int | None = None


def _name(value, field, lineno):
    if value is None:
        raise ValidationError(f"missing required field '{field}'", line=lineno, field=field)
    if not isinstance(value, str):
        raise ValidationError(f"field '{field}' must be a string", line=lineno, field=field)
    if not _norm(value):
        raise ValidationError(f"field '{field}' is empty", line=lineno, field=field)
    return _norm(value)


def _authors(value, lineno):
    """The listed author names, for a record and a per-paper author line alike."""
    if value is None:
        raise ValidationError("missing required field 'authors'", line=lineno, field="authors")
    if not isinstance(value, list) or not all(isinstance(a, str) for a in value):
        raise ValidationError("field 'authors' must be an array of strings", line=lineno, field="authors")
    names = tuple(_norm(a) for a in value if _norm(a))
    if not names:
        raise ValidationError("field 'authors' is empty", line=lineno, field="authors")
    return names


def _record(lineno, paper_id, authors, group, venue, title, year):
    """Check the fields in the order ``ingest`` reports them: authors, group, venue, title, year."""
    names = _authors(authors, lineno)
    group, venue = _name(group, "group", lineno), _name(venue, "venue", lineno)
    if title is not None and not isinstance(title, str):
        raise ValidationError("field 'title' must be a string", line=lineno, field="title")
    if year == "":
        year = None
    elif isinstance(year, bool):
        raise ValidationError("field 'year' must be an integer", line=lineno, field="year")
    elif year is not None and not isinstance(year, int):
        try:
            year = int(year.strip())
        except (AttributeError, ValueError):
            raise ValidationError(f"field 'year' must be an integer, got {year!r}", line=lineno, field="year") from None
    return Record(group, names, venue, paper_id, _norm(title) or None if title is not None else None, year)


def _jsonl_records(text):
    for lineno, obj in jsonl_objects(text):
        paper_id = obj.get("id")
        if isinstance(paper_id, int) and not isinstance(paper_id, bool):
            paper_id = str(paper_id)
        if paper_id is not None and not isinstance(paper_id, str):
            raise ValidationError("field 'id' must be a string", line=lineno, field="id")
        yield _record(lineno, paper_id and paper_id.strip() or None, obj.get("authors"),
                      obj.get("group"), obj.get("venue"), obj.get("title"), obj.get("year"))


def _csv_records(text):
    reader = csv.DictReader(text)
    if reader.fieldnames is None:
        return
    missing = [c for c in CSV_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise ParseError(f"header is missing column(s): {', '.join(missing)}", line=reader.line_num)
    for row in reader:
        lineno = reader.line_num
        if None in row:
            raise ParseError("row has more fields than the header", line=lineno)
        if row["authors"] is None or not row["authors"].strip():
            raise ValidationError("missing required field 'authors'", line=lineno, field="authors")
        yield _record(lineno, (row["id"] or "").strip() or None, row["authors"].split(AUTHOR_SEP),
                      row["group"] or None, row["venue"] or None, row["title"] or None, row["year"])


def parse_records(text, format):
    """Publication records from a JSONL or CSV text stream, in input order."""
    if format == "jsonl":
        return list(_jsonl_records(text))
    if format == "csv":
        return list(_csv_records(text))
    raise ValidationError(f"unknown record format {format!r}; expected 'jsonl' or 'csv'")


def serialize_records(records, format):
    """Serialize records so that re-parsing yields an identical list."""
    records = list(records)
    if format == "jsonl":
        lines = []
        for rec in records:
            obj = {}
            if rec.paper_id is not None:
                obj["id"] = rec.paper_id
            if rec.title is not None:
                obj["title"] = rec.title
            obj["group"] = rec.group
            obj["authors"] = list(rec.authors)
            obj["venue"] = rec.venue
            if rec.year is not None:
                obj["year"] = rec.year
            lines.append(json.dumps(obj, ensure_ascii=False))
        return "".join(line + "\n" for line in lines)
    if format != "csv":
        raise ValidationError(f"unknown record format {format!r}; expected 'jsonl' or 'csv'")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        for a in rec.authors:
            if AUTHOR_SEP in a:
                raise ValidationError(
                    f"author name {a!r} contains {AUTHOR_SEP!r}, which CSV cannot represent; use JSONL"
                )
        writer.writerow([
            rec.paper_id or "",
            rec.title or "",
            rec.group,
            AUTHOR_SEP.join(rec.authors),
            rec.venue,
            rec.year if rec.year is not None else "",
        ])
    return buf.getvalue()


def _norm(name):
    return " ".join(name.split())


def jsonl_objects(text):
    """(line number, object) per nonblank line, each decoded by ``json.loads``."""
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


def load_author_pubs(text):
    """Author publication lists from a JSONL text stream, one name lookup per mention.

    A per-paper line credits each distinct folded author once.
    """
    author_display, venue_display, pubs = {}, {}, {}

    def add(author, venue, count, lineno):
        a, v = _name(author, "author", lineno), _name(venue, "venue", lineno)
        a = author_display.setdefault(a.casefold(), a)
        v = venue_display.setdefault(v.casefold(), v)
        per_author = pubs.setdefault(a, {})
        per_author[v] = per_author.get(v, 0) + count
        if per_author[v] > 2**53:
            raise ValidationError(f"total 'count' for {a!r} at {v!r} must lie in [1, 2**53], got {per_author[v]}",
                                  line=lineno, field="count")

    for lineno, obj in jsonl_objects(text):
        if "count" in obj or "author" in obj:
            count = obj.get("count")
            if isinstance(count, bool) or not isinstance(count, int):
                raise ValidationError(f"'count' must be an integer, got {count!r}", line=lineno, field="count")
            if not 1 <= count <= 2**53:
                raise ValidationError(f"'count' must lie in [1, 2**53], got {count}", line=lineno, field="count")
            add(obj.get("author"), obj.get("venue"), count, lineno)
        elif "authors" in obj:
            credited = set()
            for author in _authors(obj.get("authors"), lineno):  # the records' rule, then the venue
                add(author, obj.get("venue"), 0 if author.casefold() in credited else 1, lineno)  # a repeat adds 0
                credited.add(author.casefold())
        else:
            raise ParseError("expected author/venue/count or authors/venue keys", line=lineno)
    if not pubs:
        raise ValidationError("author publication file holds no entries")
    return pubs


def _check_count(count, author):
    what = f"publication count for author {author!r}"
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {count!r}", field="count")
    if not 0 <= count <= 2**53:
        raise ValidationError(f"{what} must lie in [0, 2**53], got {count}", field="count")
    return int(count)


def rank_authors(author_pub_lists, nu):
    """(rank, name, score) rows, under the competition rule on 6-decimal scores."""
    if not author_pub_lists:
        raise DegenerateInputError("no authors to rank")
    smap = {n.casefold(): float(x) for n, x in zip(nu.names, nu.scores)}
    names, totals, unknown = [], [], set()
    for author, pubs in author_pub_lists.items():
        _name(author, "author", None)
        if not isinstance(pubs, Mapping):
            raise ValidationError(f"author {author!r} must map venues to counts, got {type(pubs).__name__}")
        total = 0.0
        for venue, count in pubs.items():
            count = _check_count(count, author)
            weight = smap.get(_name(venue, "venue", None).casefold())
            if weight is None:
                if count:
                    unknown.add(venue)
                continue
            total += weight * count
        names.append(author)
        totals.append(total)
    if unknown:
        log.warning(
            "%d venue(s) outside the scored set were ignored: %s",
            len(unknown), ", ".join(sorted(unknown, key=str.casefold)),
        )
    top = max(totals)
    if top <= 0.0:
        raise DegenerateInputError("every author scored zero; nothing to rank against")
    values = [t / top for t in totals]
    order = sorted(range(len(names)), key=lambda i: (-round(values[i], 6), names[i].casefold(), names[i]))
    rows, prev_printed, prev_rank = [], None, 0
    for position, i in enumerate(order, start=1):
        printed = round(values[i], 6)
        rank = prev_rank if printed == prev_printed else position
        rows.append((rank, names[i], values[i]))
        prev_printed, prev_rank = printed, rank
    return rows


def ranking_to_tsv(ranking, comments=()):
    lines = [f"# {c}" for c in comments]
    lines.append("rank\tname\tscore")
    for entry in ranking.entries:
        lines.append(f"{entry.rank}\t{entry.name}\t{entry.score:.6f}")
    return "".join(line + "\n" for line in lines)


def venue_report_tsv(nu_raw, nu_max_one, d):
    lines = ["# pscore venues", f"# d = {d!r}", "venue\traw_score\tnormalized_score"]
    for name, raw, norm in zip(nu_raw.names, nu_raw.scores, nu_max_one):
        lines.append(f"{name}\t{format(raw, '.12g')}\t{format(norm, '.12g')}")
    return "".join(line + "\n" for line in lines)
