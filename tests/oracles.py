"""Independent references, used only to cross-check pscore.

None of the solvers shares code with ``pscore.solver``: power iteration
repeats gamma <- gamma @ P from the uniform vector, the LAPACK solve
replaces one equation of gamma (I - P) = 0 by sum(gamma) = 1, and
``stationary_extended`` eliminates states in ``np.longdouble``. ``count_records``
counts a list of parsed records the way ingestion did before it became a
single pass over integer ids, sharing no code with ``pscore.records``;
``filter_by_year`` is the year window it applies first. ``serialize_records``
writes records back out as JSONL or CSV for ``parse_records`` to read.
"""

from __future__ import annotations

import csv
import io
import json
import logging

import numpy as np

from pscore import PScoreError, StationaryDistribution, ValidationError
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


def stationary_extended(counts, d: float) -> np.ndarray:
    """Stationary group vector in ``np.longdouble``, by state elimination.

    Forms the reduced matrix d R + (1 - d) 1 t from the integer counts in
    extended precision, then eliminates states as GTH does. Where
    ``longdouble`` is the 80-bit format this is about 2000 times more
    precise than float64, enough to judge the last bits of a float64 solve.
    """
    ld = np.longdouble
    n = counts.n_group_venue.astype(ld)
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
