"""Independent references, used only to cross-check pscore.

Neither solver shares code with ``pscore.solver``: power iteration repeats
gamma <- gamma @ P from the uniform vector, and the LAPACK solve replaces
one equation of gamma (I - P) = 0 by sum(gamma) = 1. ``count_records``
counts a list of parsed records the way ingestion did before it became a
single pass over integer ids, sharing no code with ``pscore.records``.
"""

from __future__ import annotations

import numpy as np

from pscore import ConvergenceError, StationaryDistribution


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
