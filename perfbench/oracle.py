"""Expected reports computed apart from pscore, and the checks on them.

The oracle builds the two chain blocks from the generator's tallies and
solves the stationary equation gamma (I - P) = 0, sum(gamma) = 1 with a
LAPACK linear solve, a different method from the program's GTH state
elimination. Report checks compare printed values with the oracle and
test properties every correct report has; none compares with a stored
copy of an earlier output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from gen import AuthorInputs, RecordTally, fold, tally_records

# Relative disagreement allowed between the oracle and the program before
# rounding to the printed digits: a printed value must be the rounding of
# the oracle's value moved by at most this share. Measured disagreement is
# about 4e-15 on venue scores at 50 groups and 1e-12 on group scores at
# 1000 groups; both shares stay far below one unit of the last printed
# digit, so a changed last digit is always caught.
VENUE_REL = 1e-13
RANK_REL = 1e-10
D_DEFAULT = 0.5


class CheckError(Exception):
    """A report failed a correctness check."""


def solve_chain(n: np.ndarray, breadth_counts: np.ndarray, d: float):
    """Return (gamma, nu) for counts ``n`` (T x V) and author counts D."""
    alpha = (n / n.sum(axis=0)).T
    beta = d * n / n.sum(axis=1)[:, None] + (1.0 - d) * breadth_counts / breadth_counts.sum()
    p = beta @ alpha
    t = p.shape[0]
    a = (np.eye(t) - p).T
    a[-1, :] = 1.0
    b = np.zeros(t)
    b[-1] = 1.0
    gamma = np.linalg.solve(a, b)
    return gamma, gamma @ beta


def tally_arrays(tally: RecordTally, overrides: dict[str, int] | None = None):
    n = np.zeros((len(tally.groups), len(tally.venues)))
    for (w, j), c in tally.n.items():
        n[w, j] = c
    counts = np.array([len(s) for s in tally.authors], dtype=float)
    for j, name in enumerate(tally.venues):
        if overrides and fold(name) in overrides:
            counts[j] = overrides[fold(name)]
    return n, counts


def check_worked_example(root: Path) -> None:
    """Reproduce the paper's worked example (tests/data, d = 1/3) to 3 decimals."""
    data = root / "tests" / "data"
    objs = [json.loads(line) for line in (data / "golden_records.jsonl").read_text().splitlines() if line.strip()]
    groups = [g for g in (data / "golden_groups.txt").read_text().splitlines() if g.strip()]
    overrides = {}
    for row in (data / "golden_author_counts.csv").read_text().splitlines()[1:]:
        venue, count = row.split(",")
        overrides[fold(venue)] = int(count)
    gamma, nu = solve_chain(*tally_arrays(tally_records(objs, groups), overrides), 1.0 / 3.0)
    want_gamma = [38 / 99, 61 / 99]
    want_nu = [25 / 132, 1051 / 1782, 787 / 3564]
    if np.round(gamma, 3).tolist() != np.round(want_gamma, 3).tolist() or \
            np.round(nu, 3).tolist() != np.round(want_nu, 3).tolist():
        raise CheckError(f"oracle misses the worked example: gamma {gamma}, nu {nu}")


def expected_venues(tally: RecordTally, d: float = D_DEFAULT):
    """Venue rows in report order: (name, raw score, normalized score)."""
    gamma, nu = solve_chain(*tally_arrays(tally), d)
    return sorted(zip(tally.venues, nu, nu / nu.max()), key=lambda r: (fold(r[0]), r[0]))


def expected_groups(tally: RecordTally, d: float = D_DEFAULT) -> dict[str, float]:
    gamma, _ = solve_chain(*tally_arrays(tally), d)
    return dict(zip(tally.groups, gamma))


def expected_authors(inputs: AuthorInputs) -> dict[str, float]:
    """R(a) = S_a / max S with S_a summed over the scored venues only."""
    totals = [
        math.fsum(inputs.raw[v] * c for v, c in per.items() if v in inputs.raw)
        for per in inputs.credits
    ]
    top = max(totals)
    return {name: s / top for name, s in zip(inputs.display, totals)}


def _printable(value: float, spec: str, rel: float) -> set[str]:
    """Every printed form of ``value`` moved by at most ``rel`` of itself."""
    shift = abs(value) * rel
    return {format(v, spec) for v in (value - shift, value, value + shift)}


def _rows(text: str, header: str) -> list[list[str]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines or lines[0] != header:
        raise CheckError(f"report header is {lines[:1]!r}, expected {header!r}")
    return [line.split("\t") for line in lines[1:]]


def check_venues(text: str, rows_expected) -> None:
    rows = _rows(text, "venue\traw_score\tnormalized_score")
    names = [r[0] for r in rows]
    want = [r[0] for r in rows_expected]
    if names != want:
        raise CheckError("venue set or order differs from the generator's")
    for (name, raw, normalized), (_, o_raw, o_norm) in zip(rows, rows_expected):
        if raw not in _printable(o_raw, ".12g", VENUE_REL):
            raise CheckError(f"venue {name}: raw score {raw}, oracle {float(o_raw)!r}")
        if normalized not in _printable(o_norm, ".12g", VENUE_REL):
            raise CheckError(f"venue {name}: normalized score {normalized}, oracle {float(o_norm)!r}")
    total = math.fsum(float(r[1]) for r in rows)
    if abs(total - 1.0) > 1e-10:
        raise CheckError(f"raw venue scores sum to {total!r}")
    if max(float(r[2]) for r in rows) != 1.0:
        raise CheckError("largest normalized venue score is not exactly 1")


def check_ranking(text: str, expected: dict[str, float]) -> None:
    """Scores match the oracle at 6 decimals and never increase down the list.

    Ranks are checked only for consistency: each is its position, or the
    previous row's rank when both print the same score.
    """
    rows = _rows(text, "rank\tname\tscore")
    if sorted(r[1] for r in rows) != sorted(expected) or len(rows) != len(expected):
        raise CheckError("ranked names differ from the generator's")
    previous = None
    for position, (rank, name, score) in enumerate(rows, start=1):
        if score not in _printable(expected[name], ".6f", RANK_REL):
            raise CheckError(f"{name}: score {score}, oracle {float(expected[name])!r}")
        value = float(score)
        if previous is not None and value > previous[1]:
            raise CheckError(f"score rises at row {position}")
        if int(rank) != position and not (previous and int(rank) == previous[0] and score == previous[2]):
            raise CheckError(f"rank {rank} at row {position} is neither its position nor a tie")
        previous = (int(rank), value, score)
