"""Seeded input generator for the pscore benchmark.

Writes the files one workload feeds to the ``pscore`` CLI and keeps its own
tallies of what it wrote, so the oracle can compute the expected reports
without calling ``pscore``. The same seed gives byte-identical files.

The inputs carry what real publication lists carry: records from groups
outside the reference set, duplicate records of one paper within a group,
papers shared by two reference groups (counted once for each), case and
whitespace variants of group, venue and author names, authors publishing
with several groups, and Zipf-like venue popularity.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# (reference groups, foreign groups, venues, papers); see README.md
RECORD_SIZES = {
    "ingest": (50, 10, 1500, 80_000),
    "solve": (1000, 40, 500, 22_000),
}
# (scored venues, unscored venues, authors, lines)
AUTHOR_SIZES = (600, 60, 40_000, 150_000)

ZIPF_S = 1.1
SHARE_P = 0.08      # paper coauthored with a second reference group
DUP_P = 0.05        # paper listed twice by the same group
FOREIGN_P = 0.10    # paper from a group outside the reference set
SHARED_AUTHOR_P = 0.15  # author drawn from the cross-group pool


def norm(name: str) -> str:
    return " ".join(name.split())


def fold(name: str) -> str:
    return norm(name).casefold()


def variant(rng: random.Random, name: str) -> str:
    """A spelling of ``name`` that folds to the same key."""
    r = rng.random()
    if r < 0.80:
        return name
    if r < 0.86:
        return name.upper()
    if r < 0.92:
        return name.lower()
    if r < 0.96:
        return "  " + name.replace(" ", "  ")
    return name.replace(" ", " \t") + " "


def zipf_weights(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** ZIPF_S
    return w / w.sum()


@dataclass
class RecordTally:
    """What the program should see after filtering and deduplication."""

    groups: list[str]
    venues: list[str] = field(default_factory=list)       # first-seen display
    n: dict[tuple[int, int], int] = field(default_factory=dict)  # (w, j) -> papers
    authors: list[set[str]] = field(default_factory=list)  # per venue, folded


def tally_records(lines, reference_groups: list[str]) -> RecordTally:
    """Distinct (paper, group) counts and distinct authors per venue.

    ``lines`` are the record objects in file order. A record survives when
    its folded group is a reference group and its (paper id, group) pair
    was not seen before; venue display names are the first surviving
    spelling.
    """
    groups = [norm(g) for g in reference_groups]
    gidx = {fold(g): w for w, g in enumerate(groups)}
    tally = RecordTally(groups=groups)
    vidx: dict[str, int] = {}
    seen: set[tuple[str, int]] = set()
    for obj in lines:
        w = gidx.get(fold(obj["group"]))
        if w is None:
            continue
        key = (obj["id"], w)
        if key in seen:
            continue
        seen.add(key)
        vkey = fold(obj["venue"])
        j = vidx.get(vkey)
        if j is None:
            j = vidx[vkey] = len(tally.venues)
            tally.venues.append(norm(obj["venue"]))
            tally.authors.append(set())
        tally.n[(w, j)] = tally.n.get((w, j), 0) + 1
        tally.authors[j].update(fold(a) for a in obj["authors"])
    return tally


@dataclass
class RecordInputs:
    records: Path
    groups_file: Path
    lines: int
    tally: RecordTally


def make_records(workload: str, seed: int, outdir: Path) -> RecordInputs:
    n_groups, n_foreign, n_venues, n_papers = RECORD_SIZES[workload]
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    groups = [f"Group {w:04d}" for w in range(n_groups)]
    foreign = [f"Outside Lab {k:03d}" for k in range(n_foreign)]
    venue_names = [f"Venue {j:04d}" for j in range(n_venues)]
    venue_of = nrng.choice(n_venues, size=n_papers, p=zipf_weights(n_venues))
    first, last = "Ana Bo Cai Dee Eli Fay Gus Hal Ivo Jun".split(), "Silva Costa Braga Dias".split()

    def person(pool: str, k: int) -> str:
        return f"{first[k % 10]} {last[(k // 10) % 4]} {pool}{k}"

    def authors_for(w: int) -> list[str]:
        picked = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < SHARED_AUTHOR_P:
                picked.append(person("X", rng.randrange(5 * n_groups)))
            else:
                picked.append(person(f"G{w}-", rng.randrange(12)))
        return list(dict.fromkeys(picked))

    objs = []
    for p in range(n_papers):
        # the first n_groups papers give every reference group a publication
        owner = p if p < n_groups else rng.randrange(n_groups)
        authors = authors_for(owner)
        base = {"id": f"P{p:07d}", "title": f"Paper {p}", "venue": venue_names[venue_of[p]],
                "year": 2000 + rng.randrange(20)}
        if p >= n_groups and rng.random() < FOREIGN_P:
            owners = [foreign[rng.randrange(n_foreign)]]
        else:
            owners = [groups[owner]]
            if rng.random() < SHARE_P:
                owners.append(groups[(owner + 1 + rng.randrange(n_groups - 1)) % n_groups])
        copies = 2 if rng.random() < DUP_P else 1
        for g in owners:
            for _ in range(copies):
                objs.append(dict(base, group=variant(rng, g), venue=variant(rng, base["venue"]),
                                 authors=[variant(rng, a) for a in authors]))
    rng.shuffle(objs)

    records = outdir / "records.jsonl"
    with open(records, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")
    groups_file = outdir / "groups.txt"
    groups_file.write_text("".join(g + "\n" for g in groups), encoding="utf-8")
    return RecordInputs(records, groups_file, len(objs), tally_records(objs, groups))


@dataclass
class AuthorInputs:
    venue_scores: Path
    author_pubs: Path
    lines: int
    raw: dict[str, float]                       # folded scored venue -> raw score
    display: list[str]                          # author display names, first seen
    credits: list[dict[str, int]] = field(default_factory=list)  # per author


def make_authors(seed: int, outdir: Path) -> AuthorInputs:
    n_scored, n_unscored, n_authors, n_lines = AUTHOR_SIZES
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    venues = [f"Venue {j:04d}" for j in range(n_scored + n_unscored)]
    order = nrng.permutation(n_scored + n_unscored)
    weights = nrng.pareto(1.5, size=n_scored) + 0.01
    raw_scores = weights / weights.sum()

    lines = ["# pscore venues", "# d = 0.5", "venue\traw_score\tnormalized_score"]
    raw: dict[str, float] = {}
    for j in range(n_scored):
        text = format(float(raw_scores[j]), ".17g")
        raw[fold(venues[j])] = float(text)
        lines.append(f"{venues[j]}\t{text}\t{format(raw_scores[j] / raw_scores.max(), '.12g')}")
    venue_scores = outdir / "venues.tsv"
    venue_scores.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    popularity = zipf_weights(n_scored + n_unscored)
    venue_of = nrng.choice(order, size=n_lines, p=popularity)
    names = [f"Author {k:06d}" for k in range(n_authors)]
    author_w = zipf_weights(n_authors)
    index: dict[str, int] = {}
    out = AuthorInputs(venue_scores, outdir / "author_pubs.jsonl", n_lines, raw, [])

    def credit(name: str, venue: str, count: int) -> None:
        key = fold(name)
        a = index.get(key)
        if a is None:
            a = index[key] = len(out.display)
            out.display.append(norm(name))
            out.credits.append({})
        per = out.credits[a]
        per[fold(venue)] = per.get(fold(venue), 0) + count

    picks = nrng.choice(n_authors, size=(n_lines, 3), p=author_w)
    with open(out.author_pubs, "w", encoding="utf-8") as fh:
        for i in range(n_lines):
            venue = variant(rng, venues[venue_of[i]])
            if rng.random() < 0.5:
                name = variant(rng, names[picks[i, 0]])
                count = rng.randint(1, 5)
                fh.write(json.dumps({"author": name, "venue": venue, "count": count}) + "\n")
                credit(name, venue, count)
            else:
                team = [variant(rng, names[k]) for k in dict.fromkeys(picks[i, : rng.randint(1, 3)])]
                fh.write(json.dumps({"authors": team, "venue": venue}) + "\n")
                for name in team:
                    credit(name, venue, 1)
    return out
