"""The author path against the oracle in ``tests/oracles.py``.

Hypothesis writes small author-publication files in both line shapes, with
case and whitespace variants of every name, unscored venues, repeated
authors on a per-paper line, ill-typed and unhashable fields, and
malformed lines. ``load_author_pubs``, reading the file as bytes in 2-4
ranges, and ``rank_authors`` must agree with ``oracles.load_author_pubs``
and ``oracles.rank_authors`` on the dict (key order included at both
levels), bit for bit on the scores, on the warnings, and on the error
class, line, field and message.
"""

import io
import json
import logging
import sys
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from pscore import PScoreError, ScoreVector, cli, rank_authors, scoring
from pscore.records import load_author_pubs
from conftest import DATA_DIR, binary_file, split_reads
from test_ingest import Warnings, spelling

SCORED = ["SIGIR", "Venue X", "kdd"]
UNSCORED = ["offbook"]
AUTHORS = ["Ana Silva", "Bo Costa", "dee"]
BAD_NAMES = [None, 1, True, "", "  ", ["kdd"], {"name": "kdd"}]
BAD_COUNTS = [0, -1, True, 2.0, "2", None, [1], 2**53 + 1, 10**399]
MALFORMED = [
    "{oops",
    "[1]",
    '{"venue": "kdd"}',
    '{"author": "dee", "venue": "kdd", "count": 1} x',
    '  {"author": "dee", "venue": "kdd", "count": 1}\t',
    "",
    " \t",
]


def sometimes_bad(good, bad):
    return st.integers(0, 15).flatmap(lambda k: st.sampled_from(bad) if k == 0 else good)


@st.composite
def line(draw):
    shape = draw(st.integers(0, 12))
    venue = sometimes_bad(spelling(SCORED + UNSCORED), BAD_NAMES)
    if shape == 0:
        return draw(st.sampled_from(MALFORMED))
    if shape <= 6:
        obj = {
            "author": draw(sometimes_bad(spelling(AUTHORS), BAD_NAMES)),
            "venue": draw(venue),
            "count": draw(sometimes_bad(st.integers(1, 4), BAD_COUNTS)),
        }
    else:
        authors = st.lists(sometimes_bad(spelling(AUTHORS), BAD_NAMES), max_size=4)
        obj = {"authors": draw(sometimes_bad(authors, [None, "Ana Silva"])), "venue": draw(venue)}
    for key in list(obj):
        if draw(st.integers(0, 20)) == 0:
            del obj[key]
    return json.dumps(obj)


def pub_file(lines, crlf):
    end = "\r\n" if crlf else "\n"
    return "".join(text + end for text in lines)


def score_vector(weights):
    raw = np.asarray(weights, dtype=np.float64)
    return ScoreVector(SCORED, raw / raw.sum())


def outcome(run):
    """What a run produced: its result and warnings, or its error."""
    handler = Warnings()
    logger = logging.getLogger()
    logger.addHandler(handler)
    try:
        return "ok", run(), handler.messages
    except PScoreError as exc:
        error = (type(exc), getattr(exc, "line", None), getattr(exc, "field", None), str(exc))
        return "error", error, handler.messages
    finally:
        logger.removeHandler(handler)


def as_rows(ranking):
    return [(e.rank, e.name, e.score.hex()) for e in ranking.entries]


def by_library(text, nu):
    with binary_file(text.encode()) as fh:
        pubs = load_author_pubs(fh)
    return [(a, list(v.items())) for a, v in pubs.items()], as_rows(rank_authors(pubs, nu))


def by_oracle(text, nu):
    pubs = oracles.load_author_pubs(io.StringIO(text, newline=""))
    rows = [(rank, name, score.hex()) for rank, name, score in oracles.rank_authors(pubs, nu)]
    return [(a, list(v.items())) for a, v in pubs.items()], rows


WEIGHTS = st.lists(st.floats(0.01, 1.0), min_size=len(SCORED), max_size=len(SCORED))


@settings(max_examples=300, deadline=None)
@given(st.lists(line(), min_size=1, max_size=20), st.booleans(), WEIGHTS)
# a bad venue after the same good one was memoized
@example(['{"author": "dee", "venue": "kdd", "count": 1}',
          '{"author": "dee", "venue": ["kdd"], "count": 1}'], False, [1.0, 1.0, 1.0])
@example(['{"authors": ["dee"], "venue": "kdd"}', '{"authors": ["dee"], "venue": " "}'],
         False, [1.0, 1.0, 1.0])
# counts past 2**53, alone and in a sum
@example(['{"author": "dee", "venue": "kdd", "count": 1%s}' % ("0" * 399)], False, [1.0, 1.0, 1.0])
@example(['{"author": "dee", "venue": "kdd", "count": 4503599627370496}'] * 3, False, [1.0, 1.0, 1.0])
# unhashable author and venue fields
@example(['{"author": ["dee"], "venue": "kdd", "count": 1}'], False, [1.0, 1.0, 1.0])
@example(['{"authors": ["dee", {"a": 1}], "venue": "kdd"}'], False, [1.0, 1.0, 1.0])
@example(['{"authors": ["dee"], "venue": {"a": 1}}'], False, [1.0, 1.0, 1.0])
# a repeated author, then a bad one, on a per-paper line
@example(['{"authors": ["Dee", "dee ", 7], "venue": "kdd"}'], False, [1.0, 1.0, 1.0])
def author_path_matches_oracle(lines, crlf, weights):
    text, nu = pub_file(lines, crlf), score_vector(weights)
    assert outcome(lambda: by_library(text, nu)) == outcome(lambda: by_oracle(text, nu))


def test_author_path_matches_oracle():
    # files are read in 2-4 ranges, as a large file is on a machine with that many CPUs
    with split_reads() as forked:
        author_path_matches_oracle()
    assert forked


COUNTS = st.one_of(st.integers(-2, 5), st.integers(0, 5).map(np.int64),
                   st.sampled_from([True, 1.0, "1", 2**53, 2**53 + 1, np.int64(2**53 + 1), 10**399]))
PUB_LISTS = st.dictionaries(
    spelling(AUTHORS),
    st.one_of(
        st.dictionaries(sometimes_bad(spelling(SCORED + UNSCORED), [None, 1, "", "  "]), COUNTS, max_size=4),
        st.lists(st.tuples(sometimes_bad(spelling(SCORED + UNSCORED), BAD_NAMES), COUNTS), max_size=4),
    ),
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(PUB_LISTS, WEIGHTS)
def test_rank_authors_matches_oracle_on_library_input(pub_lists, weights):
    nu = score_vector(weights)
    library = outcome(lambda: as_rows(rank_authors(pub_lists, nu)))
    oracle = outcome(lambda: [(r, n, s.hex()) for r, n, s in oracles.rank_authors(pub_lists, nu)])
    assert library == oracle


def test_per_paper_line_credits_a_repeated_author_once():
    pubs = load_author_pubs(io.StringIO('{"authors": ["Ana", "ana ", "Bo"], "venue": "v1"}\n'))
    assert pubs == {"Ana": {"v1": 1}, "Bo": {"v1": 1}}
    assert list(pubs) == ["Ana", "Bo"]


def test_repeated_author_still_counts_once_per_line():
    text = (
        '{"authors": ["Ana", "ANA"], "venue": "v1"}\n'
        '{"authors": ["ana"], "venue": "V1"}\n'
        '{"author": " Ana", "venue": "v1", "count": 2}\n'
    )
    assert load_author_pubs(io.StringIO(text)) == {"Ana": {"v1": 4}}


ARGUMENTS_MOVE = pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 the caller's frame holds a "
                                    "call's arguments until the call returns, so a temporary outlives the ranking")


class Pubs(dict):
    """A dict a weakref can point at."""


def freed_before_ranking(monkeypatch, run):
    """Whether every mapping ``run(temporary)`` passes on, each made by ``temporary(pubs)``, is gone when
    ``make_ranking`` starts; and ``run``'s result."""
    refs, dead = [], []
    make_ranking = scoring.make_ranking

    def ranking(names, scores):
        dead.append(all(ref() is None for ref in refs))
        return make_ranking(names, scores)

    def temporary(pubs):
        pubs = Pubs(pubs)
        refs.append(weakref.ref(pubs))
        return pubs

    monkeypatch.setattr(scoring, "make_ranking", ranking)
    result = run(temporary)
    return bool(refs) and dead == [True], result


@ARGUMENTS_MOVE
def test_rank_authors_frees_a_temporary_mapping_before_ranking(monkeypatch):
    nu = score_vector([1.0, 1.0, 1.0])
    freed, ranking = freed_before_ranking(
        monkeypatch, lambda temporary: rank_authors(temporary({"Ana": {"kdd": 2}, "Bo": {"SIGIR": 1}}), nu))
    assert freed and [(e.rank, e.name) for e in ranking.entries] == [(1, "Ana"), (2, "Bo")]


@ARGUMENTS_MOVE
def test_the_authors_command_frees_the_author_lists_before_ranking(monkeypatch, tmp_path):
    load = cli.load_author_pubs

    def run(temporary):
        monkeypatch.setattr(cli, "load_author_pubs", lambda fh: temporary(load(fh)))
        return cli.main(["authors", "--venue-scores", str(DATA_DIR / "reports" / "golden.venues.tsv"),
                         "--author-pubs", str(DATA_DIR / "golden_author_pubs.jsonl"), "-o", str(tmp_path / "out")])

    assert freed_before_ranking(monkeypatch, run) == (True, 0)
    assert (tmp_path / "out").read_bytes() == (DATA_DIR / "reports" / "golden.authors.tsv").read_bytes()
