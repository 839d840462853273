"""A JSONL file read in line-aligned ranges, one per CPU, gives what a serial read gives.

Each case reads a temporary file split into ranges however small (see
``conftest.split_reads``) and the same bytes from memory, which a read
never splits, and compares the two, errors included: class, message, line
and field. Each case also checks that the file was split, and where, when
the case depends on it.
"""

import bisect
import errno
import io
import json
import logging
import os
import pickle
import threading
import time

import pytest

from conftest import binary_file, split_reads
from pscore import DatasetError, ParameterError, ParseError, PScoreError, ValidationError, ingest, records
from pscore.records import load_author_pubs

GROUPS = ["Group A", "Group B"]


def record(i, group="Group A", venue="venue", **fields):
    """A records line of one length for every i below 1000."""
    return json.dumps({"id": f"p{i:03d}", "group": group, "authors": [f"a{i % 7}"], "venue": venue, **fields})


def records_file(n, **lines):
    """``n`` records lines, alternating groups, with ``lines`` (line number -> text) in place of some."""
    text = [lines.get(f"line{k}", record(k, GROUPS[k % 2])) for k in range(1, n + 1)]
    return "".join(line + "\n" for line in text).encode()


def counts(stream, years=None):
    table = ingest(stream, "jsonl", GROUPS, years=years)
    return (table.group_names, table.venue_names, table.group.tolist(), table.venue.tolist(),
            table.n_group_venue.tolist(), table.d_venue.tolist(), table.dropped_foreign, table.dedup_merged)


def outcome(run):
    try:
        return run()
    except PScoreError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "field", None)


def split_and_serial(data, read, cpus=2):
    """What ``read`` gives on a file of ``data`` in up to ``cpus`` ranges, the workers forked, and the serial result."""
    with split_reads(cpus) as forked, binary_file(data) as fh:
        split = outcome(lambda: read(fh))
    return split, forked, outcome(lambda: read(io.BytesIO(data)))


def range_starts(data, cpus=2):
    """The line numbers that start the ranges of ``data``, in a file whose lines all end at \\n."""
    with split_reads(cpus), binary_file(data) as fh:
        return [data[:cut].count(b"\n") + 1 for cut in records._cuts(fh)[:-1]]


def reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    return True


def test_a_split_read_counts_what_a_serial_read_counts():
    data = records_file(40)
    assert range_starts(data, 4) == [1, 11, 21, 31]
    split, forked, serial = split_and_serial(data, counts, cpus=4)
    assert len(forked) == 3 and split == serial and reaped(forked)
    assert split[-2:] == (0, 0)


@pytest.mark.parametrize("cpus, bad, ranges", [(2, (3, 15), [0, 1]), (3, (12, 20), [1, 2])])
def test_the_first_error_wins_when_two_ranges_hold_one(cpus, bad, ranges):
    data = records_file(24, **{f"line{k}": '{"group": "Group A", "venue": "v"}' for k in bad})
    assert [bisect.bisect(range_starts(data, cpus), k) - 1 for k in bad] == ranges
    split, forked, serial = split_and_serial(data, counts, cpus)
    assert forked and split == serial and reaped(forked)
    assert serial[1:] == (f"line {bad[0]}: missing required field 'authors'", bad[0], "authors")


def test_an_error_only_in_a_later_range_carries_its_absolute_line():
    data = records_file(20, line17="{oops")
    assert range_starts(data) == [1, 11]
    split, forked, serial = split_and_serial(data, counts)
    assert forked and split == serial and reaped(forked)
    assert (serial[0], serial[2]) == (ParseError, 17)


def test_bad_utf8_in_a_later_range_is_named_at_its_line():
    data = records_file(20).replace(b'"p015"', b'"p\xff15"')
    split, forked, serial = split_and_serial(data, counts)
    assert forked and split == serial
    assert serial == (ParseError, "line 15: not UTF-8 text (invalid start byte)", 15, None)


def test_a_bom_is_stripped_only_at_the_start_of_the_input():
    data = records_file(20)
    split, forked, serial = split_and_serial(b"\xef\xbb\xbf" + data, counts)
    assert forked and split == serial == outcome(lambda: counts(io.BytesIO(data)))

    # a U+FEFF that starts a later range is data, as it is in the middle of a serial read
    data = records_file(20, line12="\ufeff" + record(12))
    assert 12 in range_starts(data)
    split, forked, serial = split_and_serial(data, counts)
    assert forked and split == serial
    assert (serial[0], serial[2]) == (ParseError, 12) and "BOM" in serial[1]


@pytest.mark.parametrize("ends", [[b"\r\n"], [b"\r", b"\n"], [b"\r"]], ids=["crlf", "cr-and-lf", "cr"])
@pytest.mark.parametrize("bad", [False, True])
def test_crlf_and_bare_cr_lines_read_as_in_a_serial_read(ends, bad):
    lines = records_file(20, line16="{oops" if bad else record(16)).split(b"\n")[:-1]
    data = b"".join(line + ends[k % len(ends)] for k, line in enumerate(lines))
    split, forked, serial = split_and_serial(data, counts)
    assert split == serial and reaped(forked)
    assert bool(forked) == (b"\n" in data)  # a file with no \n byte has nowhere to cut
    if bad:
        assert serial[2] == 16


def test_an_author_total_past_2_53_only_across_ranges_is_named_at_its_line():
    lines = [json.dumps({"author": f"a{k:03d}", "venue": "kdd", "count": 1}) for k in range(20)]
    lines[0] = json.dumps({"author": "dee", "venue": "kdd", "count": 2**52})
    lines[14] = json.dumps({"author": "Dee", "venue": "KDD", "count": 2**52 + 1})
    data = "".join(line + "\n" for line in lines).encode()
    assert 1 < range_starts(data)[1] <= 15
    split, forked, serial = split_and_serial(data, load_author_pubs)
    assert forked and split == serial and reaped(forked)
    assert serial[1:] == (f"line 15: total 'count' for 'dee' at 'kdd' must lie in [1, 2**53], got {2**53 + 1}",
                          15, "count")


def test_authors_and_venues_keep_their_first_place_and_spelling_across_ranges():
    lines = [json.dumps({"author": f"a{k:03d}", "venue": "v", "count": 1}) for k in range(20)]
    lines[3] = json.dumps({"authors": ["Dee", "bo"], "venue": "kdd"})
    lines[12] = json.dumps({"authors": ["DEE", "cy"], "venue": "KDD"})
    lines[15] = json.dumps({"author": "bo", "venue": "Sigir", "count": 2})
    data = "".join(line + "\n" for line in lines).encode()
    assert 4 < range_starts(data)[1] <= 13
    split, forked, serial = split_and_serial(data, lambda fh: list(load_author_pubs(fh).items()))
    assert forked and split == serial
    assert dict(split)["Dee"] == {"kdd": 2} and dict(split)["bo"] == {"kdd": 1, "Sigir": 2}


def credits_in_two_ranges(lines, cut):
    """What merging, in this process, the pickled credits of ``lines[cut:]`` into those of ``lines[:cut]``
    returns, and the authors' counts after it, key order kept at both levels."""
    def read(part):
        with records.text_stream(io.BytesIO("".join(line + "\n" for line in part).encode())) as text:
            return records._Credits().read(text)

    first = read(lines[:cut])
    merged = first.merge(pickle.loads(pickle.dumps(read(lines[cut:]), pickle.HIGHEST_PROTOCOL)))
    return merged, [(author, list(pubs.items())) for author, pubs in first.pubs.items()]


def test_credits_sent_flat_merge_as_a_serial_read_counts():
    lines = [json.dumps({"author": f"a{k % 6}", "venue": f"v{k % 4}", "count": k + 1}) for k in range(16)]
    lines[2] = json.dumps({"authors": ["Dee", "bo", "DEE"], "venue": "kdd"})
    lines[9] = json.dumps({"authors": ["dee ", "Cy"], "venue": "KDD"})
    lines[11] = json.dumps({"author": "BO", "venue": "Sigir", "count": 2})
    lines[13] = json.dumps({"author": "A0", "venue": "kdd", "count": 3})
    serial = [(author, list(pubs.items())) for author, pubs in load_author_pubs(
        io.BytesIO("".join(line + "\n" for line in lines).encode())).items()]
    for cut in range(len(lines) + 1):
        assert credits_in_two_ranges(lines, cut) == (True, serial)
    assert dict(serial)["Dee"] == [("kdd", 2)] and dict(serial)["a0"][-1] == ("kdd", 3)


def test_credits_sent_flat_refuse_a_total_past_2_53():
    lines = [json.dumps({"author": "dee", "venue": "kdd", "count": 2**52}),
             json.dumps({"author": "Dee", "venue": "KDD", "count": 2**52})]
    assert credits_in_two_ranges(lines, 1) == (True, [("dee", [("kdd", 2**53)])])
    lines.append(json.dumps({"authors": ["DEE"], "venue": "kdd"}))
    assert credits_in_two_ranges(lines, 1)[0] is False


def test_a_duplicate_across_ranges_leaves_no_venue_spelling():
    # p001 is kept in the first range at "other"; its copy starts the second range at "SIGIR" and is
    # merged, so that venue shows the spelling of the next record there. p005's copy at "SIGMA" is merged
    # too, and "sigma" keeps the spelling of the first range.
    data = records_file(20, line1=record(1, venue="other"), line11=record(1, venue="SIGIR"),
                        line14=record(14, "Group B", venue="Sigir"), line5=record(5, venue="sigma"),
                        line15=record(5, venue="SIGMA"))
    assert range_starts(data) == [1, 11]
    split, forked, serial = split_and_serial(data, counts)
    assert forked and split == serial
    assert split[1] == ("other", "Sigir", "sigma", "venue") and split[-1] == 2


@pytest.mark.parametrize("first, second, repeat", [
    ("a\u0000", "a", False), ("\ud800", "\ud800", True), ("\ud800", "\udc00", False),
    ("x" * 40, "x" * 40, True), ("\u00e9" * 20, "\u00e9" * 20, True), ("x" * 40, "x" * 39 + "y", False),
], ids=["nul", "surrogate", "two-surrogates", "long", "long-non-ascii", "long-different"])
def test_a_repeat_across_ranges_is_an_exact_key_match(monkeypatch, first, second, repeat):
    data = records_file(20, line3=record(3, id=first, venue="first"), line17=record(17, id=second, venue="second"))
    assert 3 < range_starts(data)[1] <= 17
    for key_hash in (hash, lambda key: 0):  # a worker forked with a hash that gives every key one code uses it too
        monkeypatch.setattr(records, "_key_hash", key_hash)
        split, forked, serial = split_and_serial(data, counts)
        assert forked and split == serial
        assert (split[-1], "second" in split[1]) == ((1, False) if repeat else (0, True))


def test_a_repeat_over_three_ranges_keeps_its_first_occurrence_and_spelling():
    # p015 first in the second range at "Sigma", then again in the third and fourth, where "SIGMA" and "sigma"
    # are merged; its copy in the other group, and the title-keyed paper with the same text as an id, are kept
    lines = {"line15": record(15, venue="Sigma"), "line25": record(15, venue="SIGMA"),
             "line35": record(15, venue="sigma"), "line36": record(15, "Group B", venue="sigma"),
             "line5": record(5, id=None, title="P015", venue="other")}
    data = records_file(40, **lines)
    assert range_starts(data, 4) == [1, 11, 21, 31]
    split, forked, serial = split_and_serial(data, counts, cpus=4)
    assert len(forked) == 3 and split == serial and reaped(forked)
    assert split[1] == ("other", "Sigma", "venue") and split[4] == [1, 1, 19, 1, 16] and split[-1] == 2


def test_a_year_window_counts_what_a_serial_read_counts(caplog):
    # on both sides of the cut: records dated in and out of 2003-2007, undated ones, a foreign group, a record
    # repeated in the window (p004, merged) and one whose first copy lies outside it (p001, kept)
    lines = {f"line{k}": record(k, GROUPS[k % 2], year=2000 + k % 10) for k in range(1, 21)}
    lines.update(line2=record(2, "Group C", year=2002), line6=record(6), line8=record(8, "Group C"),
                 line13=record(13, "Group C", year=2005), line15=record(15, "Group B"),
                 line17=record(4, year=2004), line19=record(1, "Group B", year=2005))
    data = records_file(20, **lines)
    assert range_starts(data) == [1, 12]

    def read(stream):
        caplog.clear()
        table = counts(stream, years=(2003, 2007))
        return table, [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]

    split, forked, serial = split_and_serial(data, read)
    assert forked and split == serial and reaped(forked)
    assert split[0][-2:] == (1, 1) and split[1] == ["year filter excluded 3 record(s) without a year"]


@pytest.mark.parametrize("groups, years, error", [
    ([], None, DatasetError), ("G1", None, ValidationError),
    (GROUPS, (2020, 2010), ParameterError), (GROUPS, (2020, "x"), ParameterError),
], ids=["no-groups", "string-groups", "reversed-years", "text-year"])
def test_a_bad_argument_is_refused_before_the_file_is_cut_or_read(groups, years, error):
    data = records_file(20)
    assert range_starts(data) == [1, 11]
    with split_reads(2) as forked, binary_file(data) as fh:
        split = outcome(lambda: ingest(fh, "jsonl", groups, years=years))
        assert forked == [] and fh.tell() == 0
    assert split[0] is error and split == outcome(lambda: ingest(io.BytesIO(data), "jsonl", groups, years=years))


def test_a_group_iterator_is_read_once_for_every_range():
    # the failing range sends the file back to a serial read, which must count against the same groups
    data = records_file(20, line17="{oops")
    split, forked, serial = split_and_serial(data, lambda fh: ingest(fh, "jsonl", iter(GROUPS)))
    assert forked and split == serial and (split[0], split[2]) == (ParseError, 17)


def test_the_callers_stream_is_left_open_at_eof():
    data = records_file(20)
    with split_reads() as forked, binary_file(data) as fh:
        counts(fh)
        assert forked and not fh.closed and fh.tell() == len(data)


def test_a_caller_holding_a_second_thread_reads_serially():
    data = records_file(20)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        split, forked, serial = split_and_serial(data, counts)
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive() and not forked and split == serial
    unthreaded, forked, _ = split_and_serial(data, counts)
    assert forked and unthreaded == split


@pytest.mark.parametrize("fail", [KeyboardInterrupt, ParseError])
def test_workers_still_running_are_killed_and_reaped_when_the_first_range_fails(fail):
    parent = os.getpid()

    def read(text):
        if os.getpid() == parent:
            raise fail("stop")
        time.sleep(60)  # a worker, killed long before this ends

    started = time.monotonic()
    with split_reads(3) as forked, binary_file(records_file(20)) as fh, pytest.raises(fail):
        records._split_read(fh, read)
    assert len(forked) == 2 and reaped(forked) and time.monotonic() - started < 30


def test_a_fork_that_fails_leaves_a_serial_read():
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    data = records_file(20)
    fds = len(os.listdir("/proc/self/fd"))
    with split_reads(), pytest.MonkeyPatch.context() as patch, binary_file(data) as fh:
        patch.setattr(os, "fork", no_fork)
        assert counts(fh) == counts(io.BytesIO(data)) and fh.tell() == len(data)
    assert len(os.listdir("/proc/self/fd")) == fds


def test_a_pipe_that_cannot_be_made_leaves_a_serial_read():
    pipe, calls = os.pipe, []

    def second_pipe_fails():
        calls.append(None)
        if len(calls) == 2:
            raise OSError(errno.EMFILE, "Too many open files")
        return pipe()

    data = records_file(20)
    fds = len(os.listdir("/proc/self/fd"))
    with split_reads(3) as forked, pytest.MonkeyPatch.context() as patch, binary_file(data) as fh:
        patch.setattr(os, "pipe", second_pipe_fails)
        assert counts(fh) == counts(io.BytesIO(data)) and fh.tell() == len(data)
    assert len(calls) == 2 and len(forked) == 1 and reaped(forked)
    assert len(os.listdir("/proc/self/fd")) == fds
