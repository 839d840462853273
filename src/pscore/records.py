"""Ingestion of publication records and author lists, and the shared readers.

Reads JSONL/CSV publication lists and folds them, in one pass, into the
:class:`CountsTable` of deduplicated counts that everything downstream
operates on. Each distinct raw name is normalized and case-folded once
per run and interned to an integer id; records are kept only as the ids
they contribute, never as objects. Every input file is decoded by
:func:`text_stream` and split into rows by :func:`jsonl_objects` or
:func:`csv_rows`. Parsing is eager and line-addressed: every error names
the offending line.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import numbers
import os
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice
from typing import IO, Callable, Iterable, Iterator, Sequence

from . import _np as np
from .errors import DatasetError, ParameterError, ParseError, PScoreError, ValidationError, _LocatedError

log = logging.getLogger(__name__)

CSV_COLUMNS = ("id", "title", "group", "authors", "venue", "year")
AUTHOR_SEP = ";"
MAX_COUNT = 2**53  # largest count a count field may hold or sum to: float64 holds every integer up to it
MIN_RANGE = 1 << 20  # bytes: a JSONL input is split only into ranges at least this long


def normalize_name(name: str) -> str:
    """Trim and collapse internal whitespace runs to a single space."""
    return " ".join(name.split())


def fold(name: str) -> str:
    """Case-insensitive comparison key for a normalized name.

    Names are compared case-folded but displayed with their first-seen
    casing, so "SIGIR" and "sigir" are the same venue and reports show
    whichever spelling appeared first.
    """
    return name.casefold()


@dataclass(frozen=True)
class PublicationRecord:
    """One paper occurrence: a group published something at a venue."""

    group: str
    authors: tuple[str, ...]
    venue: str
    paper_id: str | None = None
    title: str | None = None
    year: int | None = None


@dataclass(frozen=True)
class CountsTable:
    """Publication counts as a sorted, group-major coordinate list.

    Cell ``k`` says group ``group[k]`` published ``n_group_venue[k]``
    distinct papers at venue ``venue[k]``. Only nonzero counts are stored,
    in strictly increasing (group, venue) order. ``d_venue[j]`` is the
    number of distinct authors publishing at venue ``j``. The marginals
    ``n_group`` and ``n_venue`` are computed once, from the cells.

    ``group_names`` keeps the reference groups in caller order;
    ``venue_names`` lists, in case-folded order, the venues that received
    publications. Both hold names by :func:`listed_name`'s rules, stored
    normalized; a broken one is a ValidationError on ``group`` or ``venue``
    whose ``entry`` is the name's index. ``dropped_foreign`` and
    ``dedup_merged`` count the records :func:`ingest` dropped as outside
    the reference set and merged as duplicates; a table from
    :meth:`restrict` or built directly reads 0 in both. Indices and counts are integers, not ``bool``, of at most
    2**53, as are the marginals, and the cells keep the layout above. A
    broken rule is a ValidationError whose ``field`` names the array; an
    empty group list, or a group with no cell, is a DatasetError.
    """

    group: np.ndarray
    venue: np.ndarray
    n_group_venue: np.ndarray
    d_venue: np.ndarray
    group_names: tuple[str, ...]
    venue_names: tuple[str, ...]
    dropped_foreign: int = 0
    dedup_merged: int = 0
    n_group: np.ndarray = field(init=False, repr=False)
    n_venue: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "group_names", check_groups(self.group_names))
        object.__setattr__(self, "venue_names", listed_names(self.venue_names, "venue"))
        t, v = self.num_groups, self.num_venues
        for name in ("n_group_venue", "group", "venue", "d_venue"):  # the cells first: they fix the length
            object.__setattr__(self, name, _integers(getattr(self, name), name))
            if getattr(self, name).shape != ((v,) if name == "d_venue" else (self.n_group_venue.size,)):
                raise ValidationError("counts table cells and axes do not match the name lists", field=name)
        for name, size in (("group", t), ("venue", v)):
            if np.any((getattr(self, name) < 0) | (getattr(self, name) >= size)):
                raise ValidationError("counts table cell outside the group or venue axis", field=name)
        if np.any(np.diff(self.group * v + self.venue) <= 0):
            raise ValidationError("counts table cells are not sorted group-major without repeats",
                                  field="group" if np.any(np.diff(self.group) < 0) else "venue")
        for name, axis, size in (("n_group", self.group, t), ("n_venue", self.venue, v)):
            total = np.bincount(axis, weights=self.n_group_venue, minlength=size)
            for k in np.flatnonzero(total >= MAX_COUNT).tolist():  # a float sum is exact only below 2**53
                if sum(self.n_group_venue[axis == k].tolist()) > MAX_COUNT:
                    raise ValidationError(f"n_group_venue sums past 2**53 at {name[2:]} {k}", field="n_group_venue")
            object.__setattr__(self, name, total.astype(np.int64))
        for values, what, name in ((self.n_group_venue, "cell with no publications", "n_group_venue"),
                                   (self.n_venue, "venue with zero publications", "venue"),
                                   (self.d_venue, "venue with zero distinct authors", "d_venue")):
            if np.any(values < 1):
                raise ValidationError(f"{what} in the counts table", field=name)
        if not self.n_group.all():  # every cell counts at least 1, so this group has none
            silent = self.group_names[int(np.argmin(self.n_group))]
            raise DatasetError(f"reference group {silent!r} has no publications in the dataset")

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
        table, of the venues it keeps. An index outside the group axis is a
        ParameterError.
        """
        rows = _integers(sorted(set(group_indices)), "group_indices")
        if rows.size and not 0 <= rows[0] <= rows[-1] < self.num_groups:
            raise ParameterError(f"group index {rows[0] if rows[0] < 0 else rows[-1]} is outside "
                                 f"the table's {self.num_groups} groups")
        kept = np.flatnonzero(np.isin(self.group, rows))  # still group-major
        keep = np.unique(self.venue[kept])
        # a cell's new index on either axis is its rank among the kept ones
        sub = CountsTable(np.searchsorted(rows, self.group[kept]), np.searchsorted(keep, self.venue[kept]),
                          self.n_group_venue[kept], self.d_venue[keep],
                          [self.group_names[w] for w in rows], [self.venue_names[j] for j in keep])
        return sub, keep


def _integers(values: object, name: str) -> np.ndarray:
    """``values`` as an int64 array if each is an integer, not a ``bool``, of at most 2**53; else a ValidationError."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu":  # any other kind may still hold Python ints, as an object array does
        for x in values.ravel().tolist():
            if isinstance(x, bool) or not isinstance(x, numbers.Integral):
                raise ValidationError(f"{name} must hold integers, got {x!r}", field=name)
    if values.size and values.max() > MAX_COUNT:
        raise ValidationError(f"{name} must not exceed 2**53, got {values.max()}", field=name)
    return np.asarray(values, dtype=np.int64)


@contextmanager
def text_stream(stream: IO[bytes] | IO[str]) -> Iterator[IO[str]]:
    """Read ``stream`` as text; bytes are decoded as UTF-8, BOM allowed.

    Lines of decoded bytes end at ``\\n``, ``\\r`` or ``\\r\\n`` and nowhere
    else. Bytes that are not UTF-8 are a :class:`ParseError` naming their
    line, or no line if ``stream`` is text or cannot seek back, as a pipe
    cannot. A binary stream is detached again on exit, so it stays open
    and owned by the caller and no wrapper is left behind to be closed.
    """
    binary = isinstance(stream.read(0), bytes)
    start = stream.tell() if binary and stream.seekable() else None
    text = io.TextIOWrapper(stream, encoding="utf-8-sig", newline="") if binary else stream
    try:
        yield text
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", line=_undecodable_line(stream, start)) from exc
    finally:
        if binary:
            text.detach()


@contextmanager
def locating(**where: object) -> Iterator[None]:
    """Give an input error leaving the block ``where`` (``file``, ``entry``) as attributes, and re-raise it."""
    try:
        yield
    except _LocatedError as exc:
        vars(exc).update(where)
        raise


def _undecodable_line(stream: IO[bytes], start: int | None) -> int | None:
    """Line of the first bytes after ``start`` in ``stream`` that are not UTF-8; None if it cannot seek there."""
    if start is None:
        return None
    stream.seek(start)
    data = stream.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return len(data[:exc.start + 1].splitlines())  # bytes end lines at \n, \r or \r\n, as the readers do
    return None


_raw_decode = json.JSONDecoder().raw_decode
_LINE_ENDS = frozenset(("", "\n", "\r\n"))


def json_loads(text: str, line: int | None = None) -> object:
    """``json.loads(text)``, with every way it can fail as a :class:`ParseError`.

    Besides the decoder's own errors, that covers an integer too long to
    convert (``ValueError``) and nesting too deep to recurse through
    (``RecursionError``). The error carries ``line``, or, when that is
    ``None``, the line of ``text`` the decoder stopped at, if it names one.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", line=line or exc.lineno) from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed JSON: {exc}", line=line) from exc


def jsonl_objects(text: IO[str]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each nonblank line of a JSONL stream.

    Each line is decoded by one C call. A line that call does not end
    exactly at the newline (leading or trailing whitespace, extra data, or
    any decoding error) is decoded again by ``json.loads``, which accepts
    it or reports why, so every line is accepted or rejected as
    ``json.loads`` alone would.
    """
    for lineno, line in enumerate(text, start=1):
        try:
            obj, end = _raw_decode(line)
            tail = line[end:]
        except (ValueError, RecursionError):
            tail = None
        if tail not in _LINE_ENDS:
            if line.isspace():
                continue
            obj = json_loads(line, lineno)
        if not isinstance(obj, dict):
            raise ParseError("expected a JSON object", line=lineno)
        yield lineno, obj


def _check_text(value: str, name: str, line: int | None) -> None:
    """The text rule of every name: a ValidationError on ``name`` if UTF-8 cannot encode ``value``, as it cannot a lone
    surrogate, which JSON (``"\\ud800"``) and argv can spell. Callers call it only for text that is not ASCII."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(f"field '{name}' is not valid Unicode text", line=line, field=name) from None


def required_name(value: object, name: str, line: int | None = None) -> str:
    """The name rule: ``value`` normalized if it is a string that is not blank, else a ValidationError on ``name``."""
    if value is None:
        raise ValidationError(f"missing required field '{name}'", line=line, field=name)
    if not isinstance(value, str):
        raise ValidationError(f"field '{name}' must be a string", line=line, field=name)
    normalized = normalize_name(value)
    if not normalized:
        raise ValidationError(f"field '{name}' is empty", line=line, field=name)
    if not normalized.isascii():
        _check_text(normalized, name, line)
    return normalized


def listed_name(value: object, name: str, seen: dict[str, str], where: str, line: int | None = None) -> str:
    """The repeat rule: ``value`` by the name rule, unless ``seen`` (folded name -> where listed) holds it already."""
    listed = required_name(value, name, line)
    key = fold(listed)
    if key in seen:
        raise ValidationError(f"{name} {listed!r} is listed twice (first at {seen[key]})", line=line, field=name)
    seen[key] = where
    return listed


def listed_names(values: Iterable[object], name: str) -> tuple[str, ...]:
    """A name list, not a string, by the repeat rule; an error gives the 0-based index of its item as ``entry``."""
    if isinstance(values, str):
        raise ValidationError(f"{name} list must be a list of names, not the string {values!r}", field=name)
    seen: dict[str, str] = {}
    try:
        return tuple(listed_name(value, name, seen, f"entry {i}") for i, value in enumerate(values))
    except ValidationError as exc:
        exc.entry = len(seen)  # each item before the failing one was added to seen
        raise


def check_groups(values: Iterable[object]) -> tuple[str, ...]:
    """The group-list rule: the reference groups by :func:`listed_names`, and a DatasetError if there are none."""
    if not (groups := listed_names(values, "group")):
        raise DatasetError("reference group list is empty")
    return groups


def check_years(years: object) -> tuple[int | None, int | None] | None:
    """The year-window rule: an inclusive (start, end) pair of integers or None, start not after end.

    Comes back as the pair, or None when neither bound is set; anything else is a ParameterError.
    """
    if not (years is None or isinstance(years, (tuple, list)) and len(years) == 2 and all(
            y is None or isinstance(y, numbers.Integral) and not isinstance(y, bool) for y in years)):
        raise ParameterError(f"years must be a (start, end) pair of integers or None, got {years!r}")
    start, end = years or (None, None)
    if start is not None and end is not None and start > end:
        raise ParameterError(f"empty year range '{start}:{end}'")
    return None if start is None and end is None else (start, end)


def check_count(value: object, low: int, line: int | None = None, what: str = "'count'") -> int:
    """The count rule: ``value`` as an ``int`` if it is an integer in [``low``, 2**53], else a ValidationError.

    ``bool`` is not a count; numpy integers are. Hot loops guard with one
    comparison and call this only when the guard fails.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}", line=line, field="count")
    if not low <= value <= MAX_COUNT:
        raise ValidationError(f"{what} must lie in [{low}, 2**53], got {value}", line=line, field="count")
    return int(value)


def check_score(value: object, line: int | None = None) -> float:
    """The score rule: ``value`` as a float if ``float()`` reads it as finite and nonnegative, else a ValidationError.

    ``bool`` is not a score; an integer beyond the float range reads as inf.
    """
    try:
        if isinstance(value, bool):
            raise TypeError("true and false are not scores")
        score = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"raw_score is not a number: {value!r}", line, "raw_score") from None
    except OverflowError:
        score = math.inf
    if not math.isfinite(score) or score < 0:
        raise ValidationError(f"raw_score must be finite and nonnegative, got {value!r}", line, "raw_score")
    return score


def _optional_text(value: object, name: str, line: int | None) -> str | None:
    if value is None:
        return None
    if not isinstance(value, str):
        raise ValidationError(f"field '{name}' must be a string", line=line, field=name)
    return normalize_name(value) or None


def author_names(raw: object, line: int | None = None) -> list[str]:
    """The author-list rule: ``raw`` is a list of strings; its nonblank names come back normalized."""
    if not isinstance(raw, list):
        what = "missing required field 'authors'" if raw is None else "field 'authors' must be an array of strings"
        raise ValidationError(what, line=line, field="authors")
    names = []
    for a in raw:  # a loop, not a comprehension, which costs a frame per call before Python 3.12
        if not isinstance(a, str):
            raise ValidationError("field 'authors' must be an array of strings", line=line, field="authors")
        if not a.isascii():
            _check_text(a, "authors", line)
        if name := " ".join(a.split()):  # normalize_name, inlined: this runs once per listed author
            names.append(name)
    if not names:
        raise ValidationError("field 'authors' is empty", line=line, field="authors")
    return names


def _parse_year(value: object, line: int | None) -> int | None:
    if value is None or value == "":
        return None
    if isinstance(value, bool):
        raise ValidationError("field 'year' must be an integer", line=line, field="year")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            pass
    raise ValidationError(f"field 'year' must be an integer, got {value!r}", line=line, field="year")


def _jsonl_fields(text: IO[str]) -> Iterator[tuple]:
    for lineno, obj in jsonl_objects(text):
        raw_id = obj.get("id")
        if isinstance(raw_id, int) and not isinstance(raw_id, bool):
            raw_id = str(raw_id)
        if raw_id is not None and not isinstance(raw_id, str):
            raise ValidationError("field 'id' must be a string", line=lineno, field="id")
        yield (lineno, raw_id.strip() or None if raw_id is not None else None, obj.get("authors"),
               obj.get("group"), obj.get("venue"), obj.get("title"), obj.get("year"))


def csv_rows(text: Iterable[str], columns: Sequence[str], **dialect) -> Iterator[tuple[int, dict]]:
    """Yield (line number, row) for each row of a CSV stream, read by :func:`csv.reader` in ``dialect``.

    Empty lines are skipped. The first row is the header and must name
    every one of ``columns``. A row wider than the header, or one the
    reader refuses (a field over its size limit, say), is a
    :class:`ParseError` at its line; a short row lacks its missing fields.
    """
    reader = csv.reader(text, **dialect)
    header = None
    try:
        for row in reader:
            if not row:
                continue
            if header is None:
                header = row
                if missing := [c for c in columns if c not in header]:
                    raise ParseError(f"header is missing column(s): {', '.join(missing)}", line=reader.line_num)
            elif len(row) > len(header):
                raise ParseError("row has more fields than the header", line=reader.line_num)
            else:
                yield reader.line_num, dict(zip(header, row))
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from exc


def _split_read(stream: IO[bytes] | IO[str], read: Callable[[IO[str]], object], split: bool = True):
    """``read`` of each line-aligned range of ``stream``, the first here and each other in a forked worker.

    ``read(text)`` returns the counts of one range. Their ``merge(later)``
    adds, in place, those of the range that follows, or returns False when
    the sum fails a check that a serial read makes at a line. When a pipe,
    a fork, a range or a merge fails, the stream is read again as one range,
    which raises what a serial read raises. The stream is left at EOF.
    """
    cuts = _cuts(stream) if split else []
    if len(cuts) > 2:
        merged = _read_forked(stream.fileno(), cuts, read)
        if merged is not None:
            stream.seek(cuts[-1])
            return merged
        stream.seek(cuts[0])
    with text_stream(stream) as text:
        return read(text)


def _cuts(stream: IO[bytes] | IO[str]) -> list[int]:
    """Offsets that cut the rest of ``stream`` right after newline bytes into ranges, one per usable CPU.

    No offsets unless ``stream`` is a binary file that can seek, in a
    process that runs one thread: a forked copy of a process with threads
    may deadlock, and OpenBLAS, for one, starts threads that Python does
    not list. No cuts between the two ends unless each range can hold
    ``MIN_RANGE`` bytes.
    """
    try:
        if not (isinstance(stream.read(0), bytes) and stream.seekable() and len(os.listdir("/proc/self/task")) == 1):
            return []
        fd, start = stream.fileno(), stream.tell()
    except OSError:  # no file descriptor (io.UnsupportedOperation), or no /proc, as on a system without fork
        return []
    end = os.fstat(fd).st_size
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    n = min(cpus, (end - start) // MIN_RANGE)
    cuts = [start]
    for k in range(1, n):
        at = max(start + (end - start) * k // n, cuts[-1] + 1) - 1
        at += len(io.BufferedReader(_Range(fd, at, end)).readline())  # to just past the next newline byte
        if at < end:
            cuts.append(at)
    return cuts + [end]


class _Range(io.RawIOBase):
    """Bytes ``start`` to ``end`` of the file ``fd``, read by ``os.pread``: the shared file offset never moves."""

    def __init__(self, fd: int, start: int, end: int):
        self._fd, self._at, self._end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self._fd, min(len(buffer), self._end - self._at), self._at)
        buffer[:len(data)] = data
        self._at += len(data)
        return len(data)


def _read_range(read: Callable[[IO[str]], object], fd: int, start: int, end: int, encoding: str) -> object:
    """``read`` of a range, decoded as :func:`text_stream` decodes; only the first range strips a BOM."""
    with io.TextIOWrapper(io.BufferedReader(_Range(fd, start, end), 1 << 16), encoding, newline="") as text:
        return read(text)


def _read_forked(fd: int, cuts: list[int], read: Callable[[IO[str]], object]):
    """The first range's counts, with each later range's merged in; None if a pipe, fork, range or merge fails.

    A worker sends its counts back pickled, or nothing if it fails, and
    ends with ``os._exit``, so it never flushes this process's buffers or
    runs its exit hooks. Whatever happens here, every worker still running
    is killed, and every worker is reaped.
    """
    import pickle
    import signal

    running = {}  # pid -> pipe of each worker not yet reaped, in file order
    try:
        for start, end in zip(cuts[1:], cuts[2:]):
            try:
                r, w = os.pipe()
            except OSError:  # no file descriptors left for a pipe: the stream is read serially
                return None
            try:
                pid = os.fork()
            except OSError:  # no room for another process: likewise
                os.close(r)
                os.close(w)
                return None
            if pid == 0:  # in the worker
                code = 1
                try:
                    with open(w, "wb") as out:
                        pickle.dump(_read_range(read, fd, start, end, "utf-8"), out, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            running[pid] = open(r, "rb")
        try:
            merged = _read_range(read, fd, cuts[0], cuts[1], "utf-8-sig")
        except (PScoreError, UnicodeDecodeError):
            return None
        for pid, pipe in list(running.items()):
            part = None
            with pipe:
                try:
                    part = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # a failed worker sent nothing, or part of a pickle
                    pass
            failed = os.waitpid(pid, 0)[1]
            del running[pid]
            if failed or not merged.merge(part):
                return None
        return merged
    finally:
        for pid, pipe in running.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _sent(strings: list[str], *columns) -> tuple:
    """``strings`` as one string and an ``array("q")`` of their ends, which unpickle as two objects, not one per string,
    then ``columns``: each buffer as a ``pickle.PickleBuffer``, which protocol 5 writes with no copy and reads back
    straight into a ``bytearray``."""
    import pickle  # only a worker sends: a serial read loads no pickle
    return ("".join(strings), *map(pickle.PickleBuffer, (array("q", accumulate(map(len, strings))), *columns)))


def _received(text: str, ends: bytearray) -> Iterator[str]:
    """The strings :func:`_sent` joined into ``text``, cut out one at a time at their unpickled ``ends``."""
    ends = memoryview(ends).cast("q")
    return (text[start:end] for start, end in zip(chain((0,), ends), ends))


def load_author_pubs(stream: IO[bytes] | IO[str]) -> dict[str, dict[str, int]]:
    """Read author publication lists (JSONL).

    Two line shapes are accepted and may be mixed: pre-aggregated
    ``{"author": ..., "venue": ..., "count": n}`` entries, and raw
    per-paper ``{"authors": [...], "venue": ...}`` records, read by the
    records' :func:`author_names` rule, which credit every distinct listed
    author (compared case-insensitively) with one paper at the venue.
    Authors and venues come back in first-seen order, under their
    first-seen spelling. A large file is read on every usable CPU, in
    line-aligned ranges whose counts are summed in file order.
    """
    pubs = _split_read(stream, lambda text: _Credits().read(text)).pubs
    if not pubs:
        raise ValidationError("author publication file holds no entries")
    return pubs


class _Credits:
    """The counts :func:`load_author_pubs` reads from one range: author -> venue -> count.

    Pickled, as a worker sends them, they are ``sent`` flat by
    :func:`_sent`: the venues and then the authors in first-seen order, and
    an (author, venue, count) triple per count, which unpickle far smaller
    than nested dicts. An unpickled one holds only that, for :meth:`merge`.
    """

    def __init__(self):
        self.pubs: dict[str, dict[str, int]] = {}
        self.authors: dict[str, str] = {}  # folded author -> display name
        self.venues: dict[str, str] = {}   # folded venue -> display name

    def read(self, text: IO[str]) -> "_Credits":
        pubs, author_display, venue_display = self.pubs, self.authors, self.venues
        # raw venue -> display name; raw author strings are too many to be worth a memo
        venue_of: dict[str, str] = {}

        def venue_name(venue: object, lineno: int) -> str:
            try:
                return venue_of[venue]
            except (KeyError, TypeError):
                pass
            v = required_name(venue, "venue", lineno)
            v = venue_of[venue] = venue_display.setdefault(fold(v), v)
            return v

        def add(author: str, venue: str, count: int, lineno: int) -> None:
            per_author = pubs.setdefault(author, {})
            total = per_author[venue] = per_author.get(venue, 0) + count
            if total > MAX_COUNT:
                check_count(total, 1, lineno, f"total 'count' for {author!r} at {venue!r}")

        for lineno, obj in jsonl_objects(text):
            if "count" in obj or "author" in obj:
                count = obj.get("count")
                if count.__class__ is not int or not 1 <= count <= MAX_COUNT:
                    count = check_count(count, 1, lineno)
                author = required_name(obj.get("author"), "author", lineno)
                author = author_display.setdefault(fold(author), author)
                add(author, venue_name(obj.get("venue"), lineno), count, lineno)
            elif "authors" in obj:
                names = author_names(obj.get("authors"), lineno)
                venue = venue_name(obj.get("venue"), lineno)
                credited = set()
                for author in names:
                    author = author_display.setdefault(fold(author), author)
                    if author not in credited:
                        credited.add(author)
                        add(author, venue, 1, lineno)
            else:
                raise ParseError("expected author/venue/count or authors/venue keys", line=lineno)
        return self

    def __getstate__(self) -> dict:
        venues = {venue: j for j, venue in enumerate(self.venues.values())}
        triples = array("q")
        for a, per_author in enumerate(self.pubs.values()):
            for venue, count in per_author.items():
                triples.extend((a, venues[venue], count))
        return {"sent": _sent([*venues, *self.pubs], triples), "sent_venues": len(venues)}

    def merge(self, later: "_Credits") -> bool:
        """Add the sent counts of the next range; False if a total passes 2**53, at a line a serial read knows."""
        names = _received(*later.sent[:2])
        venues = [self.venues.setdefault(fold(v), v) for v in islice(names, later.sent_venues)]  # its spellings -> ours
        rows = [self.pubs.setdefault(self.authors.setdefault(fold(a), a), {}) for a in names]
        it = iter(memoryview(later.sent[2]).cast("q"))  # the triples
        for a, v, count in zip(it, it, it):
            per_author, venue = rows[a], venues[v]
            total = per_author[venue] = per_author.get(venue, 0) + count
            if total > MAX_COUNT:
                return False
        return True


def _csv_fields(text: IO[str]) -> Iterator[tuple]:
    for lineno, row in csv_rows(text, CSV_COLUMNS):
        authors = row.get("authors")
        yield (lineno, (row.get("id") or "").strip() or None,
               authors.split(AUTHOR_SEP) if authors and not authors.isspace() else None,  # blank reads as missing
               row.get("group") or None, row.get("venue") or None, row.get("title") or None,
               row.get("year"))


def _decode(text: IO[str], format: str) -> Iterator[tuple]:
    """Yield (line, paper_id, raw authors, group, venue, title, year) per record.

    The decoder checks the id; the consumer checks the authors, group,
    venue, title and year, the order errors have always been reported in.
    """
    if format == "jsonl":
        return _jsonl_fields(text)
    if format == "csv":
        return _csv_fields(text)
    raise ValidationError(f"unknown record format {format!r}; expected 'jsonl' or 'csv'")


def parse_records(stream: IO[bytes] | IO[str], format: str) -> list[PublicationRecord]:
    """Parse publication records from ``stream`` in input order.

    ``format`` is ``"jsonl"`` (one object per line, keys id/title/group/
    authors/venue/year) or ``"csv"`` (header row required, authors column
    semicolon-separated, RFC-4180 quoting, UTF-8). All names come out
    whitespace-normalized. Raises :class:`ParseError` for structural
    damage and :class:`ValidationError` for missing or ill-typed fields,
    both carrying the line number.
    """
    with text_stream(stream) as text:
        return [
            PublicationRecord(
                authors=tuple(author_names(authors, line)),
                group=required_name(group, "group", line),
                venue=required_name(venue, "venue", line),
                paper_id=paper_id,
                title=_optional_text(title, "title", line),
                year=_parse_year(year, line),
            )
            for line, paper_id, authors, group, venue, title, year in _decode(text, format)
        ]


_BLOCK = 4096  # entries rewritten or compared at a time
_key_hash = hash  # of a key, for the codes that find repeats: any function finds the same ones, only slower


class _Tally:
    """The one counting core: folds records into integer ids as they arrive.

    Groups and authors are interned by folded name, venues by normalized
    spelling. A venue is looked up as it stands, a group or author
    case-folded: folding neither makes nor removes whitespace or a lone
    surrogate, so a hit needs no name rule or normalizing, and only a miss
    runs them. A record in the year window and a reference group is a
    candidate: it leaves one (venue spelling, group) cell and one (author,
    record) pair per author, as integers, a key (its row with its id, else
    its folded title, else empty) in one UTF-8 buffer, and, if the key is
    not empty, a code: its hash above the record. :meth:`dataset` finds the
    repeated papers once, after the read, comparing keys only where the
    sorted codes repeat a hash.

    A tally can :meth:`merge` that of the input that follows, read by a
    forked worker with this process's hashes and sent by :func:`_sent`.
    """

    def __init__(self, groups: tuple[str, ...], years: tuple[int | None, int | None] | None):
        """``groups`` and ``years`` as :func:`check_groups` and :func:`check_years` return them."""
        self.groups, self._years = groups, years
        self._row: dict[str, int] = {fold(group): row for row, group in enumerate(groups)}  # -1: not a reference
        self._spelling: dict[str, int] = {}   # normalized venue -> spelling id
        self._author_id: dict[str, int] = {}  # folded author -> author id
        self._text = bytearray()  # the keys, one after another
        self._ends = array("q")   # the end of its key in _text, one per candidate
        self._cells = array("q")  # spelling * T + row, one per candidate
        self._pairs = array("q")  # author << 32 | candidate, one per author of a candidate
        self._codes = array("q")  # hash(key) << 32 | candidate, one per candidate whose key is not empty
        self.undated = self.dropped = 0

    def add(self, line: int | None, paper_id: str | None, authors: object,
            group: object, venue: object, title: object, year: object) -> None:
        """Validate one record's fields in order, then count it if it survives."""
        # a known name skips the rules author_names and required_name apply, which run only on a miss, in order
        if authors.__class__ is not list:
            author_names(authors, line)
        author_id = self._author_id
        ids = []
        for raw in authors:
            if raw.__class__ is not str or (author := author_id.get(raw.casefold())) is None:
                if not isinstance(raw, str):
                    author_names(authors, line)  # raises, as raw is no string
                if not raw.isascii():
                    _check_text(raw, "authors", line)
                if not (name := normalize_name(raw)):
                    continue
                author = author_id.setdefault(fold(name), len(author_id))
            ids.append(author)
        if not ids:
            author_names(authors, line)
        if group.__class__ is not str or (row := self._row.get(group.casefold())) is None:
            row = self._row.setdefault(fold(required_name(group, "group", line)), -1)
        if venue.__class__ is not str or (spelling := self._spelling.get(venue)) is None:
            spelling = self._spelling.setdefault(required_name(venue, "venue", line), len(self._spelling))
        if title is not None and not isinstance(title, str):
            raise ValidationError("field 'title' must be a string", line=line, field="title")
        if year is not None and year.__class__ is not int:
            year = _parse_year(year, line)

        if self._years is not None:
            if year is None:
                self.undated += 1
                return
            start, end = self._years
            if start is not None and year < start or end is not None and year > end:
                return
        if row < 0:
            self.dropped += 1
            return
        # the row, then "i" and the id or "t" and the folded title: a key repeats only in its group, never across kinds
        if paper_id is not None:
            key = f"{row}i{paper_id}"
        elif title and (name := normalize_name(title)):
            key = f"{row}t{fold(name)}"
        else:
            key = ""
        record = len(self._cells)
        if key:
            key = key.encode("utf-8", "surrogatepass")  # an id may hold a lone surrogate, which strict UTF-8 refuses
            self._codes.append((_key_hash(key) & 0x7FFFFFFF) << 32 | record)
            self._text += key
        self._ends.append(len(self._text))
        self._cells.append(spelling * len(self.groups) + row)
        self._pairs.extend([author << 32 | record for author in ids])

    def __getstate__(self) -> dict:
        sent = _sent([*self._spelling, *self._author_id], self._text, self._ends, self._cells, self._pairs, self._codes)
        return {"sent": sent, "sent_spellings": len(self._spelling), "undated": self.undated, "dropped": self.dropped}

    def merge(self, later: "_Tally") -> bool:
        """Append, renumbered, the candidates of ``later``, the unpickled tally of the next range, freeing it; True."""
        t, offset, s = len(self.groups), len(self._cells), later.sent_spellings
        joined, ends, text, key_ends, cells, pairs, codes = vars(later).pop("sent")
        names = _received(joined, ends)  # with no list of the names or of their ids
        spelling = np.fromiter((self._spelling.setdefault(n, len(self._spelling)) for n in islice(names, s)), np.int64)
        author = np.fromiter((self._author_id.setdefault(n, len(self._author_id)) for n in names), np.int64)
        _rewrite(np.frombuffer(cells, np.int64), lambda cell: spelling[cell // t] * t + cell % t)
        _rewrite(np.frombuffer(pairs, np.int64), lambda pair: author[pair >> 32] << 32 | pair % 2**32 + offset)
        np.frombuffer(codes, np.int64)[:] += offset
        np.frombuffer(key_ends, np.int64)[:] += len(self._text)
        # the largest as a rule, the pairs and then the keys, grow first, so the blocks they free can hold the rest
        self._pairs.frombytes(pairs)
        del pairs
        self._text += text
        del text
        for column, values in (self._cells, cells), (self._ends, key_ends), (self._codes, codes):
            column.frombytes(values)
        self.undated, self.dropped = self.undated + later.undated, self.dropped + later.dropped
        return True

    def dataset(self) -> CountsTable:
        """Check the tallies, drop repeats and lay the rest out as group-major cells; once only, as it rewrites them."""
        if self.undated:
            log.warning("year filter excluded %d record(s) without a year", self.undated)
        if self.dropped:
            log.info("dropped %d record(s) from groups outside the reference set", self.dropped)
        if not self._cells:
            raise DatasetError("empty dataset: no records remain for the reference groups")
        cells, pairs = np.frombuffer(self._cells, dtype=np.int64), np.frombuffer(self._pairs, dtype=np.int64)
        spellings = list(self._spelling)
        # spent, and the tallies are rewritten in place, so a second call must fail, not count them again
        del self._row, self._author_id, self._spelling, self._cells, self._pairs
        repeats = _repeats(np.frombuffer(vars(self).pop("_codes"), dtype=np.int64), vars(self).pop("_text"),
                           vars(self).pop("_ends"))
        t, s, n = len(self.groups), len(spellings), len(cells)
        cells[repeats] = s * t  # a repeat moves to spelling s, shown nowhere

        # a venue shows the spelling of its first kept record; kept venues in case-folded order
        first = np.full(s + 1, n)  # each spelling's first candidate
        for at in range(0, n, _BLOCK):
            np.minimum.at(first, cells[at:at + _BLOCK] // t, np.arange(at, min(at + _BLOCK, n)))
        shown: dict[str, str] = {}  # folded venue -> spelling
        for spelling in np.argsort(first[:s])[:np.count_nonzero(first[:s] < n)].tolist():
            shown.setdefault(fold(spellings[spelling]), spellings[spelling])
        keys = sorted(shown)
        index = {key: j for j, key in enumerate(keys)}
        v = len(keys)
        column = np.array([index.get(fold(name), -1) for name in spellings] + [v], dtype=np.int64)  # s -> v

        # pairs become author << 32 | venue column before the cells are rewritten; a repeat's go to column v
        _rewrite(pairs, lambda block: block >> 32 << 32 | column[cells[block & 0xFFFFFFFF] // t])
        _rewrite(cells, lambda block: block % t * (v + 1) + column[block // t])
        # counts are the run lengths of the sorted codes; a hashed np.unique costs more memory
        cells.sort()
        starts = np.flatnonzero(np.concatenate(([True], cells[1:] != cells[:-1])))
        cell, n_group_venue = cells[starts], np.diff(starts, append=n)
        del cells, starts  # the last use: this frees the tally's cells
        kept = cell % (v + 1) < v
        pairs.sort()
        pairs[1:][pairs[1:] == pairs[:-1]] = v  # a pair met before counts in column v
        pairs &= 0xFFFFFFFF
        d_venue = np.bincount(pairs, minlength=v + 1)[:v]
        del pairs

        return CountsTable(cell[kept] // (v + 1), cell[kept] % (v + 1), n_group_venue[kept], d_venue, self.groups,
                           tuple(shown[k] for k in keys), dropped_foreign=self.dropped, dedup_merged=repeats.size)


def _repeats(codes: np.ndarray, text: bytearray, ends: array) -> np.ndarray:
    """The candidates whose key an earlier one has, sought only in runs of equal hash in ``codes``, sorted in place."""
    codes.sort()
    twin = np.zeros(len(codes), dtype=bool)  # twin[i]: code i has the hash of the code before or after it
    for at in range(1, len(codes), _BLOCK):
        same = np.diff(codes[at - 1:at + _BLOCK] >> 32) == 0
        twin[at - 1:at - 1 + len(same)] |= same
        twin[at:at + len(same)] |= same
    repeats, first, run = array("q"), {}, None  # first: key -> its first candidate, in the run of one hash
    for code in array("q", codes[twin].tobytes()):  # ints made one at a time, not a list of them
        if code >> 32 != run:
            first, run = {}, code >> 32
        record = code & 0xFFFFFFFF
        if first.setdefault(bytes(text[ends[record - 1] if record else 0:ends[record]]), record) != record:
            repeats.append(record)
    return np.frombuffer(repeats, np.int64)


def _rewrite(values: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> None:
    """``values[:] = f(values)``, a block at a time, which keeps the temporaries of ``f`` small."""
    for at in range(0, len(values), _BLOCK):
        block = values[at:at + _BLOCK]
        block[:] = f(block)


def ingest(
    stream: IO[bytes] | IO[str],
    format: str,
    reference_groups: Sequence[str],
    *,
    years: tuple[int | None, int | None] | None = None,
) -> CountsTable:
    """Read publication records and count them in one pass.

    Equivalent to :func:`parse_records`, keeping the records dated inside
    ``years``, then :func:`build_dataset`, with the same errors, but holds
    no record objects. The groups follow :func:`check_groups` and the
    window :func:`check_years`, checked before the stream is cut or read;
    undated records fall outside any window and are counted in a warning.
    A large JSONL file is read on every usable CPU, in line-aligned ranges
    whose tallies are merged in file order; CSV is read in one range, as a
    quoted field may span lines.
    """
    groups, years = check_groups(reference_groups), check_years(years)

    def count(text: IO[str]) -> _Tally:
        tally = _Tally(groups, years)
        add = tally.add
        for fields in _decode(text, format):
            add(*fields)
        return tally

    return _split_read(stream, count, format == "jsonl").dataset()


def build_dataset(records: Iterable[PublicationRecord], reference_groups: Sequence[str]) -> CountsTable:
    """Filter to the reference groups, deduplicate, and fix index spaces.

    Records from groups outside ``reference_groups`` are dropped (count
    reported). Records are deduplicated per (paper identity, group), so a
    paper coauthored across two reference groups still counts once for
    each. Venues are the sorted distinct venues of the surviving records.

    Raises :class:`DatasetError` if nothing survives or if any reference
    group ends up with zero publications, since a silent group has no
    publication fractions to propagate. A group list that breaks :func:`check_groups` is a ValidationError.
    """
    tally = _Tally(check_groups(reference_groups), None)
    for rec in records:
        tally.add(None, rec.paper_id, list(rec.authors), rec.group, rec.venue, rec.title, rec.year)
    return tally.dataset()
