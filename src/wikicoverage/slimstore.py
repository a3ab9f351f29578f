"""Compact intermediate store for parsed entities.

Re-parsing dump JSON on every run defeats the two-pass pipeline, so parsed
entities are persisted in a small line-oriented format:

    WCM3
    count=<n> props=<comma-list>
    <QID>\\t<prop>:<QID>[,...][;...]\\t<wiki>=<title>[|...]

Records are sorted by item number, each item once.  Titles have ``%``, tab,
pipe, CR and LF percent-encoded.  The header's ``props=`` lists the
properties the parse kept; a reader given the properties its rules need
checks them against it.  ``WCM1``, which also stored non-item claim values as
``*``, and ``WCM2``, whose header also listed the kept wiki codes, are not
read: rebuild such a store.

One reader, :func:`read_slim_store` (:func:`load_slim_store` from a path),
yields :class:`SlimEntity` records.  It checks the magic and header lines,
that ``props=`` holds every property the caller requires, line numbers,
blank lines, the header count in both directions, the sitelink checks and
the item order.  It picks its record parse once per read:

* A read that requires a property (``rules.required_properties``, as
  ``attribute`` reads) puts each line through the checked whole-record
  parse, and a record holds every stored claim.  It validates every id
  token and reads each as its number: record ids and claim values must be
  items, the header's ``props=`` properties, and a claim key is looked up
  among the header's properties.  Each distinct claim value is read once
  per read, through a ``util.Memo(item_number)``, on its first appearance,
  and equal values then share one int.
* A read that requires no property (``required_props=()``, as ``metrics``
  reads) builds no claim.  It checks the claims field whole against one
  pattern compiled from ``props=``; a field that fails the pattern is
  handed to the whole-record parse, so both parses accept the same stores
  and fail a bad one with the same message.

Since every field is checked on the way in, records are built with the
plain :class:`SlimEntity` constructor; no reader lists them.

A bad token raises :class:`SlimStoreCorruptionError` naming its line.  The
header is enforced per record: a claim key must be one of ``props=``.  A
record that breaks its own header, repeats a claim key or a wiki, or does
not follow the record before it in item order, is corruption naming its
line.

The writer (:class:`SlimStoreWriter`) takes records in any order.  Its
precondition is that each record keeps to the header it writes: every claim
key is one of ``keep_props``, and every wiki code is one that
:func:`unstorable_wiki_code` passes.  The dump parser's records, its one
producer, meet it: the parse keeps only ``keep_props`` claims, and it either
keeps the caller's ``<lang>wiki`` codes or tallies an item with an
unstorable code as a malformed line.  The writer renders each record to its
line at once, keeps the item number beside the line, and keeps at most
:data:`RUN_CHARS` characters of lines, spilling each full run, sorted by
those numbers, to a temporary file; the store is the merge of the runs.  A
repeated item raises :class:`DuplicateItemError`: before anything is written
when both records are in one run, while the merge is written otherwise.
:func:`save_slim_store` writes beside the target file and renames over it
only on success, so a refused or failed write never truncates the store
already there.
"""

from __future__ import annotations

import heapq
import os
import re
import tempfile
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from itertools import compress, islice
from operator import eq, itemgetter
from pathlib import Path
from sys import get_int_max_str_digits, intern
from typing import IO, Callable, Iterable, Iterator

from .entities import SlimEntity, id_pattern, item_number, property_number
from .errors import (
    DuplicateItemError,
    SlimStoreCorruptionError,
    SlimStoreMismatchError,
    SlimStoreVersionError,
    SlimStoreWriteError,
)
from .util import Memo, first_repeat, parse_count

MAGIC = "WCM3"

_HEADER_RE = re.compile(r"count=([0-9]+) props=(\S*)\Z")
_ESCAPE_RE = re.compile(r"[%\t|\n\r]")
_UNESCAPE_RE = re.compile(r"%(25|09|7C|0A|0D)")
_ESCAPES = {"%": "%25", "\t": "%09", "|": "%7C", "\n": "%0A", "\r": "%0D"}
_UNESCAPES = {"25": "%", "09": "\t", "7C": "|", "0A": "\n", "0D": "\r"}
_WIKI_BREAK_RE = re.compile(r"[=|\t\n\r\ud800-\udfff]")  # wiki codes are stored unescaped

# The most rendered store text the writer holds, in characters.  A full run is
# sorted and spilled to a temporary file; a 9 GB store (90M items) spills
# about 270 runs, far below the usual limit of 1024 open files.
RUN_CHARS = 1 << 25


def _escape_title(title: str) -> str:
    return _ESCAPE_RE.sub(lambda m: _ESCAPES[m.group(0)], title)


def _unescape_title(text: str) -> str:
    return _UNESCAPE_RE.sub(lambda m: _UNESCAPES[m.group(1)], text)


def unstorable_wiki_code(wikis: Iterable[str]) -> str | None:
    """Why a store cannot carry the least bad one of ``wikis``, or None.

    Wiki codes are stored as they are: a record splits on tabs and line
    breaks, its sitelinks field on ``|`` and each pair on its first ``=``, so
    a code holding one of those would read back as another sitelink, or fail
    the read.  A lone surrogate cannot be written as UTF-8 at all.
    """
    bad = [wiki for wiki in wikis if _WIKI_BREAK_RE.search(wiki)]
    return f"wiki code {min(bad)!r} holds '=', '|', a tab, CR, LF or a lone surrogate" if bad else None


@dataclass(frozen=True)
class StoreHeader:
    count: int
    props: tuple[int, ...]


_first = itemgetter(0)  # a sorted run's (item number, line) pair: its number
_line = itemgetter(1)  # and its line
_item_token = "Q%d".__mod__


def _record_line(entity: SlimEntity) -> str:
    """The store line of ``entity``.  Each id is formatted from its number,
    with no ``str()`` call per id."""
    claims = ";".join(
        ["P%d:" % prop + ",".join(map(_item_token, values)) for prop, values in sorted(entity.claims.items())]
    )
    links = "|".join([f"{wiki}={_escape_title(title)}" for wiki, title in sorted(entity.sitelinks.items())])
    return "Q%d\t%s\t%s\n" % (entity.id, claims, links)


def _line_number(line: str) -> int:
    """The item number a spilled store line starts with."""
    return int(line[1 : line.index("\t")])


def _spilled(run: IO[str]) -> Iterator[tuple[int, str]]:
    """The (item number, line) pairs of a spilled run, from its start."""
    run.seek(0)
    for line in run:
        yield _line_number(line), line


class SlimStoreWriter:
    """Writes records given in any order as one store, sorted by item number.

    :meth:`add` renders each record to its store line as it arrives; each
    record must keep to the header (see the module docstring).  The writer holds at most :data:`RUN_CHARS`
    characters of lines: a full run is sorted and spilled to a temporary
    file, so writing a store takes about its size in ``TMPDIR`` when it does
    not fit in one run.  :meth:`write` (or :func:`save_slim_store`) then
    writes the header, whose count is known by then, and a merge of the
    spilled runs and the last run, which stays in memory.  A repeated item is
    two adjacent equal numbers: inside one run it raises
    :class:`DuplicateItemError` before anything is written, across runs while
    the merge is written.
    Close the writer, or use it as a context manager, to drop the spilled
    runs.
    """

    def __init__(self, keep_props: Iterable[int]):
        self._props = frozenset(keep_props)
        self.count = 0
        self._run: list[str] = []  # rendered lines, in arrival order
        self._numbers: list[int] = []  # the item number of each line in the run
        self._run_chars = 0
        self._spills: list[IO[str]] = []

    def __enter__(self) -> "SlimStoreWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Drop the spilled runs."""
        while self._spills:
            self._spills.pop().close()

    def add(self, record: SlimEntity) -> None:
        """Render ``record`` into the current run, spilling the run once full.

        An OSError while rendering or spilling raises
        :class:`SlimStoreWriteError`.
        """
        try:
            line = _record_line(record)
            self._run.append(line)
            self._numbers.append(record.id)
            self._run_chars += len(line)
            if self._run_chars >= RUN_CHARS:
                self._spill()
        except OSError as exc:
            raise SlimStoreWriteError(
                f"write failed before the first record: {exc}", records_written=0
            ) from exc
        self.count += 1

    def passing(self, records: Iterable[SlimEntity]) -> Iterator[SlimEntity]:
        """:meth:`add` each record, then yield it."""
        for record in records:
            self.add(record)
            yield record

    def _sorted_run(self) -> list[tuple[int, str]]:
        """The current run as sorted (item number, line) pairs, which starts a
        new run; a repeated item raises.  The pairs live only until the run is
        spilled or written, so a held line costs no pair."""
        run = sorted(zip(self._numbers, self._run), key=_first)
        self._numbers, self._run, self._run_chars = [], [], 0
        numbers = list(map(_first, run))
        repeated = next(compress(numbers, map(eq, numbers, islice(numbers, 1, None))), None)
        if repeated is not None:
            raise DuplicateItemError(f"item Q{repeated} appears twice in the input stream")
        return run

    def _spill(self) -> None:
        run = self._sorted_run()
        spill = tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n")
        self._spills.append(spill)
        spill.writelines(map(_line, run))

    def write(self, sink: IO[str]) -> int:
        """Write the store to ``sink``, once; returns the record count.

        A failed write raises :class:`SlimStoreWriteError` with the number of
        records that made it out before the failure.  The header lists
        ``keep_props``, the properties the parse kept.
        """
        last = self._sorted_run()
        props = ",".join(["P%d" % prop for prop in sorted(self._props)])
        written = previous = 0
        try:
            sink.write(MAGIC + "\n")
            sink.write(f"count={self.count} props={props}\n")
            for number, line in heapq.merge(*map(_spilled, self._spills), last, key=_first):
                if number == previous:
                    raise DuplicateItemError(f"item Q{number} appears twice in the input stream")
                previous = number
                sink.write(line)
                written += 1
        except OSError as exc:
            raise SlimStoreWriteError(
                f"write failed after {written} of {self.count} records: {exc}",
                records_written=written,
            ) from exc
        return self.count


def read_store_header(source: Iterable[str]) -> StoreHeader:
    """Read the magic and header lines of a store stream.

    Raises :class:`SlimStoreVersionError` for another format version (``WCM1``
    and ``WCM2`` included) and :class:`SlimStoreCorruptionError` for a missing
    or malformed header, whose ``props=`` holds an empty or repeated token.
    An iterator is left at the first record line.
    """
    lines = iter(source)
    magic = next(lines, None)
    if magic is None:
        raise SlimStoreCorruptionError("empty store file")
    magic = magic.rstrip("\n")
    if magic != MAGIC:
        if re.match(r"WCM\d+\Z", magic):
            raise SlimStoreVersionError(f"unsupported store version {magic!r}")
        raise SlimStoreCorruptionError(f"bad magic {magic!r}")
    header_line = next(lines, None)
    if header_line is None:
        raise SlimStoreCorruptionError("store has no header line")
    header_line = header_line.rstrip("\n")
    match = _HEADER_RE.match(header_line)
    if match is None:
        raise SlimStoreCorruptionError(f"bad store header: {header_line!r}")
    try:
        count = parse_count(match.group(1), "count")
    except ValueError as exc:  # the pattern admits only digits: too many of them
        raise SlimStoreCorruptionError(f"bad store header: {exc}") from None
    tokens = match.group(2).split(",") if match.group(2) else []
    try:
        props = tuple(map(property_number, tokens))
    except ValueError as exc:
        raise SlimStoreCorruptionError(f"store line 2: {exc}") from exc
    repeated = first_repeat(tokens)
    if repeated is not None:
        raise SlimStoreCorruptionError(f"store line 2: property {repeated} appears twice in props=")
    return StoreHeader(count, props)


class _Declared(dict):
    """Claim key -> the header's property number; a key ``props=`` does not
    declare is corruption."""

    __slots__ = ()

    def __init__(self, props: Iterable[int]):
        super().__init__(("P%d" % prop, prop) for prop in props)

    def __missing__(self, token: str):
        raise ValueError(f"claim key {token!r} is not in the header's props=")


def _parse_sitelinks(links_field: str) -> dict[str, str]:
    """A record's sitelinks field.  A bad pair raises ValueError."""
    sitelinks: dict[str, str] = {}
    if links_field:
        for pair in links_field.split("|"):
            wiki, sep, title = pair.partition("=")
            if not sep:
                raise ValueError(f"bad sitelink field {pair!r}")
            if not wiki:
                raise ValueError("sitelink wiki code is empty")
            if not title:
                raise ValueError(f"sitelink title for {wiki!r} is empty")
            if wiki in sitelinks:
                raise ValueError(f"sitelink {wiki!r} appears twice in the record")
            # one string per wiki code, shared by every record that links it
            sitelinks[intern(wiki)] = _unescape_title(title) if "%" in title else title
    return sitelinks


def _parse_record(props: _Declared, values: Memo, line: str, line_number: int) -> SlimEntity:
    """One record line; ``props`` is the header's list, ``values`` the read's claim value memo."""
    parts = line.split("\t")
    if len(parts) != 3:
        raise SlimStoreCorruptionError(
            f"store line {line_number}: expected 3 tab-separated fields, got {len(parts)}"
        )
    id_field, claims_field, links_field = parts
    value_of = values.__getitem__
    try:
        claims: dict[int, tuple[int, ...]] = {}
        if claims_field:
            for group in claims_field.split(";"):
                prop_text, _, values_text = group.partition(":")
                prop = props[prop_text]
                if prop in claims:
                    raise ValueError(f"claim key {prop_text!r} appears twice in the record")
                claims[prop] = tuple(map(value_of, values_text.split(",")))
        sitelinks = _parse_sitelinks(links_field)
        return SlimEntity(item_number(id_field), claims, sitelinks)
    except ValueError as exc:
        raise SlimStoreCorruptionError(f"store line {line_number}: {exc}") from exc


def _claims_pattern(props: Iterable[str]) -> re.Pattern:
    """The claims fields :func:`_parse_record` accepts under the header's ``props=``.

    That is ``prop:Q<n>[,Q<n>]`` groups joined by ``;``, each ``prop`` one of
    ``props`` and in no later group, or nothing at all.
    """
    keys = "|".join(map(re.escape, props))
    if not keys:
        return re.compile("")
    # the item ids entities.item_number accepts: int() reads no more digits
    # than its limit (0 is no limit)
    limit = get_int_max_str_digits()
    item = f"[Q][1-9][0-9]{{0,{limit - 1}}}" if limit else id_pattern("Q")
    values = f":{item}(?:,{item})*"
    # each group's lookahead refuses a later group with the same key
    first = f"({keys}){values}(?!.*;\\1:)"
    later = f";({keys}){values}(?!.*;\\2:)"
    return re.compile(f"(?:{first}(?:{later})*)?", re.DOTALL)


def _unclaimed_parser(props: _Declared, values: Memo) -> Callable[[str, int], SlimEntity]:
    """The record parse of a read that requires no property: the claims field
    is checked whole against :func:`_claims_pattern` and never built."""
    claims_valid = _claims_pattern(props).fullmatch

    def parse(line: str, line_number: int) -> SlimEntity:
        parts = line.split("\t")
        if len(parts) != 3 or claims_valid(parts[1]) is None:
            _parse_record(props, values, line, line_number)  # raises the checked parse's error
        try:
            sitelinks = _parse_sitelinks(parts[2])
            return SlimEntity(item_number(parts[0]), {}, sitelinks)
        except ValueError as exc:
            raise SlimStoreCorruptionError(f"store line {line_number}: {exc}") from exc

    return parse


def read_slim_store(source: Iterable[str], required_props: Iterable[int]) -> Iterator[SlimEntity]:
    """Yield the stored records in stored order.  Each holds every stored
    claim, unless ``required_props`` is empty: a read that requires no
    property builds no claim.

    Raises :class:`SlimStoreVersionError` for another format version,
    :class:`SlimStoreMismatchError` when the header's ``props=`` lacks one of
    ``required_props``, and :class:`SlimStoreCorruptionError` for a bad
    record, a record out of item order, or a header count that disagrees with
    the records actually present (checked once the stream is exhausted).
    Every read, whatever it requires, accepts the same stores and fails a bad
    one with the same message.
    """
    lines = iter(source)
    header = read_store_header(lines)
    required = set(required_props)
    missing = required.difference(header.props)
    if missing:
        ids = ", ".join(["P%d" % prop for prop in sorted(missing)])
        raise SlimStoreMismatchError(
            f"store was kept without {ids}, which the rules need; rebuild it with these rules"
        )

    props = _Declared(header.props)
    # one id memo per read: a memo that outlived its file would grow with every file read
    values = Memo(item_number)
    parse = partial(_parse_record, props, values) if required else _unclaimed_parser(props, values)
    seen = 0
    previous = 0  # the item number of the record before; every id is above 0
    for line_number, raw in enumerate(lines, start=3):
        line = raw.rstrip("\n")
        if not line:
            continue
        seen += 1
        if seen > header.count:
            raise SlimStoreCorruptionError(
                f"header says {header.count} records but more are present"
            )
        record = parse(line, line_number)
        number = record.id
        if number <= previous:
            raise SlimStoreCorruptionError(
                f"store line {line_number}: item Q{number} does not follow Q{previous}; "
                "records are sorted by item number, each item once"
            )
        previous = number
        yield record
    if seen != header.count:
        raise SlimStoreCorruptionError(
            f"header says {header.count} records but file has {seen}"
        )


def save_slim_store(writer: SlimStoreWriter, path: Path | str) -> int:
    """Write ``writer``'s store (:meth:`SlimStoreWriter.write`) to ``path``,
    through a sibling temporary file that replaces ``path`` only once the
    whole store is written; returns the count.

    The caller closes the writer.  A refused or failed write leaves the file
    already at ``path`` as it was, and removes the temporary file.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8", newline="\n") as sink:
            count = writer.write(sink)
        os.replace(temporary, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(temporary)
        raise
    return count


def load_slim_store(path: Path | str, required_props: Iterable[int]) -> Iterator[SlimEntity]:
    """:func:`read_slim_store` over the file at ``path``, which stays open
    until the last record is read or the stream is closed."""
    with open(path, encoding="utf-8") as source:
        yield from read_slim_store(source, required_props)
