"""Compact intermediate store for parsed entities.

Re-parsing dump JSON on every run defeats the two-pass pipeline, so parsed
entities are persisted as one compact JSON array per line, under two header
lines:

    WCM4
    count=<n> props=<comma-list>
    [<item>,[<prop>,[<item>,...],...],["<wiki>","<title>",...]]

A record holds the item's number, its claims as alternating property numbers
and arrays of item numbers, and its sitelinks as alternating wiki codes and
titles, e.g. ``[42,[17,[30],31,[5]],["dewiki","X","enwiki","Y"]]``.  Records
are sorted by item number, each item once; claim keys and wiki codes
ascend, each once.  The stdlib ``json`` codec writes and reads every line,
so a title or a wiki code may hold any character but a lone surrogate.
``props=`` lists the properties the parse kept.  ``WCM1`` to ``WCM3``, which
spelled records in a grammar of their own, are not read: rebuild such a store.

One reader, :func:`read_slim_store` (:func:`load_slim_store` from a path),
checks the header, that ``props=`` holds every property its caller
requires, the header count in both directions and the item order, and
decodes each record line once and checks each field: the id and every claim
value an item number (an ``int`` of at least 1, not a ``bool``), each claim
key one of ``props=``, each wiki code and title a non-empty string with no
lone surrogate, which only a ``\\ud800`` escape can spell.  A read that
requires no property (``metrics``) builds no claim; any other yields every
stored claim.  Both make the same checks, so they accept the same stores
and fail a bad one with the same message, naming its line.  Records are
built with the plain :class:`SlimEntity` constructor; no reader lists them.

The writer (:class:`SlimStoreWriter`) takes records in any order.  Its
precondition is that every claim key is one of ``keep_props`` and that
claim keys and wiki codes ascend, as the dump parser yields them.  Its one
producer in the package is :func:`report.slim_stage`, which hands it the
parser's records; the package does not export it.  It renders each record
to the UTF-8 bytes of its line at once, so a lone surrogate, which has no
UTF-8 form, is refused before anything is written.  It keeps at most
:data:`RUN_BYTES` bytes of lines, spilling each full run, sorted by item
number, to a binary temporary file; the store is the merge of the runs,
written to a binary sink.  A repeated item raises
:class:`DuplicateItemError`: before anything is written when both records
are in one run, while the merge is written otherwise.
:func:`save_slim_store` renames its file over the target only once the whole
store is written.
"""

from __future__ import annotations

import heapq
import json
import os
import re
import tempfile
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, compress, islice
from operator import eq, itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator

from .entities import SlimEntity, property_number
from .errors import (
    DuplicateItemError,
    SlimStoreCorruptionError,
    SlimStoreMismatchError,
    SlimStoreVersionError,
    SlimStoreWriteError,
)
from .util import first_repeat, lone_surrogate, parse_count

MAGIC = "WCM4"

_HEADER_RE = re.compile(r"count=([0-9]+) props=(\S*)\Z")

# The most rendered store lines the writer holds, in UTF-8 bytes (32 MiB).  A
# full run is sorted and spilled to a temporary file; a 9 GB store (90M items)
# spills at most 268 runs, each open until the merge, far below the usual limit
# of 1024 open files.
RUN_BYTES = 1 << 25

_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), check_circular=False).encode
_decode = json.JSONDecoder().raw_decode
_flat = chain.from_iterable  # a dict's items as alternating keys and values


@dataclass(frozen=True)
class StoreHeader:
    count: int
    props: tuple[int, ...]


_first = itemgetter(0)  # a sorted run's (item number, line) pair: its number
_line = itemgetter(1)  # and its line


def _record_line(entity: SlimEntity) -> bytes:
    """The UTF-8 store line of ``entity``, which keeps to the writer's
    precondition; a lone surrogate raises UnicodeEncodeError."""
    line = _encode([entity.id, [*_flat(entity.claims.items())], [*_flat(entity.sitelinks.items())]]) + "\n"
    return line.encode()


def _line_number(line: bytes) -> int:
    """The item number a spilled store line starts with."""
    return int(line[1 : line.index(b",")])


def _spilled(run: IO[bytes]) -> Iterator[tuple[int, bytes]]:
    """The (item number, line) pairs of a spilled run, from its start."""
    run.seek(0)
    for line in run:
        yield _line_number(line), line


class SlimStoreWriter:
    """Writes records given in any order as one store, sorted by item number.

    :meth:`add` renders each record to the UTF-8 bytes of its store line as
    it arrives; each record must keep to the header and to the record order
    (see the module docstring).  The writer holds at most :data:`RUN_BYTES`
    bytes of lines: a full run is sorted and spilled to a binary temporary
    file, so writing a store takes about its size in ``TMPDIR`` when it does
    not fit in one run.  :meth:`write` (or :func:`save_slim_store`) then
    writes the header, whose count is known by then, and a merge of the
    spilled runs and the last run, which stays in memory.  A repeated item is two adjacent equal
    numbers: inside one run it raises :class:`DuplicateItemError` before
    anything is written, across runs while the merge is written.
    Close the writer, or use it as a context manager, to drop the spilled
    runs.
    """

    def __init__(self, keep_props: Iterable[int]):
        self._props = frozenset(keep_props)
        self.count = 0
        self._run: list[bytes] = []  # rendered lines, in arrival order
        self._numbers: list[int] = []  # the item number of each line in the run
        self._run_bytes = 0
        self._spills: list[IO[bytes]] = []

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
        :class:`SlimStoreWriteError`; a lone surrogate raises
        UnicodeEncodeError.
        """
        try:
            line = _record_line(record)
            self._run.append(line)
            self._numbers.append(record.id)
            self._run_bytes += len(line)
            if self._run_bytes >= RUN_BYTES:
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

    def _sorted_run(self) -> list[tuple[int, bytes]]:
        """The current run as sorted (item number, line) pairs, which starts a
        new run; a repeated item raises.  The pairs live only until the run is
        spilled or written, so a held line costs no pair."""
        run = sorted(zip(self._numbers, self._run), key=_first)
        self._numbers, self._run, self._run_bytes = [], [], 0
        numbers = list(map(_first, run))
        repeated = next(compress(numbers, map(eq, numbers, islice(numbers, 1, None))), None)
        if repeated is not None:
            raise DuplicateItemError(f"item Q{repeated} appears twice in the input stream")
        return run

    def _spill(self) -> None:
        run = self._sorted_run()
        spill = tempfile.TemporaryFile("w+b")
        self._spills.append(spill)
        spill.writelines(map(_line, run))

    def write(self, sink: IO[bytes]) -> int:
        """Write the store to the binary ``sink``, once; returns the record count.

        A failed write raises :class:`SlimStoreWriteError` with the number of
        records that made it out before the failure.  The header lists
        ``keep_props``, the properties the parse kept.
        """
        last = self._sorted_run()
        props = ",".join(["P%d" % prop for prop in sorted(self._props)])
        written = previous = 0
        try:
            sink.write(f"{MAGIC}\n".encode())
            sink.write(f"count={self.count} props={props}\n".encode())
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
    to ``WCM3`` included) and :class:`SlimStoreCorruptionError` for a missing
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


def _parse_record(props: frozenset[int], claimed: bool, line: str) -> SlimEntity:
    """One record line, decoded once and checked field by field; its claims
    are built when ``claimed``.  ``props`` holds the header's properties.  A
    bad record raises ValueError."""
    try:
        record, end = _decode(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON at column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an over-long integer, or nesting too deep
        raise ValueError(f"invalid JSON: {exc}") from None
    if line[end:] not in ("\n", "") or type(record) is not list or len(record) != 3:
        raise ValueError("a record is one JSON array of 3 elements")
    item, groups, links = record
    if type(item) is not int or item < 1:
        raise ValueError(f"not an item number: {_encode(item)}")
    if type(groups) is not list or len(groups) % 2:
        raise ValueError("claims are not an array of alternating properties and values")
    claims: dict[int, tuple[int, ...]] = {}
    previous = 0
    fields = iter(groups)
    for prop in fields:
        values = next(fields)
        if type(prop) is not int or prop not in props:
            raise ValueError(f"claim key {_encode(prop)} is not in the header's props=")
        if prop <= previous:
            raise ValueError(f"claim key {prop} does not follow {previous}; claim keys are ascending, each once")
        previous = prop
        if type(values) is not list or not values:
            raise ValueError(f"claim values of {prop} are not a non-empty array")
        for value in values:
            if type(value) is not int or value < 1:
                raise ValueError(f"not an item number: {_encode(value)}")
        if claimed:
            claims[prop] = tuple(values)
    if type(links) is not list or len(links) % 2:
        raise ValueError("sitelinks are not an array of alternating wiki codes and titles")
    sitelinks: dict[str, str] = {}
    last = ""
    fields = iter(links)
    for wiki in fields:
        title = next(fields)
        if type(wiki) is not str or not wiki:
            raise ValueError(f"sitelink wiki code {_encode(wiki)} is not a non-empty string")
        if wiki <= last:
            raise ValueError(f"sitelink {wiki!r} does not follow {last!r}; wiki codes are ascending, each once")
        last = wiki
        if type(title) is not str or not title:
            raise ValueError(f"sitelink title for {wiki!r} is not a non-empty string: {_encode(title)}")
        sitelinks[wiki] = title
    # only an escape spells a lone surrogate, and the writer writes none
    if "\\u" in line and lone_surrogate("".join(links)):
        raise ValueError("a sitelink holds a lone surrogate")
    return SlimEntity(item, claims, sitelinks)


def read_slim_store(source: Iterable[str], required_props: Iterable[int]) -> Iterator[SlimEntity]:
    """Yield the stored records in stored order.  Each holds every stored
    claim, unless ``required_props`` is empty: a read that requires no
    property builds no claim.

    Raises :class:`SlimStoreVersionError` for another format version,
    :class:`SlimStoreMismatchError` when the header's ``props=`` lacks one of
    ``required_props``, and :class:`SlimStoreCorruptionError` for a bad
    record, a record out of item order, or a header count that disagrees with
    the records actually present (checked once the stream is exhausted).
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

    props = frozenset(header.props)
    claimed = bool(required)
    seen = 0
    previous = 0  # the item number of the record before; every id is above 0
    for line_number, line in enumerate(lines, start=3):
        if line == "\n":
            continue
        seen += 1
        if seen > header.count:
            raise SlimStoreCorruptionError(f"header says {header.count} records but more are present")
        try:
            record = _parse_record(props, claimed, line)
        except ValueError as exc:
            raise SlimStoreCorruptionError(f"store line {line_number}: {exc}") from exc
        number = record.id
        if number <= previous:
            raise SlimStoreCorruptionError(
                f"store line {line_number}: item Q{number} does not follow Q{previous}; "
                "records are sorted by item number, each item once"
            )
        previous = number
        yield record
    if seen != header.count:
        raise SlimStoreCorruptionError(f"header says {header.count} records but file has {seen}")


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
        with open(temporary, "wb") as sink:
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
