"""Compact intermediate store for parsed entities.

Re-parsing dump JSON on every run defeats the two-pass pipeline, so parsed
entities are persisted in a small line-oriented format:

    WCM2
    count=<n> props=<comma-list> wikis=<comma-list or *>
    <QID>\\t<prop>:<QID>[,...][;...]\\t<wiki>=<title>[|...]

Records are sorted by item number, each item once.  Titles have ``%``, tab,
pipe, CR and LF percent-encoded.  The header's keep-set lists fingerprint the
parse configuration that produced the store; a reader given the properties
its rules need checks them against ``props=``.  ``WCM1``, which also stored
non-item claim values as ``*``, is not read: rebuild such a store.

There are two readers of one file, and they share one record skeleton: the
magic and header lines, the ``props=`` check, line numbers, blank lines, the
header count in both directions, the sitelink checks and the item order.

* :func:`read_slim_store` yields whole :class:`SlimEntity` records.  It
  validates every id token: record ids and claim values must be items, and
  the header's ``props=`` properties.  Each distinct token is validated once
  per read, on its first appearance, and equal ids then share one object.
  Since every field is checked on the way in, records are built with
  :meth:`SlimEntity.trusted`; :func:`load_slim_store` lists them with the
  cyclic collector paused (:func:`util.paused_gc`).
* :func:`read_store_sitelinks` yields only each record's id and sitelinks, for
  the article sets of ``metrics``.  It checks the claims field whole against
  one pattern compiled from ``props=`` and builds no claim; a field that fails
  the pattern is handed to the whole-record parser, so both readers accept
  the same stores and fail a bad one with the same message.

Either way a bad token raises :class:`SlimStoreCorruptionError` naming its
line.  The header is enforced per record: a claim key must be one of
``props=``, and a sitelink one of ``wikis=`` unless that is ``*``.  A record
that breaks its own header, or does not follow the record before it in item
order, is corruption naming its line.

The writer holds each record to the header it writes: a claim key outside
``keep_props``, or a sitelink outside ``keep_wikis``, raises ValueError, and a
repeated item raises :class:`DuplicateItemError`, before anything is written,
so the writer never leaves a store its reader rejects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple

from .entities import ITEM, PROPERTY, EntityId, IdMemo, SlimEntity
from .errors import (
    DuplicateItemError,
    SlimStoreCorruptionError,
    SlimStoreMismatchError,
    SlimStoreVersionError,
    SlimStoreWriteError,
)
from .util import paused_gc

MAGIC = "WCM2"

_HEADER_RE = re.compile(r"count=(\d+) props=(\S*) wikis=(\S*)\Z")
_ESCAPE_RE = re.compile(r"[%\t|\n\r]")
_UNESCAPE_RE = re.compile(r"%(25|09|7C|0A|0D)")
_ESCAPES = {"%": "%25", "\t": "%09", "|": "%7C", "\n": "%0A", "\r": "%0D"}
_UNESCAPES = {"25": "%", "09": "\t", "7C": "|", "0A": "\n", "0D": "\r"}
_ITEM_TOKEN = "Q[1-9][0-9]*"  # the item ids EntityId.parse_item accepts
_new_tuple = tuple.__new__  # skips NamedTuple's Python-level __new__


def _escape_title(title: str) -> str:
    return _ESCAPE_RE.sub(lambda m: _ESCAPES[m.group(0)], title)


def _unescape_title(text: str) -> str:
    return _UNESCAPE_RE.sub(lambda m: _UNESCAPES[m.group(1)], text)


@dataclass(frozen=True)
class StoreHeader:
    count: int
    props: tuple[EntityId, ...]
    wikis: tuple[str, ...] | None  # None = unrestricted


def _record_line(entity: SlimEntity) -> str:
    claims = ";".join(
        f"{prop}:" + ",".join(map(str, values))
        for prop, values in sorted(entity.claims.items(), key=lambda kv: kv[0].number)
    )
    links = "|".join(
        f"{wiki}={_escape_title(title)}" for wiki, title in sorted(entity.sitelinks.items())
    )
    return f"{entity.id}\t{claims}\t{links}\n"


def write_slim_store(
    entities: Iterable[SlimEntity],
    sink: IO[str],
    *,
    keep_props: Iterable[EntityId],
    keep_wikis: Iterable[str] | None = None,
) -> int:
    """Write entities (re-sorted by id number) to ``sink``; returns the count.

    The header lists ``keep_props``, the properties the parse kept, and
    ``keep_wikis`` (``wikis=*`` when None, meaning unrestricted).  A failed
    write raises :class:`SlimStoreWriteError` with the number of records that
    made it out before the failure.  A record with a claim key outside
    ``keep_props``, or a sitelink outside ``keep_wikis``, raises ValueError
    naming the item, and a repeated item raises :class:`DuplicateItemError`,
    before anything is written.
    """
    records = sorted(entities, key=lambda e: e.id.number)
    prop_set = set(keep_props)
    wiki_set = None if keep_wikis is None else set(keep_wikis)
    previous = None
    for record in records:
        if record.id == previous:  # sorted, so a repeat is the record before
            raise DuplicateItemError(f"item {record.id} appears twice in the input stream")
        previous = record.id
        if not record.claims.keys() <= prop_set:
            extra = min(record.claims.keys() - prop_set, key=lambda p: p.sort_key)
            raise ValueError(f"item {record.id}: claim key {extra} is not in keep_props")
        if wiki_set is not None and not record.sitelinks.keys() <= wiki_set:
            extra = min(record.sitelinks.keys() - wiki_set)
            raise ValueError(f"item {record.id}: sitelink {extra!r} is not in keep_wikis")
    props = sorted(prop_set, key=lambda p: p.number)
    wikis = "*" if wiki_set is None else ",".join(sorted(wiki_set))
    header = f"count={len(records)} props={','.join(str(p) for p in props)} wikis={wikis}\n"

    written = 0
    try:
        sink.write(MAGIC + "\n")
        sink.write(header)
        for record in records:
            sink.write(_record_line(record))
            written += 1
    except OSError as exc:
        raise SlimStoreWriteError(
            f"write failed after {written} of {len(records)} records: {exc}",
            records_written=written,
        ) from exc
    return len(records)


def read_store_header(source: Iterable[str]) -> StoreHeader:
    """Read the magic and header lines of a store stream.

    Raises :class:`SlimStoreVersionError` for another format version (``WCM1``
    included) and :class:`SlimStoreCorruptionError` for a missing or malformed
    header.  An iterator is left at the first record line.
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
    count = int(match.group(1))
    props_field, wikis_field = match.group(2), match.group(3)
    prop_of = IdMemo(PROPERTY).__getitem__
    try:
        props = tuple(prop_of(tok) for tok in props_field.split(",") if tok)
    except ValueError as exc:
        raise SlimStoreCorruptionError(f"line 2: {exc}") from exc
    if wikis_field == "*":
        wikis = None
    else:
        wikis = tuple(tok for tok in wikis_field.split(",") if tok)
    return StoreHeader(count, props, wikis)


class _Declared(dict):
    """Header token -> its value; a token the header does not declare is corruption."""

    __slots__ = ("message",)

    def __init__(self, message: str, values: Iterable):
        super().__init__((str(value), value) for value in values)
        self.message = message

    def __missing__(self, token: str):
        raise ValueError(self.message.format(token))


def _parse_sitelinks(links_field: str, wikis: _Declared | None) -> dict[str, str]:
    """A record's sitelinks field; ``wikis`` None = unrestricted.  A bad pair raises ValueError."""
    sitelinks: dict[str, str] = {}
    if links_field:
        for pair in links_field.split("|"):
            wiki, sep, title = pair.partition("=")
            if not sep:
                raise ValueError(f"bad sitelink field {pair!r}")
            if wikis is not None:
                wiki = wikis[wiki]
            elif not wiki:
                raise ValueError("sitelink wiki code is empty")
            if not title:
                raise ValueError(f"sitelink title for {wiki!r} is empty")
            sitelinks[wiki] = _unescape_title(title) if "%" in title else title
    return sitelinks


def _parse_record(
    props: _Declared, wikis: _Declared | None, values: IdMemo, line: str, line_number: int
) -> SlimEntity:
    """One record line; ``props`` and ``wikis`` (None = unrestricted) are the
    header's lists, ``values`` the read's item id memo."""
    parts = line.split("\t")
    if len(parts) != 3:
        raise SlimStoreCorruptionError(
            f"line {line_number}: expected 3 tab-separated fields, got {len(parts)}"
        )
    id_field, claims_field, links_field = parts
    value_of = values.__getitem__
    try:
        claims: dict[EntityId, tuple[EntityId, ...]] = {}
        if claims_field:
            for group in claims_field.split(";"):
                prop_text, _, values_text = group.partition(":")
                claims[props[prop_text]] = tuple(map(value_of, values_text.split(",")))
        sitelinks = _parse_sitelinks(links_field, wikis)
        return SlimEntity.trusted(EntityId.parse_item(id_field), claims, sitelinks)
    except ValueError as exc:
        raise SlimStoreCorruptionError(f"line {line_number}: {exc}") from exc


class SitelinksRecord(NamedTuple):
    """One store record as :func:`read_store_sitelinks` yields it: no claims."""

    id: EntityId
    sitelinks: dict[str, str]


def _claims_pattern(props: Iterable[str]) -> re.Pattern:
    """The claims fields :func:`_parse_record` accepts under the header's ``props=``.

    That is ``prop:Q<n>[,Q<n>]`` groups joined by ``;``, each ``prop`` one of
    ``props``, or nothing at all.
    """
    keys = "|".join(map(re.escape, props))
    if not keys:
        return re.compile("")
    group = f"(?:{keys}):{_ITEM_TOKEN}(?:,{_ITEM_TOKEN})*"
    return re.compile(f"(?:{group}(?:;{group})*)?")


def _sitelinks_parser(props: _Declared, wikis: _Declared | None) -> Callable[[str, int], SitelinksRecord]:
    claims_valid = _claims_pattern(props).fullmatch
    parse_record = partial(_parse_record, props, wikis, IdMemo(ITEM))
    parse_item = EntityId.parse_item

    def parse(line: str, line_number: int) -> SitelinksRecord:
        parts = line.split("\t")
        if len(parts) != 3 or claims_valid(parts[1]) is None:
            entity = parse_record(line, line_number)  # raises the whole reader's error
            return _new_tuple(SitelinksRecord, (entity.id, entity.sitelinks))
        try:
            sitelinks = _parse_sitelinks(parts[2], wikis)
            return _new_tuple(SitelinksRecord, (parse_item(parts[0]), sitelinks))
        except ValueError as exc:
            raise SlimStoreCorruptionError(f"line {line_number}: {exc}") from exc

    return parse


def _read_records(
    source: Iterable[str],
    required_props: Iterable[EntityId],
    parser: Callable[[_Declared, _Declared | None], Callable[[str, int], SlimEntity | SitelinksRecord]],
) -> Iterator:
    """The record skeleton both readers share.

    ``parser(props, wikis)`` gives the function that turns one record line and
    its number into a record; it is called once the header is read.
    """
    lines = iter(source)
    header = read_store_header(lines)
    missing = set(required_props).difference(header.props)
    if missing:
        ids = ", ".join(str(p) for p in sorted(missing, key=lambda p: p.number))
        raise SlimStoreMismatchError(
            f"store was kept without {ids}, which the rules need; rebuild it with these rules"
        )

    props = _Declared("claim key {!r} is not in the header's props=", header.props)
    wikis = None
    if header.wikis is not None:
        wikis = _Declared("sitelink {!r} is not in the header's wikis=", header.wikis)
    parse = parser(props, wikis)
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
        number = record.id.number
        if number <= previous:
            raise SlimStoreCorruptionError(
                f"line {line_number}: item {record.id} does not follow Q{previous}; "
                "records are sorted by item number, each item once"
            )
        previous = number
        yield record
    if seen != header.count:
        raise SlimStoreCorruptionError(
            f"header says {header.count} records but file has {seen}"
        )


def read_slim_store(
    source: Iterable[str], required_props: Iterable[EntityId] = ()
) -> Iterator[SlimEntity]:
    """Yield the stored records in stored order.

    Raises :class:`SlimStoreVersionError` for another format version,
    :class:`SlimStoreMismatchError` when the header's ``props=`` lacks one of
    ``required_props``, and :class:`SlimStoreCorruptionError` for a bad
    record, a record out of item order, or a header count that disagrees with
    the records actually present (checked once the stream is exhausted).
    """
    return _read_records(
        source, required_props, lambda props, wikis: partial(_parse_record, props, wikis, IdMemo(ITEM))
    )


def read_store_sitelinks(source: Iterable[str]) -> Iterator[SitelinksRecord]:
    """Yield each stored record's ``.id`` and ``.sitelinks``, in stored order.

    Accepts exactly the stores :func:`read_slim_store` accepts and fails the
    others with the same error.  The claims field is checked whole and never
    built.
    """
    return _read_records(source, (), _sitelinks_parser)


def save_slim_store(entities: Iterable[SlimEntity], path: Path | str, **kwargs) -> int:
    with open(path, "w", encoding="utf-8", newline="\n") as sink:
        return write_slim_store(entities, sink, **kwargs)


def load_slim_store(path: Path | str, required_props: Iterable[EntityId] = ()) -> list[SlimEntity]:
    with open(path, encoding="utf-8") as source, paused_gc():
        return list(read_slim_store(source, required_props))
