"""Streaming parser for Wikidata JSON entity dumps.

A dump is a single JSON array laid out one entity per line: the first line is
``[``, the last is ``]``, and every line in between holds one complete entity
object with an optional trailing comma.  The parser walks the stream line by
line, so memory use is bounded by the longest line rather than the file size.

Only item-kind entities survive.  Claims are projected down to a caller-chosen
keep-set of properties, sitelinks to a keep-set of wiki codes; everything else
is dropped on the spot.  A kept claim value is an item id: a statement whose
value is anything else (a string, a quantity, a property, a no-value or
some-value snak), and every deprecated-rank statement, is dropped, and so is
a claim group left empty.  An item whose kept wiki code or title holds a
lone surrogate, which a ``\\ud800`` escape decodes to and UTF-8 cannot
encode, is a malformed line.  Kept claims come in ascending property order
and kept sitelinks in ascending wiki order, the order a slim store keeps.

Each item is checked field by field as it is projected, and then built with
the plain :class:`SlimEntity` constructor.  Ids are their int numbers: a
claim value is the ``numeric-id`` int that the JSON decoder already built, a
record id is read from its ``Q<n>`` token (:func:`entities.item_number`), and
a claim key is the caller's property number, looked up as its ``P<n>`` key.  It
interns no claim value: no caller keeps the records (the slim stage renders
each to its store line as it passes), and a memo would grow with the distinct
values of the whole dump and break the parser's flat memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from .entities import SlimEntity, item_number
from .errors import DumpTruncatedError
from .util import lone_surrogate


@dataclass(frozen=True)
class ParseIssue:
    """One malformed input line, kept for the caller's error tally."""

    line_number: int
    reason: str


def parse_dump_stream(
    stream: Iterable[bytes],
    keep_props: frozenset[int] | set[int],
    keep_wikis: set[str] | frozenset[str] | None,
    *,
    errors: list[ParseIssue],
    require_terminator: bool = True,
) -> Iterator[SlimEntity]:
    """Yield one :class:`SlimEntity` per item entity, in file order.

    ``stream`` yields bytes lines, as a binary file does.  ``keep_props`` is
    a set of property numbers (``rules.required_properties``); claims
    outside it are dropped, as are sitelinks outside ``keep_wikis`` (``None``
    keeps every sitelink).
    Malformed lines, a line that is not UTF-8 among them, are appended to
    ``errors`` and skipped.  A dump that ends without its closing ``]``
    raises :class:`DumpTruncatedError` unless ``require_terminator`` is
    false, which is the mode used to parse dump fragments split between lines.
    """
    prop_by_key = {"P%d" % prop: prop for prop in sorted(keep_props)}
    wiki_keys = None if keep_wikis is None else sorted(set(keep_wikis))

    saw_terminator = False
    last_line_number = 0
    pending_issue: ParseIssue | None = None

    for line_number, raw in enumerate(stream, start=1):
        if pending_issue is not None:
            errors.append(pending_issue)
            pending_issue = None
        last_line_number = line_number
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            pending_issue = ParseIssue(line_number, "invalid UTF-8")
            continue
        if not line or line == "[":
            continue
        if line == "]":
            saw_terminator = True
            continue
        if line.endswith(","):
            line = line[:-1]
        entity, reason = _parse_entity_line(line, prop_by_key, wiki_keys)
        if reason is not None:
            pending_issue = ParseIssue(line_number, reason)
        elif entity is not None:
            yield entity

    if require_terminator and not saw_terminator:
        detail = f": {pending_issue.reason}" if pending_issue is not None else ""
        raise DumpTruncatedError(
            f"dump ended at line {last_line_number} without closing ']'{detail}"
        )
    if pending_issue is not None:
        errors.append(pending_issue)


def _parse_entity_line(
    line: str,
    prop_by_key: dict[str, int],
    wiki_keys: list[str] | None,
) -> tuple[SlimEntity | None, str | None]:
    """Parse one entity line; returns (entity, None), (None, reason) on a
    malformed line, or (None, None) for entities that are simply not items."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        return None, f"invalid JSON: {exc.msg}"
    except (ValueError, RecursionError) as exc:  # an over-long integer, or nesting too deep
        return None, f"invalid JSON: {exc}"
    if not isinstance(obj, dict):
        return None, "entity line is not a JSON object"
    kind = obj.get("type")
    if kind is None:
        return None, "entity has no type"
    if kind != "item":
        return None, None
    id_raw = obj.get("id")
    try:
        entity_id = item_number(id_raw)
    except ValueError:
        return None, f"bad entity id: {id_raw!r}"

    claims_obj = obj.get("claims")
    claims: dict[int, tuple[int, ...]] = {}
    if isinstance(claims_obj, dict):
        for key, prop in prop_by_key.items():
            statements = claims_obj.get(key)
            if not isinstance(statements, list):
                continue
            values = []
            for statement in statements:
                # a statement is kept when its value is an item id; a deprecated
                # one, and a no-value or some-value snak (no datavalue), is not
                if not isinstance(statement, dict) or statement.get("rank") == "deprecated":
                    continue
                mainsnak = statement.get("mainsnak")
                datavalue = mainsnak.get("datavalue") if isinstance(mainsnak, dict) else None
                value = datavalue.get("value") if isinstance(datavalue, dict) else None
                if not isinstance(value, dict) or value.get("entity-type") != "item":
                    continue
                number = value.get("numeric-id")
                if type(number) is int and number >= 1:
                    values.append(number)
                    continue
                try:
                    values.append(item_number(value.get("id")))
                except ValueError:
                    pass
            if values:
                claims[prop] = tuple(values)

    sitelinks_obj = obj.get("sitelinks")
    sitelinks: dict[str, str] = {}
    if isinstance(sitelinks_obj, dict):
        if wiki_keys is None:
            pairs = sorted(sitelinks_obj.items())
        else:
            pairs = [(wiki, sitelinks_obj.get(wiki)) for wiki in wiki_keys]
        for wiki, entry in pairs:
            if not isinstance(entry, dict):
                continue
            title = entry.get("title")
            if wiki and isinstance(title, str) and title:
                if not wiki.isascii() and lone_surrogate(wiki):
                    return None, f"sitelink wiki code {wiki!r} holds a lone surrogate"
                if not title.isascii() and lone_surrogate(title):
                    return None, f"sitelink title for {wiki!r} holds a lone surrogate"
                sitelinks[wiki] = title

    return SlimEntity(entity_id, claims, sitelinks), None
