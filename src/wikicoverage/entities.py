"""Identifier and minimal-entity types shared by the whole pipeline.

Every id travels every stage as its plain ``int`` number: an item (``Q42``) as
``42``, a property (``P17``) as ``17``.  A record's id, its claim keys and
values, the geo index, the rule set, attribution's results and the article
sets all hold ints, which hash and compare as fast as Python allows, and hash
alike under every string hash seed.  Which kind an int is follows from where
it sits.  An id's letter is read only where text comes in
(:func:`item_number`, :func:`property_number`) and written only where text
goes out, as ``"Q%d"`` or ``"P%d"``; a slim store spells ids as bare JSON
integers, which its decoder reads as ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def id_pattern(letters: str) -> str:
    """Regex text for the id tokens that start with one of ``letters``: the
    letter, then a number in ASCII digits with no sign and no leading zero,
    which is what :func:`item_number` and :func:`property_number` accept and
    ``"Q%d"``/``"P%d"`` write.  Every reader that matches ids in bulk builds
    its pattern from this one."""
    return f"[{letters}][1-9][0-9]*"


def item_number(text: str) -> int:
    """The number of an item id such as ``Q42``; any other token raises ValueError."""
    if type(text) is str and text[:1] == "Q" and text[1:2] != "0" and text.isascii() and text[1:].isdigit():
        return int(text[1:])
    raise ValueError(f"not an item id: {text!r}")


def property_number(text: str) -> int:
    """The number of a property id such as ``P17``; any other token raises ValueError."""
    if type(text) is str and text[:1] == "P" and text[1:2] != "0" and text.isascii() and text[1:].isdigit():
        return int(text[1:])
    raise ValueError(f"not a property id: {text!r}")


@dataclass(slots=True)
class SlimEntity:
    """The minimal projection of one dump item: id, kept claims, kept sitelinks.

    ``id`` is the item's number (``42`` for ``Q42``); ``claims`` maps a
    property's number (``17`` for ``P17``) to the item numbers of its kept
    claims, in claim order, never an empty tuple; ``sitelinks`` maps a
    non-empty wiki code (``enwiki``) to the non-empty article title exactly
    as spelled in the dump.  A store read may hold fewer claims than the
    input kept: it builds only those its caller requires.

    The constructor checks nothing.  Every record a run makes comes from a
    reader that has checked each field on the way in: the dump parser
    (``dump._parse_entity_line``) or the store reader
    (``slimstore.read_slim_store``).  Records are never changed once built.
    """

    id: int
    claims: dict[int, tuple[int, ...]] = field(default_factory=dict)
    sitelinks: dict[str, str] = field(default_factory=dict)
