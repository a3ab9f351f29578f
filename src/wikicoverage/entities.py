"""Identifier and minimal-entity types shared by the whole pipeline.

An item travels every stage as its plain ``int`` number: a record's id, its
claim values, the geo index, attribution's results and the article sets all
hold ints, which hash and compare as fast as Python allows.  A text reader
turns an item token into its number once (:func:`item_number`, or an
:class:`IdMemo` for a read's repeated tokens), and a writer prints it as
``"Q%d"``.  :class:`EntityId` stays for properties (the claim keys), for the
rule set's ids and for parsing either kind of token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

ITEM = "item"
PROPERTY = "property"

_KIND_LETTER = {ITEM: "Q", PROPERTY: "P"}
_LETTER_KIND = {"Q": ITEM, "P": PROPERTY}


def id_pattern(kind: str | None = None) -> str:
    """Regex text for the id tokens of ``kind`` (either kind when None) that
    :meth:`EntityId.parse` accepts and ``str()`` writes: a letter, then a
    number in ASCII digits with no sign and no leading zero.  Every reader that
    matches ids in bulk builds its pattern from this one."""
    letters = "".join(_LETTER_KIND) if kind is None else _KIND_LETTER[kind]
    return f"[{letters}][1-9][0-9]*"


_ID_RE = re.compile(id_pattern() + r"\Z")


class EntityId(NamedTuple):
    """A Wikidata-style identifier such as ``Q42`` (item) or ``P17`` (property).

    The bare constructor is a trusted fast path; external inputs should come
    through :meth:`parse`, :meth:`item` or :meth:`prop`, which validate.
    """

    kind: str
    number: int

    @staticmethod
    def _checked(kind: str, number: int) -> "EntityId":
        if kind not in _KIND_LETTER:
            raise ValueError(f"unknown entity kind: {kind!r}")
        if not isinstance(number, int) or isinstance(number, bool) or number < 1:
            raise ValueError(f"entity number must be a positive integer, got {number!r}")
        return EntityId(kind, number)

    @classmethod
    def parse(cls, text: str) -> "EntityId":
        """Parse ``Q42``/``P17``.  Round-trips with ``str()``."""
        if not isinstance(text, str):
            raise ValueError(f"not an entity id: {text!r}")
        if _ID_RE.match(text) is None:
            raise ValueError(f"not an entity id: {text!r}")
        return cls(_LETTER_KIND[text[0]], int(text[1:]))

    @classmethod
    def item(cls, number: int) -> "EntityId":
        return cls._checked(ITEM, number)

    @classmethod
    def prop(cls, number: int) -> "EntityId":
        return cls._checked(PROPERTY, number)

    @property
    def is_property(self) -> bool:
        return self.kind == PROPERTY

    @property
    def sort_key(self) -> tuple[int, int]:
        return (0 if self.kind == ITEM else 1, self.number)

    def __str__(self) -> str:
        return _KIND_LETTER[self.kind] + str(self.number)


def item_number(text: str) -> int:
    """The number of an item id such as ``Q42``; any other token raises ValueError.

    The common ASCII ``Q<digits>`` form is read without the regex; every
    other token takes the :meth:`EntityId.parse` path, so both accept exactly
    the same item ids.
    """
    if type(text) is str and text[:1] == "Q" and text[1:2] != "0" and text.isascii() and text[1:].isdigit():
        return int(text[1:])
    EntityId.parse(text)  # raises for every token that is no id
    raise ValueError(f"not an item id: {text!r}")


class IdMemo(dict):
    """Item id token -> item number (:func:`item_number`), for the life of one read.

    Each distinct token is validated on its first lookup, which raises
    ValueError for a bad token or a property id and stores nothing; later
    lookups return the same int, so equal ids in one read share one object.
    Create one per read: a memo that outlives its file would grow with every
    file read.
    """

    __slots__ = ()

    def __missing__(self, token: str) -> int:
        number = self[token] = item_number(token)
        return number


@dataclass(frozen=True, slots=True)
class SlimEntity:
    """The minimal projection of one dump item: id, kept claims, kept sitelinks.

    ``id`` is the item's number (``42`` for ``Q42``); ``claims`` maps a
    property id to the item numbers of its kept claims, in claim order;
    ``sitelinks`` maps a wiki code (``enwiki``) to the article title exactly
    as spelled in the dump.  Instances are treated as immutable and are safe
    to share between threads.

    The constructor checks every field.  :meth:`trusted` skips those checks
    and is only for the readers that have already made each of them on the
    way in: the dump parser (``dump._parse_entity_line``) and the store reader
    (``slimstore._parse_record``).
    """

    id: int
    claims: dict[EntityId, tuple[int, ...]] = field(default_factory=dict)
    sitelinks: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if type(self.id) is not int or self.id < 1:
            raise ValueError(f"entity id must be an item number, got {self.id!r}")
        for prop, values in self.claims.items():
            if not prop.is_property:
                raise ValueError(f"claim key must be a property, got {prop}")
            if not values:
                raise ValueError(f"claim group {prop} is empty")
            for value in values:
                if type(value) is not int or value < 1:
                    raise ValueError(f"claim value must be an item number, got {value!r} under {prop}")
        for wiki, title in self.sitelinks.items():
            if not wiki:
                raise ValueError("sitelink wiki code is empty")
            if not title:
                raise ValueError(f"sitelink title for {wiki!r} is empty")

    @classmethod
    def trusted(cls, id: int, claims: dict[EntityId, tuple[int, ...]], sitelinks: dict[str, str]) -> "SlimEntity":
        """Build a record without ``__post_init__``'s checks.

        The caller must already have checked every field: ``id`` is an item
        number, each claim key a property with a non-empty tuple of item
        numbers, and each sitelink a non-empty wiki code with a non-empty title.
        """
        entity = _new_object(cls)
        _set_id(entity, id)
        _set_claims(entity, claims)
        _set_sitelinks(entity, sitelinks)
        return entity

    def claim_values(self, prop: EntityId) -> tuple[int, ...]:
        """The item numbers that ``prop`` claims, in claim order."""
        return self.claims.get(prop, ())


# the slot setters, which a frozen dataclass's own __setattr__ refuses to run
_new_object = object.__new__
_set_id = SlimEntity.__dict__["id"].__set__
_set_claims = SlimEntity.__dict__["claims"].__set__
_set_sitelinks = SlimEntity.__dict__["sitelinks"].__set__
