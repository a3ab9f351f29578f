"""Identifier and minimal-entity types shared by the whole pipeline."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

ITEM = "item"
PROPERTY = "property"

_KIND_LETTER = {ITEM: "Q", PROPERTY: "P"}
_LETTER_KIND = {"Q": ITEM, "P": PROPERTY}
_KIND_NAME = {ITEM: "an item", PROPERTY: "a property"}
_new_tuple = tuple.__new__  # skips NamedTuple's Python-level __new__


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

    The bare constructor is the trusted fast path used by the dump parser;
    external inputs should come through :meth:`parse`, :meth:`parse_item`,
    :meth:`item` or :meth:`prop`, which validate.
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
    def parse_item(cls, text: str) -> "EntityId":
        """Parse an item id such as ``Q42``; any other token raises ValueError.

        The common ASCII ``Q<digits>`` form is built without the regex; every
        other token takes the :meth:`parse` path, so both accept exactly the
        same item ids.
        """
        if (
            type(text) is str
            and text[:1] == "Q"
            and text[1:2] != "0"
            and text.isascii()
            and text[1:].isdigit()
        ):
            return _new_tuple(cls, (ITEM, int(text[1:])))
        entity_id = cls.parse(text)
        if entity_id.kind != ITEM:
            raise ValueError(f"not an item id: {text!r}")
        return entity_id

    @classmethod
    def item(cls, number: int) -> "EntityId":
        return cls._checked(ITEM, number)

    @classmethod
    def prop(cls, number: int) -> "EntityId":
        return cls._checked(PROPERTY, number)

    @property
    def is_item(self) -> bool:
        return self.kind == ITEM

    @property
    def is_property(self) -> bool:
        return self.kind == PROPERTY

    @property
    def sort_key(self) -> tuple[int, int]:
        return (0 if self.kind == ITEM else 1, self.number)

    def __str__(self) -> str:
        return _KIND_LETTER[self.kind] + str(self.number)


class IdMemo(dict):
    """Id token -> validated id of one ``kind``, for the life of one read.

    Each distinct token is validated on its first lookup, which raises
    ValueError for a bad token or an id of another kind and stores nothing;
    later lookups return the same object, so equal ids in one read share it.
    Create one per read: a memo that outlives its file would grow with every
    file read.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        super().__init__()
        self.kind = kind

    def __missing__(self, token: str) -> EntityId:
        entity_id = EntityId.parse(token)
        if entity_id.kind != self.kind:
            raise ValueError(f"not {_KIND_NAME[self.kind]} id: {token!r}")
        self[token] = entity_id
        return entity_id


@dataclass(frozen=True, slots=True)
class SlimEntity:
    """The minimal projection of one dump item: id, kept claims, kept sitelinks.

    ``claims`` maps a property id to the item ids of its kept claims, in claim
    order; ``sitelinks`` maps a wiki code (``enwiki``) to the article title
    exactly as spelled in the dump.  Instances are treated as immutable and are
    safe to share between threads.

    The constructor checks every field.  :meth:`trusted` skips those checks
    and is only for the readers that have already made each of them on the
    way in: the dump parser (``dump._parse_entity_line``) and the store reader
    (``slimstore._parse_record``).
    """

    id: EntityId
    claims: dict[EntityId, tuple[EntityId, ...]] = field(default_factory=dict)
    sitelinks: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.id.is_item:
            raise ValueError(f"entity id must be an item, got {self.id}")
        for prop, values in self.claims.items():
            if not prop.is_property:
                raise ValueError(f"claim key must be a property, got {prop}")
            if not values:
                raise ValueError(f"claim group {prop} is empty")
            for value in values:
                if not value.is_item:
                    raise ValueError(f"claim value must be an item, got {value} under {prop}")
        for wiki, title in self.sitelinks.items():
            if not wiki:
                raise ValueError("sitelink wiki code is empty")
            if not title:
                raise ValueError(f"sitelink title for {wiki!r} is empty")

    @classmethod
    def trusted(
        cls, id: EntityId, claims: dict[EntityId, tuple[EntityId, ...]], sitelinks: dict[str, str]
    ) -> "SlimEntity":
        """Build a record without ``__post_init__``'s checks.

        The caller must already have checked every field: ``id`` is an item,
        each claim key a property with a non-empty tuple of items, and each
        sitelink a non-empty wiki code with a non-empty title.
        """
        entity = _new_object(cls)
        _set_id(entity, id)
        _set_claims(entity, claims)
        _set_sitelinks(entity, sitelinks)
        return entity

    def claim_values(self, prop: EntityId) -> tuple[EntityId, ...]:
        """The item ids that ``prop`` claims, in claim order."""
        return self.claims.get(prop, ())


# the slot setters, which a frozen dataclass's own __setattr__ refuses to run
_new_object = object.__new__
_set_id = SlimEntity.__dict__["id"].__set__
_set_claims = SlimEntity.__dict__["claims"].__set__
_set_sitelinks = SlimEntity.__dict__["sitelinks"].__set__
