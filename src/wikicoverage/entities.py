"""Identifier and minimal-entity types shared by the whole pipeline.

Every id travels every stage as its plain ``int`` number: an item (``Q42``) as
``42``, a property (``P17``) as ``17``.  A record's id, its claim keys and
values, the geo index, the rule set, attribution's results and the article
sets all hold ints, which hash and compare as fast as Python allows, and hash
alike under every string hash seed.  Which kind an int is follows from where
it sits.  An id's letter is read only where text comes in
(:func:`item_number`, :func:`property_number`, or a ``util.Memo(item_number)``
for a read's repeated item tokens) and written only where text goes out, as
``"Q%d"`` or ``"P%d"``.
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


@dataclass(frozen=True, slots=True)
class SlimEntity:
    """The minimal projection of one dump item: id, kept claims, kept sitelinks.

    ``id`` is the item's number (``42`` for ``Q42``); ``claims`` maps a
    property's number (``17`` for ``P17``) to the item numbers of its kept
    claims, in claim order;
    ``sitelinks`` maps a wiki code (``enwiki``) to the article title exactly
    as spelled in the dump.  Instances are treated as immutable and are safe
    to share between threads.

    The constructor checks every field.  :meth:`trusted` skips those checks
    and is only for the readers that have already made each of them on the
    way in: the dump parser (``dump._parse_entity_line``) and the store reader
    (``slimstore.read_slim_store``).
    """

    id: int
    claims: dict[int, tuple[int, ...]] = field(default_factory=dict)
    sitelinks: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if type(self.id) is not int or self.id < 1:
            raise ValueError(f"entity id must be an item number, got {self.id!r}")
        for prop, values in self.claims.items():
            if type(prop) is not int or prop < 1:
                raise ValueError(f"claim key must be a property number, got {prop!r}")
            if not values:
                raise ValueError(f"claim group P{prop} is empty")
            for value in values:
                if type(value) is not int or value < 1:
                    raise ValueError(f"claim value must be an item number, got {value!r} under P{prop}")
        for wiki, title in self.sitelinks.items():
            if not wiki:
                raise ValueError("sitelink wiki code is empty")
            if not title:
                raise ValueError(f"sitelink title for {wiki!r} is empty")

    @classmethod
    def trusted(cls, id: int, claims: dict[int, tuple[int, ...]], sitelinks: dict[str, str]) -> "SlimEntity":
        """Build a record without ``__post_init__``'s checks.

        The caller must already have checked every field: ``id`` is an item
        number, each claim key a property number with a non-empty tuple of
        item numbers, and each sitelink a non-empty wiki code with a non-empty
        title.  ``claims`` may hold fewer properties than the input kept: a
        store read builds only those its caller requires.
        """
        entity = _new_object(cls)
        _set_id(entity, id)
        _set_claims(entity, claims)
        _set_sitelinks(entity, sitelinks)
        return entity


# the slot setters, which a frozen dataclass's own __setattr__ refuses to run
_new_object = object.__new__
_set_id = SlimEntity.__dict__["id"].__set__
_set_claims = SlimEntity.__dict__["claims"].__set__
_set_sitelinks = SlimEntity.__dict__["sitelinks"].__set__
