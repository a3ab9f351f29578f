"""Decide which items relate to the target country, with provenance.

Two families of rules apply.  Direct properties (country, citizenship, country
of origin) relate an item when any claim value equals the target country
itself.  Place properties (place of birth, location) point at places, not
countries, so the place is resolved transitively: a geographic index maps
every item to its country-chain claim values, and a bounded breadth-first
walk over that index decides whether the target is reachable.

:func:`attribute_all` reads its items once, as a stream: the geo index is
built from the records as they pass, and until it is complete each item
leaves behind only its id, its direct paths and its place-claim values.  The
places are walked once the stream ends.

Items are their plain ``int`` numbers here, as the readers give them: the
geo index, the walks and the results are keyed by item number, and a
provenance path is ``(property, item number, ..., target number)``.  Only
the rule set holds :class:`EntityId` values; a call reads the numbers of its
target and excluded classes once.

Every satisfied claim contributes one provenance path: ``(property, entity,
..., target)``, and an item is related exactly when it has one.  Direct paths
come first, then place paths; properties are visited in ascending id order
and claim values in claim order, so results are deterministic for a given
entity.  Only this module sees provenance: later stages get a related flag.

A walk depends only on the index, its start and the rules, so
:func:`attribute_all` resolves each distinct place once per call: it keeps a
dict from start node to chain (or None) for that call alone, which holds at
most one entry per node the walks start from and so is bounded by the places
the input claims.  It is never kept between calls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

from .entities import ITEM, PROPERTY, EntityId, SlimEntity, id_pattern
from .errors import DuplicateItemError, RulesError
from .util import iter_tsv, parse_count

COUNTRY = EntityId.prop(17)
PLACE_OF_BIRTH = EntityId.prop(19)
CITIZENSHIP = EntityId.prop(27)
LOCATION = EntityId.prop(276)
COUNTRY_OF_ORIGIN = EntityId.prop(495)
INSTANCE_OF = EntityId.prop(31)

UNITED_STATES = EntityId.item(30)
DISAMBIGUATION_PAGE = EntityId.item(4167410)

# item number -> the item numbers of its country-chain claims
GeoIndex = Mapping[int, tuple[int, ...]]
# one path per satisfied claim, each (property, item number, ..., target
# number); empty: not related
Provenance = tuple[tuple[EntityId | int, ...], ...]


@dataclass(frozen=True)
class RuleSet:
    """Configuration for attribution.

    ``direct_props`` values must equal ``target``; ``place_props`` values are
    places resolved through ``geo_chain_props`` edges, at most ``max_depth``
    hops.  Items whose instance-of claim hits ``exclude_classes`` are never
    attributed (navigation pages, not topics).  ``target`` and
    ``exclude_classes`` are items; the three property sets hold properties.
    """

    target: EntityId = UNITED_STATES
    direct_props: frozenset[EntityId] = frozenset({COUNTRY, CITIZENSHIP, COUNTRY_OF_ORIGIN})
    place_props: frozenset[EntityId] = frozenset({PLACE_OF_BIRTH, LOCATION})
    geo_chain_props: tuple[EntityId, ...] = (COUNTRY,)
    max_depth: int = 5
    exclude_classes: frozenset[EntityId] = frozenset({DISAMBIGUATION_PAGE})

    def __post_init__(self):
        for name, ids, kind in (
            ("target", (self.target,), ITEM),
            ("exclude_classes", self.exclude_classes, ITEM),
            ("direct", self.direct_props, PROPERTY),
            ("place", self.place_props, PROPERTY),
            ("geo_chain", self.geo_chain_props, PROPERTY),
        ):
            wrong = [i for i in ids if i.kind != kind]
            if wrong:
                first = min(wrong, key=lambda i: i.sort_key)
                article = "an" if kind == ITEM else "a"
                raise ValueError(f"{name} must be {article} {kind} id, got {first}")
        if self.direct_props & self.place_props:
            overlap = ", ".join(sorted(str(p) for p in self.direct_props & self.place_props))
            raise ValueError(f"direct and place property sets overlap: {overlap}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")

    @cached_property
    def path_order(self) -> tuple[tuple[EntityId, ...], tuple[EntityId, ...]]:
        """``direct_props`` and ``place_props``, each in ascending id order: the
        order of provenance paths.  Sorted once per rule set."""
        return tuple(sorted(self.direct_props)), tuple(sorted(self.place_props))

    @property
    def required_properties(self) -> frozenset[EntityId]:
        """Every property the dump parser must keep for these rules to work."""
        return frozenset(
            {*self.direct_props, *self.place_props, *self.geo_chain_props, INSTANCE_OF}
        )


def build_geo_index(entities: Iterable[SlimEntity], rules: RuleSet) -> dict[int, tuple[int, ...]]:
    """Map each item number to its country-chain claim values, in claim order."""
    index: dict[int, tuple[int, ...]] = {}
    for entity in entities:
        values: list[int] = []
        for prop in rules.geo_chain_props:
            values.extend(entity.claim_values(prop))
        if values:
            index[entity.id] = tuple(values)
    return index


def _path_to_target(index: GeoIndex, start: int, rules: RuleSet) -> tuple[int, ...] | None:
    """Shortest chain ``(start, ..., target)`` over geo edges, or None.

    Breadth-first and bounded at ``max_depth`` hops, and each node is expanded
    at most once, so cyclic geographies terminate.  Ties resolve to the
    earliest claim in the earliest-discovered node, so the chain is
    deterministic.
    """
    target = rules.target.number
    parents: dict[int, int] = {}
    frontier = [start]
    seen = {start}

    def chain_to(node: int) -> tuple[int, ...]:
        chain = [node]
        while chain[-1] != start:
            chain.append(parents[chain[-1]])
        chain.reverse()
        return tuple(chain)

    for _ in range(rules.max_depth):
        next_frontier: list[int] = []
        for node in frontier:
            for value in index.get(node, ()):
                if value == target:
                    return (*chain_to(node), target)
                if value in seen:
                    continue
                seen.add(value)
                parents[value] = node
                next_frontier.append(value)
        if not next_frontier:
            return None
        frontier = next_frontier
    return None


class _Chains(dict):
    """Start node -> :func:`_path_to_target` chain or None, each walked on its
    first lookup.  One per call over one index, never shared between calls."""

    __slots__ = ("index", "rules")

    def __init__(self, index: GeoIndex, rules: RuleSet):
        super().__init__()
        self.index = index
        self.rules = rules

    def __missing__(self, start: int) -> tuple[int, ...] | None:
        chain = self[start] = _path_to_target(self.index, start, self.rules)
        return chain


def attribute_all(
    entities: Iterable[SlimEntity], index: dict[int, tuple[int, ...]], rules: RuleSet
) -> dict[int, Provenance]:
    """Each input item's provenance by item number, in input order; an
    excluded-class item gets ``()``.

    ``entities`` is read once, as a stream, so a one-shot iterator will do.
    Each record's country-chain values are added to ``index`` as it passes
    (:func:`build_geo_index`); ``index`` may already hold places that
    ``entities`` lack.  Until the stream ends, an item leaves behind only its
    id, its direct paths and its place-claim values, which are the record's
    own tuples, never copies.  Then each distinct place is walked once over
    the complete index (see the module docstring).
    """
    results: dict[int, Provenance] = {}  # direct paths only, until the walks
    waiting: list[tuple[int, tuple[tuple[int, ...], ...]]] = []  # items with place values
    target = rules.target.number
    excluded = frozenset(item.number for item in rules.exclude_classes)
    direct_props, place_props = rules.path_order

    def passing() -> Iterator[SlimEntity]:
        for entity in entities:
            item = entity.id
            if item in results:
                raise DuplicateItemError(f"item Q{item} appears twice in the input stream")
            claims = entity.claims
            direct: Provenance = ()
            if excluded.isdisjoint(claims.get(INSTANCE_OF, ())):
                for prop in direct_props:
                    matches = claims.get(prop, ()).count(target)
                    if matches:
                        direct += ((prop, target),) * matches
                places = tuple([claims.get(prop, ()) for prop in place_props])
                if any(places):
                    waiting.append((item, places))
            results[item] = direct
            yield entity

    index.update(build_geo_index(passing(), rules))
    chains = _Chains(index, rules)
    for item, places in waiting:
        paths = list(results[item])
        for prop, values in zip(place_props, places):
            for value in values:
                chain = chains[value]
                if chain is not None:
                    paths.append((prop, *chain))
        results[item] = tuple(paths)
    return results


# -- rules file (key=value lines) -------------------------------------------

_LIST_KEYS = {"direct", "place", "geo_chain", "exclude_classes"}


def _parse_id_list(value: str, line_number: int) -> tuple[EntityId, ...]:
    try:
        return tuple(EntityId.parse(tok.strip()) for tok in value.split(",") if tok.strip())
    except ValueError as exc:
        raise RulesError(f"line {line_number}: {exc}") from exc


def parse_rules(text: str) -> RuleSet:
    """Parse a rules file; unspecified keys keep their defaults, and a
    repeated key is an error."""
    kwargs: dict = {}
    seen: set[str] = set()
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise RulesError(f"line {line_number}: expected key=value, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise RulesError(f"line {line_number}: repeated key {key!r}")
        seen.add(key)
        if key == "target":
            try:
                kwargs["target"] = EntityId.parse(value)
            except ValueError as exc:
                raise RulesError(f"line {line_number}: {exc}") from exc
        elif key == "max_depth":
            try:
                kwargs["max_depth"] = parse_count(value, "max_depth")
            except ValueError as exc:
                raise RulesError(f"line {line_number}: {exc}") from exc
        elif key in _LIST_KEYS:
            ids = _parse_id_list(value, line_number)
            if key == "direct":
                kwargs["direct_props"] = frozenset(ids)
            elif key == "place":
                kwargs["place_props"] = frozenset(ids)
            elif key == "geo_chain":
                kwargs["geo_chain_props"] = ids
            else:
                kwargs["exclude_classes"] = frozenset(ids)
        else:
            raise RulesError(f"line {line_number}: unknown key {key!r}")
    try:
        return RuleSet(**kwargs)
    except ValueError as exc:
        raise RulesError(str(exc)) from exc


def load_rules(path: Path | str) -> RuleSet:
    # utf-8-sig: a byte-order mark that an editor put first is not part of the first key
    with open(path, encoding="utf-8-sig") as handle:
        return parse_rules(handle.read())


# -- attribution TSV ---------------------------------------------------------


_item_token = "Q%d".__mod__


def render_provenance(paths: Provenance) -> str:
    """``P19>Q60>Q30;...``: each path's property, then its item numbers as ``Q<n>``."""
    return ";".join([f"{path[0]}>" + ">".join(map(_item_token, path[1:])) for path in paths])


# what render_provenance writes; each node is an id that EntityId.parse accepts
_PATH = f"{id_pattern()}(?:>{id_pattern()})*"
_PROVENANCE_RE = re.compile(f"(?:{_PATH}(?:;{_PATH})*)?")

_FLAGS = {"true": True, "false": False}
# the attribution TSV has no header line
ATTRIBUTION_COLUMNS = ("item", "related", "provenance")


def write_attribution_tsv(results: Mapping[int, Provenance], sink: IO[str]) -> None:
    for item in sorted(results):
        provenance = results[item]
        flag = "true" if provenance else "false"
        sink.write(f"Q{item}\t{flag}\t{render_provenance(provenance)}\n")


def read_attribution_tsv(source: Iterable[str]) -> Iterator[tuple[int, tuple[str, bool]]]:
    """Each row of an attribution TSV (:func:`util.iter_tsv`, no header) as
    ``(line number, (item, related))``, in line order.

    The item is the text as written: :func:`metrics.join_attribution` matches
    it to its store record, so it is never parsed.  A provenance is matched
    whole against one pattern, never built.  A bad provenance, a flag other
    than ``true``/``false`` and a flag that does not match its provenance are
    bad rows.
    """
    provenance_valid = _PROVENANCE_RE.fullmatch

    def row(fields: list[str]) -> tuple[str, bool]:
        item, flag, provenance = fields
        related = _FLAGS.get(flag)
        if related is None:
            raise ValueError(f"related flag must be true or false, got {flag!r}")
        if provenance_valid(provenance) is None:
            raise ValueError(f"malformed provenance {provenance!r}")
        if related != bool(provenance):
            raise ValueError(f"related flag {flag} does not match provenance {provenance!r}")
        return item, related

    yield from iter_tsv(source, ATTRIBUTION_COLUMNS, row, header=False)
