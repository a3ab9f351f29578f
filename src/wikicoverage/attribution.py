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

Ids are their plain ``int`` numbers here, as the readers give them: the
geo index, the walks and the results are keyed by item number, the rule set
holds property and item numbers, and a provenance path is ``(property
number, item number, ..., target number)``.  A rules file's ids are read as
numbers by :func:`parse_rules`, and :func:`render_provenance` prints them
back as ``P<n>`` and ``Q<n>``.

Every satisfied claim contributes one provenance path: ``(property, entity,
..., target)``, and an item is related exactly when it has one.  Direct paths
come first, then place paths; properties are visited in ascending id order
and claim values in claim order, so results are deterministic for a given
entity.  Only this module sees provenance: later stages get a related flag.

A walk depends only on the index, its start and the rules, so
:func:`attribute_all` resolves each distinct place once per call: it keeps a
:class:`util.Memo` from start node to chain (or None) for that call alone,
which holds at most one entry per node the walks start from and so is
bounded by the places the input claims.  It is never kept between calls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping

from .entities import SlimEntity, id_pattern, item_number, property_number
from .errors import DuplicateItemError, RulesError
from .util import Memo, first_repeat, iter_tsv, parse_count

# property numbers
COUNTRY = 17
PLACE_OF_BIRTH = 19
CITIZENSHIP = 27
LOCATION = 276
COUNTRY_OF_ORIGIN = 495
INSTANCE_OF = 31

# item numbers
UNITED_STATES = 30
DISAMBIGUATION_PAGE = 4167410

# item number -> the item numbers of its country-chain claims
GeoIndex = Mapping[int, tuple[int, ...]]
# one path per satisfied claim, each (property number, item number, ...,
# target number); empty: not related
Provenance = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RuleSet:
    """Configuration for attribution.

    ``direct_props`` values must equal ``target``; ``place_props`` values are
    places resolved through ``geo_chain_props`` edges, at most ``max_depth``
    hops.  Items whose instance-of claim hits ``exclude_classes`` are never
    attributed (navigation pages, not topics).  Every id is its number:
    ``target`` and ``exclude_classes`` hold item numbers, the three property
    sets property numbers, as :func:`parse_rules` reads them; it also checks
    that ``max_depth`` is at least 1.
    """

    target: int = UNITED_STATES
    direct_props: frozenset[int] = frozenset({COUNTRY, CITIZENSHIP, COUNTRY_OF_ORIGIN})
    place_props: frozenset[int] = frozenset({PLACE_OF_BIRTH, LOCATION})
    geo_chain_props: tuple[int, ...] = (COUNTRY,)
    max_depth: int = 5
    exclude_classes: frozenset[int] = frozenset({DISAMBIGUATION_PAGE})

    def __post_init__(self):
        if self.direct_props & self.place_props:
            overlap = ", ".join(["P%d" % prop for prop in sorted(self.direct_props & self.place_props)])
            raise ValueError(f"direct and place property sets overlap: {overlap}")

    @cached_property
    def path_order(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``direct_props`` and ``place_props``, each in ascending id order: the
        order of provenance paths.  Sorted once per rule set."""
        return tuple(sorted(self.direct_props)), tuple(sorted(self.place_props))

    @property
    def required_properties(self) -> frozenset[int]:
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
            values.extend(entity.claims.get(prop, ()))
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
    target = rules.target
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
    target = rules.target
    excluded = rules.exclude_classes
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
    chains = Memo(partial(_path_to_target, index, rules=rules))  # one per call, never shared
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

# each list key's RuleSet field and the reader of its ids
_LIST_KEYS = {
    "direct": ("direct_props", property_number),
    "place": ("place_props", property_number),
    "geo_chain": ("geo_chain_props", property_number),
    "exclude_classes": ("exclude_classes", item_number),
}


def _id_list(key: str, value: str, read_id: Callable[[str], int]) -> tuple[int, ...]:
    """The numbers of a list key's ids, each read by ``read_id``; a bad or
    repeated id raises ValueError."""
    tokens = [token.strip() for token in value.split(",") if token.strip()]
    ids = tuple(map(read_id, tokens))
    repeated = first_repeat(tokens)
    if repeated is not None:
        raise ValueError(f"repeated id {repeated} in {key!r}")
    return ids


def parse_rules(text: str) -> RuleSet:
    """Parse a rules file; unspecified keys keep their defaults.  A repeated
    key, and a bad value (an id of the wrong kind among them), is an error
    naming its line; ``direct`` and ``place`` sets that overlap name the later
    of their lines.  Lines end at LF, CR or CRLF, as text-mode reading ends
    them: a form feed, or another break that ``str.splitlines`` takes, is
    part of its line."""
    kwargs: dict = {}
    lines: dict[str, int] = {}  # each key given -> its line number
    text_lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_number, raw in enumerate(text_lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise RulesError(f"line {line_number}: expected key=value, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key in lines:
            raise RulesError(f"line {line_number}: repeated key {key!r}")
        lines[key] = line_number
        try:
            if key == "target":
                kwargs["target"] = item_number(value)
            elif key == "max_depth":
                depth = parse_count(value, "max_depth")
                if depth < 1:
                    raise ValueError(f"max_depth must be >= 1, got {depth}")
                kwargs["max_depth"] = depth
            elif key in _LIST_KEYS:
                name, read_id = _LIST_KEYS[key]
                ids = _id_list(key, value, read_id)
                kwargs[name] = ids if key == "geo_chain" else frozenset(ids)
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise RulesError(f"line {line_number}: {exc}") from exc
    try:
        return RuleSet(**kwargs)
    except ValueError as exc:  # the ids and depth are checked: only direct and place can overlap
        line_number = max(lines.get("direct", 0), lines.get("place", 0))
        raise RulesError(f"line {line_number}: {exc}") from exc


def load_rules(path: Path | str) -> RuleSet:
    # utf-8-sig: a byte-order mark that an editor put first is not part of the first key
    with open(path, encoding="utf-8-sig") as handle:
        return parse_rules(handle.read())


# -- attribution TSV ---------------------------------------------------------


_item_token = "Q%d".__mod__


def render_provenance(paths: Provenance) -> str:
    """``P19>Q60>Q30;...``: each path's property as ``P<n>``, then its item
    numbers as ``Q<n>``."""
    return ";".join(["P%d>" % path[0] + ">".join(map(_item_token, path[1:])) for path in paths])


# what render_provenance writes: a path is a ``P<n>``, then one or more ``Q<n>``
_PATH = f"{id_pattern('P')}(?:>{id_pattern('Q')})+"
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
