"""Fixture builders and independent oracles shared across test modules.

The oracles here deliberately avoid the package's own traversal and
aggregation code: attribution is re-decided by enumerating raw walks over the
claim multigraph, and metric expectations are recomputed with plain loops and
exact fractions.
"""

from __future__ import annotations

import json
import random

from wikicoverage.attribution import INSTANCE_OF, RuleSet
from wikicoverage.entities import SlimEntity


# -- dump JSON construction ----------------------------------------------------


def statement(value, rank: str = "normal", kind: str = "item") -> dict:
    """One claim statement; value may be an entity number, of ``kind``
    (``"item"`` or ``"property"``), or a string payload."""
    if isinstance(value, int):
        datavalue = {
            "type": "wikibase-entityid",
            "value": {"entity-type": kind, "numeric-id": value},
        }
    else:
        datavalue = {"type": "string", "value": value}
    return {"mainsnak": {"snaktype": "value", "datavalue": datavalue}, "rank": rank}


def entity_json(
    entity_id: str,
    claims: dict[str, list] | None = None,
    sitelinks: dict[str, str] | None = None,
    entity_type: str = "item",
) -> dict:
    obj: dict = {"type": entity_type, "id": entity_id}
    if claims:
        obj["claims"] = {
            prop: [v if isinstance(v, dict) else statement(v) for v in values]
            for prop, values in claims.items()
        }
    if sitelinks:
        obj["sitelinks"] = {wiki: {"title": title} for wiki, title in sitelinks.items()}
    return obj


def dump_text(objects: list[dict | str], terminator: bool = True) -> str:
    """Full dump text: bracket lines around one JSON object (or raw line) each."""
    lines = ["[\n"]
    for index, obj in enumerate(objects):
        body = obj if isinstance(obj, str) else json.dumps(obj, ensure_ascii=False)
        comma = "," if index < len(objects) - 1 else ""
        lines.append(body + comma + "\n")
    if terminator:
        lines.append("]\n")
    return "".join(lines)


# -- random slim entities (store round-trip fixtures) ---------------------------

# every property that random_entities claims, for a store header's props=
STORE_PROPS = (17, 19, 27, 31, 276, 495)

# the characters a record's text could break on, JSON's own among them, and
# characters outside the Basic Multilingual Plane
_TITLE_CHARS = "abcdefgh XYZ_%|\t\r\n'(),:;=\"\\[]{}é中\u2028\uffff\U0001f600\U00010348"


def random_title(rng: random.Random) -> str:
    length = rng.randint(1, 12)
    return "".join(rng.choice(_TITLE_CHARS) for _ in range(length))


def random_entities(rng: random.Random, count: int) -> list[SlimEntity]:
    """Entities with unique ids, mixed claims and odd titles.  Claim keys and
    wiki codes ascend, as the dump parser yields them."""
    numbers = rng.sample(range(1, max(count * 10, 1000)), count)
    entities = []
    wikis = ["enwiki", "dewiki", "frwiki", "plwiki", "zh_min_nanwiki"]
    for number in numbers:
        claims = {}
        for prop in rng.sample(STORE_PROPS, rng.randint(0, len(STORE_PROPS))):
            claims[prop] = tuple(rng.randint(1, 5000) for _ in range(rng.randint(1, 3)))
        sitelinks = {
            wiki: random_title(rng)
            for wiki in rng.sample(wikis, rng.randint(0, len(wikis)))
        }
        entities.append(SlimEntity(number, dict(sorted(claims.items())), dict(sorted(sitelinks.items()))))
    return entities


# -- attribution oracle ----------------------------------------------------------


def oracle_related(entity: SlimEntity, geo_graph: dict[int, list[int]], rules: RuleSet) -> bool:
    """Independent attribution decision by brute-force walk enumeration.

    ``geo_graph`` is built directly from raw claims (see
    :func:`oracle_geo_graph`), not from the package's index.  A place claim
    satisfies when any walk of 1..max_depth edges reaches the target.
    """
    target = rules.target
    for value in entity.claims.get(INSTANCE_OF, ()):
        if value in rules.exclude_classes:
            return False
    for prop in rules.direct_props:
        for value in entity.claims.get(prop, ()):
            if value == target:
                return True

    def walk_hits_target(node: int, budget: int) -> bool:
        if budget == 0:
            return False
        for nxt in geo_graph.get(node, ()):
            if nxt == target:
                return True
            if walk_hits_target(nxt, budget - 1):
                return True
        return False

    for prop in rules.place_props:
        for value in entity.claims.get(prop, ()):
            if walk_hits_target(value, rules.max_depth):
                return True
    return False


def oracle_geo_graph(entities: list[SlimEntity], rules: RuleSet) -> dict[int, list[int]]:
    graph: dict[int, list[int]] = {}
    for entity in entities:
        edges: list[int] = []
        for prop in rules.geo_chain_props:
            edges.extend(entity.claims.get(prop, ()))
        if edges:
            graph[entity.id] = edges
    return graph


def random_attribution_fixture(rng: random.Random, size: int) -> list[SlimEntity]:
    """A mixed entity population for oracle-equivalence checks.

    Roughly: a handful of country nodes (the target among them), a geographic
    layer whose country chains sometimes cycle or dead-end, and a topic layer
    with direct country claims, place claims and the occasional excluded
    navigation page.
    """
    target = 30
    countries = [target, 183, 142, 145]
    place_count = max(3, size // 5)
    places = [1000 + i for i in range(place_count)]
    entities: list[SlimEntity] = []

    for country in countries:
        claims = {}
        if rng.random() < 0.5:
            claims[17] = (country,)  # countries often carry a self claim
        entities.append(SlimEntity(country, claims, {}))

    for index, place in enumerate(places):
        edges = []
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.35:
                edges.append(rng.choice(countries))
            else:
                edges.append(rng.choice(places))  # chains, cycles, dead ends
        claims = {17: tuple(edges)} if edges else {}
        entities.append(SlimEntity(place, claims, {}))

    next_number = 50_000
    while len(entities) < size:
        claims = {}
        if rng.random() < 0.3:
            claims[27] = tuple(
                rng.choice(countries) for _ in range(rng.randint(1, 2))
            )
        if rng.random() < 0.25:
            claims[17] = (rng.choice(countries),)
        if rng.random() < 0.15:
            claims[495] = (rng.choice(countries),)
        if rng.random() < 0.4:
            claims[19] = (rng.choice(places),)
        if rng.random() < 0.2:
            claims[276] = (rng.choice(places + countries),)
        if rng.random() < 0.1:
            claims[31] = (4167410,)  # excluded navigation page
        entities.append(SlimEntity(next_number, claims, {}))
        next_number += 1
    return entities
