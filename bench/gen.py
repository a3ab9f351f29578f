"""Seeded inputs for the wikicoverage benchmark, with their ground truth.

``generate(workload, seed, out_dir)`` writes every file one run of a workload
hands to the program and returns a :class:`Truth`: what the generator put in
those files, recorded while writing them.  The checks in ``oracle.py`` derive
every expected output from the truth alone, never from the program.

The same (workload, seed, size) always gives byte-identical files: all
randomness comes from one ``random.Random(seed)`` and nothing iterates over a
hash-ordered set.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import quote

# claim properties the program keeps (rules below) and the classes it reads
P_COUNTRY, P_BIRTH, P_CITIZEN, P_INSTANCE, P_LOCATION, P_ORIGIN = 17, 19, 27, 31, 276, 495
DIRECT_PROPS = (P_COUNTRY, P_CITIZEN, P_ORIGIN)
PLACE_PROPS = (P_BIRTH, P_LOCATION)
DISAMBIGUATION = 4167410
MAX_DEPTH = 4  # chains are built 1-5 hops deep, so 5-hop walks are cut off

HUMAN, FILM, EVENT, CITY, COUNTRY_CLASS = 5, 11424, 1190554, 515, 6256

# (item number, ISO code, cluster); every one has a P17 claim on itself
COUNTRIES = (
    (30, "US", "English-Speaking"),
    (145, "GB", "English-Speaking"),
    (16, "CA", "English-Speaking"),
    (183, "DE", "Protestant Europe"),
    (55, "NL", "Protestant Europe"),
    (34, "SE", "Protestant Europe"),
    (39, "CH", "Protestant Europe"),
    (142, "FR", "Catholic Europe"),
    (31, "BE", "Catholic Europe"),
    (29, "ES", "Catholic Europe"),
    (38, "IT", "Catholic Europe"),
    (36, "PL", "Catholic Europe"),
    (45, "PT", "Catholic Europe"),
    (40, "AT", "Catholic Europe"),
    (155, "BR", "Latin America"),
    (96, "MX", "Latin America"),
    (17, "JP", "Confucian"),
    (148, "CN", "Confucian"),
    (184, "BY", "Orthodox Europe"),
    (159, "RU", "Orthodox Europe"),
)
# former states: items with no P17 of their own, so walks through them stop
FORMER_STATES = (38872, 12548, 15180)

# requested language -> (sitelink probability, pageview weight, reader
# countries with the primary one first)
LANGUAGES = {
    "en": (0.70, 40, ("US", "GB", "CA", "IN", "AU")),
    "de": (0.40, 12, ("DE", "AT", "CH")),
    "fr": (0.35, 9, ("FR", "BE", "CA", "CH")),
    "es": (0.30, 9, ("ES", "MX", "AR", "US")),
    "it": (0.25, 6, ("IT", "CH")),
    "nl": (0.25, 5, ("NL", "BE", "DE", "US")),
    "ja": (0.20, 8, ("JP", "US")),
    "pl": (0.15, 4, ("PL", "DE", "GB")),
    "sv": (0.15, 3, ("SE", "FI", "NO")),
    "pt": (0.15, 4, ("BR", "PT", "US")),
    "be-tarask": (0.05, 1, ("BY", "PL", "RU")),
}
# languages present in sitelinks and pageviews but never requested
UNREQUESTED = {"ru": 0.30, "zh": 0.20, "uk": 0.10, "zh-min-nan": 0.05}
OTHER_SITES = {"enwikiquote": 0.05, "dewikisource": 0.03, "commonswiki": 0.10}
OTHER_PROJECT_DOMAINS = ("en.b", "de.d", "fr.s", "en.voy", "en.m.d", "commons.m", "www.wd", "species", "meta.m")
NON_ARTICLE_TITLES = ("Main_Page", "Special:Search", "Spezial:Suche", "Wikipedia:Portal", "Help:Contents")

# One language's readership is fixed on every seed: its exact ppcrw is
# 4949996/10^7, which is red, but reads back from the six-decimal metrics.tsv
# as 0.495000, which is blue.  The stage-by-stage CLI shows that fault.
FIXED_READERSHIP = {
    "nl": (("NL", 4949996, 5100000), ("BE", 3000000, 2900000), ("DE", 1200000, 1100000), ("US", 850004, 900000)),
}
COLOUR_FAULT_LANGUAGE = "nl"

_LATIN = ("ka", "lo", "mir", "ta", "ve", "ron", "sel", "di", "an", "bor", "ne", "li", "ca", "to", "ra", "mo", "es", "ul", "vin", "da", "ge", "hal", "tor", "ben")
_ACCENTS = {"de": "üöäß", "fr": "éèçê", "es": "ñáó", "pl": "łżśą", "sv": "åäö", "pt": "ãõç", "it": "àò", "nl": "ëï"}
_KATAKANA = "アイウエオカキクケコサシスセソタチツテトナニヌネノマミムメモラリルレロ"
_CYRILLIC = ("ка", "ло", "мір", "та", "ве", "рон", "сел", "ді", "ан", "бор", "не", "лі")
_HAN = "中国大学山河市海北南京東西天文化人民新城"
_SUFFIX = {FILM: {"en": " (film)", "de": " (Film)", "fr": " (film)", "es": " (película)", "it": " (film)", "nl": " (film)"}}


@dataclass(frozen=True)
class Spec:
    """The make-up of one workload's inputs."""

    kind: str  # "pipeline": run_pipeline from the dump; "cli": stage-by-stage CLI over a store
    target: int
    places: int
    articles: int
    heavy: bool  # labels, descriptions, aliases, qualifiers and references on every entity
    place_share: float  # chance an article's location claims are place claims, not direct ones
    shards: int
    lines_per_shard: int
    dump_malformed: int
    pageview_malformed_per_shard: int
    undecodable_shard: bool = False


WORKLOADS = {
    "dump-ingest": Spec("pipeline", 30, 1200, 5200, True, 0.5, 2, 1500, 12, 2),
    "slim-rerun": Spec("cli", 183, 3000, 9000, False, 0.85, 4, 3000, 6, 2),
    "pageviews-shards": Spec("pipeline", 30, 300, 1500, False, 0.5, 48, 3000, 4, 1, True),
}
SMALL = {
    name: Spec(
        spec.kind, spec.target, max(spec.places // 15, 40), max(spec.articles // 15, 120),
        spec.heavy, spec.place_share, min(spec.shards, 3), max(spec.lines_per_shard // 15, 150),
        spec.dump_malformed, spec.pageview_malformed_per_shard, spec.undecodable_shard,
    )
    for name, spec in WORKLOADS.items()
}


@dataclass
class Item:
    """One generated item: its kept claims (value or None for a non-entity
    snak, with rank) and every sitelink it carries."""

    number: int
    claims: dict[int, list[tuple[int | None, str]]] = field(default_factory=dict)
    sitelinks: dict[str, str] = field(default_factory=dict)


@dataclass
class Truth:
    workload: str
    seed: int
    spec: Spec
    languages: tuple[str, ...]
    target: int
    max_depth: int
    items: dict[int, Item]
    depth_counts: dict[str, int]
    dump_issues: int
    views: dict[tuple[str, str], int]
    shard_lines: list[int]
    pageview_malformed: int
    readership: dict[str, list[tuple[str, int, int]]]
    cluster_map: dict[str, str]
    paths: dict[str, object]
    input_bytes: int
    dump_bytes: int
    dump_entity_lines: int
    pageview_mix: dict[str, int]
    undecodable_views: dict[tuple[str, str], int] = field(default_factory=dict)

    def edges(self, number: int) -> list[int]:
        """Geo-chain edges of an item: non-deprecated entity values of P17."""
        item = self.items.get(number)
        if item is None:
            return []
        return [v for v, rank in item.claims.get(P_COUNTRY, ()) if v is not None and rank != "deprecated"]


def sitelink_key(language: str) -> str:
    return language.replace("-", "_") + "wiki"


# -- names -----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _word_pool(language: str) -> tuple[str, ...]:
    """A fixed pool of words in a language's script (the same on every call)."""
    rng = random.Random(f"words/{language}")
    if language == "ja":
        return tuple("".join(rng.choice(_KATAKANA) for _ in range(rng.randint(2, 4))) for _ in range(800))
    if language in ("be-tarask", "ru", "uk"):
        return tuple("".join(rng.choice(_CYRILLIC) for _ in range(rng.randint(2, 3))).capitalize() for _ in range(800))
    if language.startswith("zh"):
        return tuple("".join(rng.choice(_HAN) for _ in range(rng.randint(1, 2))) for _ in range(800))
    words = []
    accents = _ACCENTS.get(language, "")
    for _ in range(1500):
        word = "".join(rng.choice(_LATIN) for _ in range(rng.randint(2, 3)))
        if accents and rng.random() < 0.3:
            cut = rng.randrange(1, len(word))
            word = word[:cut] + rng.choice(accents) + word[cut:]
        words.append(word.capitalize())
    return tuple(words)


def _name(rng: random.Random, language: str) -> str:
    pool = _word_pool(language)
    glue = "" if language == "ja" or language.startswith("zh") else " "
    if rng.random() < 0.5:
        return pool[int(rng.random() * len(pool))] + glue + pool[int(rng.random() * len(pool))]
    return glue.join(pool[int(rng.random() * len(pool))] for _ in range(3))


class _Titles:
    """Unique sitelink titles per wiki; a clash gets the item number appended."""

    def __init__(self):
        self.used: dict[str, set[str]] = {}

    def make(self, rng: random.Random, wiki: str, language: str, number: int, suffix: str = "") -> str:
        used = self.used.setdefault(wiki, set())
        base = title = _name(rng, language) + suffix
        clash = 0
        while title.replace(" ", "_") in used:
            clash += 1
            title = f"{base} ({number}{'' if clash == 1 else f'-{clash}'})"
        used.add(title.replace(" ", "_"))
        return title


# -- entity JSON -------------------------------------------------------------


def _item_snak(prop: int, value: int) -> dict:
    return {
        "snaktype": "value",
        "property": f"P{prop}",
        "datavalue": {"value": {"entity-type": "item", "numeric-id": value, "id": f"Q{value}"}, "type": "wikibase-entityid"},
        "datatype": "wikibase-item",
    }


def _time_snak(prop: int, year: int) -> dict:
    return {
        "snaktype": "value",
        "property": f"P{prop}",
        "datavalue": {
            "value": {"time": f"+{year}-01-01T00:00:00Z", "timezone": 0, "before": 0, "after": 0, "precision": 9, "calendarmodel": "http://www.wikidata.org/entity/Q1985727"},
            "type": "time",
        },
        "datatype": "time",
    }


def _statement(rng: random.Random, number: int, snak: dict, rank: str, heavy: bool) -> dict:
    statement = {"mainsnak": snak, "type": "statement", "id": f"Q{number}${rng.getrandbits(64):016x}", "rank": rank}
    if heavy and rng.random() < 0.2:
        statement["qualifiers"] = {"P580": [_time_snak(580, rng.randint(1800, 2020))]}
        statement["qualifiers-order"] = ["P580"]
        statement["references"] = [
            {
                "hash": f"{rng.getrandbits(64):016x}",
                "snaks": {"P248": [_item_snak(248, 36578)], "P813": [_time_snak(813, 2023)]},
                "snaks-order": ["P248", "P813"],
            }
        ]
    return statement


def _entity_line(rng: random.Random, item: Item, heavy: bool) -> str:
    claims: dict[str, list] = {}
    for prop, values in item.claims.items():
        group = []
        for value, rank in values:
            if value is None:
                snak = {"snaktype": "somevalue", "property": f"P{prop}", "datatype": "wikibase-item"}
            else:
                snak = _item_snak(prop, value)
            group.append(_statement(rng, item.number, snak, rank, heavy))
        claims[f"P{prop}"] = group
    obj: dict = {"type": "item", "id": f"Q{item.number}"}
    if heavy:
        # claims outside the kept properties, which the projection must drop
        claims["P569"] = [_statement(rng, item.number, _time_snak(569, rng.randint(1700, 2005)), "normal", heavy)]
        claims["P18"] = [_statement(rng, item.number, {"snaktype": "value", "property": "P18", "datavalue": {"value": f"{_name(rng, 'en')}.jpg", "type": "string"}, "datatype": "commonsMedia"}, "normal", False)]
        label_languages = list(item.sitelinks)[:6] or ["en"]
        obj["labels"] = {
            wiki.removesuffix("wiki"): {"language": wiki.removesuffix("wiki"), "value": title}
            for wiki, title in item.sitelinks.items()
            if wiki.endswith("wiki") and wiki != "commonswiki"
        } or {"en": {"language": "en", "value": f"Item {item.number}"}}
        obj["descriptions"] = {
            lang.removesuffix("wiki"): {"language": lang.removesuffix("wiki"), "value": _name(rng, "en").lower() + " of note"}
            for lang in label_languages[:4]
        }
        obj["aliases"] = {
            "en": [{"language": "en", "value": _name(rng, "en")} for _ in range(rng.randint(0, 3))]
        }
    obj["claims"] = claims
    obj["sitelinks"] = {
        wiki: {"site": wiki, "title": title, "badges": []} for wiki, title in item.sitelinks.items()
    }
    if heavy:
        obj["lastrevid"] = rng.randint(10**8, 2 * 10**9)
        obj["modified"] = "2023-07-01T12:00:00Z"
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _non_item_lines(rng: random.Random, count: int) -> list[str]:
    lines = []
    for index in range(count):
        if index % 2 == 0:
            obj = {
                "type": "property",
                "id": f"P{rng.randint(1, 9000)}",
                "datatype": "wikibase-item",
                "labels": {"en": {"language": "en", "value": _name(rng, "en")}},
                "claims": {"P31": [_statement(rng, 1, _item_snak(31, 18616576), "normal", False)]},
            }
        else:
            obj = {
                "type": "lexeme",
                "id": f"L{rng.randint(1, 900000)}",
                "lemmas": {"en": {"language": "en", "value": _name(rng, "en").lower()}},
                "lexicalCategory": "Q1084",
                "language": "Q1860",
            }
        lines.append(json.dumps(obj, ensure_ascii=False, separators=(",", ":")))
    return lines


_MALFORMED_DUMP = (
    lambda n: f'{{"type":"item","id":"Q{n}","claims":{{"P17":[',  # truncated JSON
    lambda n: f'["Q{n}","not an object"]',
    lambda n: f'{{"id":"Q{n}","claims":{{}}}}',  # no type
    lambda n: f'{{"type":"item","id":"Qx{n}"}}',  # bad id
    lambda n: f'{{"type":"item","id":"P{n}"}}',  # property id on an item
)


# -- the geo graph and the items ----------------------------------------------


def _country_choice(rng: random.Random, target: int) -> int:
    if rng.random() < 0.3:
        return target
    return rng.choice(COUNTRIES)[0]


def _build_places(rng: random.Random, spec: Spec, numbers) -> tuple[list[Item], dict[str, int]]:
    """Places on P17 chains 1-5 hops deep, plus cycles and dead ends."""
    weights = ((1, 0.30), (2, 0.25), (3, 0.20), (4, 0.15), (5, 0.10))
    cycle_places = max(spec.places // 20, 6)
    plain = spec.places - cycle_places
    by_depth: dict[int, list[int]] = {d: [] for d, _ in weights}
    places: list[Item] = []
    depth_counts: dict[str, int] = {}
    for depth, share in weights:
        count = max(round(plain * share), 2)
        for _ in range(count):
            item = Item(next(numbers))
            if depth == 1:
                edges = [(_country_choice(rng, spec.target), "normal")]
            else:
                edges = [(rng.choice(by_depth[depth - 1]), "preferred" if rng.random() < 0.1 else "normal")]
            roll = rng.random()
            if roll < 0.10:  # a second, possibly shorter, route
                lower = [p for d in range(1, depth) for p in by_depth[d][:50]]
                edges.append((rng.choice(lower) if lower else _country_choice(rng, spec.target), "normal"))
            elif roll < 0.16:  # historical claim that the walk must ignore
                edges.insert(0, (spec.target, "deprecated"))
            elif roll < 0.19:
                edges.append((None, "normal"))  # somevalue snak
            elif roll < 0.21:
                edges.append((rng.choice(FORMER_STATES), "normal"))
            item.claims = {P_INSTANCE: [(CITY, "normal")], P_COUNTRY: edges}
            by_depth[depth].append(item.number)
            places.append(item)
            depth_counts[f"depth{depth}"] = depth_counts.get(f"depth{depth}", 0) + 1
    # cycles: rings of 2-3 places; a live ring also leads to a depth-1 place
    made = 0
    while made < cycle_places:
        size = rng.randint(2, 3)
        ring = [Item(next(numbers)) for _ in range(size)]
        live = rng.random() < 0.5
        for index, item in enumerate(ring):
            edges = [(ring[(index + 1) % size].number, "normal")]
            if live and index == size - 1:
                edges.append((rng.choice(by_depth[1]), "normal"))
            item.claims = {P_INSTANCE: [(CITY, "normal")], P_COUNTRY: edges}
        places.extend(ring)
        key = "cycle_live" if live else "cycle_dead"
        depth_counts[key] = depth_counts.get(key, 0) + size
        made += size
    return places, depth_counts


def _article_claims(rng: random.Random, spec: Spec, place_numbers: list[int]) -> dict[int, list]:
    roll = rng.random()
    if roll < 0.03:
        # disambiguation pages are never attributed, even with a matching claim
        claims = {P_INSTANCE: [(DISAMBIGUATION, "normal")]}
        if rng.random() < 0.5:
            claims[P_COUNTRY] = [(spec.target, "normal")]
        return claims
    kind = HUMAN if roll < 0.55 else FILM if roll < 0.75 else EVENT
    claims: dict[int, list] = {P_INSTANCE: [(kind, "normal")]}
    if rng.random() < spec.place_share:
        prop = P_BIRTH if kind == HUMAN else P_LOCATION
        values = [(rng.choice(place_numbers), "normal")]
        extra = rng.random()
        if extra < 0.05:
            values.append((rng.choice(place_numbers), "normal"))
        elif extra < 0.08:
            values.append((None, "normal"))
        elif extra < 0.10:
            values = [(rng.choice(COUNTRIES)[0], "normal")]  # a country as the place
        claims[prop] = values
        if rng.random() < 0.05:
            claims[P_CITIZEN] = [(spec.target, "deprecated")]
    else:
        prop = {HUMAN: P_CITIZEN, FILM: P_ORIGIN, EVENT: P_COUNTRY}[kind]
        values = [(_country_choice(rng, spec.target), "normal")]
        if rng.random() < 0.08:
            values.append((_country_choice(rng, spec.target), "normal"))
        if rng.random() < 0.04:
            values.append((spec.target, "deprecated"))
        claims[prop] = values
    return claims


def _add_sitelinks(rng: random.Random, item: Item, titles: _Titles, kind: int, scale: float) -> None:
    for language, (probability, _, _) in LANGUAGES.items():
        if rng.random() < probability * scale:
            wiki = sitelink_key(language)
            item.sitelinks[wiki] = titles.make(rng, wiki, language, item.number, _SUFFIX.get(kind, {}).get(language, ""))
    for language, probability in UNREQUESTED.items():
        if rng.random() < probability * scale:
            wiki = sitelink_key(language)
            item.sitelinks[wiki] = titles.make(rng, wiki, language, item.number)
    for wiki, probability in OTHER_SITES.items():
        if rng.random() < probability:
            item.sitelinks[wiki] = titles.make(rng, wiki, "en", item.number)


# -- readership and pageviews -------------------------------------------------


def _readership(rng: random.Random) -> dict[str, list[tuple[str, int, int]]]:
    table: dict[str, list[tuple[str, int, int]]] = {}
    for language, (_, _, countries) in LANGUAGES.items():
        if language in FIXED_READERSHIP:
            table[language] = list(FIXED_READERSHIP[language])
            continue
        top = rng.randint(200_000, 5_000_000)
        rows = [(countries[0], top, rng.randint(100_000, 5_000_000))]
        for country in countries[1:]:
            rows.append((country, rng.randint(top // 50, top - 1), rng.randint(10_000, 3_000_000)))
        table[language] = rows
    return table


def _zipf_pool(rng: random.Random, titles: list[str], first: str) -> tuple[list[str], list[float]]:
    """Titles in popularity order (``first`` hottest) with cumulative Zipf weights."""
    rest = [t for t in titles if t != first]
    rng.shuffle(rest)
    order = [first, *rest]
    cumulative, total = [], 0.0
    for rank in range(len(order)):
        total += 1.0 / (rank + 1) ** 1.1
        cumulative.append(total)
    return order, cumulative


def _malformed_pageview(rng: random.Random, language: str, title: str) -> str:
    kind = rng.randrange(5)
    if kind == 0:
        return f"{language} {title} 12"  # three fields
    if kind == 1:
        return f"{language} {title} extra 3 0"  # five fields
    if kind == 2:
        return f"{language} {title} x 0"  # count not a number
    if kind == 3:
        return f"{language} {title} -4 0"  # negative count
    return f"{language}  5 0"  # empty title


def _write_shards(rng, spec, out_dir, articles_by_language, anchor_titles, truth_views) -> tuple[list[Path], list[int], int, dict[str, int]]:
    requested = list(LANGUAGES)
    language_cumulative = []
    for lang in requested:
        language_cumulative.append((language_cumulative[-1] if language_cumulative else 0) + LANGUAGES[lang][1])
    pools = {
        lang: _zipf_pool(rng, articles_by_language[lang], anchor_titles[lang]) for lang in requested
    }
    # titles on skipped lines need not be unique, so they come from small pools
    junk = {lang: [_name(rng, lang).replace(" ", "_") for _ in range(300)] for lang in ("en", *UNREQUESTED)}
    unrequested = list(UNREQUESTED)
    kinds = ("article", "non_article", "other_project", "unrequested")
    kind_weights = (80, 6, 8, 6)
    mix = {kind: 0 for kind in (*kinds, "malformed", "mobile", "encoded")}
    paths, line_counts, malformed_total = [], [], 0
    random_ = rng.random
    for shard in range(spec.shards):
        lines: list[str] = []
        shard_kinds = rng.choices(kinds, kind_weights, k=spec.lines_per_shard)
        shard_languages = rng.choices(requested, cum_weights=language_cumulative, k=spec.lines_per_shard)
        for kind, language in zip(shard_kinds, shard_languages):
            mix[kind] += 1
            count = 1 + int(-5.0 * math.log(1.0 - random_()))  # exponential, mean about 5
            if kind == "other_project":
                lines.append(f"{rng.choice(OTHER_PROJECT_DOMAINS)} {rng.choice(junk['en'])} {count} 0")
                continue
            if kind == "unrequested":
                other = rng.choice(unrequested)
                lines.append(f"{other}{'.m' if random_() < 0.5 else ''} {rng.choice(junk[other])} {count} 0")
                continue
            if kind == "article":
                order, cumulative = pools[language]
                title = order[bisect.bisect_right(cumulative, random_() * cumulative[-1])]
            else:
                title = rng.choice(NON_ARTICLE_TITLES)
            key = (language, title)
            truth_views[key] = truth_views.get(key, 0) + count
            variant = random_()
            if variant < 0.55:
                domain = language
            else:
                domain = f"{language}.m" if variant < 0.95 else f"{language}.zero"
                mix["mobile"] += 1
            if random_() < 0.2:
                title = quote(title, safe="")
                mix["encoded"] += 1
            lines.append(f"{domain} {title} {count} 0")
        if shard == 0:
            for language in requested:  # every language gets views on its anchor title
                key = (language, anchor_titles[language])
                lines.append(f"{language} {key[1]} 5 0")
                truth_views[key] = truth_views.get(key, 0) + 5
                mix["article"] += 1
        for _ in range(spec.pageview_malformed_per_shard):
            language = rng.choice(requested)
            position = rng.randrange(len(lines) + 1)
            lines.insert(position, _malformed_pageview(rng, language, rng.choice(pools[language][0])))
            mix["malformed"] += 1
            malformed_total += 1
        path = out_dir / f"pageviews-{shard:03d}.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
        line_counts.append(len(lines))
    return paths, line_counts, malformed_total, mix


def _write_undecodable(out_dir: Path, rules: Path) -> tuple[dict[str, Path], dict[tuple[str, str], int]]:
    """A tiny fixed run whose one shard holds a byte that is not UTF-8."""
    sub = out_dir / "undecodable"
    sub.mkdir(exist_ok=True)
    entities = [
        {"type": "item", "id": "Q901", "claims": {"P27": [{"mainsnak": _item_snak(27, 30), "rank": "normal"}]}, "sitelinks": {"enwiki": {"title": "Alpha"}}},
        {"type": "item", "id": "Q902", "sitelinks": {"enwiki": {"title": "Beta"}}},
        {"type": "item", "id": "Q903", "sitelinks": {"enwiki": {"title": "Gamma"}}},
    ]
    lines = ["["] + [json.dumps(e) + ("," if i < 2 else "") for i, e in enumerate(entities)] + ["]"]
    (sub / "dump.json").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (sub / "pageviews-bad.txt").write_bytes(b"en Alpha 3 0\nen B\xe9ta 2 0\nen Gamma 4 0\n")
    (sub / "readership.csv").write_text("language,country,readers,views_from\nen,US,600,800\nen,GB,400,200\n", encoding="utf-8")
    paths = {"dump": sub / "dump.json", "shard": sub / "pageviews-bad.txt", "readership": sub / "readership.csv", "rules": rules}
    return paths, {("en", "Alpha"): 3, ("en", "Gamma"): 4}


def _numbers(rng: random.Random, start: int):
    number = start
    while True:
        number += rng.randint(1, 40)
        yield number


def generate(workload: str, seed: int, out_dir: Path, small: bool = False) -> Truth:
    """Write one workload's inputs under ``out_dir`` and return their truth."""
    spec = (SMALL if small else WORKLOADS)[workload]
    rng = random.Random(f"{workload}/{seed}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    titles = _Titles()
    numbers = _numbers(rng, 100_000)

    items: dict[int, Item] = {}
    for number, iso, _ in COUNTRIES:
        country = Item(number, {P_INSTANCE: [(COUNTRY_CLASS, "normal")], P_COUNTRY: [(number, "normal")]})
        _add_sitelinks(rng, country, titles, COUNTRY_CLASS, 2.0)
        items[number] = country
    for number in FORMER_STATES:
        former = Item(number, {P_INSTANCE: [(3024240, "normal")]})
        _add_sitelinks(rng, former, titles, 0, 1.0)
        items[number] = former
    places, depth_counts = _build_places(rng, spec, numbers)
    for place in places:
        _add_sitelinks(rng, place, titles, CITY, 0.6)
        items[place.number] = place
    place_numbers = [p.number for p in places]

    # the anchor: related to the target and linked (and viewed) in every language
    anchor = Item(next(numbers), {P_INSTANCE: [(HUMAN, "normal")], P_CITIZEN: [(spec.target, "normal")]})
    for language in LANGUAGES:
        wiki = sitelink_key(language)
        anchor.sitelinks[wiki] = titles.make(rng, wiki, language, anchor.number)
    items[anchor.number] = anchor
    for _ in range(spec.articles - 1):
        item = Item(next(numbers), _article_claims(rng, spec, place_numbers))
        _add_sitelinks(rng, item, titles, item.claims[P_INSTANCE][0][0], 1.0)
        items[item.number] = item

    # dump: entity lines in shuffled order, non-items and malformed lines mixed in
    entity_lines = [_entity_line(rng, item, spec.heavy) for item in items.values()]
    entity_lines.extend(_non_item_lines(rng, max(len(items) // 50, 4)))
    rng.shuffle(entity_lines)
    for _ in range(spec.dump_malformed):
        entity_lines.insert(rng.randrange(len(entity_lines) + 1), rng.choice(_MALFORMED_DUMP)(rng.randint(1, 99)))
    dump_path = out_dir / "dump.json"
    with open(dump_path, "w", encoding="utf-8", newline="\n") as sink:
        sink.write("[\n")
        sink.write(",\n".join(entity_lines))
        sink.write("\n]\n")

    # pageviews: per language, the sitelinked titles in underscore form
    articles_by_language: dict[str, list[str]] = {lang: [] for lang in LANGUAGES}
    for item in items.values():
        for language in LANGUAGES:
            title = item.sitelinks.get(sitelink_key(language))
            if title is not None:
                articles_by_language[language].append(title.replace(" ", "_"))
    anchor_titles = {lang: anchor.sitelinks[sitelink_key(lang)].replace(" ", "_") for lang in LANGUAGES}
    views: dict[tuple[str, str], int] = {}
    shard_paths, shard_lines, pageview_malformed, mix = _write_shards(
        rng, spec, out_dir, articles_by_language, anchor_titles, views
    )

    readership = _readership(rng)
    readership_path = out_dir / "readership.csv"
    with open(readership_path, "w", encoding="utf-8", newline="\n") as sink:
        sink.write("language,country,readers,views_from\n")
        for language, rows in readership.items():
            for country, readers, views_from in rows:
                sink.write(f"{language},{country},{readers},{views_from}\n")
    cluster_map = {iso: cluster for _, iso, cluster in COUNTRIES}
    cluster_path = out_dir / "cluster_map.csv"
    cluster_path.write_text(
        "country,cluster\n" + "".join(f"{c},{k}\n" for c, k in cluster_map.items()), encoding="utf-8"
    )
    rules_path = out_dir / "rules.txt"
    rules_path.write_text(
        "# benchmark rules: the defaults, except that walks stop after 4 hops\n"
        "target=Q30\ndirect=P17,P27,P495\nplace=P19,P276\ngeo_chain=P17\n"
        f"max_depth={MAX_DEPTH}\nexclude_classes=Q{DISAMBIGUATION}\n",
        encoding="utf-8",
    )

    paths: dict[str, object] = {
        "dump": dump_path,
        "shards": shard_paths,
        "readership": readership_path,
        "cluster_map": cluster_path,
        "rules": rules_path,
    }
    undecodable_views: dict[tuple[str, str], int] = {}
    if spec.undecodable_shard:
        paths["undecodable"], undecodable_views = _write_undecodable(out_dir, rules_path)
    input_bytes = dump_path.stat().st_size + readership_path.stat().st_size
    input_bytes += sum(p.stat().st_size for p in shard_paths)
    return Truth(
        workload=workload,
        seed=seed,
        spec=spec,
        languages=tuple(sorted(LANGUAGES)),
        target=spec.target,
        max_depth=MAX_DEPTH,
        items=items,
        depth_counts=depth_counts,
        dump_issues=spec.dump_malformed,
        views=views,
        shard_lines=shard_lines,
        pageview_malformed=pageview_malformed,
        readership=readership,
        cluster_map=cluster_map,
        paths=paths,
        input_bytes=input_bytes,
        dump_bytes=dump_path.stat().st_size,
        dump_entity_lines=len(entity_lines),
        pageview_mix=mix,
        undecodable_views=undecodable_views,
    )
