"""Expected outputs computed from the generator's truth, and the checks.

Nothing here imports the program.  Expectations come from the truth that
``gen.py`` recorded while writing the inputs: attribution by a breadth-first
search over the generator's own geo graph, view totals from the lines it
emitted, the four metrics and the cluster shares as exact fractions, and
every six- or two-decimal string by independent half-even rounding with
``decimal``.

Each ``check_*`` function takes a run's output directory and returns ``None``
when the artifact is right, or a one-line reason when it is not.  One call is
one benchmark operation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import xml.etree.ElementTree as ET
from collections import deque
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from gen import (
    DIRECT_PROPS,
    DISAMBIGUATION,
    P_INSTANCE,
    PLACE_PROPS,
    Truth,
    sitelink_key,
)

RED, BLUE = "red", "blue"
SVG_FILL = {RED: "#c0392b", BLUE: "#2b6cb0"}


def decimal_string(value: Fraction, places: int) -> str:
    """Half-even rounding of an exact fraction to ``places`` decimals."""
    with localcontext() as ctx:
        ctx.prec = 80
        exact = Decimal(value.numerator) / Decimal(value.denominator)
        return str(exact.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN))


def percent_string(value: Fraction) -> str:
    return decimal_string(value * 100, 2) + "%"


def colour(ppcrw: Fraction) -> str:
    """Red when the half-even integer percent is 49 or below."""
    return RED if int(decimal_string(ppcrw * 100, 0)) <= 49 else BLUE


# -- attribution ---------------------------------------------------------------


def hops_to_target(truth: Truth, start: int, cache: dict[int, int | None]) -> int | None:
    """Fewest geo edges from ``start`` to the target, at most ``max_depth``."""
    if start in cache:
        return cache[start]
    found = None
    seen = {start}
    queue = deque([(start, 0)])
    while queue and found is None:
        node, depth = queue.popleft()
        if depth == truth.max_depth:
            continue
        for nxt in truth.edges(node):
            if nxt == truth.target:
                found = depth + 1
                break
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, depth + 1))
    cache[start] = found
    return found


@dataclass(frozen=True)
class Attribution:
    related: bool
    # (property, start place or None for a direct claim, hops)
    paths: tuple[tuple[int, int | None, int], ...]


def expected_attribution(truth: Truth) -> dict[int, Attribution]:
    cache: dict[int, int | None] = {}
    result: dict[int, Attribution] = {}
    for number, item in truth.items.items():
        def values(prop, entity_only=True):
            return [v for v, rank in item.claims.get(prop, ()) if rank != "deprecated" and (v is not None or not entity_only)]

        if DISAMBIGUATION in values(P_INSTANCE):
            result[number] = Attribution(False, ())
            continue
        paths = []
        for prop in sorted(DIRECT_PROPS):
            paths.extend((prop, None, 0) for v in values(prop, False) if v == truth.target)
        for prop in sorted(PLACE_PROPS):
            for place in values(prop):
                hops = hops_to_target(truth, place, cache)
                if hops is not None:
                    paths.append((prop, place, hops))
        result[number] = Attribution(bool(paths), tuple(paths))
    return result


# -- metrics, clusters, table, chart ----------------------------------------------


@dataclass(frozen=True)
class Row:
    language: str
    primary: str
    ppcrw: Fraction
    vpc: Fraction
    ras: Fraction
    ravs: Fraction
    articles: int
    related_articles: int
    views: int
    related_views: int


@dataclass
class Expected:
    attribution: dict[int, Attribution]
    views: dict[tuple[str, str], int]
    rows: list[Row]  # language order, as in metrics.tsv
    clusters: list[tuple[str, Fraction, Fraction, tuple[str, ...]]]
    related_items: int
    geo_index_entries: int
    place_values: int


def expected_outputs(truth: Truth) -> Expected:
    attribution = expected_attribution(truth)
    rows = []
    for language in truth.languages:
        wiki = sitelink_key(language)
        titles = {
            item.sitelinks[wiki].replace(" ", "_"): number
            for number, item in truth.items.items()
            if wiki in item.sitelinks
        }
        related_articles = sum(1 for n in titles.values() if attribution[n].related)
        views = sum(truth.views.get((language, t), 0) for t in titles)
        related_views = sum(truth.views.get((language, t), 0) for t, n in titles.items() if attribution[n].related)
        readership = truth.readership[language]
        primary = min(readership, key=lambda r: (-r[1], r[0]))
        rows.append(
            Row(
                language=language,
                primary=primary[0],
                ppcrw=Fraction(primary[1], sum(r[1] for r in readership)),
                vpc=Fraction(primary[2], sum(r[2] for r in readership)),
                ras=Fraction(related_articles, len(titles)),
                ravs=Fraction(related_views, views),
                articles=len(titles),
                related_articles=related_articles,
                views=views,
                related_views=related_views,
            )
        )
    members: dict[str, list[Row]] = {}
    for row in rows:
        members.setdefault(truth.cluster_map[row.primary], []).append(row)
    clusters = [
        (
            name,
            Fraction(sum(r.related_views for r in group), sum(r.views for r in group)),
            Fraction(sum(r.related_articles for r in group), sum(r.articles for r in group)),
            tuple(sorted(r.language for r in group)),
        )
        for name, group in members.items()
    ]
    clusters.sort(key=lambda c: (-c[1], c[0]))
    place_values = 0
    for item in truth.items.values():
        if DISAMBIGUATION in [v for v, rank in item.claims.get(P_INSTANCE, ()) if rank != "deprecated"]:
            continue
        place_values += sum(
            1 for prop in PLACE_PROPS for v, rank in item.claims.get(prop, ()) if v is not None and rank != "deprecated"
        )
    return Expected(
        attribution=attribution,
        views=dict(truth.views),
        rows=rows,
        clusters=clusters,
        related_items=sum(1 for a in attribution.values() if a.related),
        geo_index_entries=sum(1 for n in truth.items if truth.edges(n)),
        place_values=place_values,
    )


def table_order(rows: list[Row]) -> list[Row]:
    return sorted(rows, key=lambda r: (-r.ravs, r.language))


# -- checks ----------------------------------------------------------------------


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def check_attribution(out: Path, truth: Truth, expected: Expected) -> str | None:
    """Related flag per item, and each provenance path a shortest real walk."""
    numbers = []
    for line in _lines(out / "attribution.tsv"):
        fields = line.split("\t")
        if len(fields) != 3 or not fields[0].startswith("Q"):
            return f"bad line {line!r}"
        number = int(fields[0][1:])
        numbers.append(number)
        want = expected.attribution.get(number)
        if want is None:
            return f"unexpected item Q{number}"
        if fields[1] != ("true" if want.related else "false"):
            return f"Q{number}: related is {fields[1]}, expected {want.related}"
        got = [segment.split(">") for segment in fields[2].split(";")] if fields[2] else []
        if len(got) != len(want.paths):
            return f"Q{number}: {len(got)} provenance paths, expected {len(want.paths)}"
        for nodes, (prop, start, hops) in zip(got, want.paths):
            if nodes[0] != f"P{prop}" or nodes[-1] != f"Q{truth.target}":
                return f"Q{number}: path {'>'.join(nodes)} does not run from P{prop} to the target"
            chain = [int(n[1:]) for n in nodes[1:]]
            if start is None:
                if len(chain) != 1:
                    return f"Q{number}: direct path {'>'.join(nodes)} has extra hops"
                continue
            if chain[0] != start or len(chain) - 1 != hops:
                return f"Q{number}: path {'>'.join(nodes)} is not a {hops}-hop walk from Q{start}"
            for a, b in zip(chain, chain[1:]):
                if b not in truth.edges(a):
                    return f"Q{number}: Q{a}>Q{b} is not a geo edge"
    if numbers != sorted(expected.attribution):
        return "items missing, repeated or out of order"
    return None


def read_views(path: Path) -> dict[tuple[str, str], int]:
    lines = _lines(path)
    if not lines or lines[0] != "language\ttitle\tviews":
        raise ValueError("bad views header")
    views = {}
    for line in lines[1:]:
        language, title, total = line.split("\t")
        views[(language, title)] = int(total)
    return views


def check_views(out: Path, truth: Truth, expected: Expected) -> str | None:
    """views.tsv totals equal what the generator emitted, in sorted order."""
    lines = _lines(out / "views.tsv")
    got = read_views(out / "views.tsv")
    if len(got) != len(lines) - 1:
        return "repeated keys"
    keys = [tuple(line.split("\t")[:2]) for line in lines[1:]]
    if keys != sorted(keys):
        return "keys out of order"
    if got != expected.views:
        diff = sorted(set(got.items()) ^ set(expected.views.items()))[:2]
        return f"{len(set(got.items()) ^ set(expected.views.items()))} totals differ, e.g. {diff}"
    return None


def check_metrics(out: Path, truth: Truth, expected: Expected) -> str | None:
    """Every column of metrics.tsv against exact fractions rounded half-even."""
    lines = _lines(out / "metrics.tsv")
    if lines[0].split("\t")[:6] != ["language", "primary_country", "ppcrw", "vpc", "ras", "ravs"]:
        return "bad header"
    want = [
        "\t".join(
            (
                r.language,
                r.primary,
                *(decimal_string(v, 6) for v in (r.ppcrw, r.vpc, r.ras, r.ravs)),
                str(r.articles),
                str(r.related_articles),
                str(r.views),
                str(r.related_views),
            )
        )
        for r in expected.rows
    ]
    for got_line, want_line in itertools.zip_longest(lines[1:], want):
        if got_line != want_line:
            return f"row {got_line!r}, expected {want_line!r}"
    return None


def check_clusters(out: Path, truth: Truth, expected: Expected) -> str | None:
    """Pooled cluster shares, most popular first."""
    lines = _lines(out / "clusters.tsv")
    want = ["cluster\tpopularity_share\tarticle_share\tlanguages"] + [
        f"{name}\t{decimal_string(pop, 6)}\t{decimal_string(art, 6)}\t{','.join(langs)}"
        for name, pop, art, langs in expected.clusters
    ]
    for got_line, want_line in itertools.zip_longest(lines, want):
        if got_line != want_line:
            return f"line {got_line!r}, expected {want_line!r}"
    return None


def check_table(out: Path, truth: Truth, expected: Expected, reader_shares: bool = True) -> str | None:
    """table.tsv sorted by exact ravs, with half-even percent strings.

    ``reader_shares=False`` leaves the ppcrw and vpc columns out: the
    stage-by-stage ``report`` only has them at six decimals, so its percents
    can round twice (see the README).
    """
    lines = _lines(out / "table.tsv")
    if lines[0] != "language\tprimary_country\tppcrw\tvpc\tras\travs\tarticles":
        return "bad header"
    rows = table_order(expected.rows)
    if len(lines) - 1 != len(rows):
        return f"{len(lines) - 1} rows, expected {len(rows)}"
    for line, r in zip(lines[1:], rows):
        fields = line.split("\t")
        want = [r.language, r.primary, percent_string(r.ppcrw), percent_string(r.vpc), percent_string(r.ras), percent_string(r.ravs), str(r.articles)]
        if not reader_shares:
            fields[2:4] = want[2:4] = ["", ""]
        if fields != want:
            return f"row {line!r}, expected {chr(9).join(want)!r}"
    return None


def _chart_rows(expected: Expected) -> tuple[int, dict[str, Row]]:
    kept = {r.language: r for r in expected.rows if r.ras != 0 and r.ravs != 0}
    return len(expected.rows) - len(kept), kept


def check_chart(out: Path, truth: Truth, expected: Expected) -> str | None:
    """chart.json: scale, drop tally, and one datum per kept language."""
    chart = json.loads((out / "chart.json").read_text(encoding="utf-8"))
    dropped, kept = _chart_rows(expected)
    if chart.get("scale") != "log" or chart.get("dropped") != dropped:
        return f"scale {chart.get('scale')!r} dropped {chart.get('dropped')!r}, expected 'log' {dropped}"
    data = chart.get("data", [])
    got = {d["lang"]: (d["x"], d["y"], d["size"]) for d in data}
    want = {lang: (float(r.ras), float(r.ravs), r.articles) for lang, r in kept.items()}
    if len(data) != len(got) or got != want:
        return f"chart data differ for {sorted(set(got.items()) ^ set(want.items()))[:1]}"
    return None


def _svg_bubbles(out: Path) -> tuple[int, list[tuple[str, str]]]:
    """Circle count, and (fill, label) for each circle followed by its label."""
    root = ET.parse(out / "chart.svg").getroot()
    circles, bubbles, fill = 0, [], None
    for element in root:
        tag = element.tag.rsplit("}", 1)[-1]
        if tag == "circle":
            circles += 1
            fill = element.get("fill")
        elif tag == "text" and fill is not None:
            bubbles.append((fill, element.text))
            fill = None
    return circles, bubbles


def check_svg(out: Path, truth: Truth, expected: Expected) -> str | None:
    """chart.svg: one labelled bubble per kept language."""
    _, kept = _chart_rows(expected)
    circles, bubbles = _svg_bubbles(out)
    labels = sorted(label for _, label in bubbles)
    if circles != len(kept) or labels != sorted(kept):
        return f"{circles} bubbles labelled {labels}, expected {sorted(kept)}"
    return None


def check_colour(out: Path, truth: Truth, expected: Expected) -> str | None:
    """Bubble colour in chart.json and chart.svg from the exact ppcrw."""
    chart = json.loads((out / "chart.json").read_text(encoding="utf-8"))
    _, kept = _chart_rows(expected)
    for datum in chart["data"]:
        want = colour(kept[datum["lang"]].ppcrw)
        if datum["color"] != want:
            return f"{datum['lang']} is {datum['color']} in chart.json, exact ppcrw {kept[datum['lang']].ppcrw} is {want}"
    for fill, label in _svg_bubbles(out)[1]:
        want = colour(kept[label].ppcrw)
        if fill != SVG_FILL[want]:
            return f"{label} has fill {fill} in chart.svg, exact ppcrw is {want}"
    return None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifest(out: Path, truth: Truth, expected: Expected, inputs: list[Path]) -> str | None:
    """Counts, issue tallies and input digests in manifest.json."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    dropped, kept = _chart_rows(expected)
    want_counts = {
        "entities": len(truth.items),
        "store_records": len(truth.items),
        "related_items": expected.related_items,
        "geo_index_entries": expected.geo_index_entries,
        "view_keys": len(expected.views),
        "metric_rows": len(expected.rows),
        "clusters": len(expected.clusters),
    }
    want_issues = {
        "dump_parse_errors": truth.dump_issues,
        "pageview_parse_errors": truth.pageview_malformed,
        "failed_languages": {},
        "unassigned_countries": [],
        "chart_dropped": dropped,
    }
    for section, want in (("counts", want_counts), ("issues", want_issues)):
        for key, value in want.items():
            if manifest.get(section, {}).get(key) != value:
                return f"{section}.{key} is {manifest.get(section, {}).get(key)!r}, expected {value!r}"
    recorded = manifest.get("inputs", {})
    if sorted(recorded) != sorted(str(p) for p in inputs):
        return f"inputs {sorted(recorded)} differ from the run's inputs"
    for path in inputs:
        entry = recorded[str(path)]
        if entry.get("sha256") != sha256(path) or entry.get("bytes") != path.stat().st_size:
            return f"digest or size of {path} is wrong"
    if manifest.get("config", {}).get("target") != f"Q{truth.target}":
        return f"target {manifest.get('config', {}).get('target')!r}, expected Q{truth.target}"
    return None
