"""Acceptance suite: one test per shipping criterion.

Each test prints a ``[ACCEPTANCE] <criterion>: PASS/FAIL`` line (visible with
``pytest -s``).  Expected values are either fixed reference percentages,
re-derived by independent brute-force oracles, or exact by construction.
"""

from __future__ import annotations

import io
import json
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from wikicoverage import slimstore
from wikicoverage.attribution import (
    INSTANCE_OF,
    RuleSet,
    attribute_all,
    build_geo_index,
    read_attribution_tsv,
)
from wikicoverage.chart import BLUE, RED, color_bucket
from wikicoverage.clusters import aggregate_cluster
from wikicoverage.dump import parse_dump_stream
from wikicoverage.entities import SlimEntity
from wikicoverage.metrics import MetricsRow, build_article_sets, compute_all, join_attribution, reader_share
from wikicoverage.report import RunConfig, attribute_stage, emit_table, run_pipeline
from wikicoverage.slimstore import SlimStoreWriter, load_slim_store, read_slim_store
from wikicoverage.usage import ReadershipRecord

from helpers import (
    STORE_PROPS,
    dump_text,
    oracle_geo_graph,
    oracle_related,
    random_attribution_fixture,
    random_entities,
)

FIXTURE = Path(__file__).resolve().parents[1] / "demos" / "data"


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


# reference rows: per-language percents for the 14 largest editions
# (ppcrw %, vpc %, ras %, ravs %), re-entered as exact fractions of 10000
REFERENCE_ROWS = [
    ("en", "US", 60, 80, 1631, 3158),
    ("it", "IT", 86, 92, 1137, 1889),
    ("es", "ES", 70, 60, 1085, 1679),
    ("fr", "FR", 76, 68, 913, 1626),
    ("de", "DE", 73, 77, 703, 1601),
    ("pt", "BR", 54, 80, 1131, 1532),
    ("ru", "RU", 85, 59, 592, 1410),
    ("nl", "NL", 34, 69, 482, 1192),
    ("sv", "SE", 57, 89, 292, 1068),
    ("pl", "PL", 81, 81, 728, 1031),
    ("zh", "CN", 7, 68, 673, 961),
    ("uk", "UA", 24, 85, 720, 735),
    ("ar", "EG", 60, 70, 1369, 611),
    ("vi", "VN", 71, 92, 378, 506),
]

EXPECTED_TABLE_ORDER = [
    "en", "it", "es", "fr", "de", "pt", "ru", "nl", "sv", "pl", "zh", "uk", "ar", "vi",
]

RED_LANGUAGES = {"nl", "zh", "uk"}


def reference_metrics_rows() -> list[MetricsRow]:
    rows = []
    for language, country, ppcrw, vpc, ras_e4, ravs_e4 in REFERENCE_ROWS:
        rows.append(
            MetricsRow(
                language=language,
                primary_country=country,
                ppcrw=Fraction(ppcrw, 100),
                vpc=Fraction(vpc, 100),
                article_count=10000,
                related_article_count=ras_e4,
                total_views=10000,
                related_views=ravs_e4,
            )
        )
    return rows


class TestAttributionOracleEquivalence:
    def test_twenty_randomized_fixtures_match_brute_force(self):
        with criterion("attribution oracle equivalence (20 fixtures, < 10 s)"):
            rules = RuleSet()
            sizes = [10_000, 5_000, 3_000, 2_000] + [
                random.Random(900 + i).randint(100, 1_500) for i in range(16)
            ]
            assert len(sizes) == 20 and max(sizes) <= 10_000
            mismatches = 0
            checked = 0
            started = time.perf_counter()
            for index, size in enumerate(sizes):
                rng = random.Random(31_000 + index)
                entities = random_attribution_fixture(rng, size)
                index_map = build_geo_index(entities, rules)
                graph = oracle_geo_graph(entities, rules)
                results = attribute_all(entities, index_map, rules)
                for entity in entities:
                    checked += 1
                    if bool(results[entity.id]) != oracle_related(entity, graph, rules):
                        mismatches += 1
            elapsed = time.perf_counter() - started
            print(f"  checked {checked} items across 20 fixtures in {elapsed:.2f}s")
            assert mismatches == 0
            assert elapsed < 10.0


class TestMetricsOracleEquivalence:
    def build_fixture(self):
        """Three languages, 90 articles total, 8 countries, seeded layout."""
        rng = random.Random(2024)
        languages = ("en", "de", "fr")
        counts = {"en": 40, "de": 30, "fr": 20}
        countries = {
            "en": ["US", "GB", "CA"],
            "de": ["DE", "AT", "CH"],
            "fr": ["FR", "BE"],
        }
        entities = []
        related = set()
        number = 1
        for language, article_count in counts.items():
            for i in range(article_count):
                entities.append(
                    SlimEntity(number, {}, {f"{language}wiki": f"Article {number}"})
                )
                if rng.random() < 0.4:
                    related.add(number)
                number += 1
        views = {}
        for entity in entities:
            for wiki, title in entity.sitelinks.items():
                language = wiki[:2]
                views[(language, title.replace(" ", "_"))] = rng.randint(0, 500)
        readership = {
            language: [
                ReadershipRecord(language, country, rng.randint(1, 900), rng.randint(1, 900))
                for country in country_list
            ]
            for language, country_list in countries.items()
        }
        article_sets = build_article_sets(entities, languages)
        return languages, entities, views, readership, article_sets, related

    def oracle(self, languages, entities, related, views, readership):
        """Recompute all four metrics per language with plain loops."""
        expected = {}
        for language in languages:
            titles = {}
            for entity in entities:
                title = entity.sitelinks.get(f"{language}wiki")
                if title:
                    titles[title.replace(" ", "_")] = entity.id
            article_count = len(titles)
            related_articles = sum(1 for item in titles.values() if item in related)
            total_views = sum(views.get((language, t), 0) for t in titles)
            related_views = sum(
                views.get((language, t), 0)
                for t, item in titles.items()
                if item in related
            )
            rows = readership[language]
            best = max(sorted(rows, key=lambda r: r.country), key=lambda r: r.readers)
            expected[language] = {
                "primary": best.country,
                "ppcrw": Fraction(best.readers, sum(r.readers for r in rows)),
                "vpc": Fraction(
                    sum(r.views_from for r in rows if r.country == best.country),
                    sum(r.views_from for r in rows),
                ),
                "ras": Fraction(related_articles, article_count),
                "ravs": Fraction(related_views, total_views),
            }
        return expected

    def test_three_language_fixture_matches_exact_rational_oracle(self):
        with criterion("metrics oracle equivalence (3 languages, exact rationals)"):
            languages, entities, views, readership, article_sets, related = self.build_fixture()
            rows, failures = compute_all(article_sets, related, views, readership, languages)
            assert failures == {}
            expected = self.oracle(languages, entities, related, views, readership)
            for row in rows:
                want = expected[row.language]
                assert row.primary_country == want["primary"]
                for name in ("ppcrw", "vpc", "ras", "ravs"):
                    got, target = getattr(row, name), want[name]
                    assert got == target, f"{row.language} {name}"
                    assert abs(float(got) - float(target)) <= 1e-12

    def test_trivial_all_related_fixture_is_all_ones(self):
        with criterion("metrics trivial fixture (all four metrics exactly 1.0)"):
            entities = [SlimEntity(1, {}, {"enwiki": "Lone Article"})]
            views = {("en", "Lone_Article"): 10}
            readership = {"en": [ReadershipRecord("en", "US", 5, 9)]}
            rows, failures = compute_all(
                build_article_sets(entities, ("en",)), {1}, views, readership, ("en",)
            )
            assert failures == {}
            (row,) = rows
            assert row.ppcrw == 1 and row.vpc == 1 and row.ras == 1 and row.ravs == 1


class TestReaderShareAnchors:
    def test_en_readership_fixture_gives_sixty_and_eighty_percent(self):
        with criterion("reader-share anchor values (ppcrw 0.60, vpc 0.80)"):
            records = [
                ReadershipRecord("en", "US", 600, 800),
                ReadershipRecord("en", "GB", 150, 90),
                ReadershipRecord("en", "DE", 100, 60),
                ReadershipRecord("en", "FR", 150, 50),
            ]
            assert reader_share(records, "US", "readers") == Fraction(60, 100)
            assert reader_share(records, "US", "views_from") == Fraction(80, 100)


class TestTableContract:
    def test_reference_rows_sort_into_the_published_order(self):
        with criterion("table ordering contract (14 reference languages)"):
            rows = reference_metrics_rows()
            random.Random(77).shuffle(rows)
            sink = io.StringIO()
            emit_table(rows, sink)
            lines = sink.getvalue().splitlines()[1:]
            order = [line.split("\t")[0] for line in lines]
            assert order == EXPECTED_TABLE_ORDER
            shares = [line.split("\t")[5] for line in lines]
            assert shares[0] == "31.58%" and shares[-1] == "5.06%"


class TestColorRule:
    def test_reference_ppcrw_values_bucket_exactly(self):
        with criterion("color rule (red exactly for nl, zh, uk)"):
            for language, _, ppcrw, _, _, _ in REFERENCE_ROWS:
                bucket = color_bucket(Fraction(ppcrw, 100))
                expected = RED if language in RED_LANGUAGES else BLUE
                assert bucket == expected, language


# run with -S and a scrubbed environment so the interpreter baseline stays
# small and the high-water mark actually reflects parser behaviour; VmHWM is
# used because ru_maxrss survives fork+exec and would echo the parent's peak
PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[2])
from wikicoverage.dump import parse_dump_stream

def peak_kib():
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

path = sys.argv[1]
keep = frozenset({17, 27, 31})
started = time.perf_counter()
with open(path, "rb") as handle:
    count = sum(1 for _ in parse_dump_stream(handle, keep, None, errors=[]))
elapsed = time.perf_counter() - started
print(json.dumps({"entities": count, "seconds": elapsed, "maxrss_kib": peak_kib()}))
"""

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def write_synthetic_dump(path: Path, lines: int, distinct_values: bool = False) -> int:
    """A dump of ``lines`` items with one P17 claim each: one of 7 values, or,
    with ``distinct_values``, a value of its own per line."""
    template = (
        '{"type":"item","id":"Q%d","claims":{"P17":[{"mainsnak":{"snaktype":"value",'
        '"datavalue":{"type":"wikibase-entityid","value":{"entity-type":"item",'
        '"numeric-id":%d}}},"rank":"normal"}]},'
        '"sitelinks":{"enwiki":{"title":"Topic %d"}}},\n'
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("[\n")
        chunk: list[str] = []
        for i in range(1, lines + 1):
            chunk.append(template % (i, 10_000_000 + i if distinct_values else 30 + i % 7, i))
            if len(chunk) == 50_000:
                handle.write("".join(chunk))
                chunk.clear()
        handle.write("".join(chunk))
        handle.write("]\n")
    return path.stat().st_size


def run_probe(path: Path) -> dict:
    import os

    result = subprocess.run(
        [sys.executable, "-S", "-E", "-c", PROBE, str(path), str(SRC_DIR)],
        capture_output=True,
        text=True,
        timeout=600,
        env={"PATH": os.environ.get("PATH", "")},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


class TestStreamingBounds:
    def test_million_line_dump_parses_in_bounded_memory(self, tmp_path):
        with criterion("streaming bounds (1M lines, RSS < 10x of 10k run)"):
            small_path = tmp_path / "small.json"
            large_path = tmp_path / "large.json"
            write_synthetic_dump(small_path, 10_000)
            large_bytes = write_synthetic_dump(large_path, 1_000_000)
            small = run_probe(small_path)
            large = run_probe(large_path)
            assert small["entities"] == 10_000
            assert large["entities"] == 1_000_000
            ratio = large["maxrss_kib"] / small["maxrss_kib"]
            throughput = large_bytes / large["seconds"] / 1e6
            print(
                f"  peak RSS {small['maxrss_kib']} KiB (10k) vs "
                f"{large['maxrss_kib']} KiB (1M), ratio {ratio:.2f}"
            )
            print(
                f"  throughput {throughput:.1f} MB/s over {large_bytes / 1e6:.0f} MB "
                "(soft target 50 MB/s, report only)"
            )
            assert large["maxrss_kib"] < 10 * small["maxrss_kib"]

    def test_distinct_claim_values_keep_memory_flat(self, tmp_path):
        # a parse keeps no claim value after yielding its item, so a claim
        # value per line may not make peak memory grow with the dump
        with criterion("streaming bounds (300k distinct claim values, RSS < 1.5x of 10k run)"):
            small_path = tmp_path / "small.json"
            large_path = tmp_path / "large.json"
            write_synthetic_dump(small_path, 10_000, distinct_values=True)
            write_synthetic_dump(large_path, 300_000, distinct_values=True)
            small = run_probe(small_path)
            large = run_probe(large_path)
            assert small["entities"] == 10_000
            assert large["entities"] == 300_000
            ratio = large["maxrss_kib"] / small["maxrss_kib"]
            print(f"  peak RSS {small['maxrss_kib']} KiB (10k) vs {large['maxrss_kib']} KiB (300k), ratio {ratio:.2f}")
            assert ratio < 1.5


def write_store(path: Path, records: int, links) -> int:
    """A store of places ``Q1``-``Q10`` (each in country ``Q30`` or ``Q183``) and
    items ``Q11`` on, each born in one of them; ``links(n)`` is item ``n``'s
    sitelinks, alternating wiki codes and titles."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"WCM4\ncount={records} props=P17,P19,P27,P31,P276,P495\n")
        for n in range(1, records + 1):
            claims = [17, [30 if n % 2 else 183]] if n <= 10 else [19, [1 + n % 10]]
            handle.write(json.dumps([n, claims, links(n)], separators=(",", ":")) + "\n")
    return path.stat().st_size


def traced_peak(call) -> int:
    """The ``tracemalloc`` peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedStore:
    def test_attribute_holds_no_whole_record(self, tmp_path):
        # each record's 16 KB title is dropped once the record has passed
        with criterion("attribute streams the store (2,000 records of 16 KB, peak < 1/4 of the store)"):
            store = tmp_path / "entities.slim"
            size = write_store(store, 2_000, lambda n: ["enwiki", f"T{n}_" + "x" * 16_000])
            rules = RuleSet()
            out = tmp_path / "attribution.tsv"
            peak = traced_peak(
                lambda: attribute_stage(load_slim_store(store, rules.required_properties), rules, out)
            )
            print(f"  traced peak {peak / 2**20:.2f} MiB over a {size / 2**20:.1f} MiB store")
            assert peak < size / 4
            related = out.read_text(encoding="utf-8").count("\ttrue\t")
            assert related == 5 + 995  # the places in Q30, and the items born there

    def test_a_store_read_keeps_no_claim_value(self, tmp_path):
        # each record claims 100 items no other record claims: a drained read
        # may keep none of them once their record has passed
        with criterion("store read is flat (2,000 records of 100 distinct claim values, peak < 1 MiB)"):
            store = tmp_path / "entities.slim"
            with SlimStoreWriter([INSTANCE_OF]) as writer:
                for n in range(1, 2_001):
                    writer.add(SlimEntity(n, {INSTANCE_OF: tuple(10_000 + 100 * n + k for k in range(100))}))
                slimstore.save_slim_store(writer, store)
            drained = []

            def drain():
                for record in load_slim_store(store, [INSTANCE_OF]):
                    drained.append(len(record.claims[INSTANCE_OF]))

            peak = traced_peak(drain)
            print(f"  traced peak {peak / 2**20:.2f} MiB over {store.stat().st_size / 2**20:.1f} MiB of store")
            assert drained == [100] * 2_000
            assert peak < 2**20

    def test_the_metrics_join_holds_no_per_item_map(self, tmp_path):
        # no record links an English article, one in a hundred is related:
        # the join may keep those, and nothing per item
        with criterion("metrics join (20,000 records, peak < 16 B per record)"):
            store = tmp_path / "entities.slim"
            write_store(store, 20_000, lambda n: ["frwiki", f"T{n}"])
            tsv = tmp_path / "attribution.tsv"
            tsv.write_text(
                "".join(f"Q{n}\ttrue\tP17>Q30\n" if n % 100 == 0 else f"Q{n}\tfalse\t\n" for n in range(1, 20_001)),
                encoding="utf-8",
            )
            related: set = set()
            sets: dict = {}

            def join():
                with open(store, encoding="utf-8") as records, open(tsv, encoding="utf-8") as rows:
                    joined = join_attribution(read_slim_store(records, ()), read_attribution_tsv(rows), related)
                    sets.update(build_article_sets(joined, ["en"]))

            peak = traced_peak(join)
            print(f"  traced peak {peak / 1024:.0f} KiB for 20,000 records")
            assert sets == {"en": {}}
            assert related == set(range(100, 20_001, 100))
            assert peak < 20_000 * 16

    def test_all_from_a_dump_holds_no_entity_list(self, tmp_path, monkeypatch):
        # each item claims 100 classes and links no requested language: attribution
        # keeps its id, the article sets nothing, and the store writer a few dozen lines
        with criterion("all --dump streams its entities (2,000 items of 100 claims, peak < 1/4 of the list)"):
            statement = '{"mainsnak": {"datavalue": {"value": {"entity-type": "item", "numeric-id": %d}}}}'

            def item(n):
                statements = ", ".join(statement % (10_000 + 100 * n + k) for k in range(100))
                claims = f'{{"P31": [{statements}]}}'
                sitelinks = f'{{"frwiki": {{"title": "T{n}"}}}}'
                return f'{{"type": "item", "id": "Q{n}", "claims": {claims}, "sitelinks": {sitelinks}}}'

            dump = tmp_path / "dump.json"
            dump.write_text(dump_text([item(n) for n in range(2_000, 0, -1)]), encoding="utf-8")
            # the records a parse of it yields, built directly: the parse is slow to trace
            tracemalloc.start()
            try:
                entities = [
                    SlimEntity(n, {INSTANCE_OF: tuple(10_000 + 100 * n + k for k in range(100))})
                    for n in range(2_000, 0, -1)
                ]
                listed = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            with open(dump, "rb") as source:
                assert list(parse_dump_stream(source, RuleSet().required_properties, {"enwiki"}, errors=[])) == entities
            del entities

            monkeypatch.setattr(slimstore, "RUN_BYTES", 30 * 900)  # each store line is about 900 bytes
            config = RunConfig(
                out_dir=tmp_path / "out", languages=("en",), dump=dump, readership=FIXTURE / "readership.csv"
            )
            peak = traced_peak(lambda: run_pipeline(config))
            print(f"  traced peak {peak / 2**20:.2f} MiB against a {listed / 2**20:.1f} MiB entity list")
            assert peak < listed / 4
            assert (tmp_path / "out" / "entities.slim").read_text(encoding="utf-8").count("\n") == 2 + 2_000


class TestDeterminism:
    def test_two_end_to_end_runs_are_byte_identical(self, tmp_path):
        with criterion("determinism (two runs, byte-identical artifacts)"):
            def run(out_name):
                return run_pipeline(
                    RunConfig(
                        out_dir=tmp_path / out_name,
                        languages=("en", "de"),
                        dump=FIXTURE / "dump.json",
                        pageviews=(
                            FIXTURE / "pageviews-a.txt",
                            FIXTURE / "pageviews-b.txt",
                        ),
                        readership=FIXTURE / "readership.csv",
                        rules=FIXTURE / "rules.txt",
                    )
                )

            first = run("one")
            second = run("two")
            assert set(first.artifacts) == set(second.artifacts)
            for name in first.artifacts:
                a = first.artifacts[name].read_bytes()
                b = second.artifacts[name].read_bytes()
                assert a == b, f"artifact {name} differs between runs"


class TestSlimStoreRoundTrip:
    def test_thousand_plus_randomized_entities_round_trip_exactly(self):
        with criterion("slim store round trip (1200 randomized entities)"):
            entities = random_entities(random.Random(424242), 1_200)
            sink = io.BytesIO()
            with SlimStoreWriter(STORE_PROPS) as writer:
                for entity in entities:
                    writer.add(entity)
                count = writer.write(sink)
            assert count == 1_200
            restored = list(read_slim_store(io.StringIO(sink.getvalue().decode("utf-8")), STORE_PROPS))
            expected = sorted(entities, key=lambda e: e.id)
            discrepancies = sum(1 for a, b in zip(restored, expected) if a != b)
            discrepancies += abs(len(restored) - len(expected))
            assert discrepancies == 0


class TestClusterPooling:
    def test_two_language_cluster_pools_to_exactly_one_fifth(self):
        with criterion("cluster pooling (10/100 + 30/100 -> 0.20 exactly)"):
            def member(language, related_views):
                return MetricsRow(
                    language=language,
                    primary_country="MX",
                    ppcrw=Fraction(1, 2),
                    vpc=Fraction(1, 2),
                    article_count=10,
                    related_article_count=5,
                    total_views=100,
                    related_views=related_views,
                )

            cluster = aggregate_cluster("Latin America", [member("es", 10), member("pt", 30)], method="pooled")
            assert cluster.popularity_share == Fraction(20, 100)
            assert float(cluster.popularity_share) == 0.20

    def test_single_member_identity_holds_for_random_fixtures(self):
        with criterion("cluster pooling single-member identity (60 fixtures)"):
            rng = random.Random(5150)
            for index in range(60):
                articles = rng.randint(1, 400)
                related_articles = rng.randint(0, articles)
                total_views = rng.randint(1, 5000)
                related_views = rng.randint(0, total_views)
                row = MetricsRow(
                    language=f"l{index}",
                    primary_country="US",
                    ppcrw=Fraction(rng.randint(0, 100), 100),
                    vpc=Fraction(rng.randint(0, 100), 100),
                    article_count=articles,
                    related_article_count=related_articles,
                    total_views=total_views,
                    related_views=related_views,
                )
                cluster = aggregate_cluster("Solo", [row], method="pooled")
                assert cluster.popularity_share == row.ravs
                assert cluster.article_share == row.ras
