import codecs
import csv
import hashlib
import io
import json
import os
from fractions import Fraction
from pathlib import Path
from urllib.parse import unquote

import pytest

from wikicoverage import report, slimstore
from wikicoverage.attribution import RuleSet, attribute_all, load_rules
from wikicoverage.dump import parse_dump_stream
from wikicoverage.errors import (
    ConfigError,
    DumpTruncatedError,
    DuplicateItemError,
    PipelineStageError,
    SlimStoreWriteError,
)
from wikicoverage.metrics import MetricsRow, read_metrics_tsv
from wikicoverage.report import RunConfig, emit_table, run_pipeline, sort_rows_for_table

from helpers import dump_text, entity_json

FIXTURE = Path(__file__).resolve().parents[1] / "demos" / "data"
PACKAGED_MAP = Path(__file__).resolve().parents[1] / "src" / "wikicoverage" / "data" / "cluster_map.csv"


def make_row(language, ravs_pair, **overrides):
    related_views, total_views = ravs_pair
    values = dict(
        language=language,
        primary_country="US",
        ppcrw=Fraction(1, 2),
        vpc=Fraction(1, 2),
        article_count=10,
        related_article_count=1,
        total_views=total_views,
        related_views=related_views,
    )
    values.update(overrides)
    return MetricsRow(**values)


class TestEmitTable:
    def test_higher_views_share_comes_first(self):
        rows = [make_row("it", (1889, 10000)), make_row("en", (3158, 10000))]
        sink = io.StringIO()
        emit_table(rows, sink)
        lines = sink.getvalue().splitlines()
        assert lines[1].startswith("en\t")
        assert lines[2].startswith("it\t")
        assert "31.58%" in lines[1] and "18.89%" in lines[2]

    def test_single_row_table(self):
        sink = io.StringIO()
        emit_table([make_row("en", (1, 2))], sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0] == "language\tprimary_country\tppcrw\tvpc\tras\travs\tarticles"

    def test_equal_shares_fall_back_to_language_order(self):
        rows = [make_row("fr", (1, 2)), make_row("de", (1, 2))]
        sink = io.StringIO()
        emit_table(rows, sink)
        lines = sink.getvalue().splitlines()
        assert lines[1].startswith("de\t") and lines[2].startswith("fr\t")

    def test_sort_is_non_increasing_in_views_share(self):
        rows = [make_row(f"l{i}", (i, 10)) for i in range(1, 9)]
        shares = [r.ravs for r in sort_rows_for_table(rows)]
        assert shares == sorted(shares, reverse=True)

    def test_percent_rendering_has_two_decimals(self):
        sink = io.StringIO()
        emit_table([make_row("en", (3158, 10000))], sink)
        body = sink.getvalue().splitlines()[1].split("\t")
        assert body[2] == "50.00%" and body[5] == "31.58%"


# -- independent end-to-end oracle over the bundled fixture -------------------


def oracle_fixture_expectations():
    """Recompute every expected number from the raw fixture files.

    Deliberately reimplements parsing and arithmetic with plain json/csv and
    fractions so it shares no code path with the package.
    """
    target = 30
    direct = {"P17", "P27", "P495"}
    place = {"P19", "P276"}
    languages = ("en", "de")

    items = {}
    with open(FIXTURE / "dump.json", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip().rstrip(",")
            if line in ("[", "]"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if obj.get("type") != "item":
                continue
            claims = {}
            for prop, statements in (obj.get("claims") or {}).items():
                values = []
                for statement in statements:
                    if statement.get("rank") == "deprecated":
                        continue
                    value = (
                        statement.get("mainsnak", {}).get("datavalue", {}).get("value")
                    )
                    if isinstance(value, dict) and value.get("entity-type") == "item":
                        values.append(value["numeric-id"])
                if values:
                    claims[prop] = values
            links = {
                wiki: entry["title"]
                for wiki, entry in (obj.get("sitelinks") or {}).items()
            }
            items[obj["id"]] = {"claims": claims, "links": links}

    geo = {
        int(qid[1:]): data["claims"].get("P17", []) for qid, data in items.items()
    }

    def place_reaches_target(start, budget=5):
        if budget == 0:
            return False
        for nxt in geo.get(start, []):
            if nxt == target or place_reaches_target(nxt, budget - 1):
                return True
        return False

    def is_related(data):
        if 4167410 in data["claims"].get("P31", []):
            return False
        for prop in direct:
            if target in data["claims"].get(prop, []):
                return True
        for prop in place:
            for value in data["claims"].get(prop, []):
                if place_reaches_target(value):
                    return True
        return False

    related_ids = {qid for qid, data in items.items() if is_related(data)}

    views = {}
    for name in ("pageviews-a.txt", "pageviews-b.txt"):
        for raw in (FIXTURE / name).read_text(encoding="utf-8").splitlines():
            parts = raw.split(" ")
            if len(parts) != 4:
                continue
            domain, title, count, _ = parts
            base, _, suffix = domain.partition(".")
            if base not in languages or suffix not in ("", "m", "zero"):
                continue
            try:
                count = int(count)
            except ValueError:
                continue
            key = (base, unquote(title).replace(" ", "_"))
            views[key] = views.get(key, 0) + count

    readership = {}
    with open(FIXTURE / "readership.csv", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            readership.setdefault(row["language"], []).append(
                (row["country"], int(row["readers"]), int(row["views_from"]))
            )

    expected = {}
    for language in languages:
        articles = {}
        for qid, data in items.items():
            title = data["links"].get(f"{language}wiki")
            if title:
                articles[title.replace(" ", "_")] = qid
        related_articles = sum(1 for qid in articles.values() if qid in related_ids)
        total_views = sum(views.get((language, t), 0) for t in articles)
        related_views = sum(
            views.get((language, t), 0) for t, qid in articles.items() if qid in related_ids
        )
        rows = readership[language]
        primary = min(rows, key=lambda r: (-r[1], r[0]))[0]
        readers_total = sum(r[1] for r in rows)
        views_from_total = sum(r[2] for r in rows)
        expected[language] = {
            "primary": primary,
            "ppcrw": Fraction(sum(r[1] for r in rows if r[0] == primary), readers_total),
            "vpc": Fraction(sum(r[2] for r in rows if r[0] == primary), views_from_total),
            "ras": Fraction(related_articles, len(articles)),
            "ravs": Fraction(related_views, total_views),
            "article_count": len(articles),
            "related_article_count": related_articles,
            "total_views": total_views,
            "related_views": related_views,
        }
    return expected


class TestPipelineEndToEnd:
    def config(self, tmp_path, **overrides):
        values = dict(
            out_dir=tmp_path / "out",
            languages=("en", "de"),
            dump=FIXTURE / "dump.json",
            pageviews=(FIXTURE / "pageviews-a.txt", FIXTURE / "pageviews-b.txt"),
            readership=FIXTURE / "readership.csv",
            rules=FIXTURE / "rules.txt",
            scale="log",
        )
        values.update(overrides)
        return RunConfig(**values)

    def test_all_artifacts_are_produced(self, tmp_path):
        result = run_pipeline(self.config(tmp_path))
        for name in ("slim", "attribution", "views", "metrics", "clusters", "table", "chart", "chart_svg", "manifest"):
            assert name in result.artifacts, name
            assert result.artifacts[name].exists()
        assert not list(result.out_dir.glob(".staging-*"))

    def test_metrics_match_the_independent_oracle(self, tmp_path):
        result = run_pipeline(self.config(tmp_path))
        with open(result.artifacts["metrics"], encoding="utf-8") as handle:
            rows = {row.language: row for row in read_metrics_tsv(handle)}
        expected = oracle_fixture_expectations()
        for language, want in expected.items():
            got = rows[language]
            assert got.primary_country == want["primary"]
            assert got.ppcrw == want["ppcrw"]
            assert got.vpc == want["vpc"]
            assert got.ras == want["ras"]
            assert got.ravs == want["ravs"]
            assert got.article_count == want["article_count"]
            assert got.related_views == want["related_views"]

    def test_fixture_numbers_are_the_frozen_ones(self):
        # frozen from the oracle; a fixture edit must break this loudly
        expected = oracle_fixture_expectations()
        assert expected["en"]["ppcrw"] == Fraction(3, 5)
        assert expected["en"]["vpc"] == Fraction(4, 5)
        assert expected["en"]["ras"] == Fraction(9, 18)
        assert expected["en"]["ravs"] == Fraction(458, 575)
        assert expected["de"]["primary"] == "DE"
        assert expected["de"]["ppcrw"] == Fraction(3, 4)
        assert expected["de"]["ras"] == Fraction(4, 10)
        assert expected["de"]["ravs"] == Fraction(120, 462)

    def test_manifest_records_inputs_counts_and_tallies(self, tmp_path):
        result = run_pipeline(self.config(tmp_path))
        manifest = json.loads(result.artifacts["manifest"].read_text(encoding="utf-8"))
        assert manifest["counts"]["entities"] == 21
        assert manifest["issues"]["dump_parse_errors"] == 1
        assert manifest["issues"]["pageview_parse_errors"] == 1
        assert manifest["counts"]["related_items"] == 9
        assert manifest["counts"]["metric_rows"] == 2
        assert manifest["issues"]["failed_languages"] == {}
        assert len(manifest["inputs"]) == 5
        for entry in manifest["inputs"].values():
            assert len(entry["sha256"]) == 64

    def test_byte_order_marked_inputs_give_the_same_artifacts_and_digest_as_given(self, tmp_path):
        marked = {}
        for field, source in (
            ("readership", FIXTURE / "readership.csv"),
            ("rules", FIXTURE / "rules.txt"),
            ("cluster_map", PACKAGED_MAP),
        ):
            marked[field] = tmp_path / f"marked-{source.name}"
            marked[field].write_bytes(codecs.BOM_UTF8 + source.read_bytes())
        plain = run_pipeline(self.config(tmp_path, out_dir=tmp_path / "plain", cluster_map=PACKAGED_MAP))
        bom = run_pipeline(self.config(tmp_path, out_dir=tmp_path / "bom", **marked))
        compared = sorted(set(plain.artifacts) - {"manifest"})
        assert compared == sorted(set(bom.artifacts) - {"manifest"})
        for name in compared:
            assert plain.artifacts[name].read_bytes() == bom.artifacts[name].read_bytes(), name
        # the manifest digests each file's bytes as given, the mark included
        for path in marked.values():
            data = path.read_bytes()
            assert bom.manifest["inputs"][str(path)] == {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}

    def test_undecodable_bytes_are_tallied_not_fatal(self, tmp_path):
        dump = tmp_path / "dump.json"
        lines = (FIXTURE / "dump.json").read_bytes().splitlines(keepends=True)
        lines.insert(2, b'{"type": "item", "id": "Q999", "sitelinks": "B\xe9ta"},\n')
        dump.write_bytes(b"".join(lines))
        shard = tmp_path / "pageviews-bad.txt"
        shard.write_bytes(b"en Alpha 3 0\nen B\xe9ta 2 0\nen Gamma 4 0\n")
        pageviews = (FIXTURE / "pageviews-a.txt", FIXTURE / "pageviews-b.txt", shard)
        manifest = run_pipeline(self.config(tmp_path, dump=dump, pageviews=pageviews)).manifest
        assert manifest["issues"]["dump_parse_errors"] == 2  # the fixture's own, plus ours
        assert manifest["issues"]["pageview_parse_errors"] == 2
        assert manifest["counts"]["entities"] == 21

    def test_undecodable_store_fails_as_the_ingest_stage(self, tmp_path):
        store = tmp_path / "entities.slim"
        first = run_pipeline(self.config(tmp_path, out_dir=tmp_path / "first"))
        store.write_bytes(first.artifacts["slim"].read_bytes().replace(b"\"Berlin\"", b"\"B\xe9rlin\""))
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(self.config(tmp_path, dump=None, slim=store))
        assert err.value.stage == "ingest"
        assert isinstance(err.value.cause, UnicodeDecodeError)

    @pytest.mark.parametrize("fault", ["truncated-dump", "repeated-item", "store-write"])
    def test_a_dump_or_store_writer_error_is_the_ingest_stages_while_attribution_pulls(
        self, tmp_path, monkeypatch, fault
    ):
        # attribution pulls the parsed records through the store writer, so each
        # raises inside it, and attribution meets a repeated item before the
        # writer sorts its run; the error is still named for the stage that made it
        dump = FIXTURE / "dump.json"
        if fault == "truncated-dump":
            dump = tmp_path / "dump.json"
            dump.write_bytes((FIXTURE / "dump.json").read_bytes().replace(b"\n]", b"\n"))
            expected = DumpTruncatedError
        elif fault == "repeated-item":
            dump = tmp_path / "dump.json"
            dump.write_text(
                dump_text([entity_json("Q5", sitelinks={"enwiki": "A"}), entity_json("Q7"),
                           entity_json("Q5", sitelinks={"enwiki": "B"})]),
                encoding="utf-8",
            )
            expected = DuplicateItemError
        else:
            def fail(entity):
                raise OSError("disk full")

            monkeypatch.setattr(slimstore, "_record_line", fail)
            expected = SlimStoreWriteError
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(self.config(tmp_path, dump=dump))
        assert err.value.stage == "ingest"
        assert isinstance(err.value.cause, expected)
        assert not (tmp_path / "out" / "attribution.tsv").exists()

    def test_a_title_conflict_stays_the_metrics_stages_error(self, tmp_path):
        dump = tmp_path / "dump.json"
        dump.write_text(
            dump_text([entity_json("Q1", sitelinks={"enwiki": "Same title"}),
                       entity_json("Q2", sitelinks={"enwiki": "Same_title"})]),
            encoding="utf-8",
        )
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(self.config(tmp_path, dump=dump))
        assert err.value.stage == "metrics"
        assert str(err.value.cause) == "en:'Same_title' claimed by both Q1 and Q2"

    def test_missing_readership_aborts_at_config_stage(self, tmp_path):
        # refused before the dump is parsed or a pageview file read
        config = self.config(tmp_path, readership=None)
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(config)
        assert err.value.stage == "config"
        assert str(err.value.cause) == "readership CSV is required to compute metrics"
        assert not (tmp_path / "out").exists()

    def test_failure_leaves_no_staging_directory(self, tmp_path):
        # a title conflict fails the metrics stage, after staging started
        dump = tmp_path / "dump.json"
        dump.write_text(
            dump_text([entity_json("Q1", sitelinks={"enwiki": "Same title"}),
                       entity_json("Q2", sitelinks={"enwiki": "Same_title"})]),
            encoding="utf-8",
        )
        with pytest.raises(PipelineStageError):
            run_pipeline(self.config(tmp_path, dump=dump))
        assert (tmp_path / "out").is_dir()
        assert not list((tmp_path / "out").iterdir())

    def test_clusters_use_the_default_packaged_map(self, tmp_path):
        result = run_pipeline(self.config(tmp_path))
        text = result.artifacts["clusters"].read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "cluster\tpopularity_share\tarticle_share\tlanguages"
        clusters = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
        assert clusters["English-Speaking"][3] == "en"
        assert clusters["Protestant Europe"][3] == "de"

    def test_chart_json_has_both_languages_blue(self, tmp_path):
        result = run_pipeline(self.config(tmp_path))
        payload = json.loads(result.artifacts["chart"].read_text(encoding="utf-8"))
        assert payload["scale"] == "log"
        assert payload["dropped"] == 0
        assert {d["lang"]: d["color"] for d in payload["data"]} == {
            "en": "blue",
            "de": "blue",
        }

    def test_mean_aggregation_mode_changes_cluster_shares(self, tmp_path):
        pooled = run_pipeline(self.config(tmp_path, out_dir=tmp_path / "pooled"))
        mean = run_pipeline(
            self.config(tmp_path, out_dir=tmp_path / "mean", aggregation="mean")
        )
        pooled_text = pooled.artifacts["clusters"].read_text(encoding="utf-8")
        mean_text = mean.artifacts["clusters"].read_text(encoding="utf-8")
        # single-member clusters: pooled and mean agree by the identity property
        assert pooled_text == mean_text
        assert pooled.manifest["config"]["aggregation"] == "pooled"
        assert mean.manifest["config"]["aggregation"] == "mean"

    def test_linear_scale_pipeline(self, tmp_path):
        result = run_pipeline(self.config(tmp_path, scale="linear"))
        payload = json.loads(result.artifacts["chart"].read_text(encoding="utf-8"))
        assert payload["scale"] == "linear"
        assert (result.out_dir / "chart.svg").exists()

    def test_slim_input_path_produces_the_same_metrics(self, tmp_path):
        first = run_pipeline(self.config(tmp_path, out_dir=tmp_path / "a"))
        config = self.config(
            tmp_path,
            out_dir=tmp_path / "b",
            dump=None,
            slim=first.artifacts["slim"],
        )
        second = run_pipeline(config)
        # every artifact but the manifest, whose inputs differ, is the same byte for byte
        compared = sorted(set(second.artifacts) - {"manifest"})
        assert compared == ["attribution", "chart", "chart_svg", "clusters", "metrics", "table", "views"]
        for name in compared:
            assert first.artifacts[name].read_bytes() == second.artifacts[name].read_bytes(), name


class TestItemNumbers:
    """Every stage carries an id, item or property, as its plain ``int`` number;
    only text prints ``Q<n>`` and ``P<n>``.  An int hashes alike under every
    string hash seed, and CI runs this class under two."""

    def test_the_readers_yield_int_ids_and_claim_values(self, tmp_path):
        rules = load_rules(FIXTURE / "rules.txt")
        with open(FIXTURE / "dump.json", "rb") as handle:
            parsed = list(parse_dump_stream(handle, rules.required_properties, {"enwiki", "dewiki"}, errors=[]))
        store = tmp_path / "entities.slim"
        with slimstore.SlimStoreWriter(rules.required_properties) as writer:
            for record in parsed:
                writer.add(record)
            slimstore.save_slim_store(writer, store)
        with open(store, encoding="utf-8") as source:
            stored = list(slimstore.read_slim_store(source, rules.required_properties))
        with open(store, encoding="utf-8") as source:
            sitelinks = list(slimstore.read_slim_store(source, ()))
        assert stored == sorted(parsed, key=lambda record: record.id)
        assert [(r.id, r.claims, r.sitelinks) for r in sitelinks] == [(r.id, {}, r.sitelinks) for r in stored]
        assert {type(record.id) for record in parsed + stored + sitelinks} == {int}
        values = [value for record in parsed + stored for group in record.claims.values() for value in group]
        assert values and {type(value) for value in values} == {int}
        keys = [prop for record in parsed + stored for prop in record.claims]
        assert keys and {type(prop) for prop in keys} == {int}
        with open(store, encoding="utf-8") as source:
            header = slimstore.read_store_header(source)
        assert set(header.props) == rules.required_properties
        assert {type(prop) for prop in header.props} == {int}

    def test_a_rule_set_and_its_provenance_hold_int_ids(self):
        retargeted = report.resolve_rules(FIXTURE / "rules.txt", "Q183")
        for rules in (RuleSet(), load_rules(FIXTURE / "rules.txt"), retargeted):
            ids = (rules.target, *rules.exclude_classes, *rules.direct_props, *rules.place_props)
            assert {type(number) for number in ids + rules.geo_chain_props} == {int}
            assert {type(prop) for prop in rules.required_properties} == {int}
        rules = load_rules(FIXTURE / "rules.txt")
        with open(FIXTURE / "dump.json", "rb") as handle:
            results = attribute_all(parse_dump_stream(handle, rules.required_properties, None, errors=[]), {}, rules)
        nodes = [node for paths in results.values() for path in paths for node in path]
        assert nodes and {type(node) for node in nodes} == {int}

    def test_all_over_a_store_relates_and_owns_articles_by_int(self, tmp_path, monkeypatch):
        config = dict(
            languages=("en", "de"),
            pageviews=(FIXTURE / "pageviews-a.txt", FIXTURE / "pageviews-b.txt"),
            readership=FIXTURE / "readership.csv",
            rules=FIXTURE / "rules.txt",
        )
        store = run_pipeline(RunConfig(out_dir=tmp_path / "dump", dump=FIXTURE / "dump.json", **config)).artifacts["slim"]
        seen = {}
        metrics_stage = report.metrics_stage

        def spy(article_sets, related, *args):
            seen.update(article_sets=article_sets, related=related)
            return metrics_stage(article_sets, related, *args)

        monkeypatch.setattr(report, "metrics_stage", spy)
        run_pipeline(RunConfig(out_dir=tmp_path / "store", slim=store, **config))
        assert 30 in seen["related"]  # the target, Q30, claims itself as its country
        assert {type(item) for item in seen["related"]} == {int}
        owners = [item for articles in seen["article_sets"].values() for item in articles.values()]
        assert owners and {type(item) for item in owners} == {int}


class TestRunConfigValidation:
    def test_requires_exactly_one_input(self, tmp_path):
        config = RunConfig(out_dir=tmp_path, languages=("en",))
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(config)
        assert err.value.stage == "config"

    def test_rejects_missing_files(self, tmp_path):
        # a missing pageview file is named as missing before the files are compared
        for missing, config in (
            (tmp_path / "nope.json", RunConfig(out_dir=tmp_path, languages=("en",), dump=tmp_path / "nope.json")),
            (tmp_path / "nope.txt", RunConfig(out_dir=tmp_path, languages=("en",), dump=FIXTURE / "dump.json",
                                              pageviews=(tmp_path / "nope.txt",), readership=FIXTURE / "readership.csv")),
        ):
            with pytest.raises(PipelineStageError) as err:
                run_pipeline(config)
            assert err.value.stage == "config"
            assert str(err.value.cause) == f"input file does not exist: {missing}"

    def test_directory_as_input_fails_as_the_config_stage(self, tmp_path):
        config = RunConfig(
            out_dir=tmp_path,
            languages=("en",),
            dump=FIXTURE / "dump.json",
            pageviews=(FIXTURE,),
            readership=FIXTURE / "readership.csv",
        )
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(config)
        assert err.value.stage == "config"

    def test_a_pageview_file_given_twice_fails_as_the_config_stage(self, tmp_path):
        # each copy's views would be counted, and the manifest, keyed by path, would list one;
        # a hard link is the same file under another name
        copy = tmp_path / "a.txt"
        copy.write_bytes((FIXTURE / "pageviews-a.txt").read_bytes())
        os.link(copy, tmp_path / "b.txt")
        for first, again in ((FIXTURE / "pageviews-a.txt", FIXTURE / "pageviews-a.txt"), (copy, tmp_path / "b.txt")):
            config = RunConfig(
                out_dir=tmp_path / "out",
                languages=("en", "de"),
                dump=FIXTURE / "dump.json",
                pageviews=(first, FIXTURE / "pageviews-b.txt", again),
                readership=FIXTURE / "readership.csv",
            )
            with pytest.raises(PipelineStageError) as err:
                run_pipeline(config)
            assert err.value.stage == "config"
            assert str(err.value.cause) == f"pageview file given twice: {again}"
            assert not (tmp_path / "out").exists()

    def test_rejects_empty_language_list(self, tmp_path):
        config = RunConfig(out_dir=tmp_path, languages=(), dump=FIXTURE / "dump.json")
        with pytest.raises(PipelineStageError):
            run_pipeline(config)

    def test_rejects_unknown_scale(self, tmp_path):
        config = RunConfig(
            out_dir=tmp_path,
            languages=("en",),
            dump=FIXTURE / "dump.json",
            scale="cubic",
        )
        with pytest.raises(PipelineStageError):
            run_pipeline(config)

    def test_rejects_unknown_aggregation(self, tmp_path):
        config = RunConfig(out_dir=tmp_path, languages=("en",), dump=FIXTURE / "dump.json", aggregation="median")
        with pytest.raises(ConfigError, match="^unknown aggregation 'median'$"):
            config.validate()

    def test_validate_directly_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig(out_dir=tmp_path, languages=()).validate()

    def test_language_outside_the_readership_grammar_is_a_config_error(self, tmp_path):
        # such a code could never match a readership row, a pageview domain or a sitelink;
        # a repeated code would be listed twice in the manifest
        cases = ((("EN", "de"), "bad language code 'EN'"), (("en", "en", "de"), "repeated language code 'en'"))
        for languages, problem in cases:
            config = RunConfig(out_dir=tmp_path, languages=languages, dump=FIXTURE / "dump.json")
            with pytest.raises(ConfigError, match=f"^{problem}$"):
                config.validate()
