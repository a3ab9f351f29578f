import io
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikicoverage.attribution import read_attribution_tsv
from wikicoverage.entities import SlimEntity
from wikicoverage.errors import (
    IncompleteAttributionError,
    NoReadershipError,
    TitleConflictError,
    UndefinedMetricError,
)
from wikicoverage.metrics import (
    METRICS_COLUMNS,
    MetricsRow,
    build_article_sets,
    compute_all,
    compute_language_row,
    count_related,
    join_attribution,
    primary_country,
    read_metrics_tsv,
    reader_share,
    write_metrics_tsv,
)
from wikicoverage.usage import ReadershipRecord


def rr(language, country, readers, views_from=0):
    return ReadershipRecord(language, country, readers, views_from)


class TestArticleSets:
    def test_sitelink_title_is_normalized_to_underscores(self):
        entity = SlimEntity(9684, {}, {"enwiki": "The New York Times"})
        sets = build_article_sets([entity], {"en"})
        assert sets["en"] == {"The_New_York_Times": 9684}

    def test_empty_stream_gives_empty_sets(self):
        sets = build_article_sets([], {"en", "de"})
        assert len(sets["en"]) == 0 and len(sets["de"]) == 0

    def test_fifty_entities_across_three_languages(self):
        rng = random.Random(5)
        entities = []
        expected = {"en": 0, "de": 0, "fr": 0}
        for n in range(1, 51):
            links = {}
            for lang in expected:
                if rng.random() < 0.6:
                    links[f"{lang}wiki"] = f"Artikel {n}"
            entities.append(SlimEntity(n, {}, links))
            for lang in expected:
                if f"{lang}wiki" in links:
                    expected[lang] += 1
        sets = build_article_sets(entities, set(expected))
        assert {lang: len(s) for lang, s in sets.items()} == expected

    def test_conflicting_titles_name_both_ids(self):
        entities = [
            SlimEntity(1, {}, {"enwiki": "Same Title"}),
            SlimEntity(2, {}, {"enwiki": "Same_Title"}),
        ]
        with pytest.raises(TitleConflictError) as err:
            build_article_sets(entities, {"en"})
        assert "Q1" in str(err.value) and "Q2" in str(err.value)

    def test_unrequested_languages_are_ignored(self):
        entity = SlimEntity(1, {}, {"enwiki": "A", "dewiki": "B"})
        sets = build_article_sets([entity], {"en"})
        assert list(sets) == ["en"]

    def test_hyphenated_language_maps_to_underscore_wiki_code(self):
        entity = SlimEntity(1, {}, {"zh_min_nanwiki": "A"})
        sets = build_article_sets([entity], {"zh-min-nan"})
        assert sets["zh-min-nan"] == {"A": 1}


class TestAttributionJoin:
    """``join_attribution`` matches each store record to its attribution TSV row."""

    STORE = [SlimEntity(n, {}, {"enwiki": f"T{n}"}) for n in (1, 2, 3)]

    def join(self, lines, store=STORE):
        related = set()
        rows = read_attribution_tsv(io.StringIO("".join(f"{line}\n" for line in lines)))
        records = list(join_attribution(store, rows, related))
        return records, related

    def test_rows_in_store_order_pass_every_record_and_keep_the_related(self):
        records, related = self.join(["Q1\ttrue\tP27>Q30", "", "Q2\tfalse\t", "Q3\ttrue\tP17>Q30"])
        assert records == self.STORE
        assert related == {1, 3}

    @pytest.mark.parametrize(
        "lines, message",
        [
            pytest.param(
                ["Q1\tfalse\t", "Q3\tfalse\t"],
                "attribution TSV line 2: item 'Q3' where the store has Q2; "
                "the TSV lists exactly the store's items, in store order",
                id="skipped-item",
            ),
            pytest.param(
                ["Q1\tfalse\t", "Q2\tfalse\t"],
                "attribution TSV has no row for item Q3: its rows end after line 2",
                id="skipped-last-item",
            ),
            pytest.param(
                ["Q1\tfalse\t", "Q9\tfalse\t", "Q2\tfalse\t", "Q3\tfalse\t"],
                "attribution TSV line 2: item 'Q9' where the store has Q2; ",
                id="added-item",
            ),
            pytest.param(
                ["Q1\tfalse\t", "Q2\tfalse\t", "Q3\tfalse\t", "", "Q4\tfalse\t"],
                "attribution TSV line 5: item 'Q4' is not in the store, which ends before it",
                id="added-last-item",
            ),
            pytest.param(
                ["Q1\tfalse\t", "Q3\tfalse\t", "Q2\tfalse\t"],
                "attribution TSV line 2: item 'Q3' where the store has Q2; ",
                id="swapped-items",
            ),
            pytest.param(
                ["Q1\tfalse\t", "Q1\ttrue\tP27>Q30", "Q2\tfalse\t", "Q3\tfalse\t"],
                "attribution TSV line 2: item 'Q1' where the store has Q2; ",
                id="repeated-item",
            ),
            pytest.param(
                ["Q1\tfalse\t", "Q02\tfalse\t", "Q3\tfalse\t"],
                "attribution TSV line 2: item 'Q02' where the store has Q2; ",
                id="item-not-written-as-the-writer-writes-it",
            ),
            pytest.param([], "attribution TSV has no row for item Q1: its rows end after line 0", id="empty-tsv"),
        ],
    )
    def test_a_wrong_item_list_names_item_and_line(self, lines, message):
        with pytest.raises(IncompleteAttributionError, match=f"^{re.escape(message)}"):
            self.join(lines)

    def test_a_bad_row_names_the_file_and_its_line(self):
        with pytest.raises(ValueError, match="^attribution TSV line 2: related flag must be true or false, got 'maybe'$"):
            self.join(["Q1\tfalse\t", "Q2\tmaybe\t", "Q3\tfalse\t"])

    def test_each_store_record_is_read_before_its_row(self):
        def store():
            yield self.STORE[0]
            raise ValueError("line 4: bad store record")

        with pytest.raises(ValueError, match="^line 4: bad store record$"):
            self.join(["Q1\tfalse\t", "Q2\tmaybe\t"], store())


class TestPrimaryCountry:
    def test_largest_reader_count_wins(self):
        assert primary_country([rr("en", "US", 600), rr("en", "GB", 150)]) == "US"

    def test_singleton(self):
        assert primary_country([rr("nl", "NL", 10)]) == "NL"

    def test_tie_breaks_to_smallest_code(self):
        assert primary_country([rr("xx", "AB", 5), rr("xx", "AA", 5)]) == "AA"

    def test_empty_list_raises(self):
        with pytest.raises(NoReadershipError):
            primary_country([])

    @given(factor=st.integers(1, 1000), seed=st.integers(0, 2**31))
    @settings(max_examples=40)
    def test_scaling_readers_never_changes_the_argmax(self, factor, seed):
        rng = random.Random(seed)
        codes = ["US", "GB", "DE", "FR", "PL"]
        records = [rr("en", c, rng.randint(0, 100)) for c in codes]
        scaled = [rr("en", r.country, r.readers * factor) for r in records]
        assert primary_country(records) == primary_country(scaled)


def language_row(articles, related, views=None, language="en"):
    """The metrics row of one article set, one view per title unless ``views`` is given."""
    if views is None:
        views = {(language, title): 1 for title in articles}
    readership = {language: [rr(language, "US", 1, 1)]}
    return compute_language_row(language, articles, related, views, readership)


class TestReaderShares:
    def test_en_fixture_matches_published_percentages(self):
        records = [
            rr("en", "US", 600, 800),
            rr("en", "GB", 150, 90),
            rr("en", "DE", 100, 60),
            rr("en", "FR", 150, 50),
        ]
        assert reader_share(records, "US", "readers") == Fraction(60, 100)
        assert reader_share(records, "US", "views_from") == Fraction(80, 100)

    def test_singleton_country_gives_one(self):
        records = [rr("nl", "NL", 10, 25)]
        assert reader_share(records, "NL", "readers") == 1
        assert reader_share(records, "NL", "views_from") == 1

    def test_zh_style_minority_primary(self):
        records = [rr("zh", "CN", 7, 0), rr("zh", "TW", 93, 0)]
        # CN is not primary here, but the share arithmetic is the same
        assert reader_share(records, "CN", "readers") == Fraction(7, 100)

    def test_sv_style_views_share(self):
        records = [rr("sv", "SE", 0, 89), rr("sv", "FI", 0, 11)]
        assert reader_share(records, "SE", "views_from") == Fraction(89, 100)

    def test_zero_total_readers_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            reader_share([rr("en", "US", 0, 5)], "US", "readers")


    def test_absent_primary_is_an_error(self):
        # the primary country is picked from the language's own rows, so a
        # language without rows has none, and its row fails before any share
        readership = {"de": [rr("de", "DE", 5)]}
        with pytest.raises(NoReadershipError, match="^no readership rows for this language$"):
            compute_language_row("en", {"A": 1}, {1}, {("en", "A"): 5}, readership)


class TestArticleShares:
    def build(self, total, related_count):
        articles = {f"T{n}": n for n in range(1, total + 1)}
        return articles, set(range(1, related_count + 1))

    def test_three_of_ten_related(self):
        articles, related = self.build(10, 3)
        row = language_row(articles, related)
        assert (row.ras, row.related_article_count, row.article_count) == (Fraction(3, 10), 3, 10)
        assert count_related("en", articles, related, {}) == (3, 0, 0)

    def test_none_related_is_zero(self):
        articles, related = self.build(7, 0)
        assert language_row(articles, related).ras == 0

    def test_all_related_is_one(self):
        articles, related = self.build(5, 5)
        assert language_row(articles, related).ras == 1

    def test_empty_article_set_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            language_row({}, set())

    def test_missing_attribution_is_incomplete_input(self):
        # an article's owner is attributed only through the join with the TSV
        store = [SlimEntity(1, {}, {"enwiki": "T1"})]
        with pytest.raises(IncompleteAttributionError, match="^attribution TSV has no row for item Q1"):
            build_article_sets(join_attribution(store, [], set()), {"en"})

    def test_adding_unrelated_article_decreases_share(self):
        articles, related = self.build(10, 3)
        bigger, more = self.build(11, 3)
        assert language_row(bigger, more).ras < language_row(articles, related).ras

    def test_adding_related_article_increases_share(self):
        articles, related = self.build(10, 3)
        grown = {**articles, "new": 99}
        related.add(99)
        assert language_row(grown, related).ras > Fraction(3, 10)


class TestViewShares:
    def fixture(self):
        articles = {"A": 1, "B": 2, "C": 3, "D": 4}
        related = {1, 2}
        views = {("en", "A"): 30, ("en", "B"): 10, ("en", "C"): 45, ("en", "D"): 15}
        return articles, related, views

    def test_forty_of_hundred(self):
        articles, related, views = self.fixture()
        row = language_row(articles, related, views)
        assert (row.ravs, row.related_views, row.total_views) == (Fraction(40, 100), 40, 100)

    def test_no_related_articles_is_zero(self):
        articles, _, views = self.fixture()
        assert language_row(articles, set(), views).ravs == 0

    def test_related_article_without_views_contributes_zero(self):
        articles, related, views = self.fixture()
        del views[("en", "B")]
        assert count_related("en", articles, related, views)[1:] == (30, 90)

    def test_views_outside_the_article_set_are_ignored(self):
        articles, related, views = self.fixture()
        views[("en", "Main_Page")] = 100000
        assert count_related("en", articles, related, views)[1:] == (40, 100)

    def test_zero_total_views_is_undefined(self):
        articles, related, _ = self.fixture()
        with pytest.raises(UndefinedMetricError):
            language_row(articles, related, {})

    @given(factor=st.integers(1, 500))
    def test_scaling_views_leaves_share_unchanged(self, factor):
        articles, related, views = self.fixture()
        scaled = {key: value * factor for key, value in views.items()}
        assert (
            language_row(articles, related, scaled).ravs
            == language_row(articles, related, views).ravs
        )


class TestComputeAll:
    # the run's language list, in the order a user may give it; rows come back sorted
    LANGUAGES = ("fr", "en", "de")

    def fixture(self):
        entities = [
            SlimEntity(1, {}, {"enwiki": "A", "dewiki": "A"}),
            SlimEntity(2, {}, {"enwiki": "B"}),
            SlimEntity(3, {}, {"dewiki": "C", "frwiki": "C"}),
            SlimEntity(4, {}, {"frwiki": "D"}),
        ]
        related = {1, 3}
        views = {
            ("en", "A"): 6,
            ("en", "B"): 2,
            ("de", "A"): 3,
            ("de", "C"): 9,
            ("fr", "C"): 1,
            ("fr", "D"): 3,
        }
        readership = {
            "en": [rr("en", "US", 600, 800), rr("en", "GB", 400, 200)],
            "de": [rr("de", "DE", 75, 50), rr("de", "AT", 25, 50)],
            "fr": [rr("fr", "FR", 9, 9), rr("fr", "BE", 1, 1)],
        }
        article_sets = build_article_sets(entities, self.LANGUAGES)
        return article_sets, related, views, readership

    def test_three_language_fixture_matches_per_op_oracles(self):
        article_sets, related, views, readership = self.fixture()
        rows, failures = compute_all(article_sets, related, views, readership, self.LANGUAGES)
        assert failures == {}
        by_lang = {row.language: row for row in rows}
        # oracle: values recomputed by hand from the fixture tables above
        assert by_lang["en"].ppcrw == Fraction(600, 1000)
        assert by_lang["en"].vpc == Fraction(800, 1000)
        assert by_lang["en"].ras == Fraction(1, 2)
        assert by_lang["en"].ravs == Fraction(6, 8)
        assert by_lang["de"].primary_country == "DE"
        assert by_lang["de"].ras == Fraction(1, 1)  # A and C both related
        assert by_lang["de"].ravs == Fraction(12, 12)
        assert by_lang["fr"].ras == Fraction(1, 2)
        assert by_lang["fr"].ravs == Fraction(1, 4)

    def test_language_without_readership_fails_alone(self):
        article_sets, related, views, readership = self.fixture()
        del readership["de"]
        rows, failures = compute_all(article_sets, related, views, readership, self.LANGUAGES)
        assert {row.language for row in rows} == {"en", "fr"}
        assert set(failures) == {"de"}
        assert isinstance(failures["de"], NoReadershipError)

    def test_single_language_all_related_fixture_is_all_ones(self):
        entities = [SlimEntity(1, {}, {"enwiki": "Only"})]
        related = {1}
        views = {("en", "Only"): 10}
        readership = {"en": [rr("en", "US", 3, 7)]}
        rows, failures = compute_all(build_article_sets(entities, {"en"}), related, views, readership, ["en"])
        assert failures == {}
        (row,) = rows
        assert (row.ppcrw, row.vpc, row.ras, row.ravs) == (1, 1, 1, 1)

    def test_rows_come_back_language_sorted(self):
        article_sets, related, views, readership = self.fixture()
        rows, _ = compute_all(article_sets, related, views, readership, self.LANGUAGES)
        assert [row.language for row in rows] == ["de", "en", "fr"]

    def test_failure_messages_are_exact_and_in_check_order(self):
        # each language fails one check; most also fail every later check,
        # so the message pins which check comes first
        def fine(lang):
            return [rr(lang, "US", 5, 5)]

        article_sets = {"aa": {}, "ab": {}, "ac": {}, "ad": {}, "af": {"T": 1}}
        readership = {
            "ab": [rr("ab", "US", 0, 0)],
            "ac": [rr("ac", "US", 5, 0)],
            "ad": fine("ad"),
            "af": fine("af"),
        }
        rows, failures = compute_all(article_sets, {1}, {}, readership, list(article_sets))
        assert rows == []
        assert {lang: (type(exc), str(exc)) for lang, exc in failures.items()} == {
            "aa": (NoReadershipError, "no readership rows for this language"),
            "ab": (UndefinedMetricError, "zero total readers"),
            "ac": (UndefinedMetricError, "zero total views_from"),
            "ad": (UndefinedMetricError, "no articles for language 'ad'"),
            "af": (UndefinedMetricError, "zero total views for language 'af'"),
        }


class TestMetricsRow:
    def make_row(self, **overrides):
        values = dict(
            language="en",
            primary_country="US",
            ppcrw=Fraction(3, 5),
            vpc=Fraction(4, 5),
            article_count=10,
            related_article_count=3,
            total_views=100,
            related_views=40,
        )
        values.update(overrides)
        return MetricsRow(**values)

    def test_valid_row_constructs(self):
        assert self.make_row().language == "en"

    def test_ras_and_ravs_are_the_exact_shares_of_the_counts(self):
        row = self.make_row()
        assert (row.ras, row.ravs) == (Fraction(3, 10), Fraction(2, 5))

    def test_out_of_range_metric_rejected(self):
        with pytest.raises(ValueError):
            self.make_row(ppcrw=Fraction(3, 2))

    def test_related_exceeding_total_rejected(self):
        with pytest.raises(ValueError):
            self.make_row(related_views=101)

    @pytest.mark.parametrize(
        "overrides, problem",
        [
            ({"article_count": 0}, "article_count must be positive, got 0"),
            ({"article_count": 0, "total_views": 0}, "article_count must be positive, got 0"),
            ({"total_views": -1}, "total_views must be positive, got -1"),
            ({"related_article_count": -1}, "ras out of [0, 1]: -1/10"),
            ({"related_views": -1}, "ravs out of [0, 1]: -1/100"),
            ({"related_article_count": 11}, "ras out of [0, 1]: 11/10"),
        ],
        ids=["zero-articles", "zero-articles-and-views", "negative-views",
             "negative-related-articles", "negative-related-views", "related-articles-exceed"],
    )
    def test_bad_counts_are_rejected_with_their_reason(self, overrides, problem):
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            self.make_row(**overrides)

    def test_tsv_round_trip(self):
        rows = [self.make_row(), self.make_row(language="de", primary_country="DE")]
        sink = io.StringIO()
        write_metrics_tsv(rows, sink)
        text = sink.getvalue()
        assert text.splitlines()[0].startswith("language\tprimary_country\tppcrw")
        assert "0.600000" in text and "0.300000" in text
        back = read_metrics_tsv(io.StringIO(text))
        assert back == rows

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("de\tDE\t0.6\t0.8\t0.3", "expected 10 fields, got 5"),
            ("de\tDE\t0.600000\t0.800000\t0\t0.4\t0\t0\t100\t40", "article_count must be positive, got 0"),
            ("de\tDE\t0.600000\t0.800000\t0.3\t0\t10\t3\t-1\t0", "negative total_views -1"),
            ("de\tDE\t0.6\t0.8\t0.3\t0.4\tten\t3\t100\t40", "non-numeric article_count 'ten'"),
            ("de\tDE\t0.6\t0.8\t0.3\t0.4\t1_0\t3\t100\t40", "non-numeric article_count '1_0'"),
            ("de\tDE\t0.6\t0.8\t0.3\t0.4\t10\t\u0663\t100\t40", "non-numeric related_article_count '\u0663'"),
            ("de\tDE\t0.6\t0.8\t0.3\t0.4\t10\t3\t+100\t40", r"non-numeric total_views '\+100'"),
            ("en\tUS\t0.600000\t0.800000\t0.300000\t0.400000\t10\t3\t100\t40", "repeated key en"),
            ("EN !\tus \t0.600000\t0.800000\t0.300000\t0.400000\t10\t3\t100\t40", "bad language code 'EN !'"),
            ("fr\tus \t0.600000\t0.800000\t0.300000\t0.400000\t10\t3\t100\t40", "bad country code 'us '"),
        ],
        ids=["five-fields", "zero-articles", "negative-views", "non-integer", "underscore",
             "arabic-indic-digit", "plus-sign", "repeated-language", "bad-language", "bad-country"],
    )
    def test_bad_row_names_its_line(self, row, problem):
        sink = io.StringIO()
        write_metrics_tsv([self.make_row()], sink)
        with pytest.raises(ValueError, match=f"^line 3: {problem}$"):
            read_metrics_tsv(io.StringIO(sink.getvalue() + row + "\n"))

    @pytest.mark.parametrize("column", ["ppcrw", "vpc"])
    @pytest.mark.parametrize(
        "text", ["\u0660.\u0666", "6e-1", " 3/5", "+0.6", "0.6", "0.6000000", ".600000", "0.600000 "]
    )
    def test_reader_share_must_be_written_as_the_writer_writes_it(self, column, text):
        # each of these reads as 3/5 through Fraction(), yet the writer writes 0.600000
        fields = dict(zip(METRICS_COLUMNS, "de DE 0.600000 0.600000 0.300000 0.400000 10 3 100 40".split()))
        fields[column] = text
        with pytest.raises(ValueError, match=f"^line 3: {column} must have six decimals, got "):
            self.read_after_one_row("\t".join(fields.values()))

    @pytest.mark.parametrize("column", ["ras", "ravs"])
    @pytest.mark.parametrize("text", ["garbage", "-7", "0.3", "0.500000", "0.300001"])
    def test_rounded_share_must_match_the_counts(self, column, text):
        fields = dict(zip(METRICS_COLUMNS, "de DE 0.600000 0.800000 0.300000 0.400000 10 3 100 40".split()))
        fields[column] = text
        with pytest.raises(ValueError, match=f"^line 3: {column} '{re.escape(text)}' does not match its counts"):
            self.read_after_one_row("\t".join(fields.values()))

    def read_after_one_row(self, row):
        sink = io.StringIO()
        write_metrics_tsv([self.make_row()], sink)
        return read_metrics_tsv(io.StringIO(sink.getvalue() + row + "\n"))

    @given(
        num=st.integers(0, 1000),
        den=st.integers(1, 1000),
    )
    @settings(max_examples=60)
    def test_metrics_stay_in_unit_interval(self, num, den):
        related_count = min(num, den)
        row = self.make_row(
            article_count=den,
            related_article_count=related_count,
        )
        for name in ("ppcrw", "vpc", "ras", "ravs"):
            assert 0 <= getattr(row, name) <= 1
