import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikicoverage.errors import PageviewsLineError, ReadershipTableError
from wikicoverage.usage import (
    ReadershipRecord,
    ViewRecord,
    aggregate_views,
    merge_views,
    parse_pageviews_line,
    parse_pageviews_stream,
    parse_readership_table,
    read_views_tsv,
    write_views_tsv,
)


class TestParseLine:
    def test_plain_wikipedia_line(self):
        assert parse_pageviews_line("en Main_Page 42 0") == ViewRecord("en", "Main_Page", 42)

    def test_mobile_domain_folds_into_base_language(self):
        assert parse_pageviews_line("en.m Foo 7 0") == ViewRecord("en", "Foo", 7)

    def test_zero_domain_folds_into_base_language(self):
        assert parse_pageviews_line("de.zero Bar 3 0") == ViewRecord("de", "Bar", 3)

    def test_non_numeric_count_is_malformed(self):
        with pytest.raises(PageviewsLineError):
            parse_pageviews_line("en Foo x 0")

    def test_negative_count_is_malformed(self):
        with pytest.raises(PageviewsLineError):
            parse_pageviews_line("en Foo -1 0")

    def test_wrong_field_count_is_malformed(self):
        with pytest.raises(PageviewsLineError):
            parse_pageviews_line("en Foo 42")

    def test_empty_title_is_malformed(self):
        with pytest.raises(PageviewsLineError):
            parse_pageviews_line("en  42 0")

    @pytest.mark.parametrize("domain", ["en.d", "en.b", "commons.m", "en.m.d", "EN", "www"])
    def test_untracked_domains_are_skipped(self, domain):
        assert parse_pageviews_line(f"{domain} Foo 42 0") is None

    def test_language_filter_skips_other_languages(self):
        assert parse_pageviews_line("de Foo 42 0", languages={"en"}) is None
        assert parse_pageviews_line("en Foo 42 0", languages={"en"}) is not None

    def test_percent_encoded_title_is_decoded(self):
        record = parse_pageviews_line("en Claude_D%C3%A9sir%C3%A9 5 0")
        assert record.title == "Claude_Désiré"

    def test_spaces_from_decoding_become_underscores(self):
        assert parse_pageviews_line("en A%20B 1 0").title == "A_B"


class TestParseStream:
    def test_malformed_lines_are_tallied_and_skipped(self):
        lines = ["en Foo 1 0\n", "en Bar x 0\n", "en Baz 2 0\n"]
        errors = []
        records = list(parse_pageviews_stream(lines, errors=errors))
        assert [r.title for r in records] == ["Foo", "Baz"]
        assert len(errors) == 1 and errors[0].line_number == 2

    def test_undecodable_line_is_tallied_and_skipped(self):
        shard = io.BytesIO(b"en Alpha 3 0\nen B\xe9ta 2 0\nen Gamma 4 0\n")
        errors = []
        records = list(parse_pageviews_stream(shard, errors=errors))
        assert records == [ViewRecord("en", "Alpha", 3), ViewRecord("en", "Gamma", 4)]
        assert [(e.line_number, e.reason) for e in errors] == [(2, "invalid UTF-8")]

    def test_byte_lines_parse_like_text_lines(self):
        text = "en Caf\u00e9 1 0\nen.m Foo 2 0\nde Bar 3 0\nen.d Baz 4 0\nen Foo x 0\nen Foo -1 0\n"
        text_errors, byte_errors = [], []
        from_text = list(parse_pageviews_stream(io.StringIO(text), {"en"}, errors=text_errors))
        from_bytes = list(
            parse_pageviews_stream(io.BytesIO(text.encode("utf-8")), {"en"}, errors=byte_errors)
        )
        assert from_bytes == from_text == [ViewRecord("en", "Caf\u00e9", 1), ViewRecord("en", "Foo", 2)]
        assert byte_errors == text_errors and len(text_errors) == 2

    def test_blank_lines_are_ignored(self):
        assert list(parse_pageviews_stream(["\n", "en Foo 1 0\n"])) == [
            ViewRecord("en", "Foo", 1)
        ]


class TestAggregate:
    def test_totals_are_summed(self):
        records = [ViewRecord("en", "Foo", 2), ViewRecord("en", "Foo", 3)]
        assert aggregate_views(records) == {("en", "Foo"): 5}

    def test_empty_input_gives_empty_mapping(self):
        assert aggregate_views([]) == {}

    def test_mobile_fold_preserves_language_sum(self):
        lines = ["en Foo 2 0\n", "en.m Foo 3 0\n", "en.m Bar 4 0\n"]
        totals = aggregate_views(parse_pageviews_stream(lines))
        assert totals == {("en", "Foo"): 5, ("en", "Bar"): 4}
        assert sum(totals.values()) == 9

    @given(seed=st.integers(0, 2**31), shards=st.integers(2, 5))
    @settings(max_examples=40)
    def test_sharding_never_changes_totals(self, seed, shards):
        rng = random.Random(seed)
        records = [
            ViewRecord(
                rng.choice(["en", "de"]),
                rng.choice(["A", "B", "C", "D"]),
                rng.randint(0, 50),
            )
            for _ in range(rng.randint(0, 200))
        ]
        single_pass = aggregate_views(records)
        parts = [[] for _ in range(shards)]
        for record in records:
            parts[rng.randrange(shards)].append(record)
        sharded = merge_views(*[aggregate_views(part) for part in parts])
        assert sharded == single_pass

    def test_thousand_records_in_four_shards_match_single_pass(self):
        rng = random.Random(42)
        records = [
            ViewRecord("en", f"T{rng.randint(1, 30)}", rng.randint(0, 9))
            for _ in range(1000)
        ]
        shards = [records[i::4] for i in range(4)]
        assert merge_views(*[aggregate_views(s) for s in shards]) == aggregate_views(records)


class TestReadership:
    HEADER = "language,country,readers,views_from\n"

    def test_rows_group_by_language(self):
        source = io.StringIO(self.HEADER + "en,US,600,800\nen,GB,150,90\n")
        table = parse_readership_table(source)
        assert table == {
            "en": [
                ReadershipRecord("en", "US", 600, 800),
                ReadershipRecord("en", "GB", 150, 90),
            ]
        }

    def test_duplicate_language_country_raises(self):
        source = io.StringIO(self.HEADER + "en,US,600,800\nen,US,1,1\n")
        with pytest.raises(ReadershipTableError):
            parse_readership_table(source)

    def test_header_only_gives_empty_table(self):
        assert parse_readership_table(io.StringIO(self.HEADER)) == {}

    def test_missing_column_raises(self):
        source = io.StringIO("language,country,readers\nen,US,600\n")
        with pytest.raises(ReadershipTableError):
            parse_readership_table(source)

    def test_negative_value_raises(self):
        source = io.StringIO(self.HEADER + "en,US,-1,0\n")
        with pytest.raises(ReadershipTableError):
            parse_readership_table(source)

    def test_non_integer_count_raises(self):
        source = io.StringIO(self.HEADER + "en,US,lots,0\n")
        with pytest.raises(ReadershipTableError):
            parse_readership_table(source)

    def test_bad_country_code_raises(self):
        source = io.StringIO(self.HEADER + "en,usa,1,1\n")
        with pytest.raises(ReadershipTableError):
            parse_readership_table(source)


class TestViewsTsv:
    def test_round_trip_sorted(self):
        views = {("en", "B"): 2, ("de", "A"): 7, ("en", "A"): 1}
        sink = io.StringIO()
        write_views_tsv(views, sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "language\ttitle\tviews"
        assert lines[1:] == ["de\tA\t7", "en\tA\t1", "en\tB\t2"]
        assert read_views_tsv(io.StringIO(sink.getvalue())) == views

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("en\tA", "expected 3 fields, got 2"),
            ("en\tA\t1\t2", "expected 3 fields, got 4"),
            ("en\tA\tmany", "non-integer view total 'many'"),
            ("en\tA\t-5", "negative view total -5"),
        ],
        ids=["two-fields", "four-fields", "non-integer", "negative"],
    )
    def test_bad_row_names_its_line(self, row, problem):
        text = "language\ttitle\tviews\nde\tA\t7\n" + row + "\n"
        with pytest.raises(ValueError, match=f"^line 3: {problem}$"):
            read_views_tsv(io.StringIO(text))
