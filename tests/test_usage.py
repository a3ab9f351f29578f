import codecs
import gzip
import io
import random
import re
import tempfile
import tracemalloc
from functools import reduce
from pathlib import Path
from urllib.parse import unquote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wikicoverage.report
import wikicoverage.usage
from wikicoverage.dump import ParseIssue
from wikicoverage.errors import ReadershipTableError
from wikicoverage.report import usage_stage
from wikicoverage.usage import (
    _NON_LANGUAGE_CODES,
    BAD_TITLE,
    PageviewMemo,
    ReadershipRecord,
    aggregate_views,
    language_list_problem,
    load_readership,
    merge_views,
    parse_pageviews_stream,
    parse_readership_table,
    read_views_tsv,
    write_views_tsv,
)


def parse_one(line, languages=None):
    """The totals and the tallied issues of a one-line pageviews file."""
    return parse_pageviews_stream([line], PageviewMemo(languages), errors=(errors := [])), errors


class TestParseLine:
    def test_plain_wikipedia_line(self):
        assert parse_one("en Main_Page 42 0") == ({("en", "Main_Page"): 42}, [])

    def test_mobile_domain_folds_into_base_language(self):
        assert parse_one("en.m Foo 7 0") == ({("en", "Foo"): 7}, [])

    def test_zero_domain_folds_into_base_language(self):
        assert parse_one("de.zero Bar 3 0") == ({("de", "Bar"): 3}, [])

    def test_non_numeric_count_is_malformed(self):
        assert parse_one("en Foo x 0") == ({}, [ParseIssue(1, "non-numeric view count 'x'")])

    def test_negative_count_is_malformed(self):
        assert parse_one("en Foo -1 0") == ({}, [ParseIssue(1, "negative view count -1")])

    @pytest.mark.parametrize(
        "count", ["1_000", "\u0663", "+5", "5\t", "\uff15", "-0", "-00"],
        ids=[
            "underscore", "arabic-indic-digit", "plus-sign", "trailing-tab", "fullwidth-digit",
            "minus-zero", "minus-zeros",
        ],
    )
    def test_count_that_is_not_ascii_digits_is_malformed(self, count):
        # int() reads each of these as a number
        assert parse_one(f"en Foo {count} 0") == ({}, [ParseIssue(1, f"non-numeric view count {count!r}")])

    @pytest.mark.parametrize("count", ["1" * 5000, "0" * 5000, "-" + "1" * 5000], ids=["ones", "zeros", "negative"])
    def test_count_with_more_digits_than_int_reads_is_malformed(self, count):
        # int() refuses more than 4300 digits by default; the reason does not echo them
        lines = [f"en Foo {count} 0\n", "en Bar 5 0\n"]
        errors = []
        assert parse_pageviews_stream(lines, PageviewMemo(None), errors=errors) == {("en", "Bar"): 5}
        assert errors == [ParseIssue(1, "view count too large (5000 digits)")]

    def test_count_of_as_many_digits_as_int_reads_is_kept_and_one_more_is_malformed(self):
        assert parse_one(f"en Foo {'1' * 4300} 0") == ({("en", "Foo"): int("1" * 4300)}, [])
        assert parse_one(f"en Foo {'1' * 4301} 0") == ({}, [ParseIssue(1, "view count too large (4301 digits)")])

    def test_negative_count_names_its_value(self):
        assert parse_one("en Foo -4 0") == ({}, [ParseIssue(1, "negative view count -4")])

    def test_wrong_field_count_is_malformed(self):
        assert parse_one("en Foo 42") == ({}, [ParseIssue(1, "expected 4 space-separated fields, got 3")])

    def test_empty_title_is_malformed(self):
        assert parse_one("en  42 0") == ({}, [ParseIssue(1, "empty title")])

    @pytest.mark.parametrize("domain", ["en.d", "en.b", "commons.m", "en.m.d", "EN", "www", "en."])
    def test_untracked_domains_are_skipped(self, domain):
        assert parse_one(f"{domain} Foo 42 0") == ({}, [])

    def test_language_filter_skips_other_languages(self):
        assert parse_one("de Foo 42 0", languages={"en"}) == ({}, [])
        assert parse_one("en Foo 42 0", languages={"en"}) == ({("en", "Foo"): 42}, [])

    def test_percent_encoded_title_is_decoded(self):
        assert parse_one("en Claude_D%C3%A9sir%C3%A9 5 0") == ({("en", "Claude_Désiré"): 5}, [])

    def test_spaces_from_decoding_become_underscores(self):
        assert parse_one("en A%20B 1 0") == ({("en", "A_B"): 1}, [])

    @pytest.mark.parametrize(
        "title", ["Foo%0ABar", "Foo%0aBar", "Foo%09Bar", "Foo%0DBar", "Foo\tBar", "Foo\rBar"]
    )
    def test_title_decoding_to_a_line_or_field_break_is_malformed(self, title):
        assert parse_one(f"en {title} 5 0\n") == ({}, [ParseIssue(1, BAD_TITLE)])

    # a line that fails two checks is tallied with the first one's reason:
    # UTF-8, field count, language (a line of another domain is skipped, not
    # tallied), empty title, count, then title; a title that is empty cannot
    # also decode to a break, so every other pair has its case here
    @pytest.mark.parametrize(
        "line, reason",
        [
            ("en Foo%09 x 0\n", "non-numeric view count 'x'"),
            ("en  x 0\n", "empty title"),
            (b"en.d Foo\xff 1 0\n", "invalid UTF-8"),
            ("en Foo%0A -3 0\n", "negative view count -3"),
            (b"en Foo\xff 1\n", "invalid UTF-8"),
            (b"en  1 \xff\n", "invalid UTF-8"),
            (b"en Foo 1\xff 0\n", "invalid UTF-8"),
            (b"en Foo%0A\xff 1 0\n", "invalid UTF-8"),
            ("en.d Foo 1\n", "expected 4 space-separated fields, got 3"),
            ("en  1\n", "expected 4 space-separated fields, got 3"),
            ("en Foo x\n", "expected 4 space-separated fields, got 3"),
            ("en Foo%0A 1\n", "expected 4 space-separated fields, got 3"),
            ("en.d  1 0\n", None),
            ("en.d Foo x 0\n", None),
            ("en.d Foo%0A 1 0\n", None),
        ],
        ids=[
            "bad-count-and-tab-title", "empty-title-and-bad-count", "untracked-domain-and-bad-byte",
            "negative-count-and-lf-title", "bad-byte-and-three-fields", "bad-byte-and-empty-title",
            "bad-byte-and-bad-count", "bad-byte-and-lf-title", "three-fields-and-untracked-domain",
            "three-fields-and-empty-title", "three-fields-and-bad-count", "three-fields-and-lf-title",
            "untracked-domain-and-empty-title", "untracked-domain-and-bad-count", "untracked-domain-and-lf-title",
        ],
    )
    def test_the_first_failed_check_gives_the_reason(self, line, reason):
        assert parse_one(line) == ({}, [] if reason is None else [ParseIssue(1, reason)])


class TestParseStream:
    def test_malformed_lines_are_tallied_and_skipped(self):
        lines = ["en Foo 1 0\n", "en Bar x 0\n", "en Baz 2 0\n"]
        errors = []
        assert parse_pageviews_stream(lines, PageviewMemo(None), errors=errors) == {("en", "Foo"): 1, ("en", "Baz"): 2}
        assert len(errors) == 1 and errors[0].line_number == 2

    def test_counts_that_are_not_ascii_digits_are_tallied_with_their_lines(self):
        lines = ["en Foo 1_000 0\n", "en Bar \u0663 0\n", "en Baz +5 0\n", "en Qux -4 0\n", "en Ok 7 0\n"]
        errors = []
        assert parse_pageviews_stream(lines, PageviewMemo(None), errors=errors) == {("en", "Ok"): 7}
        assert errors == [
            ParseIssue(1, "non-numeric view count '1_000'"),
            ParseIssue(2, "non-numeric view count '\u0663'"),
            ParseIssue(3, "non-numeric view count '+5'"),
            ParseIssue(4, "negative view count -4"),
        ]

    def test_undecodable_line_is_tallied_and_skipped(self):
        shard = io.BytesIO(b"en Alpha 3 0\nen B\xe9ta 2 0\nen Gamma 4 0\n")
        errors = []
        assert parse_pageviews_stream(shard, PageviewMemo(None), errors=errors) == {("en", "Alpha"): 3, ("en", "Gamma"): 4}
        assert [(e.line_number, e.reason) for e in errors] == [(2, "invalid UTF-8")]

    def test_byte_lines_parse_like_text_lines(self):
        text = "en Caf\u00e9 1 0\nen.m Foo 2 0\nde Bar 3 0\nen.d Baz 4 0\nen Foo x 0\nen Foo -1 0\n"
        text_errors, byte_errors = [], []
        from_text = parse_pageviews_stream(io.StringIO(text), PageviewMemo({"en"}), errors=text_errors)
        from_bytes = parse_pageviews_stream(io.BytesIO(text.encode("utf-8")), PageviewMemo({"en"}), errors=byte_errors)
        assert from_bytes == from_text == {("en", "Caf\u00e9"): 1, ("en", "Foo"): 2}
        assert byte_errors == text_errors and len(text_errors) == 2

    def test_blank_lines_are_ignored(self):
        assert parse_pageviews_stream(["\n", "en Foo 1 0\n"], PageviewMemo(None), errors=[]) == {("en", "Foo"): 1}

    def test_bad_title_is_tallied_once_per_line_and_memoised_once(self):
        lines = ["en Foo%0ABar 5 0\n", "en Foo 1 0\n", "en.m Foo%0ABar 2 0\n", "en A\tB 3 0\n", "en  4 0\n"]
        memo = PageviewMemo(None)
        errors = []
        assert parse_pageviews_stream(lines, errors=errors, memo=memo) == {("en", "Foo"): 1}
        assert [(e.line_number, e.reason) for e in errors] == [
            (1, BAD_TITLE), (3, BAD_TITLE), (4, BAD_TITLE), (5, "empty title")
        ]
        assert memo.titles == {"en": {"Foo%0ABar": BAD_TITLE, "Foo": ("en", "Foo"), "A\tB": BAD_TITLE, "": "empty title"}}

    def test_shared_memo_normalises_each_title_once_across_shards(self):
        memo = PageviewMemo(None)
        first = parse_pageviews_stream(["en Caf%C3%A9 1 0\n", "de Foo 2 0\n"], memo=memo, errors=[])
        second = parse_pageviews_stream(["en.m Caf%C3%A9 3 0\n"], memo=memo, errors=[])
        assert first == {("en", "Caf\u00e9"): 1, ("de", "Foo"): 2} and second == {("en", "Caf\u00e9"): 3}
        assert next(iter(first)) is next(iter(second))
        assert memo.titles == {"en": {"Caf%C3%A9": ("en", "Caf\u00e9")}, "de": {"Foo": ("de", "Foo")}}

    @pytest.mark.parametrize("called_with", [{"de", "en"}, frozenset({"en", "de"}), ["en", "de"], ("de", "en")])
    def test_a_memo_takes_its_language_set_in_any_container(self, called_with):
        memo = PageviewMemo(called_with)
        lines = ["en Foo 1 0\n", "de.m Foo 2 0\n", "fr Foo 3 0\n"]
        assert parse_pageviews_stream(lines, memo, errors=[]) == {("en", "Foo"): 1, ("de", "Foo"): 2}
        assert memo.domains == {"en": memo.titles["en"], "de.m": memo.titles["de"], "fr": None}

    def test_a_refused_count_is_tallied_on_every_line_that_repeats_it(self):
        lines = ["en A x 0\n", "en B 1 0\n", "en C x 0\n", "de A x 0\n", "en A 2 0\n", "en D x 0\n"]
        errors = []
        assert parse_pageviews_stream(lines, PageviewMemo(None), errors=errors) == {("en", "B"): 1, ("en", "A"): 2}
        assert errors == [ParseIssue(n, "non-numeric view count 'x'") for n in (1, 3, 4, 6)]

    def test_a_repeated_count_keeps_the_order_of_the_reasons(self):
        # the count is read once, but an empty title still wins over it and a bad title still loses
        lines = ["en A x 0\n", "en  x 0\n", "en Foo%0A x 0\n", "en Foo%0A 3 0\n", "en  3 0\n", "en A 3 0\n"]
        errors = []
        assert parse_pageviews_stream(lines, PageviewMemo(None), errors=errors) == {("en", "A"): 3}
        assert [(e.line_number, e.reason) for e in errors] == [
            (1, "non-numeric view count 'x'"),
            (2, "empty title"),
            (3, "non-numeric view count 'x'"),
            (4, BAD_TITLE),
            (5, "empty title"),
        ]

    def test_a_count_one_digit_too_long_is_refused_each_time_it_appears(self):
        lines = [f"en Foo {'1' * 4301} 0\n", "en Bar 5 0\n", f"en Baz {'1' * 4301} 0\n"]
        errors = []
        assert parse_pageviews_stream(lines, PageviewMemo(None), errors=errors) == {("en", "Bar"): 5}
        assert errors == [ParseIssue(n, "view count too large (4301 digits)") for n in (1, 3)]


_DOMAINS = ["en", "en.m", "de.zero", "de", "fr", "en.d", "en.", "commons.m", "www", "EN", "", " ", "zh-min-nan"]
_TITLE_PIECES = [
    "Foo", "Bar_baz", "", "%20", "%0A", "%0a", "%09", "%0D", "%C3%A9", "%E9", "%", "%zz", "\t", "\r", "é",
]
_COUNTS = ["0", "5", "42", "-1", "-0", "x", "", "1.5", "+3", "\t7"]
_SIZES = ["0", "0\r", "123", ""]
_BLANKS = ["", "\n", "   \n", "\r\n", " \t \n", "\t"]


@st.composite
def pageview_lines(draw):
    """A line that is well-formed, malformed or blank, with or without its newline."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(_BLANKS))
    title = "".join(draw(st.lists(st.sampled_from(_TITLE_PIECES), max_size=3)))
    fields = [
        draw(st.sampled_from(_DOMAINS)),
        title,
        draw(st.sampled_from(_COUNTS)),
        draw(st.sampled_from(_SIZES)),
    ]
    count = draw(st.sampled_from([4, 4, 4, 4, 3, 5, 1]))
    fields = (fields + ["extra"])[:count]
    return " ".join(fields) + draw(st.sampled_from(["\n", "\r\n", ""]))


def _as_bytes(line: str, corrupt: int | None) -> bytes:
    data = line.encode("utf-8")
    if corrupt is None:
        return data
    at = corrupt % (len(data) + 1)
    return data[:at] + b"\xff" + data[at:]


def reference_stream(lines, languages):
    """(language, title, views) records and issues of a file, parsed line by
    line from the rules in :mod:`wikicoverage.usage`'s docstring and the
    README, with no call into the package."""
    records, issues = [], []
    for line_number, line in enumerate(lines, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                issues.append(ParseIssue(line_number, "invalid UTF-8"))
                continue
        if not line.strip():
            continue
        fields = line.split(" ")
        if len(fields) != 4:
            issues.append(ParseIssue(line_number, f"expected 4 space-separated fields, got {len(fields)}"))
            continue
        domain, raw_title, count, _ = fields
        language = domain.partition(".")[0]
        if (
            not re.fullmatch("[a-z][a-z0-9-]*", language)
            or language in _NON_LANGUAGE_CODES
            or domain not in (language, language + ".m", language + ".zero")
            or (languages is not None and language not in languages)
        ):
            continue
        if not raw_title:
            issues.append(ParseIssue(line_number, "empty title"))
            continue
        negative = count.startswith("-")
        digits = count[1:] if negative else count
        # a count is ASCII digits; a minus is read only to name a negative count
        if not digits or not set(digits) <= set("0123456789") or (negative and int(digits) == 0):
            issues.append(ParseIssue(line_number, f"non-numeric view count {count!r}"))
            continue
        if negative:
            issues.append(ParseIssue(line_number, f"negative view count -{int(digits)}"))
            continue
        title = unquote(raw_title).replace(" ", "_")
        if any(c in title for c in "\t\n\r"):
            issues.append(ParseIssue(line_number, BAD_TITLE))
            continue
        records.append((language, title, int(count)))
    return records, issues


def reference_totals(lines, languages):
    """:func:`reference_stream`'s records summed per (language, title), and its issues."""
    records, issues = reference_stream(lines, languages)
    totals = {}
    for language, title, views in records:
        totals[language, title] = totals.get((language, title), 0) + views
    return totals, issues


class TestStreamAgreesWithLineParser:
    @given(
        lines=st.lists(pageview_lines(), max_size=25),
        languages=st.sampled_from([None, {"en"}, {"en", "de"}]),
        corrupt=st.lists(st.one_of(st.none(), st.integers(0, 60)), max_size=25),
    )
    @settings(max_examples=300, deadline=None)
    def test_text_and_bytes_match_the_per_line_reference(self, lines, languages, corrupt):
        memo = PageviewMemo(languages)  # shared by both calls, as the usage stage shares it between files
        errors = []
        totals = parse_pageviews_stream(lines, memo, errors=errors)
        assert (totals, errors) == reference_totals(lines, languages)

        corrupt += [None] * (len(lines) - len(corrupt))
        byte_lines = [_as_bytes(line, at) for line, at in zip(lines, corrupt)]
        errors = []
        totals = parse_pageviews_stream(byte_lines, memo, errors=errors)
        assert (totals, errors) == reference_totals(byte_lines, languages)


def _views_tsv(totals) -> bytes:
    """The views TSV of ``totals``, written with no call into the package."""
    rows = "".join(f"{language}\t{title}\t{views}\n" for (language, title), views in sorted(totals.items()))
    return f"language\ttitle\tviews\n{rows}".encode("utf-8")


@st.composite
def pageview_files(draw):
    """A pageview file's bytes: tracked, untracked and folded domains, blank
    lines, wrong field counts, empty, refused and BAD_TITLE titles, refused
    counts, and lines that are not UTF-8."""
    lines = draw(st.lists(pageview_lines(), max_size=20))
    corrupt = draw(st.lists(st.one_of(st.none(), st.none(), st.integers(0, 60)), min_size=len(lines), max_size=len(lines)))
    return b"".join(_as_bytes(line, at) for line, at in zip(lines, corrupt))


class TestUsageStageAgreesWithPerFileReference:
    @given(
        files=st.lists(pageview_files(), min_size=1, max_size=5),
        languages=st.sampled_from([None, {"en"}, {"en", "de"}]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_stage_memo_gives_the_per_file_reference_summed(self, files, languages, data):
        # the stage memo carries every verdict from file to file; the result must be what
        # the reference gives each file alone, summed, with the issues in file order
        expected_totals, expected_issues = {}, []
        for data_bytes in files:
            totals, issues = reference_totals(data_bytes.split(b"\n"), languages)
            for key, views in totals.items():
                expected_totals[key] = expected_totals.get(key, 0) + views
            expected_issues += issues
        order = data.draw(st.permutations(range(len(files))))
        with tempfile.TemporaryDirectory() as directory:
            paths = [Path(directory, f"pageviews-{index}.txt") for index in range(len(files))]
            for path, data_bytes in zip(paths, files):
                path.write_bytes(data_bytes)
            views, issues = usage_stage(paths, languages, Path(directory, "views.tsv"))
            permuted_views, _ = usage_stage([paths[i] for i in order], languages, Path(directory, "permuted.tsv"))
            written = Path(directory, "views.tsv").read_bytes()
            assert Path(directory, "permuted.tsv").read_bytes() == written
        assert (views, issues) == (expected_totals, expected_issues)
        assert permuted_views == views
        assert written == _views_tsv(expected_totals)


# characters str.splitlines splits on but a pageview line holds as its own, and multi-byte ones
_ODD_PIECES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\u00e9", "\u20ac", "\U0001f600"]


@st.composite
def odd_title_lines(draw):
    """A line whose title holds characters that are not line breaks in a
    pageview file, or a title longer than the smallest blocks."""
    if draw(st.booleans()):
        title = "".join(draw(st.lists(st.sampled_from(["a", "_", "%20", *_ODD_PIECES]), min_size=1, max_size=6)))
    else:
        title = "Long_" * draw(st.integers(13, 40))
    fields = [draw(st.sampled_from(["en", "de.m", "fr"])), title, draw(st.sampled_from(_COUNTS)), "0"]
    return " ".join(fields) + draw(st.sampled_from(["\n", "\r\n", ""]))


class TestBlockReader:
    @given(
        lines=st.lists(st.one_of(pageview_lines(), odd_title_lines()), max_size=25),
        languages=st.sampled_from([None, {"en"}, {"en", "de"}]),
        corrupt=st.lists(st.one_of(st.none(), st.none(), st.integers(0, 60)), max_size=25),
        block_size=st.integers(1, 64),
    )
    @settings(max_examples=300, deadline=None)
    def test_usage_stage_reads_a_file_like_its_lines_at_any_block_size(
        self, lines, languages, corrupt, block_size
    ):
        corrupt += [None] * (len(lines) - len(corrupt))
        data = b"".join(_as_bytes(line, at) for line, at in zip(lines, corrupt))
        saved = wikicoverage.usage.BLOCK_SIZE
        wikicoverage.usage.BLOCK_SIZE = block_size
        try:
            with tempfile.TemporaryDirectory() as directory:
                path = Path(directory, "pageviews.txt")
                path.write_bytes(data)
                views, issues = usage_stage([path], languages, Path(directory, "views.tsv"))
        finally:
            wikicoverage.usage.BLOCK_SIZE = saved
        assert (views, issues) == reference_totals(data.split(b"\n"), languages)

    def test_a_gzipped_file_reads_like_the_plain_one(self, tmp_path):
        shards = [
            b"en Foo 1 0\nen.m Caf%C3%A9 2 0\nde Foo 3 0\nen Foo%0ABar 1 0\n",
            b"en Caf%C3%A9 4 0\nen.m Foo 5 0\nen x 1\nen B\xe9ta 1 0\nde Foo 7 0",
        ]
        plain = [tmp_path / f"pageviews-{index}.txt" for index in range(len(shards))]
        packed = [tmp_path / f"pageviews-{index}.gz" for index in range(len(shards))]
        for plain_path, packed_path, data in zip(plain, packed, shards):
            plain_path.write_bytes(data)
            packed_path.write_bytes(gzip.compress(data))
        views, issues = usage_stage(plain, ["en", "de"], tmp_path / "plain.tsv")
        assert usage_stage([plain[0], packed[1]], ["en", "de"], tmp_path / "mixed.tsv") == (views, issues)
        assert usage_stage(packed, ["en", "de"], tmp_path / "packed.tsv") == (views, issues)
        assert (tmp_path / "packed.tsv").read_bytes() == (tmp_path / "plain.tsv").read_bytes()
        assert [(i.line_number, i.reason) for i in issues] == [
            (4, BAD_TITLE), (3, "expected 4 space-separated fields, got 3"), (4, "invalid UTF-8")
        ]
        assert views == {("en", "Foo"): 6, ("en", "Caf\u00e9"): 6, ("de", "Foo"): 10}

    @pytest.mark.parametrize(
        "data",
        [
            gzip.compress(b"en Foo 1 0\n" * 100)[:-12],
            b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff\x07" + bytes(8),  # a reserved deflate block type
            gzip.compress(b"en Foo 1 0\n")[:-8] + bytes(8),  # a wrong CRC
        ],
        ids=["truncated", "corrupt", "bad-crc"],
    )
    def test_a_damaged_gzipped_file_raises_an_os_error_that_names_it(self, tmp_path, data):
        path = tmp_path / "pageviews.gz"
        path.write_bytes(data)
        with pytest.raises(OSError, match=re.escape(f"{path}: corrupt gzip data: ")):
            usage_stage([path], None, tmp_path / "views.tsv")


class TestAggregate:
    def test_totals_are_summed(self):
        assert aggregate_views([("en", "Foo", 2), ("en", "Foo", 3)]) == {("en", "Foo"): 5}

    def test_empty_input_gives_empty_mapping(self):
        assert aggregate_views([]) == {}

    def test_mobile_fold_preserves_language_sum(self):
        lines = ["en Foo 2 0\n", "en.m Foo 3 0\n", "en.m Bar 4 0\n"]
        totals = parse_pageviews_stream(lines, PageviewMemo(None), errors=[])
        assert totals == {("en", "Foo"): 5, ("en", "Bar"): 4}
        assert sum(totals.values()) == 9

    @given(seed=st.integers(0, 2**31), shards=st.integers(2, 5))
    @settings(max_examples=40)
    def test_sharding_never_changes_totals(self, seed, shards):
        rng = random.Random(seed)
        lines = [
            f"{rng.choice(['en', 'de'])} {rng.choice(['A', 'B', 'C', 'D'])} {rng.randint(0, 50)} 0\n"
            for _ in range(rng.randint(0, 200))
        ]
        single_pass = parse_pageviews_stream(lines, PageviewMemo(None), errors=[])
        parts = [[] for _ in range(shards)]
        for line in lines:
            parts[rng.randrange(shards)].append(line)
        memo = PageviewMemo(None)
        sharded = reduce(merge_views, [parse_pageviews_stream(part, memo=memo, errors=[]) for part in parts])
        assert sharded == single_pass

    def test_usage_stage_with_one_memo_equals_independent_shards(self, tmp_path):
        shards = [
            b"en Foo 1 0\nen.m Caf%C3%A9 2 0\nde Foo 3 0\nen Foo%0ABar 1 0\n",
            b"en Caf%C3%A9 4 0\nen.m Foo 5 0\nfr Foo 6 0\nen x 1\n",
            b"de Foo 7 0\n\nen A%20B 8 0\nen.d Foo 9 0\nen B\xe9ta 1 0\n",
        ]
        paths = [tmp_path / f"pageviews-{index}.txt" for index in range(len(shards))]
        for path, data in zip(paths, shards):
            path.write_bytes(data)
        views, issues = usage_stage(paths, ["en", "de"], tmp_path / "views.tsv")

        independent_issues = []
        independent = []
        for path in paths:
            with open(path, "rb") as handle:
                independent.append(parse_pageviews_stream(handle, PageviewMemo({"en", "de"}), errors=independent_issues))
        assert views == reduce(merge_views, independent)
        assert issues == independent_issues
        assert [(i.line_number, i.reason) for i in issues] == [
            (4, BAD_TITLE), (4, "expected 4 space-separated fields, got 3"), (5, "invalid UTF-8")
        ]
        assert views == {("en", "Foo"): 6, ("en", "Caf\u00e9"): 6, ("de", "Foo"): 10, ("en", "A_B"): 8}
        with open(tmp_path / "views.tsv", encoding="utf-8") as source:
            assert read_views_tsv(source) == views

    def test_usage_stage_decodes_each_language_title_once_and_shares_its_key(self, tmp_path, monkeypatch):
        decoded = []

        def counting(raw):
            decoded.append(raw)
            return normalize(raw)

        def recording(*args, **kwargs):
            shards.append(parse(*args, **kwargs))
            return shards[-1]

        normalize, parse, shards = wikicoverage.usage.normalize_pageview_title, parse_pageviews_stream, []
        monkeypatch.setattr(wikicoverage.usage, "normalize_pageview_title", counting)
        monkeypatch.setattr(wikicoverage.report, "parse_pageviews_stream", recording)
        paths = [tmp_path / "pageviews-0.txt", tmp_path / "pageviews-1.txt"]
        paths[0].write_bytes(b"en Caf%C3%A9 1 0\nen.m Caf%C3%A9 2 0\nde Caf%C3%A9 3 0\nen Foo 4 0\n")
        paths[1].write_bytes(b"en Foo 5 0\nen.zero Caf%C3%A9 6 0\nde Foo 7 0\n")
        views, _ = usage_stage(paths, None, tmp_path / "views.tsv")

        assert sorted(decoded) == ["Caf%C3%A9", "Caf%C3%A9", "Foo", "Foo"]  # en and de each once
        assert views == {("en", "Caf\u00e9"): 9, ("de", "Caf\u00e9"): 3, ("en", "Foo"): 9, ("de", "Foo"): 7}
        first, second = ({key: key for key in shard} for shard in shards)
        assert first[("en", "Caf\u00e9")] is second[("en", "Caf\u00e9")]
        assert first[("en", "Foo")] is second[("en", "Foo")]

    def test_usage_stage_judges_each_domain_and_count_once(self, tmp_path, monkeypatch):
        judged = []

        def counting(function):
            def judge(text, *rest):
                judged.append(text)
                return function(text, *rest)

            return judge

        for name in ("_tracked_language", "_count_verdict"):
            monkeypatch.setattr(wikicoverage.usage, name, counting(getattr(wikicoverage.usage, name)))
        paths = [tmp_path / "pageviews-0.txt", tmp_path / "pageviews-1.txt"]
        paths[0].write_bytes(b"en Foo 1 0\nen.m Bar 2 0\nfr Foo 1 0\nen Baz x 0\n")
        paths[1].write_bytes(b"en Bar 1 0\nen.m Foo 2 0\nfr Bar 2 0\nen Foo x 0\n")
        views, issues = usage_stage(paths, ["en"], tmp_path / "views.tsv")

        assert sorted(judged) == ["1", "2", "en", "en.m", "fr", "x"]  # each once, in the first file
        assert views == {("en", "Foo"): 3, ("en", "Bar"): 3}
        assert issues == [ParseIssue(4, "non-numeric view count 'x'")] * 2

    def test_merge_adds_later_parts_into_the_first_and_returns_it(self):
        first = {("en", "A"): 1, ("en", "B"): 2}
        second = {("en", "B"): 3, ("de", "A"): 4}
        third = {("en", "A"): 5}
        merged = merge_views(merge_views(first, second), third)
        assert merged is first
        assert merged == {("en", "A"): 6, ("en", "B"): 5, ("de", "A"): 4}
        assert second == {("en", "B"): 3, ("de", "A"): 4}
        assert third == {("en", "A"): 5}

    def test_usage_stage_peak_memory_is_flat_in_the_number_of_shards(self, tmp_path):
        # the same 2,000 titles in every shard: the running totals do not grow
        shard = "".join(f"en Title_{n} {n % 7 + 1} 0\n" for n in range(2000))

        def peak(shards):
            directory = tmp_path / str(shards)
            directory.mkdir()
            paths = [directory / f"pageviews-{index:03d}.txt" for index in range(shards)]
            for path in paths:
                path.write_text(shard, encoding="utf-8")
            tracemalloc.start()
            try:
                views, _ = usage_stage(paths, ["en"], directory / "views.tsv")
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(views) == 2000 and views[("en", "Title_1")] == 2 * shards
            return top

        assert peak(32) <= 1.25 * peak(4)

    def test_usage_stage_peak_memory_is_flat_in_the_length_of_a_file(self, tmp_path):
        # the same 2,000 titles repeated: the reader holds one block of lines, never the file
        titles = "".join(f"en Title_{n} {n % 7 + 1} 0\n" for n in range(2000))

        def peak(copies):
            path = tmp_path / f"pageviews-{copies}.txt"
            path.write_text(titles * copies, encoding="utf-8")
            tracemalloc.start()
            try:
                views, _ = usage_stage([path], ["en"], tmp_path / "views.tsv")
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(views) == 2000 and views[("en", "Title_1")] == 2 * copies
            return top

        assert peak(16) <= 1.25 * peak(1)

    def test_usage_stage_over_no_files_writes_an_empty_views_tsv(self, tmp_path):
        views, issues = usage_stage([], None, tmp_path / "views.tsv")
        assert views == {} and issues == []
        assert (tmp_path / "views.tsv").read_text(encoding="utf-8") == "language\ttitle\tviews\n"

    def test_thousand_records_in_four_shards_match_single_pass(self):
        rng = random.Random(42)
        records = [("en", f"T{rng.randint(1, 30)}", rng.randint(0, 9)) for _ in range(1000)]
        shards = [records[i::4] for i in range(4)]
        assert reduce(merge_views, [aggregate_views(s) for s in shards]) == aggregate_views(records)


class TestLanguageList:
    """``--languages`` and ``RunConfig`` refuse a language list by this one function."""

    @pytest.mark.parametrize(
        "languages, problem",
        [
            ((), "language list is empty"),
            (("en", "EN"), "bad language code 'EN'"),
            (("en", "de", "en"), "repeated language code 'en'"),
            (("de", "en", "zh-min-nan"), None),
        ],
        ids=["empty", "bad-code", "repeated-code", "good"],
    )
    def test_problem(self, languages, problem):
        assert language_list_problem(languages) == problem


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

    def test_a_byte_order_mark_loads_as_the_plain_file(self, tmp_path):
        text = self.HEADER + "en,US,600,800\nen,GB,150,90\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        assert load_readership(marked) == load_readership(plain) == parse_readership_table(io.StringIO(text))

    def test_duplicate_language_country_raises(self):
        source = io.StringIO(self.HEADER + "en,US,600,800\nen,US,1,1\n")
        with pytest.raises(ReadershipTableError):
            parse_readership_table(source)

    def test_header_only_gives_empty_table(self):
        assert parse_readership_table(io.StringIO(self.HEADER)) == {}

    def test_empty_file_gives_empty_table(self):
        assert parse_readership_table(io.StringIO("")) == {}

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

    @pytest.mark.parametrize(
        "count", ["1_000", "\u0663", "+5", "1e3", "", "-0", "-00"],
        ids=["underscore", "arabic-indic-digit", "plus-sign", "exponent", "empty", "minus-zero", "minus-zeros"],
    )
    def test_count_that_is_not_ascii_digits_raises(self, count):
        source = io.StringIO(self.HEADER + f"en,US,600,800\nde,DE,{count},1\n")
        with pytest.raises(ReadershipTableError, match=f"^row 3: {re.escape(f'non-numeric readers {count!r}')}$"):
            parse_readership_table(source)

    def test_counts_are_stripped_like_codes(self):
        source = io.StringIO(self.HEADER + " en , US , 600 , 800 \n")
        assert parse_readership_table(source) == {"en": [ReadershipRecord("en", "US", 600, 800)]}

    def test_bad_country_code_raises(self):
        source = io.StringIO(self.HEADER + "en,usa,1,1\n")
        with pytest.raises(ReadershipTableError):
            parse_readership_table(source)
        # and so does a bad language code, naming its row
        source = io.StringIO(self.HEADER + "en,US,1,1\nEN,GB,1,1\n")
        with pytest.raises(ReadershipTableError, match="^row 3: bad language code 'EN'$"):
            parse_readership_table(source)

    @pytest.mark.parametrize("extra", ["999", "", "999,1"], ids=["one-field", "empty-field", "two-fields"])
    def test_row_longer_than_the_header_raises(self, extra):
        # csv.DictReader would file the extra fields under its None key
        source = io.StringIO(self.HEADER + f"en,US,600,800\nen,GB,150,90,{extra}\n")
        got = 5 + extra.count(",")
        with pytest.raises(ReadershipTableError, match=f"^row 3: expected 4 fields, got {got}$"):
            parse_readership_table(source)

    def test_header_may_have_extra_columns(self):
        source = io.StringIO("language,country,readers,views_from,note\nen,US,600,800,survey\nen,GB,150,90\n")
        assert parse_readership_table(source) == {
            "en": [ReadershipRecord("en", "US", 600, 800), ReadershipRecord("en", "GB", 150, 90)]
        }


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
            ("en\tA\tmany", "non-numeric views 'many'"),
            ("en\tA\t1_0", "non-numeric views '1_0'"),
            ("en\tA\t\u0663", "non-numeric views '\u0663'"),
            ("en\tA\t+5", r"non-numeric views '\+5'"),
            ("en\tA\t-5", "negative views -5"),
            ("en\tA\t-0", "non-numeric views '-0'"),
            ("en\tA\t-00", "non-numeric views '-00'"),
            ("de\tA\t3", r"repeated key \('de', 'A'\)"),
        ],
        ids=["two-fields", "four-fields", "non-integer", "underscore", "arabic-indic-digit", "plus-sign",
             "negative", "minus-zero", "minus-zeros", "repeated-key"],
    )
    def test_bad_row_names_its_line(self, row, problem):
        text = "language\ttitle\tviews\nde\tA\t7\n" + row + "\n"
        with pytest.raises(ValueError, match=f"^line 3: {problem}$"):
            read_views_tsv(io.StringIO(text))
