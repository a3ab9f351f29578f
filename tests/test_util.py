import gc
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wikicoverage.attribution import parse_rules
from wikicoverage.entities import item_number
from wikicoverage.errors import WikiCoverageError
from wikicoverage.metrics import METRICS_COLUMNS, read_metrics_tsv
from wikicoverage.slimstore import read_store_header
from wikicoverage.usage import PageviewMemo, parse_pageviews_stream, parse_readership_table, read_views_tsv
from wikicoverage.util import (
    Memo,
    first_repeat,
    format_fraction,
    normalize_pageview_title,
    normalize_sitelink_title,
    parse_count,
    paused_gc,
    percent,
    read_tsv,
    sitelink_key,
)


class TestParseCount:
    @pytest.mark.parametrize("text, value", [("0", 0), ("007", 7), ("42", 42)])
    def test_ascii_digits(self, text, value):
        assert parse_count(text, "views") == value

    @pytest.mark.parametrize(
        "text",
        ["", "-", "+5", "1_000", " 5", "5\n", "\u0663", "\uff15", "--5", "5-", "1e3", "0x10", "-0", "-00"],
        ids=["empty", "minus-only", "plus-sign", "underscore", "leading-space", "trailing-newline",
             "arabic-indic-digit", "fullwidth-digit", "double-minus", "trailing-minus", "exponent", "hex",
             "minus-zero", "minus-zeros"],
    )
    def test_anything_else_is_non_numeric(self, text):
        # int() reads many of these as a number
        with pytest.raises(ValueError, match=f"^{re.escape(f'non-numeric views {text!r}')}$"):
            parse_count(text, "views")

    @pytest.mark.parametrize("text, value", [("-5", 5), ("-05", 5), ("-4300", 4300)])
    def test_a_minus_before_digits_names_a_negative_count(self, text, value):
        with pytest.raises(ValueError, match=f"^negative views -{value}$"):
            parse_count(text, "views")

    @pytest.mark.parametrize("text", ["1" * 5000, "0" * 5000, "-" + "1" * 5000, "-" + "0" * 5000],
                             ids=["ones", "zeros", "negative", "minus-zeros"])
    def test_more_digits_than_int_reads_are_counted_not_echoed(self, text):
        with pytest.raises(ValueError, match=r"^views too large \(5000 digits\)$"):
            parse_count(text, "views")


def _pageview_reason(count):
    errors = []
    assert parse_pageviews_stream([f"en Foo {count} 0\n"], PageviewMemo(None), errors=errors) == {}
    (issue,) = errors
    raise ValueError(issue.reason)


def _metrics_row(count):
    header = "\t".join(METRICS_COLUMNS) + "\n"
    read_metrics_tsv([header, f"de\tDE\t0.600000\t0.800000\t0.300000\t0.400000\t10\t3\t{count}\t40\n"])


# each reader of a count in an input file, and the name it gives that count
COUNT_READERS = {
    "pageviews": (_pageview_reason, "view count"),
    "views-tsv": (lambda count: read_views_tsv(["language\ttitle\tviews\n", f"en\tA\t{count}\n"]), "views"),
    "readership": (
        lambda count: parse_readership_table(["language,country,readers,views_from\n", f"en,US,{count},1\n"]),
        "readers",
    ),
    "metrics-tsv": (_metrics_row, "total_views"),
    "rules": (lambda count: parse_rules(f"target=Q30\nmax_depth={count}"), "max_depth"),
    "store-header": (lambda count: read_store_header(["WCM4\n", f"count={count} props=P17\n"]), "count"),
}


class TestEveryCountReader:
    """Every reader takes its counts through util.parse_count, so a refused
    count reads the same in each, led only by the reader's line or row."""

    @pytest.mark.parametrize(
        "reader, count",
        [(name, "1" * 5000) for name in COUNT_READERS]
        # the store header's pattern admits only digits, so it never sees a minus
        + [(name, "-7") for name in COUNT_READERS if name != "store-header"],
        ids=[f"{name}-overlong" for name in COUNT_READERS]
        + [f"{name}-negative" for name in COUNT_READERS if name != "store-header"],
    )
    def test_a_refused_count_is_worded_alike(self, reader, count):
        read, field = COUNT_READERS[reader]
        with pytest.raises((ValueError, WikiCoverageError)) as refused:
            read(count)
        message = str(refused.value)
        if count.startswith("-"):
            assert f"negative {field} -7" in message
        else:
            assert f"{field} too large (5000 digits)" in message
            assert re.search("[0-9]{21}", message) is None
            assert len(message) < 200


class TestFirstRepeat:
    @pytest.mark.parametrize(
        "tokens, repeated",
        [([], None), (["P17"], None), (["P17", "P19"], None), (["P17", "P17"], "P17"),
         (["P1", "P2", "P2", "P1"], "P2"), (["P1", "P2", "P3", "P1", "P2"], "P1")],
    )
    def test_names_the_first_token_seen_before(self, tokens, repeated):
        assert first_repeat(tokens) == repeated

    def test_both_readers_name_the_same_repeat(self):
        with pytest.raises(WikiCoverageError, match=r"^line 1: repeated id P19 in 'direct'$"):
            parse_rules("direct=P17,P19,P27,P19,P17\n")
        with pytest.raises(WikiCoverageError, match=r"property P19 appears twice in props=$"):
            read_store_header(iter(["WCM4\n", "count=0 props=P17,P19,P27,P19,P17\n"]))


class TestMemo:
    """``util.Memo``, here over ``item_number``: each key computed once, a refusal kept for no key."""

    def test_each_token_is_parsed_once_and_shared(self):
        memo = Memo(item_number)
        first = memo["Q3000"]  # past the small ints that CPython itself shares
        assert first == 3000
        assert memo["Q3000"] is first
        assert memo[f"Q{3000}"] is first  # an equal token, built apart, shares the int
        assert memo["Q17"] == 17

    def test_kind_is_checked_on_first_entry(self):
        memo = Memo(item_number)
        with pytest.raises(ValueError, match="^not an item id: 'P17'$"):
            memo["P17"]
        assert "P17" not in memo

    @pytest.mark.parametrize("bad", ["", "*", "Q0", "xyz"])
    def test_bad_token_raises_and_is_not_kept(self, bad):
        memo = Memo(item_number)
        with pytest.raises(ValueError):
            memo[bad]
        assert bad not in memo
        assert not memo

    def test_function_is_called_once_per_distinct_key(self):
        calls = []

        def double(key):
            calls.append(key)
            return key * 2

        memo = Memo(double)
        assert [memo[key] for key in ["a", "b", "a", "a", "b", "c"]] == ["aa", "bb", "aa", "aa", "bb", "cc"]
        assert calls == ["a", "b", "c"]
        assert memo == {"a": "aa", "b": "bb", "c": "cc"}
        assert memo.get("d") is None and "d" not in memo  # only a subscript computes


class TestSitelinkKey:
    def test_plain_language(self):
        assert sitelink_key("en") == "enwiki"

    def test_hyphens_become_underscores(self):
        assert sitelink_key("zh-min-nan") == "zh_min_nanwiki"


class TestTitleNormalization:
    def test_sitelink_spaces_to_underscores(self):
        assert normalize_sitelink_title("The New York Times") == "The_New_York_Times"

    def test_sitelink_case_is_preserved(self):
        assert normalize_sitelink_title("iPhone case") == "iPhone_case"

    def test_pageview_percent_decoding(self):
        assert normalize_pageview_title("Claude_D%C3%A9sir%C3%A9") == "Claude_Désiré"

    def test_pageview_invalid_escape_passes_through(self):
        assert normalize_pageview_title("100%_club") == "100%_club"
        assert normalize_pageview_title("A%zz") == "A%zz"

    def test_pageview_escape_of_a_byte_that_is_not_utf8_becomes_a_replacement_character(self):
        # views.tsv keys on this form, so two such titles total under one key
        assert normalize_pageview_title("A%E9") == normalize_pageview_title("A%E8") == "A\ufffd"
        lines = ["en A%E9 1 0\n", "en A%E8 2 0\n"]
        assert parse_pageviews_stream(lines, PageviewMemo(None), errors=[]) == {("en", "A\ufffd"): 3}

    def test_pageview_decoded_space_becomes_underscore(self):
        assert normalize_pageview_title("A%20B") == "A_B"

    def test_pageview_plus_is_not_a_space(self):
        assert normalize_pageview_title("C%2B%2B") == "C++"


class TestFormatFraction:
    def test_six_decimals_default(self):
        assert format_fraction(Fraction(1, 3)) == "0.333333"
        assert format_fraction(Fraction(2, 3)) == "0.666667"

    def test_exact_values_render_exactly(self):
        assert format_fraction(Fraction(3, 5)) == "0.600000"
        assert format_fraction(Fraction(0)) == "0.000000"
        assert format_fraction(Fraction(1)) == "1.000000"

    def test_half_rounds_to_even(self):
        assert format_fraction(Fraction(1, 2), places=0) == "0"
        assert format_fraction(Fraction(3, 2), places=0) == "2"
        assert format_fraction(Fraction(25, 1000), places=2) == "0.02"
        assert format_fraction(Fraction(35, 1000), places=2) == "0.04"

    def test_negative_values(self):
        assert format_fraction(Fraction(-1, 4), places=2) == "-0.25"

    @given(num=st.integers(0, 10**6), den=st.integers(1, 10**6), places=st.integers(0, 9))
    def test_rendering_error_is_at_most_half_an_ulp(self, num, den, places):
        value = Fraction(num, den)
        rendered = Fraction(format_fraction(value, places))
        assert abs(rendered - value) * 2 <= Fraction(1, 10**places)


class TestPercent:
    def test_two_decimals_like_the_reference_table(self):
        assert percent(Fraction(1631, 10000)) == "16.31%"
        assert percent(Fraction(3, 5)) == "60.00%"
        assert percent(Fraction(1)) == "100.00%"


class TestPausedGc:
    @pytest.fixture(autouse=True)
    def restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        (gc.enable if was_enabled else gc.disable)()

    def test_pauses_inside_and_restores_on_normal_exit(self):
        gc.enable()
        with paused_gc():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_when_the_block_raises(self):
        gc.enable()
        with pytest.raises(KeyError):
            with paused_gc():
                raise KeyError("boom")
        assert gc.isenabled()

    def test_leaves_a_collector_the_caller_had_off_off(self):
        gc.disable()
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()
        with pytest.raises(KeyError):
            with paused_gc():
                raise KeyError("boom")
        assert not gc.isenabled()


class TestReadTsv:
    # the readers' own tests cover field counts, repeated keys and bad fields
    @pytest.mark.parametrize(
        "text, problem",
        [
            ("", r"line 1: expected the header 'key\\tvalue'"),
            ("key\tvalues\n", r"line 1: expected the header 'key\\tvalue'"),
            ("key\tvalue\na\t1\n\na\t2\n", "line 4: repeated key a"),
        ],
        ids=["empty", "bad-header", "blank-line-counted"],
    )
    def test_every_error_names_its_line(self, text, problem):
        with pytest.raises(ValueError, match=f"^{problem}$"):
            read_tsv(text.splitlines(True), ("key", "value"), lambda fields: tuple(fields))
