import codecs
import io
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikicoverage.clusters import (
    aggregate_all,
    aggregate_cluster,
    assign_clusters,
    default_cluster_map,
    load_cluster_map,
    parse_cluster_map,
    write_clusters_tsv,
)
from wikicoverage.cli import main
from wikicoverage.errors import ConfigError
from wikicoverage.metrics import MetricsRow
from wikicoverage.report import RunConfig


def row(language, country, related_views, total_views, related_articles, articles):
    return MetricsRow(
        language=language,
        primary_country=country,
        ppcrw=Fraction(1, 2),
        vpc=Fraction(1, 2),
        article_count=articles,
        related_article_count=related_articles,
        total_views=total_views,
        related_views=related_views,
    )


def random_row(rng, language):
    articles = rng.randint(1, 500)
    related_articles = rng.randint(0, articles)
    total_views = rng.randint(1, 10_000)
    related_views = rng.randint(0, total_views)
    country = rng.choice(["US", "DE", "MX", "BR", "PL"])
    return row(language, country, related_views, total_views, related_articles, articles)


class TestClusterRow:
    """A cluster row checks nothing itself: each member is a checked
    :class:`MetricsRow`, and a share pooled or averaged from shares in
    [0, 1] lies in [0, 1] too."""

    @pytest.mark.parametrize(
        "counts, problem",
        [((15, 10, 1, 2), "ravs out of [0, 1]: 3/2"), ((1, 2, -1, 2), "ras out of [0, 1]: -1/2")],
        ids=["popularity-above-one", "articles-below-zero"],
    )
    def test_a_row_outside_its_bounds_is_refused(self, counts, problem):
        # related views, total views, related articles, articles
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            row("en", "US", *counts)


class TestAssign:
    MAP = {"MX": "Latin America", "BR": "Latin America", "DE": "Protestant Europe"}

    def test_two_latin_american_languages_share_a_bucket(self):
        rows = [
            row("es", "MX", 1, 10, 1, 10),
            row("pt", "BR", 2, 10, 2, 10),
            row("de", "DE", 3, 10, 3, 10),
        ]
        assignments, unassigned = assign_clusters(rows, self.MAP)
        assert unassigned == []
        assert [r.language for r in assignments["Latin America"]] == ["es", "pt"]
        assert [r.language for r in assignments["Protestant Europe"]] == ["de"]

    def test_empty_rows_give_empty_partition(self):
        assert assign_clusters([], self.MAP) == ({}, [])

    def test_unmapped_country_is_flagged_and_excluded(self):
        rows = [row("xx", "ZZ", 1, 10, 1, 10), row("de", "DE", 1, 10, 1, 10)]
        assignments, unassigned = assign_clusters(rows, self.MAP)
        assert [r.language for r in unassigned] == ["xx"]
        assert set(assignments) == {"Protestant Europe"}


class TestAggregate:
    def test_pooled_share_of_two_members(self):
        members = [row("a", "US", 10, 100, 5, 50), row("b", "US", 30, 100, 10, 50)]
        cluster = aggregate_cluster("Test", members, method="pooled")
        assert cluster.popularity_share == Fraction(40, 200)
        assert cluster.article_share == Fraction(15, 100)

    def test_single_member_identity(self):
        member = row("a", "US", 7, 31, 3, 11)
        cluster = aggregate_cluster("Solo", [member], method="pooled")
        assert cluster.popularity_share == member.ravs
        assert cluster.article_share == member.ras
        assert cluster.member_languages == ("a",)

    def test_equal_member_shares_pool_to_the_same_share(self):
        members = [row("a", "US", 2, 10, 2, 10), row("b", "US", 6, 30, 6, 30)]
        cluster = aggregate_cluster("Sym", members, method="pooled")
        assert cluster.popularity_share == Fraction(1, 5)
        assert cluster.article_share == Fraction(1, 5)

    def test_no_members_is_undefined(self):
        # a cluster that no primary country maps to has no share, and gets no row
        mapping = {"US": "Anglo", "FJ": "Ghost"}
        assignments, _ = assign_clusters([row("en", "US", 1, 10, 1, 10)], mapping)
        assert [cluster.cluster for cluster in aggregate_all(assignments, method="pooled")] == ["Anglo"]

    def test_unknown_method_rejected(self, tmp_path, capsys):
        # the method is taken as given: a run's configuration refuses any other,
        # and so do the --aggregation choices of each command that aggregates
        config = RunConfig(Path("out"), ("en",), dump=Path("dump.json"), aggregation="median")
        with pytest.raises(ConfigError, match="^unknown aggregation 'median'$"):
            config.validate()
        for command in ("clusters", "all"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--aggregation", "median", "--out", str(tmp_path / "out")])
            assert exc.value.code == 2
            assert "argument --aggregation: invalid choice: 'median'" in capsys.readouterr().err

    def test_mean_method_averages_member_shares(self):
        members = [row("a", "US", 10, 100, 5, 50), row("b", "US", 30, 100, 10, 50)]
        cluster = aggregate_cluster("Test", members, method="mean")
        assert cluster.popularity_share == Fraction(Fraction(1, 10) + Fraction(3, 10), 2)

    @given(seed=st.integers(0, 2**31), count=st.integers(1, 8))
    @settings(max_examples=50)
    def test_pooled_share_lies_between_member_extremes(self, seed, count):
        rng = random.Random(seed)
        members = [random_row(rng, f"l{i}") for i in range(count)]
        cluster = aggregate_cluster("P", members, method="pooled")
        shares = [m.ravs for m in members]
        assert min(shares) <= cluster.popularity_share <= max(shares)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=40)
    def test_member_order_never_matters(self, seed):
        rng = random.Random(seed)
        members = [random_row(rng, f"l{i}") for i in range(rng.randint(1, 6))]
        shuffled = members[:]
        rng.shuffle(shuffled)
        assert aggregate_cluster("O", members, method="pooled") == aggregate_cluster("O", shuffled, method="pooled")

    def test_splitting_a_member_in_two_preserves_pooled_shares(self):
        whole = [row("a", "US", 10, 100, 4, 40), row("b", "US", 6, 60, 3, 30)]
        split = [
            row("a1", "US", 5, 50, 2, 20),
            row("a2", "US", 5, 50, 2, 20),
            row("b", "US", 6, 60, 3, 30),
        ]
        before = aggregate_cluster("S", whole, method="pooled")
        after = aggregate_cluster("S", split, method="pooled")
        assert before.popularity_share == after.popularity_share
        assert before.article_share == after.article_share


class TestAggregateAll:
    def test_rows_sorted_by_popularity_then_name(self):
        assignments = {
            "Low": [row("a", "US", 1, 100, 1, 10)],
            "High": [row("b", "US", 50, 100, 1, 10)],
            "Also high": [row("c", "US", 50, 100, 1, 10)],
        }
        names = [r.cluster for r in aggregate_all(assignments, method="pooled")]
        assert names == ["Also high", "High", "Low"]


class TestClusterMap:
    def test_parse_basic(self):
        text = ["country,cluster", "US,English-Speaking", "MX,Latin America"]
        assert parse_cluster_map(text) == {
            "US": "English-Speaking",
            "MX": "Latin America",
        }

    def test_a_byte_order_mark_loads_as_the_plain_file(self, tmp_path):
        text = "country,cluster\nUS,English-Speaking\nMX,Latin America\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        assert load_cluster_map(marked) == load_cluster_map(plain) == {"US": "English-Speaking", "MX": "Latin America"}

    def test_missing_column_rejected(self):
        with pytest.raises(ValueError):
            parse_cluster_map(["country,colour", "US,blue"])

    def test_empty_file_gives_empty_map(self):
        assert parse_cluster_map([]) == {}

    @pytest.mark.parametrize("row", ["US,", ",Nordic", " , "], ids=["cluster", "country", "both"])
    def test_empty_field_rejected_naming_its_row(self, row):
        with pytest.raises(ValueError, match="^cluster map row 3: empty field$"):
            parse_cluster_map(["country,cluster", "SE,Nordic", row])

    @pytest.mark.parametrize("country", ["us", "USA", "U", "U1", "\uff35S"])
    def test_bad_country_code_rejected_naming_its_row(self, country):
        # readership country codes are [A-Z]{2}, so such a row could never match a primary country
        with pytest.raises(ValueError, match=f"^cluster map row 3: bad country code '{country}'$"):
            parse_cluster_map(["country,cluster", "SE,Nordic", f"{country},Nordic"])

    def test_row_longer_than_the_header_rejected_naming_its_row(self):
        # an unquoted cluster name holding a comma would otherwise be cut without a word
        with pytest.raises(ValueError, match="^cluster map row 2: expected 2 fields, got 3$"):
            parse_cluster_map(["country,cluster\n", "US,English-speaking,Catholic Europe\n"])

    def test_header_may_have_extra_columns(self):
        text = ["country,cluster,note", "US,English-Speaking,seed", "MX,Latin America"]
        assert parse_cluster_map(text) == {"US": "English-Speaking", "MX": "Latin America"}

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(ValueError):
            parse_cluster_map(["country,cluster", "US,A", "US,B"])

    def test_packaged_default_map_covers_major_countries(self):
        mapping = default_cluster_map()
        assert mapping["US"] == "English-Speaking"
        assert mapping["MX"] == "Latin America"
        assert mapping["BR"] == "Latin America"
        assert mapping["DE"] == "Protestant Europe"
        assert mapping["IT"] == "Catholic Europe"
        assert mapping["RU"] == "Orthodox Europe"
        assert mapping["CN"] == "Confucian"
        # every country maps to exactly one cluster by construction
        assert all(isinstance(v, str) and v for v in mapping.values())


class TestTsv:
    def test_output_format(self):
        rows = [aggregate_cluster("Latin America", [row("es", "MX", 16, 100, 11, 100)], method="pooled")]
        sink = io.StringIO()
        write_clusters_tsv(rows, sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "cluster\tpopularity_share\tarticle_share\tlanguages"
        assert lines[1] == "Latin America\t0.160000\t0.110000\tes"
