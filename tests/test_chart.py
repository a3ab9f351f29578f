import json
import re
from fractions import Fraction
from pathlib import Path
from xml.sax.saxutils import escape

import pytest

from wikicoverage import chart as chart_module
from wikicoverage.chart import (
    BLUE,
    RED,
    ChartDatum,
    build_chart_data,
    color_bucket,
    render_svg,
)
from wikicoverage.cli import main
from wikicoverage.errors import ConfigError
from wikicoverage.metrics import MetricsRow
from wikicoverage.report import RunConfig


def row(language, ppcrw, ras_pair, ravs_pair):
    related_articles, articles = ras_pair
    related_views, total_views = ravs_pair
    return MetricsRow(
        language=language,
        primary_country="US",
        ppcrw=Fraction(*ppcrw),
        vpc=Fraction(1, 2),
        article_count=articles,
        related_article_count=related_articles,
        total_views=total_views,
        related_views=related_views,
    )


class TestColorBucket:
    def test_majority_home_readership_is_blue(self):
        assert color_bucket(Fraction(60, 100)) == BLUE

    def test_minority_home_readership_is_red(self):
        assert color_bucket(Fraction(7, 100)) == RED

    def test_threshold_is_on_the_rounded_integer_percent(self):
        assert color_bucket(Fraction(49, 100)) == RED
        assert color_bucket(Fraction(496, 1000)) == BLUE  # 49.6 rounds to 50
        assert color_bucket(Fraction(494, 1000)) == RED
        assert color_bucket(Fraction(50, 100)) == BLUE


class TestChartData:
    def test_one_datum_per_row_with_buckets(self):
        rows = [
            row("en", (60, 100), (1631, 10000), (3158, 10000)),
            row("zh", (7, 100), (673, 10000), (961, 10000)),
        ]
        chart = build_chart_data(rows, "log")
        assert chart.dropped == 0
        by_lang = {d.language: d for d in chart.data}
        assert by_lang["en"].color_bucket == BLUE
        assert by_lang["zh"].color_bucket == RED
        assert by_lang["en"].x == pytest.approx(0.1631)
        assert by_lang["en"].size == 10000

    def test_log_scale_drops_zero_rows_and_counts_them(self):
        rows = [
            row("en", (60, 100), (1, 10), (1, 10)),
            row("xx", (60, 100), (0, 10), (1, 10)),
        ]
        chart = build_chart_data(rows, "log")
        assert [d.language for d in chart.data] == ["en"]
        assert chart.dropped == 1

    def test_linear_scale_keeps_zero_rows(self):
        rows = [row("xx", (60, 100), (0, 10), (1, 10))]
        chart = build_chart_data(rows, "linear")
        assert chart.dropped == 0
        assert len(chart.data) == 1

    def test_unknown_scale_rejected(self):
        # the chart takes the scale as given: a run's configuration refuses any other
        config = RunConfig(Path("out"), ("en",), dump=Path("dump.json"), scale="sqrt")
        with pytest.raises(ConfigError, match="^unknown scale 'sqrt'$"):
            config.validate()

    def test_json_schema(self):
        rows = [row("en", (60, 100), (1, 10), (3, 10))]
        payload = json.loads(build_chart_data(rows, "log").to_json())
        assert payload["scale"] == "log"
        assert payload["dropped"] == 0
        assert payload["data"] == [
            {"lang": "en", "x": 0.1, "y": 0.3, "size": 10, "color": "blue"}
        ]

    def test_cardinality_is_rows_minus_drops(self):
        import random

        rng = random.Random(11)
        for _ in range(25):
            rows = []
            for index in range(rng.randint(0, 12)):
                articles = rng.randint(1, 50)
                related_articles = rng.randint(0, articles)
                views = rng.randint(1, 50)
                related_views = rng.randint(0, views)
                rows.append(
                    row(
                        f"l{index}",
                        (rng.randint(0, 100), 100),
                        (related_articles, articles),
                        (related_views, views),
                    )
                )
            for scale in ("log", "linear"):
                chart = build_chart_data(rows, scale)
                assert len(chart.data) + chart.dropped == len(rows)
                if scale == "linear":
                    assert chart.dropped == 0


class TestSvg:
    def data(self, *sizes, color=BLUE):
        return [
            ChartDatum(f"l{i}", 0.1 * (i + 1), 0.2, size, color)
            for i, size in enumerate(sizes)
        ]

    def test_one_circle_per_datum(self):
        svg = render_svg(self.data(100, 400), "log")
        assert svg.count("<circle") == 2

    def test_radius_scales_with_square_root_of_size(self):
        svg = render_svg(self.data(100, 400), "log")
        radii = [float(r) for r in re.findall(r'r="([0-9.]+)"', svg)]
        assert radii[1] == pytest.approx(radii[0] * 2)

    def test_all_blue_chart_has_no_red_fill(self):
        svg = render_svg(self.data(10, 20, 30), "log")
        assert "#c0392b" not in svg

    def test_red_bucket_gets_red_fill(self):
        svg = render_svg(self.data(10, color=RED), "linear")
        assert "#c0392b" in svg

    def test_unknown_scale_raises(self, tmp_path, capsys):
        # each command that draws the chart takes --scale from its choices
        for command in ("report", "all"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--scale", "sqrt", "--out", str(tmp_path / "out")])
            assert exc.value.code == 2
            assert "argument --scale: invalid choice: 'sqrt'" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_labels_and_axes_present(self):
        svg = render_svg(self.data(10, 20), "log")
        assert "related article share" in svg
        assert "related views share" in svg
        assert ">l0<" in svg and ">l1<" in svg

    def test_log_ticks_are_decades(self):
        svg = render_svg(self.data(10), "log")
        for label in ("0.001", "0.01", "0.1", "1"):
            assert f">{label}<" in svg

    def test_values_outside_limits_are_clamped_into_the_plot(self):
        datum = ChartDatum("tiny", 1e-9, 2.0, 10, BLUE)
        svg = render_svg([datum], "log")
        cx = float(re.search(r'cx="([0-9.]+)"', svg).group(1))
        assert 70 <= cx <= 720 - 24  # stays inside the margins

    def test_label_escape_matches_the_standard_library(self, monkeypatch):
        # the pipeline's readers admit only plain language codes, but MetricsRow
        # takes any string, and the label must stay well-formed XML text
        language = "a&b<c>d&amp;"
        chart = build_chart_data([row(language, (60, 100), (1, 10), (1, 10))], "log")
        svg = render_svg(chart.data, "log")
        assert ">a&amp;b&lt;c&gt;d&amp;amp;<" in svg
        monkeypatch.setattr(chart_module, "_escape", escape)
        assert svg == render_svg(chart.data, "log")
