import json
import subprocess
import sys
from pathlib import Path

import pytest

from wikicoverage.cli import main
from wikicoverage.metrics import METRICS_COLUMNS

FIXTURE = Path(__file__).resolve().parents[1] / "demos" / "data"


def run(argv):
    return main([str(a) for a in argv])


class TestStageByStage:
    def test_full_stage_chain(self, tmp_path, capsys):
        slim = tmp_path / "entities.slim"
        attribution = tmp_path / "attribution.tsv"
        views = tmp_path / "views.tsv"
        metrics = tmp_path / "metrics.tsv"
        clusters = tmp_path / "clusters.tsv"
        report_dir = tmp_path / "report"

        assert run(
            ["slim", "--dump", FIXTURE / "dump.json", "--out", slim,
             "--rules", FIXTURE / "rules.txt", "--languages", "en,de"]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote 21 entities" in out and "1 malformed" in out

        assert run(
            ["attribute", "--slim", slim, "--out", attribution,
             "--rules", FIXTURE / "rules.txt"]
        ) == 0
        assert "9 related" in capsys.readouterr().out

        assert run(
            ["usage", FIXTURE / "pageviews-a.txt", FIXTURE / "pageviews-b.txt",
             "--languages", "en,de", "--out", views]
        ) == 0

        assert run(
            ["metrics", "--slim", slim, "--attribution", attribution,
             "--views", views, "--readership", FIXTURE / "readership.csv",
             "--languages", "en,de", "--out", metrics]
        ) == 0
        lines = metrics.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3  # header + en + de

        assert run(["clusters", "--metrics", metrics, "--out", clusters]) == 0
        assert "English-Speaking" in clusters.read_text(encoding="utf-8")

        assert run(["report", "--metrics", metrics, "--out", report_dir]) == 0
        assert (report_dir / "table.tsv").exists()
        assert (report_dir / "chart.json").exists()
        assert (report_dir / "chart.svg").exists()

    @pytest.mark.parametrize("target", [[], ["--target", "Q183"]], ids=["default", "Q183"])
    def test_stage_chain_matches_all_in_one(self, tmp_path, capsys, target):
        all_dir = tmp_path / "all"
        assert run(
            ["all", FIXTURE / "pageviews-a.txt", FIXTURE / "pageviews-b.txt",
             "--dump", FIXTURE / "dump.json",
             "--readership", FIXTURE / "readership.csv",
             "--rules", FIXTURE / "rules.txt",
             "--languages", "en,de", "--out", all_dir, *target]
        ) == 0
        capsys.readouterr()

        slim = tmp_path / "entities.slim"
        attribution = tmp_path / "attribution.tsv"
        views = tmp_path / "views.tsv"
        metrics = tmp_path / "metrics.tsv"
        clusters = tmp_path / "clusters.tsv"
        report_dir = tmp_path / "report"
        run(["slim", "--dump", FIXTURE / "dump.json", "--out", slim,
             "--rules", FIXTURE / "rules.txt", "--languages", "en,de"])
        run(["attribute", "--slim", slim, "--out", attribution,
             "--rules", FIXTURE / "rules.txt", *target])
        run(["usage", FIXTURE / "pageviews-a.txt", FIXTURE / "pageviews-b.txt",
             "--languages", "en,de", "--out", views])
        run(["metrics", "--slim", slim, "--attribution", attribution,
             "--views", views, "--readership", FIXTURE / "readership.csv",
             "--languages", "en,de", "--out", metrics])
        run(["clusters", "--metrics", metrics, "--out", clusters])
        run(["report", "--metrics", metrics, "--out", report_dir])

        staged = {
            "entities.slim": slim,
            "attribution.tsv": attribution,
            "views.tsv": views,
            "metrics.tsv": metrics,
            "clusters.tsv": clusters,
            "table.tsv": report_dir / "table.tsv",
            "chart.json": report_dir / "chart.json",
            "chart.svg": report_dir / "chart.svg",
        }
        for name, path in staged.items():
            assert path.read_bytes() == (all_dir / name).read_bytes(), name


class TestErrorsAndFlags:
    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        code = run(["attribute", "--slim", tmp_path / "nope.slim", "--out", tmp_path / "x"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_count_in_metrics_tsv_is_a_clean_error(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.tsv"
        header = "\t".join(METRICS_COLUMNS) + "\n"
        metrics.write_text(header + "en\tUS\t0.6\t0.8\t0\t0\t0\t0\t10\t0\n", encoding="utf-8")
        assert run(["report", "--metrics", metrics, "--out", tmp_path / "report"]) == 1
        assert capsys.readouterr().err == "error: line 2: article_count must be positive, got 0\n"

    def test_bad_target_id_is_a_clean_error(self, tmp_path, capsys):
        slim = tmp_path / "entities.slim"
        run(["slim", "--dump", FIXTURE / "dump.json", "--out", slim])
        capsys.readouterr()
        for target, message in (
            ("Zx", "bad target id: not an entity id: 'Zx'\n"),
            ("P17", "bad target id: target must be an item id, got P17\n"),
        ):
            messages = []
            for argv in (
                ["attribute", "--slim", slim, "--out", tmp_path / "a.tsv", "--target", target],
                ["all", "--slim", slim, "--readership", FIXTURE / "readership.csv",
                 "--languages", "en", "--out", tmp_path / "all", "--target", target],
            ):
                assert run(argv) == 1
                err = capsys.readouterr().err
                assert err.startswith("error:")
                messages.append(err[err.index("bad target id"):])
            assert messages[0] == messages[1] == message

    def test_store_kept_for_other_rules_is_a_clean_error(self, tmp_path, capsys):
        slim = tmp_path / "entities.slim"
        rules = tmp_path / "rules.txt"
        rules.write_text("direct=P17\nplace=P276\n", encoding="utf-8")
        run(["slim", "--dump", FIXTURE / "dump.json", "--out", slim, "--rules", rules])
        capsys.readouterr()
        for argv in (
            ["attribute", "--slim", slim, "--out", tmp_path / "a.tsv"],
            ["all", "--slim", slim, "--readership", FIXTURE / "readership.csv",
             "--languages", "en", "--out", tmp_path / "all"],
        ):
            assert run(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert "store was kept without P19, P27, P495, which the rules need" in err
        assert not (tmp_path / "a.tsv").exists()

    def test_target_flag_overrides_rules(self, tmp_path, capsys):
        slim = tmp_path / "entities.slim"
        attribution = tmp_path / "attribution.tsv"
        run(["slim", "--dump", FIXTURE / "dump.json", "--out", slim,
             "--rules", FIXTURE / "rules.txt"])
        capsys.readouterr()
        assert run(
            ["attribute", "--slim", slim, "--out", attribution, "--target", "Q183"]
        ) == 0
        out = capsys.readouterr().out
        assert "related to Q183" in out
        text = attribution.read_text(encoding="utf-8")
        # Germany itself and Berlin/Hamburg chains now match instead of the US ones
        assert "Q183\ttrue" in text
        assert "Q30\tfalse" in text

    def test_failed_language_sets_exit_code(self, tmp_path, capsys):
        slim = tmp_path / "entities.slim"
        views = tmp_path / "views.tsv"
        attribution = tmp_path / "attribution.tsv"
        run(["slim", "--dump", FIXTURE / "dump.json", "--out", slim])
        run(["attribute", "--slim", slim, "--out", attribution,
             "--rules", FIXTURE / "rules.txt"])
        run(["usage", FIXTURE / "pageviews-a.txt", "--out", views])
        capsys.readouterr()
        code = run(
            ["metrics", "--slim", slim, "--attribution", attribution,
             "--views", views, "--readership", FIXTURE / "readership.csv",
             "--languages", "en,de,xx", "--out", tmp_path / "m.tsv"]
        )
        assert code == 1
        assert "xx" in capsys.readouterr().err

    def test_titles_with_line_or_field_breaks_do_not_break_the_chain(self, tmp_path, capsys):
        # such a title used to reach views.tsv, which `metrics` then failed to read
        slim = tmp_path / "entities.slim"
        attribution = tmp_path / "attribution.tsv"
        views = tmp_path / "views.tsv"
        bad = tmp_path / "pageviews-bad.txt"
        bad.write_bytes(b"en Foo%0ABar 5 0\nen Foo\tBar 5 0\nde Baz%0D 2 0\nen Foo%0ABar 1 0\n")
        run(["slim", "--dump", FIXTURE / "dump.json", "--out", slim, "--languages", "en,de"])
        run(["attribute", "--slim", slim, "--out", attribution, "--rules", FIXTURE / "rules.txt"])
        capsys.readouterr()
        assert run(["usage", FIXTURE / "pageviews-a.txt", bad, "--languages", "en,de", "--out", views]) == 0
        assert "(5 malformed lines)" in capsys.readouterr().out  # the fixture has 1
        assert run(
            ["metrics", "--slim", slim, "--attribution", attribution,
             "--views", views, "--readership", FIXTURE / "readership.csv",
             "--languages", "en,de", "--out", tmp_path / "metrics.tsv"]
        ) == 0

    def test_stdin_dump_input(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "wikicoverage.cli", "slim", "--dump", "-",
             "--out", str(tmp_path / "s.slim")],
            stdin=open(FIXTURE / "dump.json", "rb"),
            capture_output=True,
            text=True,
            timeout=60,
            cwd=FIXTURE.parents[1] / "src",  # the checkout's package, installed or not
        )
        assert result.returncode == 0, result.stderr
        assert "wrote 21 entities" in result.stdout


class TestChartFlags:
    def test_linear_scale_and_no_svg(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.tsv"
        run(["all", FIXTURE / "pageviews-a.txt", FIXTURE / "pageviews-b.txt",
             "--dump", FIXTURE / "dump.json",
             "--readership", FIXTURE / "readership.csv",
             "--languages", "en,de", "--out", tmp_path / "first"])
        capsys.readouterr()
        (tmp_path / "first" / "metrics.tsv").rename(metrics)
        report_dir = tmp_path / "linear"
        assert run(
            ["report", "--metrics", metrics, "--scale", "linear",
             "--no-svg", "--out", report_dir]
        ) == 0
        payload = json.loads((report_dir / "chart.json").read_text(encoding="utf-8"))
        assert payload["scale"] == "linear"
        assert not (report_dir / "chart.svg").exists()
