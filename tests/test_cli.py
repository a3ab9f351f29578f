import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wikicoverage import slimstore
from wikicoverage.chart import LOG, SCALES
from wikicoverage.cli import build_parser, main
from wikicoverage.clusters import AGGREGATION_MODES, POOLED
from wikicoverage.metrics import METRICS_COLUMNS

from helpers import dump_text, entity_json

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


    @pytest.mark.parametrize("cap", [1, 60], ids=["one-record-runs", "60-character-runs"])
    def test_spilled_runs_keep_all_from_a_dump_equal_to_the_stages_and_to_all_from_its_store(
        self, tmp_path, capsys, monkeypatch, cap
    ):
        # the store writer spills a run per record or two, and the demo dump is not in item order
        monkeypatch.setattr(slimstore, "RUN_BYTES", cap)
        shared = [FIXTURE / "pageviews-a.txt", FIXTURE / "pageviews-b.txt", "--readership",
                  FIXTURE / "readership.csv", "--rules", FIXTURE / "rules.txt", "--languages", "en,de"]
        from_dump, from_store, stages = tmp_path / "dump", tmp_path / "store", tmp_path / "stages"
        stages.mkdir()
        assert run(["all", *shared, "--dump", FIXTURE / "dump.json", "--out", from_dump]) == 0
        store = stages / "entities.slim"
        assert run(["slim", "--dump", FIXTURE / "dump.json", "--out", store,
                    "--rules", FIXTURE / "rules.txt", "--languages", "en,de"]) == 0
        assert run(["attribute", "--slim", store, "--out", stages / "attribution.tsv",
                    "--rules", FIXTURE / "rules.txt"]) == 0
        assert run(["usage", *shared[:2], "--languages", "en,de", "--out", stages / "views.tsv"]) == 0
        assert run(["metrics", "--slim", store, "--attribution", stages / "attribution.tsv",
                    "--views", stages / "views.tsv", "--readership", FIXTURE / "readership.csv",
                    "--languages", "en,de", "--out", stages / "metrics.tsv"]) == 0
        assert run(["all", *shared, "--slim", store, "--out", from_store]) == 0
        capsys.readouterr()

        assert hashlib.sha256(store.read_bytes()).hexdigest() == GOLDEN_DIGESTS["default"]["entities.slim"]
        for name in ("entities.slim", "attribution.tsv", "views.tsv", "metrics.tsv"):
            assert (stages / name).read_bytes() == (from_dump / name).read_bytes(), name
        artifacts = sorted(p.name for p in from_store.iterdir())
        assert artifacts == sorted(p.name for p in from_dump.iterdir() if p.name != "entities.slim")
        for name in artifacts:
            if name != "manifest.json":
                assert (from_store / name).read_bytes() == (from_dump / name).read_bytes(), name

    def test_a_store_kept_for_one_more_property_gives_the_same_artifacts(self, tmp_path, capsys):
        # attribute's reads require the run's properties, a strict subset of
        # the wider store's; the P131 claims they also build reach no artifact
        wide_rules = tmp_path / "wide-rules.txt"
        wide_rules.write_text(
            (FIXTURE / "rules.txt").read_text(encoding="utf-8").replace("direct=P17,P27,P495", "direct=P17,P27,P495,P131"),
            encoding="utf-8",
        )
        views = tmp_path / "views.tsv"
        assert run(["usage", FIXTURE / "pageviews-a.txt", FIXTURE / "pageviews-b.txt",
                    "--languages", "en,de", "--out", views]) == 0
        runs = {}
        for name, rules in (("kept", FIXTURE / "rules.txt"), ("wide", wide_rules)):
            out = runs[name] = tmp_path / name
            out.mkdir()
            store = out / "entities.slim"
            assert run(["slim", "--dump", FIXTURE / "dump.json", "--out", store,
                        "--rules", rules, "--languages", "en,de"]) == 0
            assert run(["attribute", "--slim", store, "--out", out / "attribution.tsv",
                        "--rules", FIXTURE / "rules.txt"]) == 0
            assert run(["metrics", "--slim", store, "--attribution", out / "attribution.tsv",
                        "--views", views, "--readership", FIXTURE / "readership.csv",
                        "--languages", "en,de", "--out", out / "metrics.tsv"]) == 0
            assert run(["all", FIXTURE / "pageviews-a.txt", FIXTURE / "pageviews-b.txt", "--slim", store,
                        "--readership", FIXTURE / "readership.csv", "--rules", FIXTURE / "rules.txt",
                        "--languages", "en,de", "--out", out / "all"]) == 0
        capsys.readouterr()

        wide_store = (runs["wide"] / "entities.slim").read_text(encoding="utf-8")
        assert wide_store.split("\n")[1].endswith(" props=P17,P19,P27,P31,P131,P276,P495")
        assert any(131 in json.loads(line)[1][0::2] for line in wide_store.split("\n")[2:] if line)
        assert (runs["kept"] / "entities.slim").read_bytes() != wide_store.encode("utf-8")
        for name in ("attribution.tsv", "metrics.tsv"):
            assert (runs["wide"] / name).read_bytes() == (runs["kept"] / name).read_bytes(), name
        artifacts = sorted(path.name for path in (runs["kept"] / "all").iterdir())
        assert artifacts == sorted(path.name for path in (runs["wide"] / "all").iterdir())
        for name in artifacts:
            if name != "manifest.json":
                assert (runs["wide"] / "all" / name).read_bytes() == (runs["kept"] / "all" / name).read_bytes(), name


# sha256 of every artifact `all` writes over the demo fixture, per target; the
# manifest's digest leaves out its path-keyed "inputs"
GOLDEN_DIGESTS = {
    "default": {
        "attribution.tsv": "4bbf08aaf26cbbe8ad85adaaeddb7dd10791d04b1447428e4c4a50ff83dda96e",
        "chart.json": "7fd6eebb7dab727c30e0d827e88603bdafd510bd1f25703095fbb7451d6a3336",
        "chart.svg": "9f2c02903d5efa1c82df1db26790f5cf015711b7d41239aeda95f92ee2c13c0b",
        "clusters.tsv": "4785fbddc4712ce903865976bdd2bcaad759a15d229ab01374ba94e47a15b5a2",
        "entities.slim": "2848d8aa2707f0fc9e36119d0468afd4556eb39f6332455d744559a0b0bc281f",
        "manifest.json": "47d9f49f06076787ba8c464d3552bb9394b6986e2000334a4cd850d9e676a03d",
        "metrics.tsv": "38ee2e9031921762283c419a0b1a743ba2d91692a3c077f9f608d4c52c205509",
        "table.tsv": "dfda502475b7b74a1c22a435580d1d8a12ae11e969ebbae75ddda9baa9b72085",
        "views.tsv": "55a9475bfa2fe79c660d85df67108816b68de9459a90c25b7e928aed00869f39",
    },
    "Q183": {
        "attribution.tsv": "933d09bdcf82353af9e43916179a16134903b32ca6a6c41c7f5d527b20bef21c",
        "chart.json": "263602129f12c7f0108b1b6a7316254dd9e490a961f586b5d55d6d1782a8430d",
        "chart.svg": "d61128d4fa44220ec4bc0230b8c03d0af0815dba4cceb2fd751bfaacdee23d93",
        "clusters.tsv": "78c2fff1911cf95a16dc82cc3bb221cb79c517169adfcb0ef371f726e1c3e7f7",
        "entities.slim": "2848d8aa2707f0fc9e36119d0468afd4556eb39f6332455d744559a0b0bc281f",
        "manifest.json": "ff34e597ea8d153de8a20e65359fedf0c28bf94600e9d0a97f616d0d86617d36",
        "metrics.tsv": "889db149497ced9f049b11a4d102b2fdbd533cb68471a1cc4525a1edfd0f09d3",
        "table.tsv": "52b65ec6c27ccd898445e6e711bba2edddeb9b6486f84dc3374ca18c5f8295f5",
        "views.tsv": "55a9475bfa2fe79c660d85df67108816b68de9459a90c25b7e928aed00869f39",
    },
}


class TestGoldenDigests:
    @pytest.mark.parametrize("target", sorted(GOLDEN_DIGESTS))
    def test_every_artifact_of_all_is_byte_identical_to_its_pinned_digest(self, tmp_path, capsys, target):
        out = tmp_path / "all"
        flags = [] if target == "default" else ["--target", target]
        assert run(
            ["all", FIXTURE / "pageviews-a.txt", FIXTURE / "pageviews-b.txt",
             "--dump", FIXTURE / "dump.json",
             "--readership", FIXTURE / "readership.csv",
             "--rules", FIXTURE / "rules.txt",
             "--languages", "en,de", "--out", out, *flags]
        ) == 0
        capsys.readouterr()
        digests = {}
        for path in out.iterdir():
            data = path.read_bytes()
            if path.name == "manifest.json":
                manifest = json.loads(data)
                del manifest["inputs"]  # keyed by the input paths of this run
                data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
            digests[path.name] = hashlib.sha256(data).hexdigest()
        assert digests == GOLDEN_DIGESTS[target]


class TestErrorsAndFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["slim", "--dump", "absent.json"],
            ["attribute", "--slim", "absent.slim"],
            ["usage", "absent.txt"],
            ["metrics", "--slim", "absent.slim", "--attribution", "absent.tsv", "--views", "absent.tsv",
             "--readership", "absent.csv", "--languages", "en"],
            ["clusters", "--metrics", "absent.tsv"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_missing_out_directory_fails_before_any_input_is_read(self, tmp_path, capsys, argv):
        # every input is missing too: the first error names the directory
        missing = tmp_path / "missing"
        assert run([*argv, "--out", missing / "out.file"]) == 1
        assert capsys.readouterr().err == f"error: output directory does not exist: {missing}\n"
        assert list(tmp_path.iterdir()) == []

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        code = run(["attribute", "--slim", tmp_path / "nope.slim", "--out", tmp_path / "x"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_a_pageview_file_given_twice_is_a_clean_error(self, tmp_path, tmp_path_factory, capsys):
        # the second copy spelled through `..`, and a hard link to the first
        pageviews = FIXTURE / "pageviews-a.txt"
        copy = tmp_path_factory.mktemp("inputs") / "a.txt"
        copy.write_bytes(pageviews.read_bytes())
        link = copy.with_name("b.txt")
        os.link(copy, link)
        for first, again in ((pageviews, FIXTURE / ".." / "data" / "pageviews-a.txt"), (copy, link)):
            for argv in (
                ["usage", first, again, "--out", tmp_path / "views.tsv"],
                ["all", first, again, "--dump", FIXTURE / "dump.json", "--readership", FIXTURE / "readership.csv",
                 "--languages", "en,de", "--out", tmp_path / "all"],
            ):
                assert run(argv) == 1
                assert capsys.readouterr().err.endswith(f"pageview file given twice: {again}\n")
        assert list(tmp_path.iterdir()) == []

    def test_zero_count_in_metrics_tsv_is_a_clean_error(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.tsv"
        header = "\t".join(METRICS_COLUMNS) + "\n"
        metrics.write_text(header + "en\tUS\t0.600000\t0.800000\t0\t0\t0\t0\t10\t0\n", encoding="utf-8")
        assert run(["report", "--metrics", metrics, "--out", tmp_path / "report"]) == 1
        assert capsys.readouterr().err == "error: line 2: article_count must be positive, got 0\n"

    def test_bad_target_id_is_a_clean_error(self, tmp_path, capsys):
        slim = tmp_path / "entities.slim"
        run(["slim", "--dump", FIXTURE / "dump.json", "--out", slim])
        capsys.readouterr()
        for target, message in (
            ("Zx", "bad target id: not an item id: 'Zx'\n"),
            ("P17", "bad target id: not an item id: 'P17'\n"),
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

    def test_failed_language_sets_the_exit_code_of_all(self, tmp_path, capsys):
        code = run(
            ["all", FIXTURE / "pageviews-a.txt", "--dump", FIXTURE / "dump.json",
             "--readership", FIXTURE / "readership.csv", "--rules", FIXTURE / "rules.txt",
             "--languages", "en,de,xx", "--out", tmp_path]
        )
        assert code == 1
        assert capsys.readouterr().err == "warning: xx: no readership rows for this language\n"
        # the run still writes and promotes every artifact
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert list(manifest["issues"]["failed_languages"]) == ["xx"]
        assert len((tmp_path / "metrics.tsv").read_text(encoding="utf-8").splitlines()) == 3

    def test_clusters_warns_of_a_country_the_map_lacks(self, tmp_path, capsys):
        assert run(
            ["all", FIXTURE / "pageviews-a.txt", FIXTURE / "pageviews-b.txt", "--dump", FIXTURE / "dump.json",
             "--readership", FIXTURE / "readership.csv", "--rules", FIXTURE / "rules.txt",
             "--languages", "en,de", "--out", tmp_path / "all"]
        ) == 0
        cluster_map = tmp_path / "map.csv"
        cluster_map.write_text("country,cluster\nUS,English-Speaking\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["clusters", "--metrics", tmp_path / "all" / "metrics.tsv", "--cluster-map", cluster_map,
                    "--out", tmp_path / "clusters.tsv"]) == 0
        assert capsys.readouterr().err == "warning: no cluster for country DE (de)\n"
        assert "English-Speaking" in (tmp_path / "clusters.tsv").read_text(encoding="utf-8")

    def test_a_language_the_store_was_kept_without_fails_all(self, tmp_path, capsys):
        # the store's header does not list its kept wiki codes: the language shows as having no articles
        store = tmp_path / "en.slim"
        run(["slim", "--dump", FIXTURE / "dump.json", "--rules", FIXTURE / "rules.txt",
             "--languages", "en", "--out", store])
        capsys.readouterr()
        code = run(
            ["all", FIXTURE / "pageviews-a.txt", "--slim", store,
             "--readership", FIXTURE / "readership.csv", "--rules", FIXTURE / "rules.txt",
             "--languages", "en,de", "--out", tmp_path / "out"]
        )
        assert code == 1
        assert capsys.readouterr().err == "warning: de: no articles for language 'de'\n"

    @pytest.mark.parametrize("command", ["usage", "all"])
    def test_language_outside_the_readership_grammar_is_refused(self, tmp_path, capsys, command):
        # such a code could never match a readership row, a pageview domain or a sitelink;
        # a repeated code would be listed twice in the manifest
        cases = (("EN,de", "bad language code 'EN'"), ("en,en,de", "repeated language code 'en'"))
        for languages, problem in cases:
            argv = [command, FIXTURE / "pageviews-a.txt", "--languages", languages, "--out", tmp_path / "out"]
            if command == "all":
                argv += ["--dump", FIXTURE / "dump.json", "--readership", FIXTURE / "readership.csv"]
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2
            assert f"argument --languages: {problem}" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

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

    def test_a_lone_surrogate_in_a_title_is_one_malformed_line(self, tmp_path, capsys):
        # the escape decodes to a lone surrogate, which the store write could not encode
        bad = '{"type": "item", "id": "Q999", "sitelinks": {"enwiki": {"title": "Bad \\ud800 title"}}},\n'
        dirty = tmp_path / "dirty.json"
        clean_text = (FIXTURE / "dump.json").read_text(encoding="utf-8")
        dirty.write_text(clean_text.replace("[\n", "[\n" + bad, 1), encoding="utf-8")
        manifests = {}
        for name, dump, skipped in (("clean", FIXTURE / "dump.json", 1), ("dirty", dirty, 2)):
            for languages in ((), ("--languages", "en,de")):
                store = tmp_path / f"{name}{len(languages)}.slim"
                assert run(["slim", "--dump", dump, "--out", store, *languages]) == 0
                assert capsys.readouterr().out == f"wrote 21 entities to {store} ({skipped} malformed lines skipped)\n"
            assert run(["all", FIXTURE / "pageviews-a.txt", "--dump", dump, "--readership", FIXTURE / "readership.csv",
                        "--languages", "en,de", "--out", tmp_path / name]) == 0
            capsys.readouterr()
            manifest = json.loads((tmp_path / name / "manifest.json").read_text(encoding="utf-8"))
            del manifest["inputs"]  # keyed by the input paths of this run
            manifests[name] = manifest
        for languages in ("0", "2"):
            assert (tmp_path / f"dirty{languages}.slim").read_bytes() == (tmp_path / f"clean{languages}.slim").read_bytes()
        for path in (tmp_path / "clean").iterdir():
            if path.name != "manifest.json":
                assert (tmp_path / "dirty" / path.name).read_bytes() == path.read_bytes()
        assert manifests["dirty"]["issues"].pop("dump_parse_errors") == 2
        assert manifests["clean"]["issues"].pop("dump_parse_errors") == 1
        assert manifests["dirty"] == manifests["clean"]

    def test_stdin_dump_input(self, tmp_path):
        with open(FIXTURE / "dump.json", "rb") as dump:
            result = subprocess.run(
                [sys.executable, "-m", "wikicoverage.cli", "slim", "--dump", "-",
                 "--out", str(tmp_path / "s.slim")],
                stdin=dump,
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

    @pytest.mark.parametrize("rerun", ["all-no-svg", "report-no-svg", "report-every-row-dropped"])
    def test_a_run_that_writes_no_svg_leaves_none_from_an_earlier_run(self, rerun, tmp_path, capsys):
        inputs = [FIXTURE / "pageviews-a.txt", FIXTURE / "pageviews-b.txt", "--dump", FIXTURE / "dump.json",
                  "--readership", FIXTURE / "readership.csv", "--languages", "en,de"]
        out = tmp_path / "out"
        assert run(["all", *inputs, "--out", out]) == 0
        assert (out / "chart.svg").exists()
        # under the log scale a row whose ras is zero is dropped from the chart
        zero = tmp_path / "zero.tsv"
        zero.write_text("\t".join(METRICS_COLUMNS) + "\nen\tUS\t0.600000\t0.800000\t0.000000\t0.000000\t18\t0\t575\t0\n")
        argv = {
            "all-no-svg": ["all", *inputs, "--no-svg"],
            "report-no-svg": ["report", "--metrics", out / "metrics.tsv", "--no-svg"],
            "report-every-row-dropped": ["report", "--metrics", zero],
        }[rerun]
        assert run([*argv, "--out", out]) == 0
        assert not (out / "chart.svg").exists()
        # only chart.svg goes: the store beside it may be the next run's --slim input
        assert (out / "chart.json").exists() and (out / "entities.slim").exists()

    @pytest.mark.parametrize(
        "argv",
        [["report", "--metrics", "m.tsv", "--out", "o"], ["all", "--languages", "en", "--out", "o"]],
        ids=["report", "all"],
    )
    def test_scale_choices_and_default_are_the_chart_constants(self, argv):
        parser = build_parser()
        assert parser.parse_args(argv).scale == LOG
        assert [parser.parse_args([*argv, "--scale", s]).scale for s in SCALES] == list(SCALES)

    @pytest.mark.parametrize(
        "argv",
        [["clusters", "--metrics", "m.tsv", "--out", "o"], ["all", "--languages", "en", "--out", "o"]],
        ids=["clusters", "all"],
    )
    def test_aggregation_choices_and_default_are_the_cluster_constants(self, argv):
        parser = build_parser()
        assert parser.parse_args(argv).aggregation == POOLED
        modes = [parser.parse_args([*argv, "--aggregation", m]).aggregation for m in AGGREGATION_MODES]
        assert modes == list(AGGREGATION_MODES)


class TestCorruptStores:
    """``attribute`` streams the store, and ``metrics`` joins it in lockstep with
    the attribution TSV: both fail a bad store alike, and the join reports the
    first bad line it meets, reading each store record before its TSV row."""

    @pytest.fixture
    def chain(self, tmp_path, capsys):
        paths = {name: tmp_path / name for name in ("entities.slim", "attribution.tsv", "views.tsv")}
        run(["slim", "--dump", FIXTURE / "dump.json", "--out", paths["entities.slim"],
             "--rules", FIXTURE / "rules.txt", "--languages", "en,de"])
        run(["attribute", "--slim", paths["entities.slim"], "--out", paths["attribution.tsv"],
             "--rules", FIXTURE / "rules.txt"])
        run(["usage", FIXTURE / "pageviews-a.txt", "--languages", "en,de", "--out", paths["views.tsv"]])
        capsys.readouterr()
        return paths

    def errors(self, chain, tmp_path, capsys):
        """The stderr of ``metrics`` and of ``attribute`` on the chain's store; both must exit 1."""
        assert run(
            ["metrics", "--slim", chain["entities.slim"], "--attribution", chain["attribution.tsv"],
             "--views", chain["views.tsv"], "--readership", FIXTURE / "readership.csv",
             "--languages", "en,de", "--out", tmp_path / "metrics.tsv"]
        ) == 1
        metrics_err = capsys.readouterr().err
        assert run(
            ["attribute", "--slim", chain["entities.slim"], "--out", tmp_path / "a.tsv",
             "--rules", FIXTURE / "rules.txt"]
        ) == 1
        return metrics_err, capsys.readouterr().err

    def test_bad_claim_token_fails_metrics_as_it_fails_attribute(self, chain, tmp_path, capsys):
        store = chain["entities.slim"]
        lines = store.read_text(encoding="utf-8").split("\n")
        record = json.loads(lines[4])
        record[1][1][0] = 0  # the first claim's first value
        lines[4] = json.dumps(record, ensure_ascii=False, separators=(",", ":"))
        store.write_text("\n".join(lines), encoding="utf-8")
        metrics_err, attribute_err = self.errors(chain, tmp_path, capsys)
        assert metrics_err == attribute_err
        assert metrics_err == "error: store line 5: not an item number: 0\n"
        assert not (tmp_path / "metrics.tsv").exists()

    def test_corrupt_store_is_reported_before_a_corrupt_attribution_tsv(self, chain, tmp_path, capsys):
        store = chain["entities.slim"]
        # the first record gets an empty array between its claims and its sitelinks
        store.write_text(store.read_text(encoding="utf-8").replace("]],[", "]],[],[", 1), encoding="utf-8")
        chain["attribution.tsv"].write_text("not\ta\tvalid\tline\n", encoding="utf-8")
        metrics_err, _ = self.errors(chain, tmp_path, capsys)
        assert metrics_err == "error: store line 3: a record is one JSON array of 3 elements\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(
                lambda rows: rows[:1] + rows[2:],
                "attribution TSV line 2: item 'Q64' where the store has Q60",
                id="skipped-item",
            ),
            pytest.param(
                lambda rows: rows + ["Q999999\tfalse\t\n"],
                "attribution TSV line 22: item 'Q999999' is not in the store, which ends before it",
                id="added-item",
            ),
            pytest.param(
                lambda rows: [rows[0], rows[2], rows[1], *rows[3:]],
                "attribution TSV line 2: item 'Q64' where the store has Q60",
                id="swapped-items",
            ),
            pytest.param(
                lambda rows: [rows[0], rows[1].replace("\ttrue\t", "\tyes\t"), *rows[2:]],
                "attribution TSV line 2: related flag must be true or false, got 'yes'",
                id="bad-flag",
            ),
        ],
    )
    def test_an_attribution_tsv_that_breaks_the_join_fails_metrics(self, chain, tmp_path, capsys, edit, message):
        tsv = chain["attribution.tsv"]
        tsv.write_text("".join(edit(tsv.read_text(encoding="utf-8").splitlines(keepends=True))), encoding="utf-8")
        assert run(
            ["metrics", "--slim", chain["entities.slim"], "--attribution", tsv,
             "--views", chain["views.tsv"], "--readership", FIXTURE / "readership.csv",
             "--languages", "en,de", "--out", tmp_path / "metrics.tsv"]
        ) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "metrics.tsv").exists()

    def test_repeated_item_fails_metrics_and_attribute(self, chain, tmp_path, capsys):
        store = chain["entities.slim"]
        lines = store.read_text(encoding="utf-8").splitlines(keepends=True)
        count = len(lines) - 2
        lines[1] = lines[1].replace(f"count={count} ", f"count={count + 1} ")
        lines.insert(4, lines[3])
        store.write_text("".join(lines), encoding="utf-8")
        item = json.loads(lines[3])[0]
        message = f"error: store line 5: item Q{item} does not follow Q{item}; records are sorted by item number, each item once\n"
        assert self.errors(chain, tmp_path, capsys) == (message, message)

    def test_slim_refuses_a_dump_with_a_repeated_item(self, tmp_path, capsys):
        good, dump, store = tmp_path / "good.json", tmp_path / "dump.json", tmp_path / "s.slim"
        good.write_text(dump_text([entity_json("Q5", sitelinks={"enwiki": "A"})]), encoding="utf-8")
        assert run(["slim", "--dump", good, "--out", store]) == 0
        kept = store.read_bytes()
        capsys.readouterr()
        dump.write_text(
            dump_text([entity_json("Q5", sitelinks={"enwiki": "A"}), entity_json("Q7"),
                       entity_json("Q5", sitelinks={"enwiki": "B"})]),
            encoding="utf-8",
        )
        assert run(["slim", "--dump", dump, "--out", store]) == 1
        assert capsys.readouterr().err == "error: item Q5 appears twice in the input stream\n"
        assert store.read_bytes() == kept
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dump.json", "good.json", "s.slim"]
