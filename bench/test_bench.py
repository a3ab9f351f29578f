"""Self-tests for the benchmark, on small inputs.

    python3 -m pytest bench/test_bench.py -q

Run from the root of the checkout.  Every output check is shown to fail on a
deliberately corrupted artifact, and only that check (besides the one that
compares the round with the first round's bytes).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def at_root():
    before = os.getcwd()
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    yield
    os.chdir(before)


@pytest.fixture(scope="module")
def clean_round(at_root):
    """Small dump-ingest inputs and one untraced run of the program on them."""
    work = Path(".bench_work") / f"selftest-{os.getpid()}"
    truth, _, spec = run.set_up("dump-ingest", 3, work / "inputs", small=True)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result = run.run_child(spec_path, "path", False, work / "clean")
    yield work / "clean", truth, oracle.expected_outputs(truth), spec, result
    shutil.rmtree(work, ignore_errors=True)


def failures(out, truth, expected, spec, result, reference):
    return {name for name, reason in run.check_round(out, result, truth, expected, spec, reference) if reason}


def _flip_related(out: Path) -> None:
    lines = (out / "attribution.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if "\ttrue\t" in line)
    lines[index] = lines[index].replace("\ttrue\t", "\tfalse\t")
    (out / "attribution.tsv").write_text("".join(lines), encoding="utf-8")


def _stretch_provenance(out: Path) -> None:
    """Make one place path claim a hop it did not walk."""
    text = (out / "attribution.tsv").read_text(encoding="utf-8")
    match = re.search(r"(P19|P276)>(Q\d+)>", text)
    assert match is not None
    start = match.start(2)
    text = text[:start] + match.group(2) + ">" + text[start:]
    (out / "attribution.tsv").write_text(text, encoding="utf-8")


def _bump_view_total(out: Path) -> None:
    lines = (out / "views.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    language, title, total = lines[1].rstrip("\n").split("\t")
    lines[1] = f"{language}\t{title}\t{int(total) + 1}\n"
    (out / "views.tsv").write_text("".join(lines), encoding="utf-8")


def _nudge_metric(out: Path) -> None:
    lines = (out / "metrics.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[1].split("\t")
    fields[2] = fields[2][:-1] + ("1" if fields[2][-1] != "1" else "2")  # last digit of ppcrw
    lines[1] = "\t".join(fields)
    (out / "metrics.tsv").write_text("".join(lines), encoding="utf-8")


def _nudge_cluster(out: Path) -> None:
    lines = (out / "clusters.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[1].split("\t")
    fields[1] = fields[1][:-1] + ("1" if fields[1][-1] != "1" else "2")
    lines[1] = "\t".join(fields)
    (out / "clusters.tsv").write_text("".join(lines), encoding="utf-8")


def _swap_table_rows(out: Path) -> None:
    lines = (out / "table.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    (out / "table.tsv").write_text("".join(lines), encoding="utf-8")


def _move_bubble(out: Path) -> None:
    chart = json.loads((out / "chart.json").read_text(encoding="utf-8"))
    chart["data"][0]["x"] = chart["data"][0]["x"] / 2
    (out / "chart.json").write_text(json.dumps(chart, indent=2) + "\n", encoding="utf-8")


def _swap_colour(out: Path) -> None:
    chart = json.loads((out / "chart.json").read_text(encoding="utf-8"))
    datum = chart["data"][0]
    datum["color"] = oracle.BLUE if datum["color"] == oracle.RED else oracle.RED
    (out / "chart.json").write_text(json.dumps(chart, indent=2) + "\n", encoding="utf-8")


def _drop_bubble(out: Path) -> None:
    text = (out / "chart.svg").read_text(encoding="utf-8")
    (out / "chart.svg").write_text(re.sub(r"<circle [^>]*/>\n", "", text, count=1), encoding="utf-8")


def _miscount_related(out: Path) -> None:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest["counts"]["related_items"] += 1
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


CORRUPTIONS = {
    "flipped related flag": (_flip_related, "attribution.tsv"),
    "provenance hop that was not walked": (_stretch_provenance, "attribution.tsv"),
    "altered view total": (_bump_view_total, "views.tsv"),
    "altered ppcrw digit": (_nudge_metric, "metrics.tsv"),
    "altered cluster share": (_nudge_cluster, "clusters.tsv"),
    "table rows out of ravs order": (_swap_table_rows, "table.tsv"),
    "moved bubble": (_move_bubble, "chart.json"),
    "swapped colour": (_swap_colour, "chart.colour"),
    "missing bubble": (_drop_bubble, "chart.svg"),
    "miscounted related items": (_miscount_related, "manifest.json"),
}


def test_clean_round_passes_every_check(clean_round):
    out, truth, expected, spec, result = clean_round
    assert failures(out, truth, expected, spec, result, {}) == set()


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_each_check_fails_on_its_corrupted_artifact(clean_round, tmp_path, corruption):
    out, truth, expected, spec, result = clean_round
    reference: dict = {}
    failures(out, truth, expected, spec, result, reference)  # the clean bytes become the reference
    corrupted = tmp_path / "out"
    shutil.copytree(out, corrupted)
    corrupt, check = CORRUPTIONS[corruption]
    corrupt(corrupted)
    assert failures(corrupted, truth, expected, spec, result, reference) == {check, "artifacts.identical"}


def test_missing_artifact_fails_its_operation(clean_round, tmp_path):
    out, truth, expected, spec, result = clean_round
    corrupted = tmp_path / "out"
    shutil.copytree(out, corrupted)
    (corrupted / "views.tsv").unlink()
    assert "views.tsv" in failures(corrupted, truth, expected, spec, result, {})


def test_cli_exit_code_check_fails_on_a_failed_stage(clean_round):
    out, truth, expected, spec, result = clean_round
    cli_spec = {**spec, "kind": "cli"}
    ok = run.check_round(out, {**result, "exit_codes": [0, 0, 0, 0, 0]}, truth, expected, cli_spec, {})
    bad = run.check_round(out, {**result, "exit_codes": [0, 0, 1, 0, 0]}, truth, expected, cli_spec, {})
    assert dict(ok)["cli.exit_codes"] is None
    assert dict(bad)["cli.exit_codes"] is not None


def test_colour_window_of_the_fixed_language():
    readers = gen.FIXED_READERSHIP[gen.COLOUR_FAULT_LANGUAGE]
    exact = Fraction(readers[0][1], sum(r[1] for r in readers))
    assert Fraction(4949995, 10**7) <= exact < Fraction(495, 1000)
    assert oracle.decimal_string(exact, 6) == "0.495000"
    assert oracle.colour(exact) == oracle.RED
    assert oracle.colour(Fraction("0.495000")) == oracle.BLUE


def test_decimal_rounding_is_half_even():
    assert oracle.decimal_string(Fraction(1, 8), 2) == "0.12"
    assert oracle.decimal_string(Fraction(3, 8), 2) == "0.38"
    assert oracle.decimal_string(Fraction(0), 6) == "0.000000"
    assert oracle.percent_string(Fraction(3158, 10000)) == "31.58%"


def test_generator_is_byte_identical_across_processes(tmp_path):
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gen, run;"
        "gen.generate('pageviews-shards', 5, sys.argv[2], small=True); print(run._tree_digest(__import__('pathlib').Path(sys.argv[2])))"
    )
    digests = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        done = subprocess.run(
            [sys.executable, "-c", script, str(BENCH), str(tmp_path / hash_seed)],
            capture_output=True, text=True, env=env, check=True,
        )
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1]


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_small_run_fails_only_its_known_faults(workload):
    result = run.run_workload(workload, 11, 0, trace=False, small=True)
    assert result["correct"]
    assert set(result["failures"]) == run.KNOWN_FAULTS.get(workload, set())
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_small_traced_run_reports_every_layer(workload):
    result = run.run_workload(workload, 12, 0, trace=True, small=True)
    assert result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["dump.items_out"] == len(result["truth"].items)
    assert metrics["usage.malformed_lines"] == result["truth"].pageview_malformed
    for name in run.LAYER_TIMES:
        assert metrics[name] > 0, name


def test_benchmark_json_matches_the_runner():
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in config["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == run.PER_LAYER


def test_command_prints_the_result_as_its_last_line(capsys):
    assert run.main(["--workload", "dump-ingest", "--small", "--seconds", "0", "--trace", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dump-ingest", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
