import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wikicoverage
from wikicoverage import errors

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DATA_DIR = DEMO_DIR / "data"

# standard-library modules that cost MiB of RSS on import and that no stage
# command uses: xml.sax.saxutils imports urllib.request and with it http.client,
# email, ssl and socket, and hashlib loads OpenSSL's libcrypto
HEAVY_MODULES = (
    "hashlib",
    "ssl",
    "socket",
    "email",
    "http.client",
    "urllib.request",
    "xml.sax",
    "importlib.resources",
)

# runs in a fresh `python -S -E` interpreter, so no site hook can load a
# module before the package does, or hide one that it loads
PROBE = r"""
import contextlib, io, json, sys

src, data, out, heavy = sys.argv[1], sys.argv[2], sys.argv[3], json.loads(sys.argv[4])
sys.path.insert(0, src)

def loaded():
    return [name for name in heavy if name in sys.modules]

from wikicoverage.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}")

report = {"import": loaded()}
views, slim = f"{out}/views.tsv", f"{out}/entities.slim"
pageviews = (f"{data}/pageviews-a.txt", f"{data}/pageviews-b.txt")
run("slim", "--dump", f"{data}/dump.json", "--rules", f"{data}/rules.txt", "--languages", "en,de", "--out", slim)
run("attribute", "--slim", slim, "--rules", f"{data}/rules.txt", "--out", f"{out}/attribution.tsv")
run("usage", *pageviews, "--languages", "en,de", "--out", views)
run("metrics", "--slim", slim, "--attribution", f"{out}/attribution.tsv", "--views", views,
    "--readership", f"{data}/readership.csv", "--languages", "en,de", "--out", f"{out}/metrics.tsv")
run("clusters", "--metrics", f"{out}/metrics.tsv", "--cluster-map", f"{out}/clusters.csv",
    "--out", f"{out}/clusters.tsv")
run("report", "--metrics", f"{out}/metrics.tsv", "--out", f"{out}/report")
report["stages"] = loaded()
run("all", *pageviews, "--dump", f"{data}/dump.json", "--readership", f"{data}/readership.csv",
    "--rules", f"{data}/rules.txt", "--languages", "en,de", "--out", f"{out}/all")
report["all"] = loaded()
print(json.dumps(report))
"""


def test_the_package_exports_the_run_api():
    # the stage parts live in their submodules, with no compatibility promise
    assert sorted(wikicoverage.__all__) == ["PipelineResult", "RunConfig", "WikiCoverageError", "run_pipeline"]


def test_every_exported_name_resolves():
    missing = [name for name in wikicoverage.__all__ if not hasattr(wikicoverage, name)]
    assert missing == []


@pytest.mark.parametrize("demo", sorted(DEMO_DIR.glob("[0-9][0-9]_*.py")), ids=lambda path: path.stem)
def test_demo_runs_in_dev_mode_with_warnings_as_errors(demo, tmp_path):
    # dev mode with warnings as errors fails a demo that leaks a file or hits a
    # deprecation; demos 04 and 05 write under a temporary directory they keep
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(demo)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR), "TMPDIR": str(tmp_path)},
    )
    assert result.returncode == 0, result.stderr


def test_every_error_class_is_raised_or_extended():
    # a class that no code raises and none extends is dead code
    classes = [value for value in vars(errors).values() if isinstance(value, type) and value.__module__ == errors.__name__]
    extended = {base.__name__ for cls in classes for base in cls.__bases__}
    raised = set()
    for path in (SRC_DIR / "wikicoverage").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name):
                raised.add(node.exc.func.id)
    assert [cls.__name__ for cls in classes if cls.__name__ not in raised | extended] == []


def test_stage_commands_load_no_heavy_module(tmp_path):
    (tmp_path / "clusters.csv").write_text("country,cluster\nUS,English-Speaking\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-S", "-E", "-c", PROBE, str(SRC_DIR), str(DATA_DIR), str(tmp_path),
         json.dumps(HEAVY_MODULES)],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PATH": os.environ.get("PATH", "")},
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["import"] == []
    assert report["stages"] == []
    # the manifest of a whole run holds the inputs' SHA-256 digests
    assert "hashlib" in report["all"]
