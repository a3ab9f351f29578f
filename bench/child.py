"""One round of a workload, run in a process of its own.

    python3 bench/child.py SPEC PHASE TRACE OUT_DIR [STORE]

SPEC is the JSON file ``run.py`` writes for the run.  PHASE ``path`` runs the
workload the way its users do: ``run_pipeline`` from the dump, or the
stage-by-stage CLI over a kept store.  PHASE ``offpath`` runs the other entry
point over the same inputs, so that a traced run also measures the layers the
workload's own path never reaches (STORE names the store the path wrote).

With TRACE 1 every public module function that the program calls is wrapped
before the run, so each call records a span: name, start, end, parent, the
VmHWM high-water RSS before and after, and a count of items returned or
yielded.  Spans stay in memory and are printed with the result when the
round ends.  With TRACE 0 nothing is wrapped.

The workload is called once, into OUT_DIR, as a user's command would run
it; a reference loop is timed right before and right after the call.  The
process starts no thread and no pool.  It prints one JSON line: the wall and
CPU time of the call, the two loop times, the process's peak RSS after the
call, the CLI exit codes, any exception the program raised, and the spans.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import inspect
import io
import json
import resource
import sys
import time
from pathlib import Path

# (module, public function, span name)
TRACED = (
    ("wikicoverage.util", "sha256_file", "report.input_digest"),
    ("wikicoverage.dump", "parse_dump_stream", "dump.parse"),
    ("wikicoverage.slimstore", "save_slim_store", "slimstore.write"),
    ("wikicoverage.slimstore", "load_slim_store", "slimstore.read"),
    ("wikicoverage.attribution", "build_geo_index", "attribution.geo_index"),
    ("wikicoverage.attribution", "attribute_all", "attribution.attribute"),
    ("wikicoverage.attribution", "write_attribution_tsv", "attribution.write_tsv"),
    ("wikicoverage.attribution", "read_attribution_tsv", "attribution.read_tsv"),
    ("wikicoverage.usage", "parse_pageviews_stream", "usage.parse"),
    ("wikicoverage.usage", "aggregate_views", "usage.pageviews"),
    ("wikicoverage.usage", "merge_views", "usage.merge"),
    ("wikicoverage.usage", "write_views_tsv", "usage.write_views"),
    ("wikicoverage.usage", "read_views_tsv", "usage.read_views"),
    ("wikicoverage.usage", "load_readership", "usage.readership"),
    ("wikicoverage.metrics", "build_article_sets", "metrics.article_sets"),
    ("wikicoverage.metrics", "compute_all", "metrics.compute"),
    ("wikicoverage.metrics", "write_metrics_tsv", "metrics.write_tsv"),
    ("wikicoverage.metrics", "read_metrics_tsv", "metrics.read_tsv"),
    ("wikicoverage.clusters", "load_cluster_map", "clusters.load_map"),
    ("wikicoverage.clusters", "assign_clusters", "clusters.assign"),
    ("wikicoverage.clusters", "aggregate_all", "clusters.aggregate"),
    ("wikicoverage.clusters", "write_clusters_tsv", "clusters.write_tsv"),
    ("wikicoverage.report", "sort_rows_for_table", "report.sort"),
    ("wikicoverage.report", "emit_table", "report.table"),
    ("wikicoverage.chart", "build_chart_data", "chart.build"),
    ("wikicoverage.chart", "render_svg", "chart.svg"),
)

CLI_STAGES = ("attribute", "usage", "metrics", "clusters", "report")

# A fixed piece of pure-Python work of the program's kind (JSON decoding,
# string keys, dict updates, integer arithmetic) that uses no program code.
# It is timed right before and right after the call, in the same process, to
# measure how fast the host runs Python around the call (README.md, "Host speed").
_LOOP_DOC = json.dumps(
    [
        {"id": f"Q{i}", "labels": {"en": {"language": "en", "value": f"name {i}"}}, "claims": {"P17": [{"rank": "normal", "value": i * 7}]}}
        for i in range(300)
    ]
)


def reference_loop_s() -> float:
    gc.disable()  # the program's heap must not make the loop slower
    try:
        started = time.perf_counter()
        for _ in range(10):
            index: dict[str, int] = {}
            for item in json.loads(_LOOP_DOC):
                key = item["id"] + "\t" + item["labels"]["en"]["value"].split()[0]
                index[key] = index.get(key, 0) + item["claims"]["P17"][0]["value"]
            total = 0
            for i in range(20000):
                total += i * i % 7
        return time.perf_counter() - started
    finally:
        gc.enable()


def vm_hwm_kib() -> int:
    """High-water RSS of this process, from /proc when it is there."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans in memory; a span's parent is the innermost open call span."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def open(self, name: str, nest: bool = True) -> int:
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "parent": self.stack[-1] if self.stack else None,
                "hwm0": vm_hwm_kib(),
                "start": time.perf_counter() - self.origin,
            }
        )
        if nest:
            self.stack.append(index)
        return index

    def close(self, index: int, items: int | None = None, issues: int | None = None) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter() - self.origin
        span["hwm1"] = vm_hwm_kib()
        span["items"] = items
        span["issues"] = issues
        if self.stack and self.stack[-1] == index:
            self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, function, name: str):
        """A stand-in for ``function`` that records a span per call.

        A generator's span runs from its first item to its last and does not
        nest, since its consumer runs in between; it counts the items yielded.
        """

        def issues(kwargs):
            """Length of the caller's ``errors`` list, which the call appends to."""
            errors = kwargs.get("errors")
            return len(errors) if isinstance(errors, list) else None

        def added(kwargs, before):
            after = issues(kwargs)
            return None if after is None else after - before

        if inspect.isgeneratorfunction(function):

            def traced_generator(*args, **kwargs):
                index = self.open(name, nest=False)
                count, before = 0, issues(kwargs) or 0
                try:
                    for value in function(*args, **kwargs):
                        count += 1
                        yield value
                finally:
                    self.close(index, count, added(kwargs, before))

            return traced_generator

        def traced(*args, **kwargs):
            index = self.open(name)
            result, before = None, issues(kwargs) or 0
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                self.close(index, len(result) if hasattr(result, "__len__") else None, added(kwargs, before))

        return traced


def install(tracer: Tracer) -> None:
    """Replace every module-level reference to each traced function."""
    importlib.import_module("wikicoverage.cli")
    for module_name, function_name, span_name in TRACED:
        original = getattr(importlib.import_module(module_name), function_name)
        wrapper = tracer.wrap(original, span_name)
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "wikicoverage"]:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, wrapper)


def run_pipeline_phase(spec: dict, dump: str, out_dir: Path, tracer) -> list[int]:
    from wikicoverage.report import RunConfig, run_pipeline

    config = RunConfig(
        out_dir=out_dir,
        languages=tuple(spec["languages"]),
        dump=Path(dump),
        pageviews=tuple(Path(p) for p in spec["shards"]),
        readership=Path(spec["readership"]),
        rules=Path(spec["rules"]),
        cluster_map=Path(spec["cluster_map"]),
        target=spec["target"],
    )
    with tracer.span("report.run_pipeline"):
        run_pipeline(config)
    return []


def cli_phase(spec: dict, store: str, out_dir: Path, tracer) -> list[int]:
    from wikicoverage.cli import main

    languages = ",".join(spec["languages"])
    out_dir.mkdir(parents=True, exist_ok=True)
    out = {name: str(out_dir / name) for name in ("attribution.tsv", "views.tsv", "metrics.tsv", "clusters.tsv")}
    argv = {
        "attribute": ["--slim", store, "--rules", spec["rules"], "--target", spec["target"], "--out", out["attribution.tsv"]],
        "usage": [*spec["shards"], "--languages", languages, "--out", out["views.tsv"]],
        "metrics": [
            "--slim", store, "--attribution", out["attribution.tsv"], "--views", out["views.tsv"],
            "--readership", spec["readership"], "--languages", languages, "--out", out["metrics.tsv"],
        ],
        "clusters": ["--metrics", out["metrics.tsv"], "--cluster-map", spec["cluster_map"], "--out", out["clusters.tsv"]],
        "report": ["--metrics", out["metrics.tsv"], "--out", str(out_dir)],
    }
    codes = []
    for stage in CLI_STAGES:
        with tracer.span(f"cli.{stage}"):
            codes.append(main([stage, *argv[stage]]))
    return codes


class _Untraced:
    def span(self, name: str):
        return contextlib.nullcontext()


def run(spec: dict, phase: str, trace: bool, out_dir: Path, store: str | None) -> dict:
    src = Path("src").resolve()
    sys.path.insert(0, str(src))
    importlib.import_module("wikicoverage.cli")
    tracer = Tracer() if trace else _Untraced()
    if trace:
        install(tracer)
    on_path = phase == "path"
    if (spec["kind"] == "pipeline") == on_path:
        call = lambda: run_pipeline_phase(spec, spec["dump"], out_dir, tracer)  # noqa: E731
    else:
        call = lambda: cli_phase(spec, store or spec["store"], out_dir, tracer)  # noqa: E731

    error, codes = None, []
    loop_before = reference_loop_s()
    before = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = call()
    except Exception as exc:  # the round reports it; the checks then fail
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_SELF)
    peak = vm_hwm_kib()
    loop_after = reference_loop_s()
    return {
        "wall": wall,
        "cpu": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "loop_s": [loop_before, loop_after],
        "peak_rss_kib": peak,
        "exit_codes": codes,
        "error": error,
        "spans": tracer.spans if trace else [],
    }


def main(argv: list[str]) -> int:
    spec_path, phase, trace, out_dir, *rest = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result = run(spec, phase, trace == "1", Path(out_dir), rest[0] if rest else None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
