"""Seeded benchmark for wikicoverage.

    python3 bench/run.py                          # every workload, untraced then traced
    python3 bench/run.py --workload dump-ingest --seed 7 --seconds 20 --trace 0

Run it from the root of a checkout: it imports the program from ``src/``.
One run of one workload

1. sets up: generates the workload's inputs from the seed (and, for
   ``slim-rerun``, builds the slim store with ``wikicoverage slim``), three
   times, timing each;
2. runs rounds for ``--seconds`` seconds, each in a child process of its own
   (``child.py``), one at a time: every round runs the workload once and
   checks each artifact against the generator's truth (``oracle.py``);
3. prints every metric by name with its unit, the operations attempted and
   failed, and as its last line one JSON object.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
rounds.  With ``--trace 1`` each round is run untraced, then traced (with
spans around the program's module calls), then along the other entry point,
and the metrics are the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import oracle  # noqa: E402

SETUP_REPEATS = 5
# The reference loop's median time (child.reference_loop_s) over 600 runs on
# the 2-vCPU VM of README.md's reference figures.  Times of the program are
# reported at the host speed at which the loop takes this long.
REFERENCE_LOOP_S = 0.028

# operations that fail on every seed because of a named fault in the program
KNOWN_FAULTS = {
    "slim-rerun": {"chart.colour"},
    "pageviews-shards": {"pageviews.undecodable_byte"},
}

END_TO_END = {
    "wall_ref_s": "s",
    "input_mb_per_ref_s": "MB/s",
    "cpu_ref_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

# per-layer metric -> unit; times name the spans whose outermost calls are summed
LAYER_TIMES = {
    "dump.parse_s": ("dump.parse",),
    "slimstore.write_s": ("slimstore.write",),
    "attribution.geo_index_s": ("attribution.geo_index",),
    "attribution.attribute_s": ("attribution.attribute",),
    "attribution.write_tsv_s": ("attribution.write_tsv",),
    "attribution.read_tsv_s": ("attribution.read_tsv",),
    "usage.pageviews_s": ("usage.pageviews", "usage.parse"),
    "usage.merge_s": ("usage.merge",),
    "usage.write_views_s": ("usage.write_views",),
    "usage.read_views_s": ("usage.read_views",),
    "metrics.article_sets_s": ("metrics.article_sets",),
    "metrics.compute_s": ("metrics.compute",),
    "metrics.write_tsv_s": ("metrics.write_tsv",),
    "metrics.read_tsv_s": ("metrics.read_tsv",),
    "clusters.aggregate_s": ("clusters.load_map", "clusters.assign", "clusters.aggregate", "clusters.write_tsv"),
    "chart.build_s": ("chart.build",),
    "chart.svg_s": ("chart.svg",),
    "report.table_s": ("report.sort", "report.table"),
    "report.input_digest_s": ("report.input_digest",),
    "cli.attribute_s": ("cli.attribute",),
    "cli.usage_s": ("cli.usage",),
    "cli.metrics_s": ("cli.metrics",),
    "cli.clusters_s": ("cli.clusters",),
    "cli.report_s": ("cli.report",),
}
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    "dump.mb_per_s": "MB/s",
    "dump.items_out": "count",
    "dump.issues": "count",
    "dump.hwm_growth_mib": "MiB",
    "slimstore.read_s": "s",
    "slimstore.read_records_per_s": "1/s",
    "slimstore.reload_speedup": "ratio",
    "slimstore.bytes_per_record": "B",
    "slimstore.hwm_growth_mib": "MiB",
    "attribution.items_per_s": "1/s",
    "attribution.items_in": "count",
    "attribution.place_values_walked": "count",
    "attribution.related_items": "count",
    "attribution.provenance_hops": "count",
    "attribution.hwm_growth_mib": "MiB",
    "usage.lines_per_s": "1/s",
    "usage.lines_in": "count",
    "usage.keys_out": "count",
    "usage.kept_ratio": "ratio",
    "usage.malformed_lines": "count",
    "usage.hwm_growth_mib": "MiB",
    "metrics.view_join_ratio": "ratio",
    "report.orchestration_s": "s",
    "bench.trace_overhead_s": "s",
}


# -- set-up --------------------------------------------------------------------


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(oracle.sha256(path).encode())
    return digest.hexdigest()


def _relative(path: Path) -> str:
    return os.path.relpath(path)


def set_up(workload: str, seed: int, inputs: Path, small: bool) -> tuple[gen.Truth, list[float], dict]:
    """Generate the inputs (and build the store) several times; time each."""
    times, reference = [], None
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        started = time.perf_counter()
        truth = gen.generate(workload, seed, inputs, small)
        spec = {
            "kind": truth.spec.kind,
            "target": f"Q{truth.target}",
            "languages": list(truth.languages),
            "dump": _relative(truth.paths["dump"]),
            "shards": [_relative(p) for p in truth.paths["shards"]],
            "readership": _relative(truth.paths["readership"]),
            "rules": _relative(truth.paths["rules"]),
            "cluster_map": _relative(truth.paths["cluster_map"]),
        }
        if truth.spec.kind == "cli":
            from wikicoverage.cli import main as cli_main

            spec["store"] = _relative(inputs / "entities.slim")
            argv = ["slim", "--dump", spec["dump"], "--out", spec["store"], "--rules", spec["rules"], "--languages", ",".join(spec["languages"])]
            with contextlib.redirect_stdout(io.StringIO()):
                if cli_main(argv) != 0:
                    raise RuntimeError("wikicoverage slim failed during set-up")
        times.append(time.perf_counter() - started)
        digest = _tree_digest(inputs)
        if reference is not None and digest != reference:
            raise RuntimeError("set-up produced different inputs for the same seed")
        reference = digest
    return truth, times, spec


# -- rounds ----------------------------------------------------------------------


def run_child(spec_path: Path, phase: str, trace: bool, out_dir: Path, store: Path | None = None) -> dict:
    """One call of the workload in a child process.

    Adds ``scale``: ``REFERENCE_LOOP_S`` over the mean time of the reference
    loops run before and after the call.  The call's times, multiplied by
    it, are its times at the reference host speed; the spans are scaled here.
    """
    command = [sys.executable, str(Path(__file__).resolve().parent / "child.py"), str(spec_path), phase, "1" if trace else "0", str(out_dir)]
    if store is not None:
        command.append(str(store))
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"child failed ({done.returncode}): {done.stderr.strip()[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["scale"] = REFERENCE_LOOP_S / statistics.mean(result["loop_s"])
    for span in result["spans"]:
        span["start"] *= result["scale"]
        span["end"] *= result["scale"]
    return result


def check_round(out: Path, result: dict, truth: gen.Truth, expected: oracle.Expected, spec: dict, reference: dict) -> list[tuple[str, str | None]]:
    """One operation per checked artifact of a path round."""
    pipeline = spec["kind"] == "pipeline"
    checks = [
        ("attribution.tsv", lambda: oracle.check_attribution(out, truth, expected)),
        ("views.tsv", lambda: oracle.check_views(out, truth, expected)),
        ("metrics.tsv", lambda: oracle.check_metrics(out, truth, expected)),
        ("clusters.tsv", lambda: oracle.check_clusters(out, truth, expected)),
        ("table.tsv", lambda: oracle.check_table(out, truth, expected, reader_shares=pipeline)),
        ("chart.json", lambda: oracle.check_chart(out, truth, expected)),
        ("chart.svg", lambda: oracle.check_svg(out, truth, expected)),
        ("chart.colour", lambda: oracle.check_colour(out, truth, expected)),
    ]
    if pipeline:
        inputs = [Path(spec["dump"]), Path(spec["readership"]), Path(spec["rules"]), Path(spec["cluster_map"])]
        inputs += [Path(p) for p in spec["shards"]]
        checks.append(("manifest.json", lambda: oracle.check_manifest(out, truth, expected, inputs)))
    else:
        checks.append(("cli.exit_codes", lambda: None if result["exit_codes"] == [0] * 5 else f"exit codes {result['exit_codes']}"))

    def identical():
        digests = {str(p.relative_to(out)): oracle.sha256(p) for p in sorted(out.rglob("*")) if p.is_file()}
        reference.setdefault("digests", digests)
        if digests != reference["digests"]:
            changed = sorted(k for k in digests.keys() | reference["digests"].keys() if digests.get(k) != reference["digests"].get(k))
            return f"differs from the first round: {', '.join(changed)}"
        return None

    checks.append(("artifacts.identical", identical))
    outcomes = []
    for name, check in checks:
        try:
            reason = check()
        except Exception as exc:  # a missing or unreadable artifact fails its operation
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None and result.get("error"):
            reason = f"{reason} (the program raised {result['error']})"
        outcomes.append((name, reason))
    return outcomes


def undecodable_shard(truth: gen.Truth, out: Path) -> str | None:
    """run_pipeline over a shard holding one byte that is not UTF-8: the bad
    line should be tallied and the other lines counted."""
    from wikicoverage.report import RunConfig, run_pipeline

    paths = truth.paths["undecodable"]
    config = RunConfig(
        out_dir=out,
        languages=("en",),
        dump=paths["dump"],
        pageviews=(paths["shard"],),
        readership=paths["readership"],
        rules=paths["rules"],
    )
    try:
        run_pipeline(config)
    except Exception as exc:
        return f"run_pipeline raised {type(exc).__name__}: {exc}"
    got = oracle.read_views(out / "views.tsv")
    if got != truth.undecodable_views:
        return f"views {got}, expected {truth.undecodable_views}"
    return None


# -- per-layer metrics from spans --------------------------------------------------


def _outermost(spans: list[dict], names: tuple[str, ...]) -> list[dict]:
    def nested(span):
        parent = span["parent"]
        while parent is not None:
            if spans[parent]["name"] in names:
                return True
            parent = spans[parent]["parent"]
        return False

    return [s for s in spans if s["name"] in names and not nested(s)]


def _phase(path: list[dict], offpath: list[dict], names: tuple[str, ...]) -> list[dict]:
    """The workload's own spans when its path makes these calls, else the other entry point's."""
    return path if any(s["name"] in names for s in path) else offpath


def _duration(spans: list[dict]) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def _hwm_growth(path: list[dict], offpath: list[dict], layer: str) -> float:
    def own(spans):
        return [
            s for s in spans
            if s["name"].startswith(layer + ".")
            and (s["parent"] is None or not spans[s["parent"]]["name"].startswith(layer + "."))
        ]

    spans = own(path) or own(offpath)
    return sum(s["hwm1"] - s["hwm0"] for s in spans) / 1024


def layer_sample(path: list[dict], offpath: list[dict], out: Path, truth: gen.Truth, expected: oracle.Expected, spec: dict) -> dict[str, float]:
    """Raw per-layer figures of one traced round: span times, counts, RSS growth."""
    sample: dict[str, float] = {}
    chosen: dict[str, list[dict]] = {}
    for metric, names in LAYER_TIMES.items():
        chosen[metric] = _outermost(_phase(path, offpath, names), names)
        sample[metric] = _duration(chosen[metric])

    parse = chosen["dump.parse_s"]
    sample["dump.parse_s"] /= len(parse)  # one pass
    sample["dump.items_out"] = sum(s["items"] for s in parse) / len(parse)
    sample["dump.issues"] = sum(s["issues"] or 0 for s in parse) / len(parse)
    sample["dump_bytes"] = Path(spec["dump"]).stat().st_size

    reads = _outermost(_phase(path, offpath, ("slimstore.read",)), ("slimstore.read",))
    sample["slimstore.read_s"] = _duration(reads) / len(reads)  # one load
    sample["read_records"] = sum(s["items"] for s in reads) / len(reads)
    store = out / "entities.slim" if spec["kind"] == "pipeline" else Path(spec["store"])
    sample["slimstore.bytes_per_record"] = store.stat().st_size / len(truth.items)

    sample["attributed"] = sum(s["items"] for s in chosen["attribution.attribute_s"])
    flags = [line.split("\t") for line in (out / "attribution.tsv").read_text(encoding="utf-8").splitlines()]
    sample["attribution.items_in"] = len(flags)
    sample["attribution.related_items"] = sum(1 for f in flags if f[1] == "true")
    sample["attribution.provenance_hops"] = sum(
        len(segment.split(">")) - 2 for f in flags if f[2] for segment in f[2].split(";")
    )
    sample["attribution.place_values_walked"] = expected.place_values

    parsed = _outermost(_phase(path, offpath, ("usage.parse",)), ("usage.parse",))
    sample["usage.lines_in"] = sum(truth.shard_lines)
    sample["usage.keys_out"] = sum(s["items"] for s in chosen["usage.merge_s"])
    sample["kept"] = sum(s["items"] for s in parsed)
    sample["usage.malformed_lines"] = sum(s["issues"] or 0 for s in parsed)

    views = oracle.read_views(out / "views.tsv")
    joined = sum(int(line.split("\t")[8]) for line in (out / "metrics.tsv").read_text(encoding="utf-8").splitlines()[1:])
    sample["metrics.view_join_ratio"] = joined / sum(views.values())

    for layer in ("dump", "slimstore", "attribution", "usage"):
        sample[f"{layer}.hwm_growth_mib"] = _hwm_growth(path, offpath, layer)

    pipeline_spans = path if any(s["name"] == "report.run_pipeline" for s in path) else offpath
    root = next(i for i, s in enumerate(pipeline_spans) if s["name"] == "report.run_pipeline")
    children = [s for s in pipeline_spans if s["parent"] == root]
    sample["report.orchestration_s"] = _duration([pipeline_spans[root]]) - _duration(children)
    return sample


def layer_metrics(samples: list[dict[str, float]], untraced_walls: list[float], traced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics over the traced rounds.

    A layer's time, its RSS growth and the orchestration remainder are
    medians over the rounds, as the end-to-end times are; rates divide by
    the median time.  Counts are the same in every round.
    """
    times = {name: statistics.median(s[name] for s in samples) for name in (*LAYER_TIMES, "slimstore.read_s")}
    first = samples[0]
    metrics = {name: first[name] for name in PER_LAYER if name in first}
    metrics.update(times)
    for name in ("dump.hwm_growth_mib", "slimstore.hwm_growth_mib", "attribution.hwm_growth_mib", "usage.hwm_growth_mib", "report.orchestration_s"):
        metrics[name] = statistics.median(s[name] for s in samples)
    metrics["dump.mb_per_s"] = first["dump_bytes"] / 1e6 / times["dump.parse_s"]
    metrics["slimstore.read_records_per_s"] = first["read_records"] / times["slimstore.read_s"]
    metrics["slimstore.reload_speedup"] = times["dump.parse_s"] / times["slimstore.read_s"]
    metrics["attribution.items_per_s"] = first["attributed"] / times["attribution.attribute_s"]
    metrics["usage.lines_per_s"] = first["usage.lines_in"] / times["usage.pageviews_s"]
    metrics["usage.kept_ratio"] = first["kept"] / first["usage.lines_in"]
    metrics["bench.trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return metrics


# -- one run -----------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    work = Path(".bench_work") / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        truth, setup_times, spec = set_up(workload, seed, work / "inputs", small)
        expected = oracle.expected_outputs(truth)
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")

        attempted: dict[str, int] = {}
        failures: dict[str, list[str]] = {}
        errors: list[str] = []
        untraced: list[dict] = []
        traced_walls: list[float] = []
        layer_samples: list[dict[str, float]] = []
        all_spans: list[dict] = []
        reference: dict = {}

        def record(outcomes):
            for name, reason in outcomes:
                attempted[name] = attempted.get(name, 0) + 1
                if reason is not None:
                    failures.setdefault(name, []).append(reason)

        rounds = 0
        started = time.perf_counter()
        while rounds == 0 or time.perf_counter() - started < seconds:
            rounds += 1
            out = work / f"round{rounds:03d}"
            result = run_child(spec_path, "path", False, out)
            untraced.append(result)
            if result["error"]:
                errors.append(result["error"])
            record(check_round(out, result, truth, expected, spec, reference))
            shutil.rmtree(out)
            if trace:
                out = work / f"traced{rounds:03d}"
                path = run_child(spec_path, "path", True, out)
                record(check_round(out, path, truth, expected, spec, reference))
                store = out / "entities.slim" if spec["kind"] == "pipeline" else None
                offpath = run_child(spec_path, "offpath", True, work / f"offpath{rounds:03d}", store)
                for result in (path, offpath):
                    if result["error"]:
                        errors.append(result["error"])
                traced_walls.append(path["wall"] * path["scale"])
                layer_samples.append(layer_sample(path["spans"], offpath["spans"], out, truth, expected, spec))
                all_spans.append({"round": rounds, "path": path["spans"], "offpath": offpath["spans"]})
                shutil.rmtree(out)
                shutil.rmtree(work / f"offpath{rounds:03d}")
            if truth.spec.undecodable_shard:
                out = work / f"undecodable{rounds:03d}"
                record([("pageviews.undecodable_byte", undecodable_shard(truth, out))])
                shutil.rmtree(out, ignore_errors=True)
        elapsed = time.perf_counter() - started

        walls = [r["wall"] * r["scale"] for r in untraced]
        if trace:
            metrics = layer_metrics(layer_samples, walls, traced_walls)
            units = PER_LAYER
            trace_dir = Path(".bench_work") / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            (trace_dir / f"{workload}-seed{seed}.json").write_text(json.dumps(all_spans), encoding="utf-8")
        else:
            metrics = {
                # medians over the calls of the run, at the reference host speed
                # (README.md, "Host speed")
                "wall_ref_s": statistics.median(walls),
                "input_mb_per_ref_s": truth.input_bytes / 1e6 / statistics.median(walls),
                "cpu_ref_s": statistics.median(r["cpu"] * r["scale"] for r in untraced),
                "peak_rss_mib": statistics.median(r["peak_rss_kib"] for r in untraced) / 1024,
                "setup_s": statistics.median(setup_times),
            }
            units = END_TO_END
        known = KNOWN_FAULTS.get(workload, set())
        failed_names = set(failures)
        return {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "rounds": rounds,
            "elapsed_s": elapsed,
            "truth": truth,
            "walls": walls,
            "raw_walls": [r["wall"] for r in untraced],
            "loops": [t for r in untraced for t in r["loop_s"]],
            "errors": errors,
            "attempted": attempted,
            "failures": failures,
            "correct": failed_names <= known and not errors,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
    finally:
        for path in (work / "inputs", work):
            shutil.rmtree(path, ignore_errors=True)


def describe_inputs(truth: gen.Truth) -> list[str]:
    spec = truth.spec
    dump_bytes = truth.dump_bytes
    depths = ", ".join(f"{k} {v}" for k, v in sorted(truth.depth_counts.items()))
    mix = ", ".join(f"{k} {v}" for k, v in truth.pageview_mix.items())
    return [
        f"inputs: {len(truth.items)} items, {spec.places} places; dump {dump_bytes} bytes, "
        f"{truth.dump_entity_lines} entity lines ({dump_bytes / truth.dump_entity_lines:.0f} B mean), "
        f"{truth.dump_issues} of them malformed",
        f"places by chain depth: {depths}",
        f"pageviews: {spec.shards} shards, {sum(truth.shard_lines)} lines ({mix})",
        f"source inputs: {truth.input_bytes} bytes; target Q{truth.target}; max_depth {truth.max_depth}",
    ]


def report_lines(result: dict) -> list[str]:
    tag = f"[{result['workload']} seed={result['seed']} trace={int(result['trace'])}]"
    lines = [
        f"{tag} {result['rounds']} rounds in {result['elapsed_s']:.1f} s; "
        f"{os.cpu_count()} CPUs, Python {platform.python_version()}",
        *(f"{tag} {line}" for line in describe_inputs(result["truth"])),
    ]
    walls = result["walls"]
    spread = f", p90 {statistics.quantiles(walls, n=10)[-1]:.4f}" if len(walls) >= 100 else ""
    lines.append(
        f"{tag} {len(walls)} untraced calls at the reference speed: median {statistics.median(walls):.4f} s{spread}; "
        f"as timed: median {statistics.median(result['raw_walls']):.4f} s, fastest {min(result['raw_walls']):.4f} s; "
        f"reference loop median {statistics.median(result['loops']):.4f} s (reference {REFERENCE_LOOP_S} s)"
    )
    for name, metric in result["metrics"].items():
        lines.append(f"{tag} {name} = {metric['value']:.6g} {metric['unit']}")
    attempted = sum(result["attempted"].values())
    failed = sum(len(v) for v in result["failures"].values())
    lines.append(f"{tag} operations attempted {attempted}, failed {failed}")
    known = KNOWN_FAULTS.get(result["workload"], set())
    for name, reasons in sorted(result["failures"].items()):
        kind = "known fault" if name in known else "FAILED"
        lines.append(f"{tag} {kind} {name}: {len(reasons)} of {result['attempted'][name]} failed; {reasons[0]}")
    for error in sorted(set(result["errors"])):
        lines.append(f"{tag} program error: {error}")
    return lines


def summary(result: dict) -> dict:
    return {
        "correct": result["correct"],
        "attempted": sum(result["attempted"].values()),
        "failed": sum(len(v) for v in result["failures"].values()),
        "metrics": result["metrics"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Seeded benchmark for wikicoverage.")
    parser.add_argument("--workload", choices=(*gen.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None, help="default: both, for --workload all")
    parser.add_argument("--small", action="store_true", help="small inputs, for a quick smoke run")
    args = parser.parse_args(argv)

    if not Path("src/wikicoverage/__init__.py").is_file():
        print("error: run from the root of a wikicoverage checkout (src/wikicoverage is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))

    workloads = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [args.trace] if args.trace is not None else ([0, 1] if args.workload == "all" else [0])
    correct = True
    for workload in workloads:
        for trace in traces:
            result = run_workload(workload, args.seed, args.seconds, bool(trace), args.small)
            for line in report_lines(result):
                print(line)
            print(json.dumps(summary(result)), flush=True)
            correct &= result["correct"]
    return 0 if correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
