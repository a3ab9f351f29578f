"""End-to-end pipeline orchestration and report emission.

``run_pipeline`` drives dump ingest, geographic indexing, attribution, usage
ingest, metrics, cluster aggregation and report rendering, writing every
artifact plus a manifest of input digests, counts and error tallies.  Outputs
are deterministic: the same inputs and configuration produce byte-identical
files.  Artifacts are staged in a temporary directory and promoted only when
the whole run succeeds.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, Iterable

from . import __version__
from .attribution import (
    RuleSet,
    attribute_all,
    build_geo_index,
    load_rules,
    write_attribution_tsv,
)
from .chart import LOG, SCALES, build_chart_data, render_svg
from .clusters import (
    AGGREGATION_MODES,
    POOLED,
    aggregate_all,
    assign_clusters,
    default_cluster_map,
    load_cluster_map,
    write_clusters_tsv,
)
from .dump import ParseIssue, parse_dump_stream
from .entities import EntityId
from .errors import ConfigError, PipelineStageError, WikiCoverageError
from .metrics import (
    MetricsRow,
    build_article_sets,
    compute_all,
    write_metrics_tsv,
)
from .slimstore import load_slim_store, save_slim_store
from .usage import (
    PageviewsIssue,
    UsageStats,
    aggregate_views,
    load_readership,
    merge_views,
    parse_pageviews_stream,
    write_views_tsv,
)
from .util import percent, sha256_file, sitelink_key

TABLE_COLUMNS = ("language", "primary_country", "ppcrw", "vpc", "ras", "ravs", "articles")


def sort_rows_for_table(rows: Iterable[MetricsRow]) -> list[MetricsRow]:
    """Most related-views share first; ties by language code."""
    return sorted(rows, key=lambda r: (-r.ravs, r.language))


def emit_table(rows: Iterable[MetricsRow], sink: IO[str]) -> None:
    """Human-readable table, sorted by related-views share, percents at 2 decimals."""
    sink.write("\t".join(TABLE_COLUMNS) + "\n")
    for row in sort_rows_for_table(rows):
        sink.write(
            "\t".join(
                (
                    row.language,
                    row.primary_country,
                    percent(row.ppcrw),
                    percent(row.vpc),
                    percent(row.ras),
                    percent(row.ravs),
                    str(row.article_count),
                )
            )
            + "\n"
        )


@dataclass
class RunConfig:
    """Everything one pipeline run needs.  Exactly one of dump/slim is set."""

    out_dir: Path
    languages: tuple[str, ...]
    dump: Path | None = None
    slim: Path | None = None
    pageviews: tuple[Path, ...] = ()
    readership: Path | None = None
    rules: Path | None = None
    cluster_map: Path | None = None
    target: str | None = None
    scale: str = LOG
    aggregation: str = POOLED
    svg: bool = True
    x_limits: tuple[float, float] = (0.001, 1.0)
    y_limits: tuple[float, float] = (0.001, 1.0)

    def validate(self) -> None:
        if not self.languages:
            raise ConfigError("language list is empty")
        if (self.dump is None) == (self.slim is None):
            raise ConfigError("exactly one of dump/slim input must be given")
        if self.scale not in SCALES:
            raise ConfigError(f"unknown scale {self.scale!r}")
        if self.aggregation not in AGGREGATION_MODES:
            raise ConfigError(f"unknown aggregation {self.aggregation!r}")
        for path in self.input_paths():
            if not Path(path).exists():
                raise ConfigError(f"input file does not exist: {path}")

    def input_paths(self) -> list[Path]:
        paths = [p for p in (self.dump, self.slim, self.readership, self.rules, self.cluster_map) if p]
        paths.extend(self.pageviews)
        return [Path(p) for p in paths]

    def ruleset(self) -> RuleSet:
        rules = load_rules(self.rules) if self.rules else RuleSet()
        if self.target:
            try:
                rules = replace(rules, target=EntityId.parse(self.target))
            except ValueError as exc:
                raise ConfigError(f"bad target id: {exc}") from exc
        return rules


@dataclass
class PipelineResult:
    out_dir: Path
    artifacts: dict[str, Path] = field(default_factory=dict)
    manifest: dict = field(default_factory=dict)


def _write_manifest(manifest: dict, sink: IO[str]) -> None:
    sink.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Run every stage and promote the artifacts; see the module docstring."""

    def fail(stage: str, exc: BaseException) -> PipelineStageError:
        return PipelineStageError(stage, exc)

    try:
        config.validate()
        rules = config.ruleset()
    except WikiCoverageError as exc:
        raise fail("config", exc) from exc

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
    artifacts: dict[str, Path] = {}
    manifest: dict = {
        "tool": {"name": "wikicoverage", "version": __version__},
        "config": {
            "languages": list(config.languages),
            "scale": config.scale,
            "aggregation": config.aggregation,
            "target": str(rules.target),
            "svg": config.svg,
        },
        "inputs": {},
        "counts": {},
        "issues": {},
    }
    for path in config.input_paths():
        manifest["inputs"][str(path)] = {
            "sha256": sha256_file(path),
            "bytes": path.stat().st_size,
        }

    def stage_path(name: str) -> Path:
        return staging / name

    try:
        # ingest: dump -> entities (+ slim store artifact), or reload a store
        try:
            keep_wikis = {sitelink_key(lang) for lang in config.languages}
            dump_issues: list[ParseIssue] = []
            if config.dump is not None:
                with open(config.dump, "rb") as handle:
                    entities = list(
                        parse_dump_stream(
                            handle, rules.required_properties, keep_wikis, errors=dump_issues
                        )
                    )
                count = save_slim_store(
                    entities,
                    stage_path("entities.slim"),
                    keep_props=rules.required_properties,
                    keep_wikis=keep_wikis,
                )
                artifacts["slim"] = stage_path("entities.slim")
                manifest["counts"]["store_records"] = count
            else:
                entities = load_slim_store(config.slim)
            manifest["counts"]["entities"] = len(entities)
            manifest["issues"]["dump_parse_errors"] = len(dump_issues)
        except (OSError, WikiCoverageError) as exc:
            raise fail("ingest", exc) from exc

        # attribution: geo index pass, then the decision pass
        try:
            geo_index = build_geo_index(entities, rules)
            attributions = attribute_all(entities, geo_index, rules)
            with open(stage_path("attribution.tsv"), "w", encoding="utf-8", newline="\n") as sink:
                write_attribution_tsv(attributions, sink)
            artifacts["attribution"] = stage_path("attribution.tsv")
            manifest["counts"]["geo_index_entries"] = len(geo_index)
            manifest["counts"]["related_items"] = sum(
                1 for r in attributions.values() if r.related
            )
        except (OSError, WikiCoverageError) as exc:
            raise fail("attribution", exc) from exc

        # usage: pageview files -> per-(language, title) totals
        try:
            language_set = set(config.languages)
            view_issues: list[PageviewsIssue] = []
            shards = []
            for path in config.pageviews:
                with open(path, "rb") as handle:
                    shards.append(
                        aggregate_views(
                            parse_pageviews_stream(handle, language_set, errors=view_issues)
                        )
                    )
            views = merge_views(*shards)
            with open(stage_path("views.tsv"), "w", encoding="utf-8", newline="\n") as sink:
                write_views_tsv(views, sink)
            artifacts["views"] = stage_path("views.tsv")
            manifest["counts"]["view_keys"] = len(views)
            manifest["issues"]["pageview_parse_errors"] = len(view_issues)
        except (OSError, WikiCoverageError) as exc:
            raise fail("usage", exc) from exc

        # metrics: needs the readership table; missing table aborts here
        try:
            if config.readership is None:
                raise ConfigError("readership CSV is required to compute metrics")
            usage = UsageStats(views=views, readership=load_readership(config.readership))
            article_sets = build_article_sets(entities, config.languages)
            rows, failures = compute_all(article_sets, attributions, usage, config.languages)
            with open(stage_path("metrics.tsv"), "w", encoding="utf-8", newline="\n") as sink:
                write_metrics_tsv(rows, sink)
            artifacts["metrics"] = stage_path("metrics.tsv")
            manifest["counts"]["metric_rows"] = len(rows)
            manifest["issues"]["failed_languages"] = {
                lang: str(exc) for lang, exc in sorted(failures.items())
            }
        except (OSError, WikiCoverageError) as exc:
            raise fail("metrics", exc) from exc

        # clusters
        try:
            cluster_map = (
                load_cluster_map(config.cluster_map)
                if config.cluster_map
                else default_cluster_map()
            )
            assignments, unassigned = assign_clusters(rows, cluster_map)
            cluster_rows = aggregate_all(assignments, method=config.aggregation)
            with open(stage_path("clusters.tsv"), "w", encoding="utf-8", newline="\n") as sink:
                write_clusters_tsv(cluster_rows, sink)
            artifacts["clusters"] = stage_path("clusters.tsv")
            manifest["counts"]["clusters"] = len(cluster_rows)
            manifest["issues"]["unassigned_countries"] = sorted(
                {row.primary_country for row in unassigned}
            )
        except (OSError, ValueError, WikiCoverageError) as exc:
            raise fail("clusters", exc) from exc

        # report: table, chart data, optional SVG
        try:
            table_rows = sort_rows_for_table(rows)
            with open(stage_path("table.tsv"), "w", encoding="utf-8", newline="\n") as sink:
                emit_table(table_rows, sink)
            artifacts["table"] = stage_path("table.tsv")
            chart = build_chart_data(table_rows, config.scale)
            stage_path("chart.json").write_text(chart.to_json(), encoding="utf-8")
            artifacts["chart"] = stage_path("chart.json")
            manifest["issues"]["chart_dropped"] = chart.dropped
            if config.svg and chart.data:
                svg = render_svg(
                    chart.data,
                    config.scale,
                    x_limits=config.x_limits,
                    y_limits=config.y_limits,
                )
                stage_path("chart.svg").write_text(svg, encoding="utf-8")
                artifacts["chart_svg"] = stage_path("chart.svg")
        except (OSError, WikiCoverageError) as exc:
            raise fail("report", exc) from exc

        with open(stage_path("manifest.json"), "w", encoding="utf-8", newline="\n") as sink:
            _write_manifest(manifest, sink)
        artifacts["manifest"] = stage_path("manifest.json")

        # promote: move everything out of staging in one sweep
        promoted: dict[str, Path] = {}
        for name, path in artifacts.items():
            final = out_dir / path.name
            os.replace(path, final)
            promoted[name] = final
        return PipelineResult(out_dir=out_dir, artifacts=promoted, manifest=manifest)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
