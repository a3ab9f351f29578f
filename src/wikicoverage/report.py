"""The pipeline's stages, and their end-to-end orchestration.

Each stage is defined once here, as a function that takes its inputs, writes
its artifact to a given path and returns what later stages and the manifest
need: :func:`slim_stage`, :func:`attribute_stage`, :func:`usage_stage`,
:func:`metrics_stage`, :func:`clusters_stage` and :func:`report_stage`.  Each
CLI subcommand calls one of them; :func:`run_pipeline` composes all six and
writes a manifest of input digests, counts and error tallies.  Outputs are
deterministic: the same inputs and configuration produce byte-identical
files.  A pipeline run stages its artifacts in a temporary directory and
promotes them only when the whole run succeeds.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from . import __version__
from .attribution import (
    AttributionResult,
    RuleSet,
    attribute_all,
    build_geo_index,
    load_rules,
    write_attribution_tsv,
)
from .chart import LOG, SCALES, ChartData, build_chart_data, render_svg
from .clusters import (
    AGGREGATION_MODES,
    POOLED,
    ClusterRow,
    aggregate_all,
    assign_clusters,
    default_cluster_map,
    load_cluster_map,
    write_clusters_tsv,
)
from .dump import ParseIssue, parse_dump_stream
from .entities import EntityId, SlimEntity
from .errors import ConfigError, PipelineStageError, WikiCoverageError
from .metrics import (
    LanguageArticleSet,
    MetricsRow,
    build_article_sets,
    compute_all,
    write_metrics_tsv,
)
from .slimstore import load_slim_store, save_slim_store
from .usage import (
    PageviewsIssue,
    TitleMemo,
    UsageStats,
    aggregate_views,
    load_readership,
    merge_views,
    parse_pageviews_stream,
    write_views_tsv,
)
from .util import paused_gc, percent, sha256_file, sitelink_key

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


def resolve_rules(rules_path: Path | str | None, target: str | None) -> RuleSet:
    """The rules file's rule set (the defaults without one), retargeted at ``target`` if given."""
    rules = load_rules(rules_path) if rules_path else RuleSet()
    if target:
        try:
            rules = replace(rules, target=EntityId.parse(target))
        except ValueError as exc:
            raise ConfigError(f"bad target id: {exc}") from exc
    return rules


@contextmanager
def stage_errors(stage: str) -> Iterator[None]:
    """Re-raise an I/O, input or pipeline error in the block as ``PipelineStageError(stage)``."""
    try:
        yield
    except (OSError, ValueError, WikiCoverageError) as exc:
        raise PipelineStageError(stage, exc) from exc


def _write(path: Path, writer, value) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as sink:
        writer(value, sink)


# -- the six stages ------------------------------------------------------------


def slim_stage(
    source: IO[bytes], out: Path, rules: RuleSet, languages: Iterable[str] | None
) -> tuple[list[SlimEntity], list[ParseIssue]]:
    """Parse a decompressed dump and write the entities as a slim store at ``out``.

    The store keeps the properties ``rules`` need and, when ``languages`` is
    given, only those languages' sitelinks.  Returns the entities in dump
    order and the malformed lines skipped.  The stage keeps every entity
    anyway, so it shares one id per distinct claim value across the parse.
    """
    keep_wikis = None if languages is None else {sitelink_key(lang) for lang in languages}
    issues: list[ParseIssue] = []
    with paused_gc():
        entities = list(
            parse_dump_stream(
                source, rules.required_properties, keep_wikis, errors=issues, item_ids={}
            )
        )
    save_slim_store(entities, out, keep_props=rules.required_properties, keep_wikis=keep_wikis)
    return entities, issues


def attribute_stage(
    entities: Sequence[SlimEntity], rules: RuleSet, out: Path
) -> tuple[dict[EntityId, AttributionResult], dict[str, int]]:
    """Attribute every item to ``rules.target`` and write the attribution TSV.

    Returns the results and the manifest's counts of geo index entries and
    related items.
    """
    with paused_gc():
        geo_index = build_geo_index(entities, rules)
        attributions = attribute_all(entities, geo_index, rules)
    _write(out, write_attribution_tsv, attributions)
    related = sum(1 for r in attributions.values() if r.related)
    return attributions, {"geo_index_entries": len(geo_index), "related_items": related}


def usage_stage(
    paths: Iterable[Path | str], languages: Iterable[str] | None, out: Path
) -> tuple[dict[tuple[str, str], int], list[PageviewsIssue]]:
    """Total the pageview files per (language, title) and write the views TSV.

    ``languages`` limits the languages kept; None keeps every language.
    Returns the totals and the malformed lines skipped.
    """
    language_set = None if languages is None else set(languages)
    issues: list[PageviewsIssue] = []
    titles = TitleMemo()  # each distinct title is normalised once per stage
    shards = []
    with paused_gc():
        for path in paths:
            with open(path, "rb") as handle:
                records = parse_pageviews_stream(handle, language_set, errors=issues, titles=titles)
                shards.append(aggregate_views(records))
    views = merge_views(*shards)
    _write(out, write_views_tsv, views)
    return views, issues


def metrics_stage(
    article_sets: dict[str, LanguageArticleSet],
    attributions: dict[EntityId, AttributionResult],
    views: dict[tuple[str, str], int],
    readership: Path | str,
    languages: Sequence[str],
    out: Path,
) -> tuple[list[MetricsRow], dict[str, WikiCoverageError]]:
    """Compute the four metrics per language and write the metrics TSV.

    ``article_sets`` come from :func:`metrics.build_article_sets`, over the
    entities in memory or streamed from a store.  Returns the rows, in
    language order, and the languages that failed.
    """
    usage = UsageStats(views=views, readership=load_readership(readership))
    rows, failures = compute_all(article_sets, attributions, usage, languages)
    _write(out, write_metrics_tsv, rows)
    return rows, failures


def clusters_stage(
    rows: Iterable[MetricsRow], cluster_map: Path | str | None, aggregation: str, out: Path
) -> tuple[list[ClusterRow], list[MetricsRow]]:
    """Pool the rows into cultural clusters and write the clusters TSV.

    ``cluster_map`` None means the packaged map.  Returns the cluster rows and
    the metric rows whose primary country has no cluster.
    """
    mapping = load_cluster_map(cluster_map) if cluster_map else default_cluster_map()
    assignments, unassigned = assign_clusters(rows, mapping)
    cluster_rows = aggregate_all(assignments, method=aggregation)
    _write(out, write_clusters_tsv, cluster_rows)
    return cluster_rows, unassigned


def report_stage(
    rows: Iterable[MetricsRow], out_dir: Path, scale: str, svg: bool
) -> tuple[ChartData, dict[str, Path]]:
    """Write ``table.tsv``, ``chart.json`` and, when asked and not empty, ``chart.svg``.

    Table and chart both list the rows in table order.  Returns the chart
    and the written artifacts by name.
    """
    table_rows = sort_rows_for_table(rows)
    written = {"table": out_dir / "table.tsv", "chart": out_dir / "chart.json"}
    _write(written["table"], emit_table, table_rows)
    chart = build_chart_data(table_rows, scale)
    written["chart"].write_text(chart.to_json(), encoding="utf-8")
    if svg and chart.data:
        written["chart_svg"] = out_dir / "chart.svg"
        written["chart_svg"].write_text(render_svg(chart.data, scale), encoding="utf-8")
    return chart, written


@dataclass
class PipelineResult:
    out_dir: Path
    artifacts: dict[str, Path] = field(default_factory=dict)
    manifest: dict = field(default_factory=dict)


def _write_manifest(manifest: dict, sink: IO[str]) -> None:
    sink.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Run every stage and promote the artifacts; see the module docstring."""
    with stage_errors("config"):
        config.validate()
        rules = resolve_rules(config.rules, config.target)
        inputs = {
            str(path): {"sha256": sha256_file(path), "bytes": path.stat().st_size}
            for path in config.input_paths()
        }

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
    artifacts: dict[str, Path] = {}
    counts: dict = {}
    issues: dict = {}
    manifest: dict = {
        "tool": {"name": "wikicoverage", "version": __version__},
        "config": {
            "languages": list(config.languages),
            "scale": config.scale,
            "aggregation": config.aggregation,
            "target": str(rules.target),
            "svg": config.svg,
        },
        "inputs": inputs,
        "counts": counts,
        "issues": issues,
    }

    def stage_path(name: str, file_name: str) -> Path:
        artifacts[name] = staging / file_name
        return artifacts[name]

    try:
        # ingest: dump -> entities (+ slim store artifact), or reload a store
        with stage_errors("ingest"):
            if config.dump is not None:
                with open(config.dump, "rb") as handle:
                    entities, dump_issues = slim_stage(
                        handle, stage_path("slim", "entities.slim"), rules, config.languages
                    )
                counts["store_records"] = len(entities)
            else:
                entities, dump_issues = load_slim_store(config.slim, rules.required_properties), []
            counts["entities"] = len(entities)
            issues["dump_parse_errors"] = len(dump_issues)

        with stage_errors("attribution"):
            attributions, attribution_counts = attribute_stage(
                entities, rules, stage_path("attribution", "attribution.tsv")
            )
            counts.update(attribution_counts)

        with stage_errors("usage"):
            views, view_issues = usage_stage(
                config.pageviews, config.languages, stage_path("views", "views.tsv")
            )
            counts["view_keys"] = len(views)
            issues["pageview_parse_errors"] = len(view_issues)

        # metrics: needs the readership table; missing table aborts here
        with stage_errors("metrics"):
            if config.readership is None:
                raise ConfigError("readership CSV is required to compute metrics")
            rows, failures = metrics_stage(
                build_article_sets(entities, config.languages),
                attributions,
                views,
                config.readership,
                config.languages,
                stage_path("metrics", "metrics.tsv"),
            )
            counts["metric_rows"] = len(rows)
            issues["failed_languages"] = {lang: str(exc) for lang, exc in sorted(failures.items())}

        with stage_errors("clusters"):
            cluster_rows, unassigned = clusters_stage(
                rows, config.cluster_map, config.aggregation, stage_path("clusters", "clusters.tsv")
            )
            counts["clusters"] = len(cluster_rows)
            issues["unassigned_countries"] = sorted({row.primary_country for row in unassigned})

        with stage_errors("report"):
            chart, written = report_stage(rows, staging, config.scale, config.svg)
            artifacts.update(written)
            issues["chart_dropped"] = chart.dropped

        _write(stage_path("manifest", "manifest.json"), _write_manifest, manifest)

        # promote: move everything out of staging in one sweep
        promoted: dict[str, Path] = {}
        for name, path in artifacts.items():
            final = out_dir / path.name
            os.replace(path, final)
            promoted[name] = final
        return PipelineResult(out_dir=out_dir, artifacts=promoted, manifest=manifest)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
