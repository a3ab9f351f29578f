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

No stage of a run holds every entity.  From a dump, each parsed record
passes through the store writer, which renders it to the UTF-8 bytes of its
store line and holds at most :data:`slimstore.RUN_BYTES` of them, then
through :func:`metrics.collect_article_sets`, which adds its titles, into
attribution, which pulls the records; the store is written once attribution
is done.  A store given instead is streamed through the same article-set
collection and attribution pass, and read once.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, AbstractSet, Any, Callable, Iterable, Iterator, Sequence

from . import __version__
from .attribution import RuleSet, attribute_all, load_rules, write_attribution_tsv
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
from .entities import SlimEntity, item_number
from .errors import (
    ConfigError,
    DuplicateItemError,
    PipelineStageError,
    TitleConflictError,
    WikiCoverageError,
)
from .metrics import MetricsRow, collect_article_sets, compute_all, write_metrics_tsv
from .slimstore import SlimStoreWriter, load_slim_store, save_slim_store
from .usage import (
    PageviewMemo,
    language_list_problem,
    load_readership,
    merge_views,
    pageview_files_problem,
    parse_pageviews_stream,
    read_pageview_lines,
    write_views_tsv,
)
from .util import drain, paused_gc, percent, sha256_file, sitelink_key

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
    """Everything one pipeline run needs.  Exactly one of dump/slim is set,
    and ``readership`` is required: :meth:`validate` checks both."""

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
        problem = language_list_problem(self.languages)
        if problem:
            raise ConfigError(problem)
        if (self.dump is None) == (self.slim is None):
            raise ConfigError("exactly one of dump/slim input must be given")
        if self.scale not in SCALES:
            raise ConfigError(f"unknown scale {self.scale!r}")
        if self.aggregation not in AGGREGATION_MODES:
            raise ConfigError(f"unknown aggregation {self.aggregation!r}")
        for path in self.input_paths():
            if not Path(path).exists():
                raise ConfigError(f"input file does not exist: {path}")
        problem = pageview_files_problem(self.pageviews)
        if problem:
            raise ConfigError(problem)
        if self.readership is None:
            raise ConfigError("readership CSV is required to compute metrics")

    def input_paths(self) -> list[Path]:
        paths = [p for p in (self.dump, self.slim, self.readership, self.rules, self.cluster_map) if p]
        paths.extend(self.pageviews)
        return [Path(p) for p in paths]


def resolve_rules(rules_path: Path | str | None, target: str | None) -> RuleSet:
    """The rules file's rule set (the defaults without one), retargeted at ``target`` if given."""
    rules = load_rules(rules_path) if rules_path else RuleSet()
    if target:
        try:
            rules = replace(rules, target=item_number(target))
        except ValueError as exc:
            raise ConfigError(f"bad target id: {exc}") from exc
    return rules


@contextmanager
def stage_errors(stage: str) -> Iterator[None]:
    """Re-raise an I/O, input or pipeline error in the block as ``PipelineStageError(stage)``.

    A ``PipelineStageError`` passes through as it is: an inner stage named it.
    """
    try:
        yield
    except PipelineStageError:
        raise
    except (OSError, ValueError, WikiCoverageError) as exc:
        raise PipelineStageError(stage, exc) from exc


def _write(path: Path, writer, value) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as sink:
        writer(value, sink)


# -- the six stages ------------------------------------------------------------


def slim_stage(
    source: IO[bytes],
    out: Path,
    rules: RuleSet,
    languages: Iterable[str] | None,
    consume: Callable[[Iterator[SlimEntity]], Any] = drain,
) -> tuple[int, list[ParseIssue], Any]:
    """Parse a decompressed dump and write the entities as a slim store at ``out``.

    The store keeps the properties ``rules`` need and, when ``languages`` is
    given, only those languages' sitelinks.  Each parsed record is rendered
    to its UTF-8 store line (:class:`slimstore.SlimStoreWriter`) and then
    handed on, in dump order, to ``consume``, which reads the stream to its
    end: ``all`` attributes the records and collects the article sets as
    they pass.  The store is written once the stream ends.  Returns the
    number of records stored, the malformed lines skipped and what
    ``consume`` returned; no record is kept.
    """
    keep_wikis = None if languages is None else {sitelink_key(lang) for lang in languages}
    issues: list[ParseIssue] = []
    with SlimStoreWriter(rules.required_properties) as writer:
        parsed = parse_dump_stream(source, rules.required_properties, keep_wikis, errors=issues)
        consumed = consume(writer.passing(parsed))
        count = save_slim_store(writer, out)
    return count, issues, consumed


def attribute_stage(
    entities: Iterable[SlimEntity], rules: RuleSet, out: Path
) -> tuple[set[int], dict[str, int]]:
    """Attribute every item to ``rules.target`` and write the attribution TSV.

    ``entities`` is read once, as a stream (:func:`attribution.attribute_all`),
    so a store can be passed as :func:`slimstore.load_slim_store` yields it.
    Returns the related item numbers and the manifest's counts of items, geo
    index entries and related items.  The provenance goes only into the TSV: no
    later stage reads it.
    """
    geo_index: dict[int, tuple[int, ...]] = {}
    # the pass keeps tuples per item until it ends, which each collection
    # would rescan: the one pause that still pays (README, Performance notes)
    with paused_gc():
        attributions = attribute_all(entities, geo_index, rules)
    _write(out, write_attribution_tsv, attributions)
    related = {item for item, paths in attributions.items() if paths}
    counts = {"entities": len(attributions), "geo_index_entries": len(geo_index), "related_items": len(related)}
    return related, counts


def usage_stage(
    paths: Iterable[Path | str], languages: Iterable[str] | None, out: Path
) -> tuple[dict[tuple[str, str], int], list[ParseIssue]]:
    """Total the pageview files per (language, title) and write the views TSV.

    ``languages`` limits the languages kept; None keeps every language.
    Returns the totals and the malformed lines skipped.

    Each file is read a block at a time (:func:`usage.read_pageview_lines`),
    and a gzipped file is decompressed as it is read; the manifest digests
    the files as given.  :func:`usage.parse_pageviews_stream` totals each
    file in one pass, and the files are folded as they are read: the first
    file's totals become the running totals, and :func:`usage.merge_views`
    adds each later file's totals into them in place.  A file's totals are
    dropped when the next file's replace them, so the stage holds the
    running totals, the stage memo and at most two files' totals, however
    many files there are.  The :class:`usage.PageviewMemo` judges each
    distinct domain, view count text and (language, raw title) once for the
    whole stage, so every file's totals share the same key objects.
    """
    issues: list[ParseIssue] = []
    memo = PageviewMemo(languages)  # the kept languages and every file's verdicts, for this stage only
    views = None
    for path in paths:
        with open(path, "rb") as handle:
            # the last file's totals are dropped only when these replace
            # them: dropping them before this read saves one file's totals
            # of heap, but when the stages share a process it kept the
            # heap that attribution had freed from going back to the OS,
            # which raised the process's peak RSS
            lines = read_pageview_lines(handle)
            shard = parse_pageviews_stream(lines, memo=memo, errors=issues)
        views = shard if views is None else merge_views(views, shard)
    if views is None:  # no files
        views = {}
    _write(out, write_views_tsv, views)
    return views, issues


def metrics_stage(
    article_sets: dict[str, dict[str, int]],
    related: AbstractSet[int],
    views: dict[tuple[str, str], int],
    readership: Path | str,
    languages: Sequence[str],
    out: Path,
) -> tuple[list[MetricsRow], dict[str, WikiCoverageError]]:
    """Compute the four metrics per language and write the metrics TSV.

    ``article_sets`` are collected from the records as they pass
    (:func:`metrics.collect_article_sets`), and ``related`` holds the
    related item numbers.  Returns the rows, in language order, and the
    languages that failed.
    """
    rows, failures = compute_all(article_sets, related, views, load_readership(readership), languages)
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
    and the written artifacts by name.  With no ``chart.svg`` to write, one
    already in ``out_dir`` is removed, so it never sits stale beside the new
    ``chart.json``.
    """
    table_rows = sort_rows_for_table(rows)
    written = {"table": out_dir / "table.tsv", "chart": out_dir / "chart.json"}
    _write(written["table"], emit_table, table_rows)
    chart = build_chart_data(table_rows, scale)
    written["chart"].write_text(chart.to_json(), encoding="utf-8", newline="\n")
    if svg and chart.data:
        written["chart_svg"] = out_dir / "chart.svg"
        written["chart_svg"].write_text(render_svg(chart.data, scale), encoding="utf-8", newline="\n")
    else:
        (out_dir / "chart.svg").unlink(missing_ok=True)
    return chart, written


@dataclass
class PipelineResult:
    out_dir: Path
    artifacts: dict[str, Path] = field(default_factory=dict)
    manifest: dict = field(default_factory=dict)


def _staged(stage: str, records: Iterable[Any]) -> Iterator[Any]:
    """``records``, streamed; an error raised while reading them is ``stage``'s,
    whichever stage pulls them."""
    with stage_errors(stage):
        yield from records


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
            "target": "Q%d" % rules.target,
            "svg": config.svg,
        },
        "inputs": inputs,
        "counts": counts,
        "issues": issues,
    }

    def stage_path(name: str, file_name: str) -> Path:
        artifacts[name] = staging / file_name
        return artifacts[name]

    article_sets: dict[str, dict[str, int]] = {}

    def attribute(records: Iterable[SlimEntity]) -> tuple[set[int], dict[str, int]]:
        # the ingest stream's records pass through the article sets into
        # attribution; an error reading them stays the ingest stage's, and a
        # title conflict the metrics stage's.  A repeated item is the input's
        # fault too: attribution sees a dump's repeat before the store writer
        # sorts its run (a store's, the store reader refuses first)
        records = collect_article_sets(_staged("ingest", records), config.languages, article_sets)
        with stage_errors("attribution"):
            try:
                return attribute_stage(records, rules, stage_path("attribution", "attribution.tsv"))
            except DuplicateItemError as exc:
                raise PipelineStageError("ingest", exc) from exc
            except TitleConflictError as exc:
                raise PipelineStageError("metrics", exc) from exc

    try:
        # ingest: dump -> slim store artifact, or a store as it is; either
        # stream is attributed as it passes, with the article sets collected
        with stage_errors("ingest"):
            if config.dump is not None:
                with open(config.dump, "rb") as handle:
                    counts["store_records"], dump_issues, (related, attribution_counts) = slim_stage(
                        handle, stage_path("slim", "entities.slim"), rules, config.languages, attribute
                    )
            else:
                dump_issues = []
                store = load_slim_store(config.slim, rules.required_properties)
                related, attribution_counts = attribute(store)
            issues["dump_parse_errors"] = len(dump_issues)
            counts.update(attribution_counts)

        with stage_errors("usage"):
            views, view_issues = usage_stage(
                config.pageviews, config.languages, stage_path("views", "views.tsv")
            )
            counts["view_keys"] = len(views)
            issues["pageview_parse_errors"] = len(view_issues)

        with stage_errors("metrics"):
            rows, failures = metrics_stage(
                article_sets,
                related,
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

        manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        stage_path("manifest", "manifest.json").write_text(manifest_text, encoding="utf-8", newline="\n")

        # promote: move everything out of staging in one sweep
        promoted: dict[str, Path] = {}
        for name, path in artifacts.items():
            final = out_dir / path.name
            os.replace(path, final)
            promoted[name] = final
        if "chart_svg" not in promoted:  # as report_stage does, in the promoted directory
            (out_dir / "chart.svg").unlink(missing_ok=True)
        return PipelineResult(out_dir=out_dir, artifacts=promoted, manifest=manifest)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
