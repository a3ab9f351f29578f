"""Cross-language Wikipedia coverage measurement toolkit.

The pipeline: stream-parse a Wikidata entity dump into slim records, decide
which items relate to a target country (direct country properties plus
transitive place resolution), aggregate pageview and readership inputs,
compute four per-language coverage metrics, pool them into cultural clusters,
and emit a sorted table plus bubble-chart data.
"""

__version__ = "0.1.0"

from .attribution import (
    AttributionResult,
    RuleSet,
    attribute_all,
    attribute_item,
    build_geo_index,
    load_rules,
    parse_rules,
)
from .chart import ChartData, ChartDatum, build_chart_data, color_bucket, render_svg
from .clusters import (
    ClusterRow,
    aggregate_all,
    aggregate_cluster,
    assign_clusters,
    default_cluster_map,
    load_cluster_map,
)
from .dump import ParseIssue, parse_dump_stream
from .entities import EntityId, SlimEntity
from .errors import WikiCoverageError
from .metrics import (
    LanguageArticleSet,
    MetricsRow,
    build_article_sets,
    compute_all,
    count_related,
    primary_country,
    reader_share,
)
from .report import PipelineResult, RunConfig, emit_table, run_pipeline, sort_rows_for_table
from .slimstore import (
    load_slim_store,
    read_slim_store,
    read_store_sitelinks,
    save_slim_store,
    write_slim_store,
)
from .usage import (
    ReadershipRecord,
    TitleMemo,
    UsageStats,
    ViewRecord,
    aggregate_views,
    parse_pageviews_line,
    parse_pageviews_stream,
    parse_readership_table,
)

__all__ = [
    "AttributionResult",
    "ChartData",
    "ChartDatum",
    "ClusterRow",
    "EntityId",
    "LanguageArticleSet",
    "MetricsRow",
    "ParseIssue",
    "PipelineResult",
    "ReadershipRecord",
    "RuleSet",
    "RunConfig",
    "SlimEntity",
    "TitleMemo",
    "UsageStats",
    "ViewRecord",
    "WikiCoverageError",
    "aggregate_all",
    "aggregate_cluster",
    "aggregate_views",
    "assign_clusters",
    "attribute_all",
    "attribute_item",
    "build_article_sets",
    "build_chart_data",
    "build_geo_index",
    "color_bucket",
    "compute_all",
    "count_related",
    "default_cluster_map",
    "emit_table",
    "load_cluster_map",
    "load_rules",
    "load_slim_store",
    "parse_dump_stream",
    "parse_pageviews_line",
    "parse_pageviews_stream",
    "parse_readership_table",
    "parse_rules",
    "primary_country",
    "read_slim_store",
    "read_store_sitelinks",
    "reader_share",
    "render_svg",
    "run_pipeline",
    "save_slim_store",
    "sort_rows_for_table",
    "write_slim_store",
]
