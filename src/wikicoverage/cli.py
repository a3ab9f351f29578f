"""Command-line interface.

Each subcommand runs one pipeline stage against files on disk; ``all`` runs
the whole pipeline.  Dump input must already be decompressed -- pipe through
``bzcat``/``zcat`` and pass ``-`` to read from stdin.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .attribution import (
    RuleSet,
    attribute_all,
    build_geo_index,
    load_rules,
    read_attribution_tsv,
    write_attribution_tsv,
)
from .chart import build_chart_data, render_svg
from .clusters import (
    aggregate_all,
    assign_clusters,
    default_cluster_map,
    load_cluster_map,
    write_clusters_tsv,
)
from .dump import parse_dump_stream
from .entities import EntityId
from .errors import WikiCoverageError
from .metrics import build_article_sets, compute_all, read_metrics_tsv, write_metrics_tsv
from .report import RunConfig, emit_table, run_pipeline, sort_rows_for_table
from .slimstore import load_slim_store, save_slim_store
from .usage import (
    UsageStats,
    aggregate_views,
    load_readership,
    merge_views,
    parse_pageviews_stream,
    read_views_tsv,
    write_views_tsv,
)
from .util import sitelink_key


def _languages(text: str) -> tuple[str, ...]:
    languages = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not languages:
        raise argparse.ArgumentTypeError("language list is empty")
    return languages


def _ruleset(args) -> RuleSet:
    rules = load_rules(args.rules) if getattr(args, "rules", None) else RuleSet()
    target = getattr(args, "target", None)
    if target:
        rules = replace(rules, target=EntityId.parse(target))
    return rules


def _cmd_slim(args) -> int:
    rules = _ruleset(args)
    keep_wikis = {sitelink_key(lang) for lang in args.languages} if args.languages else None
    issues = []

    def parse(handle):
        return list(parse_dump_stream(handle, rules.required_properties, keep_wikis, errors=issues))

    if args.dump == "-":
        entities = parse(sys.stdin.buffer)
    else:
        with open(args.dump, "rb") as handle:
            entities = parse(handle)
    count = save_slim_store(
        entities, args.out, keep_props=rules.required_properties, keep_wikis=keep_wikis
    )
    print(f"wrote {count} entities to {args.out} ({len(issues)} malformed lines skipped)")
    return 0


def _cmd_attribute(args) -> int:
    rules = _ruleset(args)
    entities = load_slim_store(args.slim)
    geo_index = build_geo_index(entities, rules)
    attributions = attribute_all(entities, geo_index, rules)
    with open(args.out, "w", encoding="utf-8", newline="\n") as sink:
        write_attribution_tsv(attributions, sink)
    related = sum(1 for r in attributions.values() if r.related)
    print(f"attributed {len(attributions)} items, {related} related to {rules.target}")
    return 0


def _cmd_usage(args) -> int:
    languages = set(args.languages) if args.languages else None
    issues = []
    shards = []
    for path in args.pageviews:
        with open(path, "rb") as handle:
            shards.append(
                aggregate_views(parse_pageviews_stream(handle, languages, errors=issues))
            )
    views = merge_views(*shards)
    with open(args.out, "w", encoding="utf-8", newline="\n") as sink:
        write_views_tsv(views, sink)
    print(f"aggregated {len(views)} (language, title) totals ({len(issues)} malformed lines)")
    return 0


def _cmd_metrics(args) -> int:
    entities = load_slim_store(args.slim)
    with open(args.attribution, encoding="utf-8") as handle:
        attributions = read_attribution_tsv(handle)
    with open(args.views, encoding="utf-8") as handle:
        views = read_views_tsv(handle)
    usage = UsageStats(views=views, readership=load_readership(args.readership))
    article_sets = build_article_sets(entities, args.languages)
    rows, failures = compute_all(article_sets, attributions, usage, args.languages)
    with open(args.out, "w", encoding="utf-8", newline="\n") as sink:
        write_metrics_tsv(rows, sink)
    for language, exc in sorted(failures.items()):
        print(f"warning: {language}: {exc}", file=sys.stderr)
    print(f"wrote {len(rows)} metric rows to {args.out}")
    return 0 if not failures else 1


def _cmd_clusters(args) -> int:
    with open(args.metrics, encoding="utf-8") as handle:
        rows = read_metrics_tsv(handle)
    cluster_map = load_cluster_map(args.cluster_map) if args.cluster_map else default_cluster_map()
    assignments, unassigned = assign_clusters(rows, cluster_map)
    for row in unassigned:
        print(f"warning: no cluster for country {row.primary_country} ({row.language})", file=sys.stderr)
    cluster_rows = aggregate_all(assignments, method=args.aggregation)
    with open(args.out, "w", encoding="utf-8", newline="\n") as sink:
        write_clusters_tsv(cluster_rows, sink)
    print(f"wrote {len(cluster_rows)} cluster rows to {args.out}")
    return 0


def _cmd_report(args) -> int:
    with open(args.metrics, encoding="utf-8") as handle:
        rows = read_metrics_tsv(handle)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "table.tsv", "w", encoding="utf-8", newline="\n") as sink:
        emit_table(rows, sink)
    chart = build_chart_data(sort_rows_for_table(rows), args.scale)
    (out_dir / "chart.json").write_text(chart.to_json(), encoding="utf-8")
    if not args.no_svg and chart.data:
        (out_dir / "chart.svg").write_text(render_svg(chart.data, args.scale), encoding="utf-8")
    print(f"wrote report artifacts to {out_dir} ({chart.dropped} rows dropped from chart)")
    return 0


def _cmd_all(args) -> int:
    config = RunConfig(
        out_dir=Path(args.out),
        languages=args.languages,
        dump=Path(args.dump) if args.dump else None,
        slim=Path(args.slim) if args.slim else None,
        pageviews=tuple(Path(p) for p in args.pageviews),
        readership=Path(args.readership) if args.readership else None,
        rules=Path(args.rules) if args.rules else None,
        cluster_map=Path(args.cluster_map) if args.cluster_map else None,
        target=args.target,
        scale=args.scale,
        aggregation=args.aggregation,
        svg=not args.no_svg,
    )
    result = run_pipeline(config)
    for name in sorted(result.artifacts):
        print(f"{name}: {result.artifacts[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wikicoverage",
        description="Measure per-language Wikipedia coverage of a target country.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slim", help="parse an entity dump into a slim store")
    p.add_argument("--dump", required=True, help="decompressed JSON dump, or - for stdin")
    p.add_argument("--out", required=True)
    p.add_argument("--rules", help="attribution rules file (sets the kept properties)")
    p.add_argument("--languages", type=_languages, help="comma-separated; limits kept sitelinks")
    p.add_argument("--target", help="target country item id, e.g. Q30")
    p.set_defaults(func=_cmd_slim)

    p = sub.add_parser("attribute", help="attribute stored items to the target country")
    p.add_argument("--slim", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rules")
    p.add_argument("--target")
    p.set_defaults(func=_cmd_attribute)

    p = sub.add_parser("usage", help="aggregate pageview files into view totals")
    p.add_argument("pageviews", nargs="+", help="pageview dump files")
    p.add_argument("--out", required=True)
    p.add_argument("--languages", type=_languages)
    p.set_defaults(func=_cmd_usage)

    p = sub.add_parser("metrics", help="compute the four per-language metrics")
    p.add_argument("--slim", required=True)
    p.add_argument("--attribution", required=True)
    p.add_argument("--views", required=True)
    p.add_argument("--readership", required=True)
    p.add_argument("--languages", type=_languages, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("clusters", help="aggregate metric rows into cultural clusters")
    p.add_argument("--metrics", required=True)
    p.add_argument("--cluster-map")
    p.add_argument("--aggregation", choices=("pooled", "mean"), default="pooled")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_clusters)

    p = sub.add_parser("report", help="emit the sorted table, chart JSON and SVG")
    p.add_argument("--metrics", required=True)
    p.add_argument("--scale", choices=("log", "linear"), default="log")
    p.add_argument("--no-svg", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("all", help="run the whole pipeline end to end")
    p.add_argument("pageviews", nargs="*", help="pageview dump files")
    p.add_argument("--dump", help="decompressed JSON dump")
    p.add_argument("--slim", help="existing slim store (alternative to --dump)")
    p.add_argument("--readership")
    p.add_argument("--rules")
    p.add_argument("--cluster-map")
    p.add_argument("--languages", type=_languages, required=True)
    p.add_argument("--scale", choices=("log", "linear"), default="log")
    p.add_argument("--aggregation", choices=("pooled", "mean"), default="pooled")
    p.add_argument("--target")
    p.add_argument("--no-svg", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WikiCoverageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
