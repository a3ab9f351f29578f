"""Command-line interface.

Each subcommand reads its inputs from disk and runs one pipeline stage, the
same stage function that ``all`` (:func:`report.run_pipeline`) runs.  Dump
input must already be decompressed -- pipe through ``bzcat``/``zcat`` and
pass ``-`` to read from stdin.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from .attribution import read_attribution_tsv
from .chart import LOG, SCALES
from .clusters import AGGREGATION_MODES, POOLED
from .errors import ConfigError, WikiCoverageError
from .metrics import MetricsRow, build_article_sets, join_attribution, read_metrics_tsv
from .report import (
    RunConfig,
    attribute_stage,
    clusters_stage,
    metrics_stage,
    report_stage,
    resolve_rules,
    run_pipeline,
    slim_stage,
    usage_stage,
)
from .slimstore import load_slim_store, read_slim_store
from .usage import language_list_problem, pageview_files_problem, read_views_tsv


def _languages(text: str) -> tuple[str, ...]:
    languages = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    problem = language_list_problem(languages)
    if problem:
        raise argparse.ArgumentTypeError(problem)
    return languages


def _out_file(path: str) -> Path:
    """``--out`` of a stage that reads all of its input before it writes:
    its directory is checked first, so a missing one fails at once."""
    out = Path(path)
    if not out.parent.is_dir():
        raise ConfigError(f"output directory does not exist: {out.parent}")
    return out


def _read_metrics(path: str) -> list[MetricsRow]:
    with open(path, encoding="utf-8") as handle:
        return read_metrics_tsv(handle)


def _warn_failed(failures: dict) -> int:
    """Print a warning per failed language; the exit code, 1 if any failed."""
    for language, reason in sorted(failures.items()):
        print(f"warning: {language}: {reason}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_slim(args) -> int:
    out = _out_file(args.out)
    rules = resolve_rules(args.rules, None)
    dump = contextlib.nullcontext(sys.stdin.buffer) if args.dump == "-" else open(args.dump, "rb")
    with dump as handle:
        count, issues, _ = slim_stage(handle, out, rules, args.languages)
    print(f"wrote {count} entities to {args.out} ({len(issues)} malformed lines skipped)")
    return 0


def _cmd_attribute(args) -> int:
    out = _out_file(args.out)
    rules = resolve_rules(args.rules, args.target)
    _, counts = attribute_stage(load_slim_store(args.slim, rules.required_properties), rules, out)
    print(f"attributed {counts['entities']} items, {counts['related_items']} related to Q{rules.target}")
    return 0


def _cmd_usage(args) -> int:
    out = _out_file(args.out)
    problem = pageview_files_problem(args.pageviews)
    if problem:
        raise ConfigError(problem)
    views, issues = usage_stage(args.pageviews, args.languages, out)
    print(f"aggregated {len(views)} (language, title) totals ({len(issues)} malformed lines)")
    return 0


def _cmd_metrics(args) -> int:
    out = _out_file(args.out)
    # the join reads each store record before its TSV row, so the first bad
    # line it meets in either file is the error reported; the records need
    # only their ids and sitelinks, so the read requires no property
    related: set = set()
    with open(args.slim, encoding="utf-8") as store, open(args.attribution, encoding="utf-8") as tsv:
        records = join_attribution(read_slim_store(store, ()), read_attribution_tsv(tsv), related)
        article_sets = build_article_sets(records, args.languages)
    with open(args.views, encoding="utf-8") as handle:
        views = read_views_tsv(handle)
    rows, failures = metrics_stage(
        article_sets, related, views, args.readership, args.languages, out
    )
    print(f"wrote {len(rows)} metric rows to {args.out}")
    return _warn_failed(failures)


def _cmd_clusters(args) -> int:
    out = _out_file(args.out)
    cluster_rows, unassigned = clusters_stage(
        _read_metrics(args.metrics), args.cluster_map, args.aggregation, out
    )
    for row in unassigned:
        print(f"warning: no cluster for country {row.primary_country} ({row.language})", file=sys.stderr)
    print(f"wrote {len(cluster_rows)} cluster rows to {args.out}")
    return 0


def _cmd_report(args) -> int:
    rows = _read_metrics(args.metrics)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    chart, _ = report_stage(rows, out_dir, args.scale, not args.no_svg)
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
    return _warn_failed(result.manifest["issues"]["failed_languages"])


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
    p.add_argument("--aggregation", choices=AGGREGATION_MODES, default=POOLED)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_clusters)

    p = sub.add_parser("report", help="emit the sorted table, chart JSON and SVG")
    p.add_argument("--metrics", required=True)
    p.add_argument("--scale", choices=SCALES, default=LOG)
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
    p.add_argument("--scale", choices=SCALES, default=LOG)
    p.add_argument("--aggregation", choices=AGGREGATION_MODES, default=POOLED)
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
