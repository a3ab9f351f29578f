"""Cultural-cluster aggregation of per-language metrics.

Languages map to clusters through their primary country via an editable
country->cluster CSV (a seed asset ships with the package).  Cluster shares
pool the raw numerators and denominators of their member languages
(``pooled``, the CLI's default); an unweighted mean of member shares
(``mean``) is available for sensitivity analysis.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Mapping

from .metrics import MetricsRow
from .usage import COUNTRY_RE
from .util import format_fraction, overlong_row

POOLED = "pooled"
MEAN = "mean"
AGGREGATION_MODES = (POOLED, MEAN)


@dataclass(frozen=True)
class ClusterRow:
    """Aggregated shares for one cultural cluster: pooled or mean shares of
    checked :class:`MetricsRow` members, so each lies in [0, 1]."""

    cluster: str
    popularity_share: Fraction
    article_share: Fraction
    member_languages: tuple[str, ...]


def parse_cluster_map(source: Iterable[str]) -> dict[str, str]:
    """Parse a country,cluster CSV; each country maps to exactly one cluster.

    A country is a readership country code (``[A-Z]{2}``): a row with any
    other country could never match a primary country, so it is rejected.
    So is a row with more fields than the header, such as an unquoted
    cluster name that holds a comma; the header may have extra columns.
    """
    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        return {}
    for column in ("country", "cluster"):
        if column not in reader.fieldnames:
            raise ValueError(f"cluster map is missing column {column!r}")
    mapping: dict[str, str] = {}
    for row_number, row in enumerate(reader, start=2):
        problem = overlong_row(row, reader.fieldnames)
        if problem:
            raise ValueError(f"cluster map row {row_number}: {problem}")
        country = (row["country"] or "").strip()
        cluster = (row["cluster"] or "").strip()
        if not country or not cluster:
            raise ValueError(f"cluster map row {row_number}: empty field")
        if not COUNTRY_RE.match(country):
            raise ValueError(f"cluster map row {row_number}: bad country code {country!r}")
        if country in mapping and mapping[country] != cluster:
            raise ValueError(f"cluster map row {row_number}: {country} mapped twice")
        mapping[country] = cluster
    return mapping


def load_cluster_map(path) -> dict[str, str]:
    # utf-8-sig: a byte-order mark that a spreadsheet put first is not part of the first column's name
    with open(path, encoding="utf-8-sig", newline="") as handle:
        return parse_cluster_map(handle)


def default_cluster_map() -> dict[str, str]:
    """The packaged country->cluster seed asset."""
    # imported here, not at the top: importlib.resources costs about 2.4 MiB,
    # and only a run without --cluster-map reads the packaged map
    from importlib import resources

    text = resources.files("wikicoverage").joinpath("data/cluster_map.csv").read_text("utf-8")
    return parse_cluster_map(text.splitlines())


def assign_clusters(
    rows: Iterable[MetricsRow], cluster_map: Mapping[str, str]
) -> tuple[dict[str, list[MetricsRow]], list[MetricsRow]]:
    """Partition rows by the cluster of their primary country.

    Rows whose primary country is not in the map come back in the second
    element so the caller can flag them; the run continues without them.
    """
    assignments: dict[str, list[MetricsRow]] = {}
    unassigned: list[MetricsRow] = []
    for row in rows:
        cluster = cluster_map.get(row.primary_country)
        if cluster is None:
            unassigned.append(row)
        else:
            assignments.setdefault(cluster, []).append(row)
    return assignments, unassigned


def aggregate_cluster(cluster: str, members: Iterable[MetricsRow], *, method: str) -> ClusterRow:
    """Aggregate one cluster's members into popularity and article shares.

    ``members`` is not empty (:func:`assign_clusters` makes no empty group).
    ``pooled`` divides summed numerators by summed denominators; ``mean``
    averages the member shares without weighting.
    """
    member_list = list(members)
    if method == POOLED:
        # every member's counts are positive (MetricsRow), so neither total is zero
        total_views = sum(m.total_views for m in member_list)
        total_articles = sum(m.article_count for m in member_list)
        popularity = Fraction(sum(m.related_views for m in member_list), total_views)
        articles = Fraction(sum(m.related_article_count for m in member_list), total_articles)
    else:
        count = len(member_list)
        popularity = sum((m.ravs for m in member_list), Fraction(0)) / count
        articles = sum((m.ras for m in member_list), Fraction(0)) / count
    return ClusterRow(
        cluster=cluster,
        popularity_share=popularity,
        article_share=articles,
        member_languages=tuple(sorted(m.language for m in member_list)),
    )


def aggregate_all(assignments: Mapping[str, list[MetricsRow]], *, method: str) -> list[ClusterRow]:
    """One row per cluster, most popular first (ties by cluster name)."""
    rows = [
        aggregate_cluster(cluster, members, method=method)
        for cluster, members in assignments.items()
    ]
    rows.sort(key=lambda r: (-r.popularity_share, r.cluster))
    return rows


def write_clusters_tsv(rows: Iterable[ClusterRow], sink: IO[str]) -> None:
    sink.write("cluster\tpopularity_share\tarticle_share\tlanguages\n")
    for row in rows:
        sink.write(
            f"{row.cluster}\t{format_fraction(row.popularity_share)}"
            f"\t{format_fraction(row.article_share)}\t{','.join(row.member_languages)}\n"
        )
