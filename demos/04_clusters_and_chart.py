"""Pool language metrics into cultural clusters and draw the bubble chart.

Languages join a cluster through their primary country (an editable CSV asset
ships with the package).  Cluster shares pool raw numerators over raw
denominators (``method="pooled"``, as ``all`` does by default);
``method="mean"`` averages the member shares without weighting.
"""

import tempfile
from fractions import Fraction
from pathlib import Path

from wikicoverage.chart import build_chart_data, render_svg
from wikicoverage.clusters import aggregate_all, assign_clusters, default_cluster_map
from wikicoverage.metrics import MetricsRow
from wikicoverage.util import percent


def row(language, country, ppcrw_pct, related_views, total_views, related_articles, articles):
    return MetricsRow(
        language=language,
        primary_country=country,
        ppcrw=Fraction(ppcrw_pct, 100),
        vpc=Fraction(1, 2),
        article_count=articles,
        related_article_count=related_articles,
        total_views=total_views,
        related_views=related_views,
    )


rows = [
    row("es", "MX", 70, 160, 1000, 108, 1000),
    row("pt", "BR", 54, 150, 1000, 115, 1000),
    row("de", "DE", 73, 160, 1000, 70, 1000),
    row("sv", "SE", 57, 107, 1000, 29, 1000),
    row("ru", "RU", 85, 141, 1000, 59, 1000),
    row("zh", "CN", 7, 96, 1000, 67, 1000),
]

cluster_map = default_cluster_map()
assignments, unassigned = assign_clusters(rows, cluster_map)
print("cluster assignments:")
for cluster, members in sorted(assignments.items()):
    print(f"  {cluster}: {', '.join(m.language for m in members)}")
if unassigned:
    print("  (unassigned:", ", ".join(m.language for m in unassigned) + ")")

print("\npooled cluster shares:")
for cluster in aggregate_all(assignments, method="pooled"):
    print(
        f"  {cluster.cluster}: popularity {percent(cluster.popularity_share)}, "
        f"articles {percent(cluster.article_share)}"
    )

# chart data: log scale, bubbles sized by article count, red below 50% ppcrw
chart = build_chart_data(rows, "log")
print(f"\nchart: {len(chart.data)} bubbles, {chart.dropped} dropped under the log scale")
for datum in chart.data:
    print(f"  {datum.language}: x={datum.x:.4f} y={datum.y:.4f} {datum.color_bucket}")

out = Path(tempfile.mkdtemp()) / "chart.svg"
out.write_text(render_svg(chart.data, chart.scale), encoding="utf-8")
print(f"\nSVG written to {out}")
