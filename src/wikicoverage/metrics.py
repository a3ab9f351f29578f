"""Per-language coverage metrics.

For each language edition four parameters are computed:

* ``ppcrw`` -- share of the edition's readers located in its primary country,
* ``vpc``   -- share of the edition's views coming from the primary country,
* ``ras``   -- share of the edition's articles related to the target country,
* ``ravs``  -- share of article views going to target-related articles.

The primary country is the one with the most readers of that edition.  All
four values are kept as exact :class:`~fractions.Fraction` internally; any
rendering to decimals happens only at the reporting edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Iterable, Mapping

from .attribution import AttributionResult
from .entities import EntityId, SlimEntity
from .errors import (
    IncompleteAttributionError,
    NoReadershipError,
    TitleConflictError,
    UndefinedMetricError,
    WikiCoverageError,
)
from .usage import ReadershipRecord, UsageStats
from .util import format_fraction, normalize_sitelink_title, read_tsv, sitelink_key

METRICS_COLUMNS = (
    "language",
    "primary_country",
    "ppcrw",
    "vpc",
    "ras",
    "ravs",
    "article_count",
    "related_article_count",
    "total_views",
    "related_views",
)


@dataclass(frozen=True)
class LanguageArticleSet:
    """All sitelinked articles of one language edition, title -> owning item."""

    language: str
    articles: dict[str, EntityId] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.articles)


@dataclass(frozen=True)
class MetricsRow:
    """One language edition's four metrics plus the raw counts behind them."""

    language: str
    primary_country: str
    ppcrw: Fraction
    vpc: Fraction
    ras: Fraction
    ravs: Fraction
    article_count: int
    related_article_count: int
    total_views: int
    related_views: int

    def __post_init__(self):
        for name in ("ppcrw", "vpc", "ras", "ravs"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} out of [0, 1]: {value}")
        if self.related_article_count > self.article_count:
            raise ValueError("related article count exceeds article count")
        if self.related_views > self.total_views:
            raise ValueError("related views exceed total views")
        if self.article_count > 0 and self.ras != Fraction(
            self.related_article_count, self.article_count
        ):
            raise ValueError("ras does not match its counts")
        if self.total_views > 0 and self.ravs != Fraction(
            self.related_views, self.total_views
        ):
            raise ValueError("ravs does not match its counts")

    @classmethod
    def from_counts(
        cls, language: str, primary_country: str, ppcrw: Fraction, vpc: Fraction, *counts: int
    ) -> "MetricsRow":
        """A row from its four counts, in column order; ras and ravs are their exact shares."""
        article_count, related_article_count, total_views, related_views = counts
        ras = Fraction(related_article_count, article_count)
        return cls(language, primary_country, ppcrw, vpc, ras, Fraction(related_views, total_views), *counts)


def build_article_sets(
    entities: Iterable[SlimEntity], languages: Iterable[str]
) -> dict[str, LanguageArticleSet]:
    """Collect each language's sitelinked titles, normalized to underscores.

    Two distinct items claiming the same (language, title) raise
    :class:`TitleConflictError` naming both ids.
    """
    language_list = sorted(set(languages))
    by_language: dict[str, dict[str, EntityId]] = {lang: {} for lang in language_list}
    key_to_language = {sitelink_key(lang): lang for lang in language_list}
    for entity in entities:
        for wiki, title in entity.sitelinks.items():
            language = key_to_language.get(wiki)
            if language is None:
                continue
            normalized = normalize_sitelink_title(title)
            previous = by_language[language].get(normalized)
            if previous is not None and previous != entity.id:
                raise TitleConflictError(
                    f"{language}:{normalized!r} claimed by both {previous} and {entity.id}"
                )
            by_language[language][normalized] = entity.id
    return {
        lang: LanguageArticleSet(lang, articles) for lang, articles in by_language.items()
    }


def primary_country(readership: Iterable[ReadershipRecord]) -> str:
    """Country with the most readers; ties break to the smallest country code."""
    records = list(readership)
    if not records:
        raise NoReadershipError("no readership rows for this language")
    return min(records, key=lambda r: (-r.readers, r.country)).country


def reader_share(readership: Iterable[ReadershipRecord], primary: str, count: str) -> Fraction:
    """The primary country's share of one readership count: ``ppcrw`` over
    ``readers``, ``vpc`` over ``views_from``."""
    records = list(readership)
    if primary not in {r.country for r in records}:
        raise UndefinedMetricError(f"primary country {primary!r} absent from readership")
    total = sum(getattr(r, count) for r in records)
    if total == 0:
        raise UndefinedMetricError(f"zero total {count}")
    mine = sum(getattr(r, count) for r in records if r.country == primary)
    return Fraction(mine, total)


def count_related(
    articles: LanguageArticleSet,
    attributions: Mapping[EntityId, AttributionResult],
    views: Mapping[tuple[str, str], int],
) -> tuple[int, int, int]:
    """One walk over the article set: (related articles, related views, total
    views).  A title absent from ``views`` counts 0 views; an owner without an
    attribution raises :class:`IncompleteAttributionError`."""
    language = articles.language
    related_articles = related_views = total_views = 0
    for title, item in articles.articles.items():
        result = attributions.get(item)
        if result is None:
            raise IncompleteAttributionError(f"{language}:{title!r} owner {item} has no attribution")
        count = views.get((language, title), 0)
        total_views += count
        if result.related:
            related_articles += 1
            related_views += count
    return related_articles, related_views, total_views


def compute_language_row(
    articles: LanguageArticleSet,
    attributions: Mapping[EntityId, AttributionResult],
    usage: UsageStats,
) -> MetricsRow:
    language = articles.language
    readership = usage.readership.get(language, [])
    primary = primary_country(readership)
    ppcrw = reader_share(readership, primary, "readers")
    vpc = reader_share(readership, primary, "views_from")
    related_articles, related_views, total_views = count_related(articles, attributions, usage.views)
    if not articles.articles:
        raise UndefinedMetricError(f"no articles for language {language!r}")
    if total_views == 0:
        raise UndefinedMetricError(f"zero total views for language {language!r}")
    counts = (len(articles.articles), related_articles, total_views, related_views)
    return MetricsRow.from_counts(language, primary, ppcrw, vpc, *counts)


def compute_all(
    article_sets: Mapping[str, LanguageArticleSet],
    attributions: Mapping[EntityId, AttributionResult],
    usage: UsageStats,
    languages: Iterable[str] | None = None,
) -> tuple[list[MetricsRow], dict[str, WikiCoverageError]]:
    """One row per language, language-sorted; failures tagged, others produced."""
    requested = sorted(set(languages)) if languages is not None else sorted(article_sets)
    rows: list[MetricsRow] = []
    failures: dict[str, WikiCoverageError] = {}
    for language in requested:
        try:
            articles = article_sets.get(language)
            if articles is None:
                raise UndefinedMetricError(f"no article set for language {language!r}")
            rows.append(compute_language_row(articles, attributions, usage))
        except WikiCoverageError as exc:
            failures[language] = exc
    return rows, failures


# -- metrics TSV --------------------------------------------------------------


def write_metrics_tsv(rows: Iterable[MetricsRow], sink: IO[str]) -> None:
    """Machine-readable metrics table; fractions printed with 6 decimals."""
    sink.write("\t".join(METRICS_COLUMNS) + "\n")
    for row in rows:
        sink.write(
            "\t".join(
                (
                    row.language,
                    row.primary_country,
                    format_fraction(row.ppcrw),
                    format_fraction(row.vpc),
                    format_fraction(row.ras),
                    format_fraction(row.ravs),
                    str(row.article_count),
                    str(row.related_article_count),
                    str(row.total_views),
                    str(row.related_views),
                )
            )
            + "\n"
        )


def _metrics_row(fields: list[str]) -> tuple[str, MetricsRow]:
    # the rounded ras and ravs columns are skipped: the counts rebuild them exactly
    counts = tuple(map(int, fields[6:]))
    for name, count in (("article_count", counts[0]), ("total_views", counts[2])):
        if count <= 0:
            raise ValueError(f"{name} must be positive, got {count}")
    language, primary, ppcrw, vpc = fields[:4]
    return language, MetricsRow.from_counts(language, primary, Fraction(ppcrw), Fraction(vpc), *counts)


def read_metrics_tsv(source: Iterable[str]) -> list[MetricsRow]:
    """Reload a metrics TSV (:func:`util.read_tsv`), one row per language;
    ras/ravs are rebuilt exactly from the counts."""
    return list(read_tsv(source, METRICS_COLUMNS, _metrics_row).values())
