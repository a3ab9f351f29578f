"""Per-language coverage metrics.

For each language edition four parameters are computed:

* ``ppcrw`` -- share of the edition's readers located in its primary country,
* ``vpc``   -- share of the edition's views coming from the primary country,
* ``ras``   -- share of the edition's articles related to the target country,
* ``ravs``  -- share of article views going to target-related articles.

The primary country is the one with the most readers of that edition.  All
four values are kept as exact :class:`~fractions.Fraction` internally; any
rendering to decimals happens only at the reporting edge.  A
:class:`MetricsRow` stores ``ppcrw``, ``vpc`` and the four counts; ``ras``
and ``ravs`` are derived from the counts, so a row cannot disagree with
itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, AbstractSet, Iterable, Iterator, Mapping

from .entities import SlimEntity
from .errors import (
    IncompleteAttributionError,
    NoReadershipError,
    TitleConflictError,
    UndefinedMetricError,
    WikiCoverageError,
)
from .usage import COUNTRY_RE, LANGUAGE_RE, ReadershipRecord
from .util import drain, format_fraction, normalize_sitelink_title, parse_count, read_tsv, sitelink_key

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
# a share as write_metrics_tsv writes it
_SHARE_RE = re.compile(r"[0-9]+\.[0-9]{6}")


@dataclass(frozen=True)
class MetricsRow:
    """One language edition's reader shares and the counts behind its article
    and view shares; ``ras`` and ``ravs`` are the exact shares of those counts."""

    language: str
    primary_country: str
    ppcrw: Fraction
    vpc: Fraction
    article_count: int
    related_article_count: int
    total_views: int
    related_views: int

    def __post_init__(self):
        for name in ("article_count", "total_views"):
            count = getattr(self, name)
            if count <= 0:
                raise ValueError(f"{name} must be positive, got {count}")
        for name in ("ppcrw", "vpc", "ras", "ravs"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} out of [0, 1]: {value}")

    @property
    def ras(self) -> Fraction:
        return Fraction(self.related_article_count, self.article_count)

    @property
    def ravs(self) -> Fraction:
        return Fraction(self.related_views, self.total_views)


def join_attribution(
    records: Iterable[SlimEntity], rows: Iterable[tuple[int, tuple[str, bool]]], related: set[int]
) -> Iterator[SlimEntity]:
    """Yield each store record once its attribution TSV row is matched to it.

    ``records`` come from a store, in item order, and ``rows`` from
    :func:`attribution.read_attribution_tsv`; the two are read in lockstep, so
    the TSV must list exactly the store's items, in store order.  Each record
    is read before its row, so the first bad line met in either file is the
    one reported; a bad row's ValueError is led by ``attribution TSV``.  A
    row's item text is compared with its record's id printed as ``Q<n>``,
    never parsed.  A TSV that skips, adds or reorders an item raises
    :class:`IncompleteAttributionError` naming the item and the TSV line.
    The item number of each related record is added to ``related``; nothing
    else is kept.  Only each record's id is read, so a store read that
    requires no property (``read_slim_store(source, ())``) will do.
    """
    rows = iter(rows)

    def next_row() -> tuple[int, tuple[str, bool]] | None:
        try:
            return next(rows, None)
        except ValueError as exc:
            raise ValueError(f"attribution TSV {exc}") from exc

    line_number = 0
    for record in records:
        row = next_row()
        if row is None:
            raise IncompleteAttributionError(
                f"attribution TSV has no row for item Q{record.id}: its rows end after line {line_number}"
            )
        line_number, (item, flag) = row
        if item != "Q%d" % record.id:
            raise IncompleteAttributionError(
                f"attribution TSV line {line_number}: item {item!r} where the store has Q{record.id}; "
                "the TSV lists exactly the store's items, in store order"
            )
        if flag:
            related.add(record.id)
        yield record
    row = next_row()
    if row is not None:
        line_number, (item, _) = row
        raise IncompleteAttributionError(
            f"attribution TSV line {line_number}: item {item!r} is not in the store, which ends before it"
        )


def collect_article_sets(
    records: Iterable[SlimEntity], languages: Iterable[str], article_sets: dict[str, dict[str, int]]
) -> Iterator[SlimEntity]:
    """Yield each record once its sitelinked titles are in ``article_sets``.

    ``article_sets`` maps each of ``languages`` to its titles, normalized to
    underscores, and each title to its owning item's number: language ->
    title -> item number.  The languages are added when the stream starts,
    so a stream read to its end leaves one set per language.  Two distinct items claiming the
    same (language, title) raise :class:`TitleConflictError` naming both ids.
    Only each record's id and sitelinks are read, never its claims, and
    nothing of a record is kept but its titles.
    """
    language_list = sorted(set(languages))
    for language in language_list:
        article_sets.setdefault(language, {})
    key_to_language = {sitelink_key(lang): lang for lang in language_list}
    for record in records:
        for wiki, title in record.sitelinks.items():
            language = key_to_language.get(wiki)
            if language is None:
                continue
            normalized = normalize_sitelink_title(title)
            articles = article_sets[language]
            previous = articles.get(normalized)
            if previous is not None and previous != record.id:
                raise TitleConflictError(
                    f"{language}:{normalized!r} claimed by both Q{previous} and Q{record.id}"
                )
            articles[normalized] = record.id
        yield record


def build_article_sets(entities: Iterable[SlimEntity], languages: Iterable[str]) -> dict[str, dict[str, int]]:
    """The article sets of ``entities`` (:func:`collect_article_sets`, read to its end)."""
    article_sets: dict[str, dict[str, int]] = {}
    drain(collect_article_sets(entities, languages, article_sets))
    return article_sets


def primary_country(readership: Iterable[ReadershipRecord]) -> str:
    """Country with the most readers; ties break to the smallest country code."""
    records = list(readership)
    if not records:
        raise NoReadershipError("no readership rows for this language")
    return min(records, key=lambda r: (-r.readers, r.country)).country


def reader_share(readership: Iterable[ReadershipRecord], primary: str, count: str) -> Fraction:
    """The primary country's share of one readership count: ``ppcrw`` over
    ``readers``, ``vpc`` over ``views_from``.  ``primary`` is one of the
    rows' countries (:func:`primary_country`)."""
    records = list(readership)
    total = sum(getattr(r, count) for r in records)
    if total == 0:
        raise UndefinedMetricError(f"zero total {count}")
    mine = sum(getattr(r, count) for r in records if r.country == primary)
    return Fraction(mine, total)


def count_related(
    language: str,
    articles: Mapping[str, int],
    related: AbstractSet[int],
    views: Mapping[tuple[str, str], int],
) -> tuple[int, int, int]:
    """One walk over a language's article set (title -> item number): (related
    articles, related views, total views).  An article is related when its
    owner is in ``related``; a title absent from ``views`` counts 0 views."""
    related_articles = related_views = total_views = 0
    for title, item in articles.items():
        count = views.get((language, title), 0)
        total_views += count
        if item in related:
            related_articles += 1
            related_views += count
    return related_articles, related_views, total_views


def compute_language_row(
    language: str,
    articles: Mapping[str, int],
    related: AbstractSet[int],
    views: Mapping[tuple[str, str], int],
    readership: Mapping[str, list[ReadershipRecord]],
) -> MetricsRow:
    records = readership.get(language, [])
    primary = primary_country(records)
    ppcrw = reader_share(records, primary, "readers")
    vpc = reader_share(records, primary, "views_from")
    related_articles, related_views, total_views = count_related(language, articles, related, views)
    if not articles:
        raise UndefinedMetricError(f"no articles for language {language!r}")
    if total_views == 0:
        raise UndefinedMetricError(f"zero total views for language {language!r}")
    return MetricsRow(language, primary, ppcrw, vpc, len(articles), related_articles, total_views, related_views)


def compute_all(
    article_sets: Mapping[str, Mapping[str, int]],
    related: AbstractSet[int],
    views: Mapping[tuple[str, str], int],
    readership: Mapping[str, list[ReadershipRecord]],
    languages: Iterable[str],
) -> tuple[list[MetricsRow], dict[str, WikiCoverageError]]:
    """One row per language of ``languages``, language-sorted; failures tagged, others produced.

    ``related`` holds the related item numbers, ``views`` maps (language,
    title) to total views and ``readership`` maps a language to its
    readership rows.  ``article_sets`` holds a set for each of ``languages``
    (:func:`collect_article_sets` adds them when its stream starts).
    """
    rows: list[MetricsRow] = []
    failures: dict[str, WikiCoverageError] = {}
    for language in sorted(set(languages)):
        try:
            rows.append(compute_language_row(language, article_sets[language], related, views, readership))
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
    language, primary, ppcrw, vpc, ras, ravs = fields[:6]
    if not LANGUAGE_RE.match(language):
        raise ValueError(f"bad language code {language!r}")
    if not COUNTRY_RE.match(primary):
        raise ValueError(f"bad country code {primary!r}")
    counts = tuple(map(parse_count, fields[6:], METRICS_COLUMNS[6:]))
    for name, text in (("ppcrw", ppcrw), ("vpc", vpc)):
        if _SHARE_RE.fullmatch(text) is None:
            raise ValueError(f"{name} must have six decimals, got {text!r}")
    row = MetricsRow(language, primary, Fraction(ppcrw), Fraction(vpc), *counts)
    for name, text in (("ras", ras), ("ravs", ravs)):
        share = format_fraction(getattr(row, name))
        if text != share:
            raise ValueError(f"{name} {text!r} does not match its counts, which give {share}")
    return language, row


def read_metrics_tsv(source: Iterable[str]) -> list[MetricsRow]:
    """Reload a metrics TSV (:func:`util.read_tsv`), one row per language.

    ``ppcrw`` and ``vpc`` must be written as :func:`write_metrics_tsv` writes
    them, and ``ras`` and ``ravs`` must be the rounded shares of the counts,
    from which they are rebuilt exactly.
    """
    return list(read_tsv(source, METRICS_COLUMNS, _metrics_row).values())
