"""Pageview and readership ingestion.

Pageview dumps are space-separated lines ``<domain> <title> <views> <size>``.
Mobile and zero-rated domain variants (``en.m``, ``en.zero``) fold into their
base language; every non-Wikipedia project domain is skipped.  Readership is a
required external CSV giving per-(language, country) reader and view counts.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import PageviewsLineError, ReadershipTableError
from .util import normalize_pageview_title

_LANGUAGE_RE = re.compile(r"[a-z][a-z0-9-]*\Z")
_COUNTRY_RE = re.compile(r"[A-Z]{2}\Z")
_FOLDED_SUFFIXES = frozenset({"m", "zero"})
# special Wikimedia project codes that are not Wikipedia languages
_NON_LANGUAGE_CODES = frozenset(
    {"commons", "meta", "incubator", "species", "foundation", "wikidata", "www", "test"}
)

READERSHIP_COLUMNS = ("language", "country", "readers", "views_from")


class ViewRecord(NamedTuple):
    language: str
    title: str
    views: int


class ReadershipRecord(NamedTuple):
    language: str
    country: str
    readers: int
    views_from: int


@dataclass
class UsageStats:
    """Aggregated usage inputs: per-(language, title) views and readership."""

    views: dict[tuple[str, str], int] = field(default_factory=dict)
    readership: dict[str, list[ReadershipRecord]] = field(default_factory=dict)


@dataclass(frozen=True)
class PageviewsIssue:
    line_number: int
    reason: str


def _language_for_domain(domain: str) -> str | None:
    """Base language for a Wikipedia domain code, or None for untracked projects."""
    base, _, suffix = domain.partition(".")
    if not _LANGUAGE_RE.match(base) or base in _NON_LANGUAGE_CODES:
        return None
    if suffix and suffix not in _FOLDED_SUFFIXES:
        return None
    return base


def _split_line(line: str) -> tuple[str, str, str]:
    """Domain, title and count text of one line; raises on a wrong field count."""
    parts = line.rstrip("\n").split(" ")
    if len(parts) != 4:
        raise PageviewsLineError(f"expected 4 space-separated fields, got {len(parts)}")
    return parts[0], parts[1], parts[2]


def _view_record(language: str, title: str, count_text: str) -> ViewRecord:
    if not title:
        raise PageviewsLineError("empty title")
    try:
        views = int(count_text)
    except ValueError:
        raise PageviewsLineError(f"non-numeric view count {count_text!r}") from None
    if views < 0:
        raise PageviewsLineError(f"negative view count {views}")
    return ViewRecord(language, normalize_pageview_title(title), views)


def _tracked_language(domain: str, languages: set[str] | None) -> str | None:
    language = _language_for_domain(domain)
    if language is None or (languages is not None and language not in languages):
        return None
    return language


def parse_pageviews_line(line: str, languages: set[str] | None = None) -> ViewRecord | None:
    """One pageviews line to a record, or None for untracked domains.

    Raises :class:`PageviewsLineError` when the line is structurally wrong
    (field count, non-numeric or negative count, empty title).
    """
    domain, title, count_text = _split_line(line)
    language = _tracked_language(domain, languages)
    if language is None:
        return None
    return _view_record(language, title, count_text)


def parse_pageviews_stream(
    lines: Iterable[str | bytes],
    languages: set[str] | None = None,
    *,
    errors: list[PageviewsIssue] | None = None,
) -> Iterator[ViewRecord]:
    """Parse a whole pageviews file, tallying malformed lines and moving on.

    Byte lines are decoded as UTF-8; an undecodable line is tallied as
    ``invalid UTF-8``.  Each distinct domain is classified once per call.
    """
    language_of: dict[str, str | None] = {}
    for line_number, raw in enumerate(lines, start=1):
        try:
            if isinstance(raw, bytes):
                try:
                    raw = raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise PageviewsLineError("invalid UTF-8") from None
            if not raw.strip():
                continue
            domain, title, count_text = _split_line(raw)
            try:
                language = language_of[domain]
            except KeyError:
                language = language_of[domain] = _tracked_language(domain, languages)
            if language is None:
                continue
            record = _view_record(language, title, count_text)
        except PageviewsLineError as exc:
            if errors is not None:
                errors.append(PageviewsIssue(line_number, str(exc)))
            continue
        yield record


def aggregate_views(records: Iterable[ViewRecord]) -> dict[tuple[str, str], int]:
    """Exact integer totals per (language, title); order- and shard-independent."""
    totals: dict[tuple[str, str], int] = {}
    for record in records:
        key = (record.language, record.title)
        totals[key] = totals.get(key, 0) + record.views
    return totals


def merge_views(*parts: dict[tuple[str, str], int]) -> dict[tuple[str, str], int]:
    """Merge per-shard totals; equals a single pass over the concatenation."""
    merged: dict[tuple[str, str], int] = {}
    for part in parts:
        for key, views in part.items():
            merged[key] = merged.get(key, 0) + views
    return merged


def parse_readership_table(source: Iterable[str]) -> dict[str, list[ReadershipRecord]]:
    """Parse the readership CSV, grouped by language in row order.

    Raises :class:`ReadershipTableError` on a missing column, a duplicate
    (language, country) pair, a malformed code, or a negative count.
    """
    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        return {}
    missing = [col for col in READERSHIP_COLUMNS if col not in reader.fieldnames]
    if missing:
        raise ReadershipTableError(f"missing column(s): {', '.join(missing)}")
    grouped: dict[str, list[ReadershipRecord]] = {}
    seen: set[tuple[str, str]] = set()
    for row_number, row in enumerate(reader, start=2):
        language = (row["language"] or "").strip()
        country = (row["country"] or "").strip()
        if not _LANGUAGE_RE.match(language):
            raise ReadershipTableError(f"row {row_number}: bad language code {language!r}")
        if not _COUNTRY_RE.match(country):
            raise ReadershipTableError(f"row {row_number}: bad country code {country!r}")
        key = (language, country)
        if key in seen:
            raise ReadershipTableError(f"row {row_number}: duplicate entry for {language},{country}")
        seen.add(key)
        try:
            readers = int(row["readers"])
            views_from = int(row["views_from"])
        except (TypeError, ValueError):
            raise ReadershipTableError(f"row {row_number}: non-integer count") from None
        if readers < 0 or views_from < 0:
            raise ReadershipTableError(f"row {row_number}: negative count")
        grouped.setdefault(language, []).append(
            ReadershipRecord(language, country, readers, views_from)
        )
    return grouped


def load_readership(path) -> dict[str, list[ReadershipRecord]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return parse_readership_table(handle)


# -- views TSV (pipeline intermediate) ---------------------------------------


def write_views_tsv(views: dict[tuple[str, str], int], sink: IO[str]) -> None:
    sink.write("language\ttitle\tviews\n")
    for (language, title), total in sorted(views.items()):
        sink.write(f"{language}\t{title}\t{total}\n")


def read_views_tsv(source: Iterable[str]) -> dict[tuple[str, str], int]:
    """Reload a views TSV; a malformed row or a negative total raises ValueError naming its line."""
    lines = iter(source)
    header = next(lines, None)
    if header is None or header.rstrip("\n") != "language\ttitle\tviews":
        raise ValueError("bad views TSV header")
    views: dict[tuple[str, str], int] = {}
    for line_number, raw in enumerate(lines, start=2):
        line = raw.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"line {line_number}: expected 3 fields, got {len(parts)}")
        language, title, total = parts
        try:
            count = int(total)
        except ValueError:
            raise ValueError(f"line {line_number}: non-integer view total {total!r}") from None
        if count < 0:
            raise ValueError(f"line {line_number}: negative view total {count}")
        views[(language, title)] = count
    return views
