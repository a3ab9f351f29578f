"""Pageview and readership ingestion.

Pageview dumps are space-separated lines ``<domain> <title> <views> <size>``.
Mobile and zero-rated domain variants (``en.m``, ``en.zero``) fold into their
base language; every other suffix (``en.d``, ``en.``) and every non-Wikipedia
project domain is skipped.  Readership is a required external CSV giving
per-(language, country) reader and view counts.

A malformed line is tallied as a :class:`~wikicoverage.dump.ParseIssue`,
with its line number and reason, and skipped.  A line's checks run in this
order, and the first that fails gives its reason: it is UTF-8 (``invalid
UTF-8``), it has four fields, its domain is a tracked language (a line of
any other domain is skipped, not tallied), its title is not empty (``empty
title``), :func:`util.parse_count` takes its view count (the reason is its
message), and its title does not decode to a tab, LF or CR
(:data:`BAD_TITLE`; no sitelink title holds one, and the views TSV could
not carry it).  The views TSV and readership readers take their counts
through :func:`util.parse_count` too, so a refused count reads the same in
every reader, led by its line or row.

The usage stage reads each file through :func:`read_pageview_lines`, a
block of whole lines at a time: each block is decoded once and split on LF
alone, and a block that is not UTF-8 is split into byte lines, which the
parse decodes one by one.  A file that starts with the gzip magic is
decompressed as it is read, as Wikimedia publishes its hourly files.
:func:`parse_pageviews_stream` adds each kept line's views straight into
the file's totals, in the loop that splits the line; only a line that does
not split into four text fields (a byte line, a blank line, a wrong field
count) leaves that path.  Every verdict the loop needs is kept in a
:class:`PageviewMemo`: each distinct domain's title table (None when the
domain is not tracked), each distinct view count text's views or the
message refusing them, and each distinct (language, raw title)'s totals
key or the reason it is refused.  So a refused line's reason is read from
the verdicts.  The usage stage makes one memo for its language set, passes
it to every file's call, and drops it when the stage ends: each distinct
domain, count text and title is judged once per usage stage, not once per
file, and the keys the totals hold are the memo's own.  A file given twice
would count its views twice: :func:`pageview_files_problem` refuses it.
"""

from __future__ import annotations

import csv
import os
import re
from functools import partial
from itertools import chain
from pathlib import Path
from typing import IO, BinaryIO, Iterable, Iterator, NamedTuple, Sequence

from .dump import ParseIssue
from .errors import ReadershipTableError
from .util import Memo, normalize_pageview_title, overlong_row, parse_count, read_tsv

# a readership language code; pageview domains and --languages use the same codes
LANGUAGE_RE = re.compile(r"[a-z][a-z0-9-]*\Z")
# a readership country code; a cluster map's countries are the same codes
COUNTRY_RE = re.compile(r"[A-Z]{2}\Z")
_FOLDED_SUFFIXES = frozenset({"m", "zero"})
# special Wikimedia project codes that are not Wikipedia languages
_NON_LANGUAGE_CODES = frozenset(
    {"commons", "meta", "incubator", "species", "foundation", "wikidata", "www", "test"}
)

READERSHIP_COLUMNS = ("language", "country", "readers", "views_from")
VIEWS_COLUMNS = ("language", "title", "views")

# the reasons tallied for an empty title and for one that decodes to a tab, LF or CR
EMPTY_TITLE = "empty title"
BAD_TITLE = "title decodes to a tab, LF or CR"

# bytes a pageview file is read in, then finished to a whole line (README, Performance notes)
BLOCK_SIZE = 12 * 1024
_GZIP_MAGIC = b"\x1f\x8b"


def language_list_problem(languages: Sequence[str]) -> str | None:
    """Why ``languages`` cannot be a run's language list, or None: it must be
    non-empty and hold distinct :data:`LANGUAGE_RE` codes."""
    if not languages:
        return "language list is empty"
    for index, language in enumerate(languages):
        if not LANGUAGE_RE.match(language):
            return f"bad language code {language!r}"
        if language in languages[:index]:
            return f"repeated language code {language!r}"
    return None


def pageview_files_problem(paths: Iterable[Path | str]) -> str | None:
    """Why ``paths`` cannot be a run's pageview files, or None: a file given
    twice would count its views twice.  Files are compared by identity
    (device and inode), so a symlink, a hard link or a path through ``..``
    to a file already given is that file again.  A missing file raises
    OSError."""
    seen: set[tuple[int, int]] = set()
    for path in paths:
        stat = os.stat(path)
        identity = (stat.st_dev, stat.st_ino)
        if identity in seen:
            return f"pageview file given twice: {path}"
        seen.add(identity)
    return None


class ReadershipRecord(NamedTuple):
    language: str
    country: str
    readers: int
    views_from: int


def _tracked_language(domain: str, languages: set[str] | None) -> str | None:
    """Base language of a Wikipedia domain code, or None for another project
    or a language outside ``languages``."""
    base, dot, suffix = domain.partition(".")
    if (
        not LANGUAGE_RE.match(base)
        or base in _NON_LANGUAGE_CODES
        or (dot and suffix not in _FOLDED_SUFFIXES)
        or (languages is not None and base not in languages)
    ):
        return None
    return base


def _title_key(language: str, raw: str) -> tuple[str, str] | str:
    """The totals key ``(language, title)`` of a raw pageview title, or why
    it is refused: :data:`EMPTY_TITLE`, or :data:`BAD_TITLE` when it decodes
    to a tab, LF or CR (no sitelink title holds one, and the views TSV could
    not carry it)."""
    if not raw:
        return EMPTY_TITLE
    title = normalize_pageview_title(raw)
    if "\t" in title or "\n" in title or "\r" in title:
        return BAD_TITLE
    return (language, title)


def _language_titles(language: str) -> Memo:
    """Raw title -> :func:`_title_key` in ``language``."""
    return Memo(partial(_title_key, language))


def _count_verdict(count_text: str) -> int | str:
    """The view count :func:`util.parse_count` reads from ``count_text``, or
    its message refusing it."""
    try:
        return parse_count(count_text, "view count")
    except ValueError as exc:
        return str(exc)


class PageviewMemo:
    """Every verdict :func:`parse_pageviews_stream` reaches, for one
    language set.

    - ``domains``: domain -> its language's title table, or None when the
      domain is not tracked;
    - ``counts``: view count text -> :func:`_count_verdict`;
    - ``titles``: tracked language -> raw title -> :func:`_title_key`.

    Each verdict is reached on its first lookup; later lookups return the
    same object, so every file's totals key on the same title keys.  Create
    one per usage stage, for the stage's language set (None keeps every
    language), and pass it to every file's call; it holds each distinct
    domain, count text and raw title of the stage once, so it must not
    outlive the stage.
    """

    __slots__ = ("languages", "domains", "counts", "titles")

    def __init__(self, languages: Iterable[str] | None):
        self.languages = None if languages is None else frozenset(languages)
        # exact dicts: CPython 3.11 specializes subscripts of exact dicts only
        self.domains: dict[str, Memo | None] = {}
        self.counts: dict[str, int | str] = {}
        self.titles = Memo(_language_titles)

    def title_table(self, domain: str) -> Memo | None:
        """The title table of ``domain``'s language, or None when the
        domain is not tracked."""
        language = _tracked_language(domain, self.languages)
        return None if language is None else self.titles[language]


def _block_lines(block: bytes) -> list[str] | list[bytes]:
    """The lines of a block of whole lines, without their LFs.

    The block is decoded once and split on LF alone: ``str.splitlines``
    would also split on CR, form feeds, separators and more, which a title
    or a count may hold.  A block that is not UTF-8 is split as bytes, so
    each of its lines is decoded alone and a line that fails is tallied
    with its own number.
    """
    try:
        lines = block.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        lines = block.split(b"\n")
    if not lines[-1]:  # the block ended with an LF
        del lines[-1]
    return lines


def _gunzipped_blocks(handle: BinaryIO) -> Iterator[bytes]:
    """The blocks of whole lines of a gzipped file, decompressed as it is
    read.  Truncated or corrupt data raises :class:`gzip.BadGzipFile`, an
    OSError, that names the file."""
    import gzip  # only a gzipped file pays for the imports
    import zlib

    try:
        with gzip.GzipFile(fileobj=handle) as unpacked:
            while block := unpacked.read(BLOCK_SIZE):
                yield block + unpacked.readline()
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise gzip.BadGzipFile(f"{handle.name}: corrupt gzip data: {exc}") from exc


def read_pageview_lines(handle: BinaryIO) -> Iterator[str | bytes]:
    """The lines of a pageview file opened for binary reading, for
    :func:`parse_pageviews_stream`.

    The file is read in blocks of whole lines, :data:`BLOCK_SIZE` bytes and
    then the rest of the last line, and each block is decoded once
    (:func:`_block_lines`); only one block's lines are held, however long
    the file, and they are chained with no generator step per line.  A file
    that starts with the gzip magic is decompressed as it is read.
    """
    if handle.peek(2)[:2] == _GZIP_MAGIC:
        blocks = _gunzipped_blocks(handle)
    else:
        read, readline = handle.read, handle.readline
        blocks = iter(lambda: read(BLOCK_SIZE) + readline(), b"")
    return chain.from_iterable(map(_block_lines, blocks))


def parse_pageviews_stream(
    lines: Iterable[str | bytes], memo: PageviewMemo, *, errors: list[ParseIssue]
) -> dict[tuple[str, str], int]:
    """Exact view totals per (language, title) of a whole pageviews file;
    each malformed line is appended to ``errors`` and skipped.

    The languages kept are those ``memo`` was made for.  Byte lines are
    decoded as UTF-8; an undecodable line is tallied as ``invalid UTF-8``.
    Blank lines are skipped.  Each distinct domain, view count text and
    (language, raw title) is judged once per ``memo``, which the usage
    stage shares between its files.
    """
    domains, counts = memo.domains, memo.counts
    totals: dict[tuple[str, str], int] = {}
    get = totals.get
    for line_number, line in enumerate(lines, start=1):
        try:
            domain, raw_title, count_text, _ = line.split(" ")
        except (ValueError, TypeError):  # a wrong field count, or a byte line
            if isinstance(line, bytes):
                try:
                    line = line.decode("utf-8")
                except UnicodeDecodeError:
                    errors.append(ParseIssue(line_number, "invalid UTF-8"))
                    continue
            fields = line.split(" ")
            if len(fields) != 4:
                if line.strip():
                    errors.append(ParseIssue(line_number, f"expected 4 space-separated fields, got {len(fields)}"))
                continue
            domain, raw_title, count_text, _ = fields
        try:
            keys = domains[domain]
        except KeyError:
            keys = domains[domain] = memo.title_table(domain)
        if keys is None:
            continue
        key = keys[raw_title]
        try:
            views = counts[count_text]
        except KeyError:
            views = counts[count_text] = _count_verdict(count_text)
        if views.__class__ is str or key.__class__ is str:
            # the reasons in order: an empty title, the count, then BAD_TITLE
            errors.append(ParseIssue(line_number, key if key == EMPTY_TITLE or views.__class__ is int else views))
            continue
        totals[key] = get(key, 0) + views
    return totals


def aggregate_views(records: Iterable[tuple[str, str, int]]) -> dict[tuple[str, str], int]:
    """Exact integer totals per (language, title) of ``(language, title,
    views)`` triples; order- and shard-independent."""
    totals: dict[tuple[str, str], int] = {}
    get = totals.get
    for language, title, views in records:
        key = (language, title)
        totals[key] = get(key, 0) + views
    return totals


def merge_views(
    totals: dict[tuple[str, str], int], part: dict[tuple[str, str], int]
) -> dict[tuple[str, str], int]:
    """Add ``part``'s totals into ``totals`` in place and return ``totals``:
    the totals of one pass over both.  The usage stage folds each file's
    totals into its running totals this way once the file is read, so it
    never holds every file's totals at once."""
    get = totals.get
    for key, views in part.items():
        totals[key] = get(key, 0) + views
    return totals


def parse_readership_table(source: Iterable[str]) -> dict[str, list[ReadershipRecord]]:
    """Parse the readership CSV, grouped by language in row order.

    Raises :class:`ReadershipTableError` on a missing column, a row with
    more fields than the header, a duplicate (language, country) pair, a
    malformed code, or a count that :func:`util.parse_count` refuses.
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
        problem = overlong_row(row, reader.fieldnames)
        if problem:
            raise ReadershipTableError(f"row {row_number}: {problem}")
        language = (row["language"] or "").strip()
        country = (row["country"] or "").strip()
        if not LANGUAGE_RE.match(language):
            raise ReadershipTableError(f"row {row_number}: bad language code {language!r}")
        if not COUNTRY_RE.match(country):
            raise ReadershipTableError(f"row {row_number}: bad country code {country!r}")
        key = (language, country)
        if key in seen:
            raise ReadershipTableError(f"row {row_number}: duplicate entry for {language},{country}")
        seen.add(key)
        try:
            readers = parse_count((row["readers"] or "").strip(), "readers")
            views_from = parse_count((row["views_from"] or "").strip(), "views_from")
        except ValueError as exc:
            raise ReadershipTableError(f"row {row_number}: {exc}") from exc
        grouped.setdefault(language, []).append(
            ReadershipRecord(language, country, readers, views_from)
        )
    return grouped


def load_readership(path) -> dict[str, list[ReadershipRecord]]:
    # utf-8-sig: a byte-order mark that a spreadsheet put first is not part of the first column's name
    with open(path, encoding="utf-8-sig", newline="") as handle:
        return parse_readership_table(handle)


# -- views TSV (pipeline intermediate) ---------------------------------------


def write_views_tsv(views: dict[tuple[str, str], int], sink: IO[str]) -> None:
    sink.write("\t".join(VIEWS_COLUMNS) + "\n")
    for (language, title), total in sorted(views.items()):
        sink.write(f"{language}\t{title}\t{total}\n")


def _views_row(fields: list[str]) -> tuple[tuple[str, str], int]:
    language, title, total = fields
    return (language, title), parse_count(total, "views")


def read_views_tsv(source: Iterable[str]) -> dict[tuple[str, str], int]:
    """Reload a views TSV (:func:`util.read_tsv`); a total that
    :func:`util.parse_count` refuses is a bad row."""
    return read_tsv(source, VIEWS_COLUMNS, _views_row)
