"""Small shared helpers: title normalization, exact fraction rendering, the
one count reader of every input file (:func:`parse_count`), the one check
for a token repeated in a list (:func:`first_repeat`), the one memo type
(:class:`Memo`), the one test for a lone surrogate in decoded JSON text
(:func:`lone_surrogate`), the one row reader behind the TSV artifact
readers, the field-count check of the CSV readers, and a pause of the
cyclic garbage collector for attribution's pass."""

from __future__ import annotations

import gc
import re
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence
from urllib.parse import unquote


def sitelink_key(language: str) -> str:
    """Wiki code for a language's Wikipedia, e.g. ``en`` -> ``enwiki``."""
    return language.replace("-", "_") + "wiki"


def normalize_sitelink_title(title: str) -> str:
    """Canonical underscore form of a sitelink title; case untouched."""
    return title.replace(" ", "_")


def normalize_pageview_title(title: str) -> str:
    """Canonical underscore form of a pageviews title.

    Pageview dumps percent-encode some characters; decode them so the title
    joins with sitelink-derived titles.  A malformed escape passes through
    as-is (``A%zz`` stays ``A%zz``), but well-formed escapes of bytes that are
    not UTF-8 decode to U+FFFD (``A%E9`` becomes ``A\ufffd``), so ``A%E9``
    and ``A%E8`` give the same title.
    """
    return unquote(title).replace(" ", "_")


def parse_count(text: str, field: str) -> int:
    """A count in an input file: ASCII digits, no sign, no more digits than
    ``int()`` reads (4300 by default).

    This is the one place that decides what a count is.  A refusal raises
    ValueError in one of three forms, ``field`` naming the count:
    ``non-numeric <field> '<text>'``, ``negative <field> -N`` (a minus before
    digits that are not all zeros), or ``<field> too large (N digits)``, which
    counts the digits but never echoes them, whatever their sign.
    """
    negative = text[:1] == "-"
    digits = text[1:] if negative else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"non-numeric {field} {text!r}")
    try:
        count = int(digits)
    except ValueError:  # more digits than int() reads
        raise ValueError(f"{field} too large ({len(digits)} digits)") from None
    if negative and count:
        raise ValueError(f"negative {field} -{count}")
    if negative:  # -0 is no count either
        raise ValueError(f"non-numeric {field} {text!r}")
    return count


def first_repeat(tokens: Sequence[str]) -> str | None:
    """The first token that equals an earlier one in ``tokens``, or None."""
    seen: set[str] = set()
    for token in tokens:
        if token in seen:
            return token
        seen.add(token)
    return None


# finds what a JSON "\ud800" escape with no pair decodes to, which UTF-8 cannot encode
lone_surrogate = re.compile(r"[\ud800-\udfff]").search


class Memo(dict):
    """``key -> function(key)``, computed on a key's first lookup and kept.

    A call that raises stores nothing.  A hit is one dict lookup with no
    Python call, though slower than one on an exact dict, which CPython 3.11
    alone specializes: the pageview loop's per-line memos stay plain dicts.
    A memo grows with its distinct keys, so its creator bounds its life (a
    read, a call, a stage).
    """

    __slots__ = ("function",)

    def __init__(self, function: Callable[[Any], Any]):
        super().__init__()
        self.function = function

    def __missing__(self, key):
        value = self[key] = self.function(key)
        return value


def format_fraction(value: Fraction, places: int = 6) -> str:
    """Render a fraction in fixed-point decimal, half-to-even, exactly."""
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    scaled, rem = divmod(num * 10**places, den)
    if rem * 2 > den or (rem * 2 == den and scaled % 2 == 1):
        scaled += 1
    if places == 0:
        return sign + str(scaled)
    digits = str(scaled).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def percent(value: Fraction) -> str:
    """Render a fraction as a percentage string at 2 decimals, e.g. ``31.58%``."""
    return format_fraction(value * 100, 2) + "%"


def sha256_file(path: Path) -> str:
    # imported here, not at the top: hashlib loads OpenSSL's libcrypto (about
    # 3.7 MiB RSS), and only the manifest of a whole run takes digests
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        # 64 KiB at a time: the chunk read is allocated while the last one is
        # still held, and two 1 MiB chunks raised the peak RSS by about 2 MiB
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def iter_tsv(
    source: Iterable[str], columns: tuple[str, ...], row: Callable[[list[str]], tuple], header: bool = True
) -> Iterator[tuple[int, tuple]]:
    """Each line of a tab-separated artifact as ``(line number, row(fields))``, in line order.

    With ``header``, the first line must be ``columns`` joined by tabs.  Blank
    lines are skipped; every other line must hold one field per column.  A bad
    header, a wrong field count and a ValueError from ``row`` each raise
    ValueError led by ``line N: ``.
    """
    lines = iter(source)
    if header:
        first = next(lines, None)
        if first is None or tuple(first.rstrip("\n").split("\t")) != columns:
            raise ValueError("line 1: expected the header " + repr("\t".join(columns)))
    width = len(columns)
    for line_number, raw in enumerate(lines, 2 if header else 1):
        line = raw.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        try:
            if len(fields) != width:
                raise ValueError(f"expected {width} fields, got {len(fields)}")
            value = row(fields)
        except ValueError as exc:
            raise ValueError(f"line {line_number}: {exc}") from exc
        yield line_number, value


def read_tsv(source: Iterable[str], columns: tuple[str, ...], row: Callable[[list[str]], tuple]) -> dict:
    """Read a tab-separated artifact with its header (:func:`iter_tsv`) into
    ``{key: value}``, in line order.

    ``row`` turns a line's fields into a ``(key, value)`` that no earlier line
    gave; a repeated key raises ValueError led by ``line N: ``.
    """
    result = {}
    for line_number, (key, value) in iter_tsv(source, columns, row):
        if key in result:
            raise ValueError(f"line {line_number}: repeated key {key}")
        result[key] = value
    return result


def overlong_row(row: dict, fieldnames: Sequence[str]) -> str | None:
    """Why a :class:`csv.DictReader` row has more fields than its header, or None.

    DictReader files the fields past the header under the key None, where a
    reader that looks only at its named columns would drop them unseen.
    """
    if None not in row:
        return None
    return f"expected {len(fieldnames)} fields, got {len(fieldnames) + len(row[None])}"


def drain(items: Iterable[object]) -> None:
    """Read ``items`` to its end, keeping nothing."""
    for _ in items:
        pass


@contextmanager
def paused_gc() -> Iterator[None]:
    """Pause the cyclic garbage collector for the block, then restore its state.

    Attribution's pass keeps a provenance tuple per item, the place tuples of
    the items that wait for the walks and the geo index until it ends, so
    each automatic collection would rescan every one kept so far, yet they
    form no reference cycles for it to free.  Reference counting still frees
    everything as usual.  The collector's previous state comes back on exit,
    on an error too, so a caller that had it off keeps it off.  Wrap a pass
    whose kept objects grow with its input, never a whole run.

    It still pays with items as ints: over 96,024 items (the benchmark's
    ``slim-rerun`` inputs at x8; 2-vCPU sandbox, Python 3.11.7, two sets of
    ten alternating fresh processes), ``attribute`` ran 36 collections in
    0.02 s paused against 427 in 0.09-0.11 s, and was faster paused in 10
    and 9 of 10 runs (medians 1.86 s against 1.97 s, then 1.34 s against
    1.71 s).  Over a whole ``all --dump`` run the saving (0.05-0.06 s of
    collections) was inside the host's run-to-run spread.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
