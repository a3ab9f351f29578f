"""Small shared helpers: title normalization, exact fraction rendering, and a
pause of the cyclic garbage collector for bulk loads."""

from __future__ import annotations

import gc
import hashlib
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Iterator
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
    joins with sitelink-derived titles.  Invalid escapes pass through as-is.
    """
    return unquote(title).replace(" ", "_")


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


def percent(value: Fraction, places: int = 2) -> str:
    """Render a fraction as a percentage string, e.g. ``31.58%``."""
    return format_fraction(value * 100, places) + "%"


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def paused_gc() -> Iterator[None]:
    """Pause the cyclic garbage collector for the block, then restore its state.

    A bulk load allocates many container objects and frees almost none, so
    each automatic collection would rescan every record built so far, yet the
    records (ids, dicts of tuples and strings) form no reference cycles for it
    to free.  Reference counting still frees everything as usual.  The
    collector's previous state comes back on exit, on an error too, so a
    caller that had it off keeps it off.  Wrap a load, never a whole run.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
