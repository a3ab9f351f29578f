"""From pageview lines and a readership table to the four per-language metrics.

* ppcrw -- share of the edition's readers located in its primary country
* vpc   -- share of the edition's views coming from that country
* ras   -- share of the edition's articles related to the target country
* ravs  -- share of article views going to related articles

Values stay exact fractions until they are rendered; ras and ravs are derived
from the article and view counts a row stores.
"""

import io
from fractions import Fraction

from wikicoverage.entities import SlimEntity
from wikicoverage.metrics import build_article_sets, compute_all
from wikicoverage.usage import PageviewMemo, parse_pageviews_stream, parse_readership_table
from wikicoverage.util import percent

# pageview dump lines: mobile traffic folds into the base language, the
# wiktionary line is skipped, the broken line is tallied and ignored
PAGEVIEWS = """\
en United_States 120 0
en.m United_States 80 0
en Germany 80 0
en Donald_Trump 135 0
en.d free 999 0
en BadLine x 0
"""

READERSHIP = """\
language,country,readers,views_from
en,US,600,800
en,GB,150,90
en,DE,100,60
en,FR,150,50
"""

# the memo holds the run's languages and every verdict the parse reaches;
# the usage stage makes one and passes it to every file's parse
languages = ["en"]
issues = []
views = parse_pageviews_stream(io.StringIO(PAGEVIEWS), PageviewMemo(languages), errors=issues)
print("view totals:", {f"{l}:{t}": v for (l, t), v in sorted(views.items())})
print("malformed pageview lines:", len(issues))

# every id is its number: claims map property numbers to item numbers
entities = [
    SlimEntity(30, {17: (30,)}, {"enwiki": "United States"}),
    SlimEntity(183, {17: (183,)}, {"enwiki": "Germany"}),
    SlimEntity(22686, {27: (30,)}, {"enwiki": "Donald Trump"}),
]
# the metrics need only the set of related items (02_attribution.py derives
# it): the United States and Donald Trump relate to Q30, Germany does not
related = {30, 22686}

readership = parse_readership_table(io.StringIO(READERSHIP))
rows, failures = compute_all(build_article_sets(entities, languages), related, views, readership, languages)
assert not failures

(row,) = rows
print(f"\nlanguage {row.language}, primary country {row.primary_country}")
print(f"  ppcrw = {row.ppcrw}  ({percent(row.ppcrw)})")
print(f"  vpc   = {row.vpc}  ({percent(row.vpc)})")
print(f"  ras   = {row.ras}  ({percent(row.ras)})   [{row.related_article_count}/{row.article_count} articles]")
print(f"  ravs  = {row.ravs}  ({percent(row.ravs)})   [{row.related_views}/{row.total_views} views]")
assert (row.ras, row.ravs) == (Fraction(2, 3), Fraction(67, 83))
