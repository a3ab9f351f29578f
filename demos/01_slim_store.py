"""Stream a Wikidata-style entity dump into slim records and persist them.

The dump format is one JSON entity per line between a ``[`` and a ``]`` line.
Only the claims and sitelinks we care about survive parsing, so a laptop can
chew through dumps far larger than its RAM.
"""

import io

from wikicoverage.dump import parse_dump_stream
from wikicoverage.slimstore import SlimStoreWriter, read_slim_store

# a three-entity dump, exactly as it would sit on disk after decompression;
# the middle line is deliberately broken to show error isolation
DUMP = """\
[
{"type": "item", "id": "Q22686", "claims": {"P27": [{"mainsnak": {"snaktype": "value", "datavalue": {"type": "wikibase-entityid", "value": {"entity-type": "item", "numeric-id": 30}}}, "rank": "normal"}]}, "sitelinks": {"enwiki": {"title": "Donald Trump"}}},
{"type": "item", "id": "Q9684", "claims": {"P17": [{"mainsnak": {"snak
{"type": "item", "id": "Q30", "claims": {"P17": [{"mainsnak": {"snaktype": "value", "datavalue": {"type": "wikibase-entityid", "value": {"entity-type": "item", "numeric-id": 30}}}, "rank": "normal"}]}, "sitelinks": {"enwiki": {"title": "United States"}}}
]
"""

keep_props = frozenset({17, 27})  # P17 and P27: every id is its number

# the parser reads bytes lines, as from a dump file opened with open(path, "rb")
errors = []
entities = list(
    parse_dump_stream(io.BytesIO(DUMP.encode("utf-8")), keep_props, {"enwiki"}, errors=errors)
)

print(f"parsed {len(entities)} entities, skipped {len(errors)} malformed line(s)")
for entity in entities:
    claims = {f"P{p}": [f"Q{v}" for v in vs] for p, vs in entity.claims.items()}
    print(f"  Q{entity.id}: claims={claims} sitelinks={entity.sitelinks}")
for issue in errors:
    print(f"  line {issue.line_number} skipped: {issue.reason}")

# persist to the compact store format and read it back; records come back
# sorted by item number, which is what the two-pass attribution step expects.
# The writer writes UTF-8 bytes, as to a file opened with open(path, "wb").
# A read names the properties it requires: the store must have kept them
buffer = io.BytesIO()
with SlimStoreWriter(keep_props) as writer:
    for entity in entities:
        writer.add(entity)
    count = writer.write(buffer)
text = buffer.getvalue().decode("utf-8")
print(f"\nslim store with {count} records:")
print(text)

restored = list(read_slim_store(io.StringIO(text), keep_props))
print("round trip ok:", restored == sorted(entities, key=lambda e: e.id))
