"""Decide which items relate to a target country, with provenance.

Country-valued properties (country, citizenship, country of origin) match the
target directly.  Place-valued properties (place of birth, location) go
through a geographic index of every item's country-chain claims, built as the
items pass in one read; once they have all passed, a bounded breadth-first
walk resolves each place.
"""

from wikicoverage.attribution import RuleSet, attribute_all, render_provenance
from wikicoverage.entities import SlimEntity

rules = RuleSet()  # target Q30, direct P17/P27/P495, places via P19/P276
print(f"target: Q{rules.target}, max geo depth: {rules.max_depth}")

# every id is its number: claims map property numbers to item numbers
entities = [
    # geography: a city in the target country, a city elsewhere, and a cycle
    SlimEntity(60, {17: (30,)}, {"enwiki": "New York City"}),
    SlimEntity(64, {17: (183,)}, {"enwiki": "Berlin"}),
    SlimEntity(111, {17: (112,)}),
    SlimEntity(112, {17: (111,)}),
    # topics
    SlimEntity(22686, {27: (30,), 19: (60,)}, {"enwiki": "Donald Trump"}),
    SlimEntity(9684, {17: (30,)}, {"enwiki": "The New York Times"}),
    SlimEntity(5879, {27: (183,), 19: (64,)}, {"enwiki": "Goethe"}),
    SlimEntity(500, {19: (111,)}, {"enwiki": "Nobody In Particular"}),
    # a disambiguation page never counts, even with a matching claim
    SlimEntity(600, {17: (30,), 31: (4167410,)}),
]

# one read of the items, here a one-shot stream: attribute_all fills the geo
# index as they pass, then walks each place.  Q500's birthplace walk goes
# round the Q111/Q112 cycle, stops, and finds no target
index = {}
results = attribute_all(iter(entities), index, rules)
print(f"\ngeo index has {len(index)} entries")
for item, countries in sorted(index.items()):
    print(f"  Q{item} -> {', '.join(f'Q{c}' for c in countries)}")

print("\nattribution results:")
for item, paths in sorted(results.items()):
    via = render_provenance(paths) or "-"
    print(f"  Q{item}: related={bool(paths)}  via {via}")
