import codecs
import io
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikicoverage.attribution import (
    RuleSet,
    attribute_all,
    build_geo_index,
    load_rules,
    parse_rules,
    read_attribution_tsv,
    render_provenance,
    write_attribution_tsv,
)
from wikicoverage.attribution import _path_to_target as path_to_target
from wikicoverage.dump import parse_dump_stream
from wikicoverage.entities import SlimEntity
from wikicoverage.errors import DuplicateItemError, RulesError

from helpers import (
    dump_text,
    entity_json,
    oracle_geo_graph,
    oracle_related,
    random_attribution_fixture,
    statement,
)

RULES = RuleSet()


def parsed(claims: dict) -> SlimEntity:
    """Item Q5 with ``claims``, as the dump parser keeps it for the default rules."""
    text = dump_text([entity_json("Q5", claims)])
    (entity,) = parse_dump_stream(io.BytesIO(text.encode("utf-8")), RULES.required_properties, None, errors=[])
    return entity


def attribute_one(entity: SlimEntity, index: dict, rules: RuleSet) -> tuple:
    """``entity``'s provenance from :func:`attribute_all` over a copy of ``index``,
    which the call extends with the entity's own country-chain values."""
    return attribute_all([entity], dict(index), rules)[entity.id]


def expected_provenance(entity: SlimEntity, index: dict, rules: RuleSet) -> tuple:
    """``entity``'s provenance as the rules define it: none for an excluded
    class, else its direct matches and then a fresh walk per place value, each
    kind in property order."""
    if rules.exclude_classes & set(entity.claims.get(31, ())):
        return ()
    paths = []
    for prop in sorted(rules.direct_props):
        paths += [(prop, v) for v in entity.claims.get(prop, ()) if v == rules.target]
    for prop in sorted(rules.place_props):
        for value in entity.claims.get(prop, ()):
            chain = path_to_target(index, value, rules)
            if chain is not None:
                paths.append((prop, *chain))
    return tuple(paths)


class TestGeoIndex:
    def test_direct_country_claim_is_indexed(self):
        nyc = SlimEntity(60, {17: (30,)})
        index = build_geo_index([nyc], RULES)
        assert index == {60: (30,)}

    def test_empty_stream_gives_empty_index(self):
        assert build_geo_index([], RULES) == {}

    def test_two_country_values_are_kept_in_claim_order(self):
        entity = SlimEntity(1, {17: (183, 30)})
        index = build_geo_index([entity], RULES)
        assert index[1] == (183, 30)

    def test_opaque_values_are_not_indexed(self):
        entity = parsed({"P17": ["United States", statement(30, kind="property")]})
        assert build_geo_index([entity], RULES) == {}


def reachable(index, start, candidates, max_depth=5):
    """The candidates that the geo walk from ``start`` reaches, each tried as the target."""
    return {
        target
        for target in candidates
        if path_to_target(index, start, RuleSet(max_depth=max_depth, target=target)) is not None
    }


class TestResolvePlace:
    def test_one_hop(self):
        assert path_to_target({60: (30,)}, 60, RULES) == (60, 30)

    def test_cycle_terminates_and_includes_both(self):
        index = {1: (2,), 2: (1,)}
        assert reachable(index, 1, [1, 2, 30]) == {1, 2}
        assert path_to_target(index, 1, RuleSet(target=1)) == (1, 2, 1)

    def test_unknown_place_is_empty(self):
        assert path_to_target({}, 99, RULES) is None

    def test_depth_bound_cuts_long_chains(self):
        chain = {n: (n + 1,) for n in range(1, 10)}
        assert reachable(chain, 1, range(1, 11), max_depth=3) == {2, 3, 4}

    @given(depth=st.integers(min_value=1, max_value=6), seed=st.integers(0, 2**31))
    @settings(max_examples=40)
    def test_depth_monotonicity(self, depth, seed):
        rng = random.Random(seed)
        nodes = list(range(1, 15))
        index = {
            node: tuple(rng.choice(nodes) for _ in range(rng.randint(0, 3)))
            for node in nodes
            if rng.random() < 0.7
        }
        index = {k: v for k, v in index.items() if v}
        for target in nodes:
            shallow = path_to_target(index, 1, RuleSet(max_depth=depth, target=target))
            deep = path_to_target(index, 1, RuleSet(max_depth=depth + 1, target=target))
            # found within d hops: the walk to d + 1 hops finds the same shortest chain
            assert shallow is None or deep == shallow


class TestAttributeItem:
    """One item through :func:`attribute_all`."""

    def test_citizenship_direct_match(self):
        person = SlimEntity(22686, {27: (30,)})
        paths = attribute_one(person, {}, RULES)
        assert paths
        assert paths == ((27, 30),)

    def test_country_direct_match(self):
        org = SlimEntity(9684, {17: (30,)})
        assert attribute_one(org, {}, RULES)

    def test_birthplace_resolves_through_index(self):
        person = SlimEntity(5, {19: (60,)})
        paths = attribute_one(person, {60: (30,)}, RULES)
        assert paths
        assert paths == ((19, 60, 30),)

    def test_foreign_country_only_is_unrelated(self):
        entity = SlimEntity(5, {17: (183,)})
        paths = attribute_one(entity, {}, RULES)
        assert not paths
        assert paths == ()

    def test_direct_paths_come_before_place_paths(self):
        entity = SlimEntity(5, {19: (60,), 27: (30,)})
        paths = attribute_one(entity, {60: (30,)}, RULES)
        assert paths == ((27, 30), (19, 60, 30))

    def test_multi_hop_place_chain_is_recorded(self):
        index = {100: (101,), 101: (30,)}
        entity = SlimEntity(5, {276: (100,)})
        paths = attribute_one(entity, index, RULES)
        assert paths == ((276, 100, 101, 30),)

    def test_dual_citizenship_matches_on_any_value(self):
        entity = SlimEntity(5, {27: (142, 30)})
        assert attribute_one(entity, {}, RULES)

    def test_place_value_equal_to_target_needs_a_geo_edge(self):
        entity = SlimEntity(5, {276: (30,)})
        assert not attribute_one(entity, {}, RULES)
        # with the target's own self country claim the edge exists
        paths = attribute_one(entity, {30: (30,)}, RULES)
        assert paths
        assert paths == ((276, 30, 30),)

    def test_opaque_claim_values_never_match(self):
        # a string or a property value never matches, even one numbered like the target
        entity = parsed(
            {"P27": ["Q30", statement(30, kind="property")], "P19": ["Q60", statement(60, kind="property")]}
        )
        index = {60: (30,)}
        assert not attribute_one(entity, index, RULES)


class TestAttributeAll:
    def test_four_item_fixture_counts(self):
        entities = [
            SlimEntity(1, {27: (30,)}),
            SlimEntity(2, {17: (183,)}),
            SlimEntity(3, {19: (60,)}),
            SlimEntity(4),
        ]
        index = {60: (30,)}
        results = attribute_all(entities, index, RULES)
        assert [item for item, paths in sorted(results.items()) if paths] == [1, 3]

    def test_empty_stream_gives_empty_mapping(self):
        assert attribute_all([], {}, RULES) == {}

    def test_disambiguation_page_is_forced_unrelated(self):
        page = SlimEntity(7, {17: (30,), 31: (4167410,)})
        results = attribute_all([page], {}, RULES)
        assert results[7] == ()

    def test_duplicate_item_raises(self):
        entities = [SlimEntity(1), SlimEntity(1)]
        with pytest.raises(DuplicateItemError):
            attribute_all(entities, {}, RULES)

    def test_excluded_item_whose_place_reaches_the_target_is_unrelated(self):
        page = SlimEntity(7, {19: (60,), 31: (4167410,)})
        person = SlimEntity(8, {19: (60,)})
        results = attribute_all([page, person], {60: (30,)}, RULES)
        assert results == {7: (), 8: ((19, 60, 30),)}


class TestProperties:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_claim_order_never_changes_the_flag(self, seed):
        rng = random.Random(seed)
        entities = random_attribution_fixture(rng, 40)
        index = build_geo_index(entities, RULES)
        for entity in entities[:20]:
            baseline = bool(attribute_one(entity, index, RULES))
            items = list(entity.claims.items())
            rng.shuffle(items)
            shuffled = SlimEntity(
                entity.id,
                {prop: tuple(rng.sample(values, len(values))) for prop, values in items},
                dict(entity.sitelinks),
            )
            assert bool(attribute_one(shuffled, index, RULES)) == baseline

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_adding_a_direct_prop_is_monotone(self, seed):
        rng = random.Random(seed)
        entities = random_attribution_fixture(rng, 30)
        index = build_geo_index(entities, RULES)
        wider = RuleSet(
            direct_props=RULES.direct_props | {1001},
            place_props=RULES.place_props,
        )
        for entity in entities:
            if attribute_one(entity, index, RULES):
                assert attribute_one(entity, index, wider)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_adding_a_place_prop_is_monotone(self, seed):
        rng = random.Random(seed)
        entities = random_attribution_fixture(rng, 30)
        index = build_geo_index(entities, RULES)
        wider = RuleSet(
            direct_props=RULES.direct_props,
            place_props=RULES.place_props | {1002},
        )
        for entity in entities:
            if attribute_one(entity, index, RULES):
                assert attribute_one(entity, index, wider)

    @given(seed=st.integers(0, 2**31), max_depth=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_memoised_walks_agree_with_fresh_walks_and_the_oracle(self, seed, max_depth):
        rng = random.Random(seed)
        rules = RuleSet(max_depth=max_depth)
        places = [1000 + i for i in range(rng.randint(2, 24))]
        targets = [rules.target, 183]
        geo: dict = {}
        # rings, and chains up to two hops longer than max_depth that end at a country
        for _ in range(rng.randint(1, 4)):
            ring = rng.sample(places, min(len(places), rng.randint(1, 4)))
            for node, nxt in zip(ring, ring[1:] + ring[:1]):
                geo.setdefault(node, []).append(nxt)
        for _ in range(rng.randint(1, 3)):
            chain = rng.sample(places, min(len(places), rng.randint(1, max_depth + 2)))
            for node, nxt in zip(chain, chain[1:] + [rng.choice(targets)]):
                geo.setdefault(node, []).append(nxt)
        for node in places:
            if rng.random() < 0.3:
                geo.setdefault(node, []).append(rng.choice(places + targets))
        entities = [SlimEntity(node, {17: tuple(edges)}) for node, edges in geo.items()]
        for number in range(50_000, 50_000 + rng.randint(1, 40)):
            claims = {}
            for prop in (19, 276):
                if rng.random() < 0.7:
                    claims[prop] = tuple(rng.choice(places + targets) for _ in range(rng.randint(1, 3)))
            if rng.random() < 0.2:
                claims[27] = (rng.choice(targets),)
            if rng.random() < 0.1:
                claims[31] = (4167410,)
            entities.append(SlimEntity(number, claims))

        index = build_geo_index(entities, rules)
        graph = oracle_geo_graph(entities, rules)
        results = attribute_all(entities, index, rules)
        for entity in entities:
            assert results[entity.id] == expected_provenance(entity, index, rules)
            assert bool(results[entity.id]) == oracle_related(entity, graph, rules)

    def test_widening_a_rule_set_can_flip_unrelated_to_related(self):
        # headquarters location (P159) is not matched by the defaults
        entity = SlimEntity(5, {159: (60,)})
        index = {60: (30,)}
        assert not attribute_one(entity, index, RULES)
        wider = RuleSet(place_props=RULES.place_props | {159})
        paths = attribute_one(entity, index, wider)
        assert paths
        assert paths == ((159, 60, 30),)

    def test_visit_budget_is_linear_in_index_and_depth(self):
        # complete digraph: every node points at every node; BFS must stop
        class CountingIndex(dict):
            lookups = 0

            def get(self, key, default=None):
                self.lookups += 1
                return super().get(key, default)

        nodes = list(range(1, 30))
        index = CountingIndex({node: tuple(nodes) for node in nodes})
        assert path_to_target(index, 1, RuleSet(max_depth=5, target=999)) is None
        assert index.lookups <= len(nodes)  # each node is expanded at most once
        assert reachable(index, 1, nodes) == set(nodes)


class TestOracleEquivalence:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_walks(self, seed):
        rng = random.Random(seed)
        entities = random_attribution_fixture(rng, 80)
        index = build_geo_index(entities, RULES)
        graph = oracle_geo_graph(entities, RULES)
        results = attribute_all(entities, index, RULES)
        for entity in entities:
            expected = oracle_related(entity, graph, RULES)
            assert bool(results[entity.id]) == expected, str(entity.id)

    @given(seed=st.integers(0, 2**31), max_depth=st.integers(1, 4), repeat=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_a_one_shot_stream_matches_the_list_and_the_oracle(self, seed, max_depth, repeat):
        rng = random.Random(seed)
        rules = RuleSet(max_depth=max_depth)
        places = [1000 + i for i in range(rng.randint(2, 20))]
        targets = [rules.target, 183]
        geo: dict = {}
        # rings, and chains up to two hops longer than max_depth that end at a country
        for _ in range(rng.randint(1, 3)):
            ring = rng.sample(places, min(len(places), rng.randint(1, 4)))
            for node, nxt in zip(ring, ring[1:] + ring[:1]):
                geo.setdefault(node, []).append(nxt)
        for _ in range(rng.randint(1, 3)):
            chain = rng.sample(places, min(len(places), rng.randint(1, max_depth + 2)))
            for node, nxt in zip(chain, chain[1:] + [rng.choice(targets)]):
                geo.setdefault(node, []).append(nxt)
        entities = [SlimEntity(node, {17: tuple(edges)}) for node, edges in geo.items()]
        for number in range(50_000, 50_000 + rng.randint(0, 30)):
            claims = {}
            for prop in (19, 276):
                if rng.random() < 0.6:
                    claims[prop] = tuple(rng.choice(places + targets) for _ in range(rng.randint(1, 3)))
            for prop in (17, 27):
                if rng.random() < 0.2:
                    claims[prop] = (rng.choice(targets + places),)
            if rng.random() < 0.15:
                claims[31] = (4167410,)
            entities.append(SlimEntity(number, claims))
        rng.shuffle(entities)
        if repeat:
            entities.insert(rng.randint(0, len(entities)), rng.choice(entities))
            for given_entities in (iter(entities), entities):
                with pytest.raises(DuplicateItemError):
                    attribute_all(given_entities, {}, rules)
            return

        streamed = attribute_all((entity for entity in entities), {}, rules)
        assert streamed == attribute_all(entities, {}, rules)
        assert list(streamed) == [entity.id for entity in entities]
        index = build_geo_index(entities, rules)
        graph = oracle_geo_graph(entities, rules)
        for entity in entities:
            # a fresh walk per place value, and the brute-force walk enumeration
            expected = expected_provenance(entity, index, rules)
            assert streamed[entity.id] == expected
            assert bool(expected) == oracle_related(entity, graph, rules)

    def test_provenance_paths_are_well_formed(self):
        rng = random.Random(99)
        entities = random_attribution_fixture(rng, 200)
        index = build_geo_index(entities, RULES)
        for paths in attribute_all(entities, index, RULES).values():
            for path in paths:
                assert path[0] in RULES.direct_props | RULES.place_props
                assert path[-1] == RULES.target
                # every geo hop in the path is a real index edge
                for a, b in zip(path[1:-1], path[2:]):
                    assert b in index.get(a, ()), f"{a}->{b} not in index"


class TestRuleSet:
    def test_defaults(self):
        assert RULES.target == 30
        assert RULES.direct_props == frozenset({17, 27, 495})
        assert RULES.place_props == frozenset({19, 276})
        assert RULES.geo_chain_props == (17,)
        assert RULES.max_depth == 5
        assert RULES.exclude_classes == frozenset({4167410})

    def test_required_properties_include_instance_of(self):
        assert 31 in RULES.required_properties

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError):
            RuleSet(direct_props=frozenset({17}), place_props=frozenset({17}))

    def test_max_depth_must_be_positive(self):
        # a rule set's depth is read from its rules file, which refuses a sign as well as 0
        with pytest.raises(RulesError, match="^line 1: negative max_depth -2$"):
            parse_rules("max_depth=-2\n")

    @pytest.mark.parametrize(
        "line, bad",
        [
            ("target=Q0", "Q0"),
            ("exclude_classes=Q5,Q05", "Q05"),
            ("direct=P17,P-27", "P-27"),
            ("place=P1.0", "P1.0"),
            ("geo_chain=P17,P+17", "P+17"),
        ],
        ids=["target", "exclude_classes", "direct", "place", "geo_chain"],
    )
    def test_ids_must_be_positive_ints(self, line, bad):
        # each id's number is a positive int in ASCII digits, with no sign, point or leading zero
        kind = "an item" if bad[0] == "Q" else "a property"
        with pytest.raises(RulesError, match=f"^line 2: not {kind} id: {re.escape(repr(bad))}$"):
            parse_rules(f"max_depth=3\n{line}\n")

    @pytest.mark.parametrize(
        "line, problem",
        [
            ("target=P17", "not an item id: 'P17'"),
            ("exclude_classes=Q5,P31", "not an item id: 'P31'"),
            ("direct=P17,Q30", "not a property id: 'Q30'"),
            ("place=Q60", "not a property id: 'Q60'"),
            ("geo_chain=P17,Q17", "not a property id: 'Q17'"),
        ],
        ids=["target", "exclude_classes", "direct", "place", "geo_chain"],
    )
    def test_id_kinds_are_checked(self, line, problem):
        # each key reads its ids as the kind it holds, so a wrong kind names its line
        text = f"# attribution rules\nmax_depth=3\n{line}\n"
        with pytest.raises(RulesError, match=f"^line 3: {re.escape(problem)}$"):
            parse_rules(text)

    def test_a_max_depth_below_one_names_its_line(self):
        with pytest.raises(RulesError, match="^line 3: max_depth must be >= 1, got 0$"):
            parse_rules("target=Q30\n\nmax_depth=0\n")

    @pytest.mark.parametrize(
        "key, value, repeated",
        [
            ("direct", "P17,P27,P17", "P17"),
            ("place", "P19, P19", "P19"),
            ("geo_chain", "P17,P17", "P17"),
            ("exclude_classes", "Q5,Q4167410,Q5", "Q5"),
        ],
        ids=["direct", "place", "geo_chain", "exclude_classes"],
    )
    def test_parse_rules_rejects_an_id_repeated_within_a_key(self, key, value, repeated):
        # a repeated geo_chain property would store every chain value twice
        with pytest.raises(RulesError, match=f"^line 2: repeated id {repeated} in '{key}'$"):
            parse_rules(f"target=Q30\n{key}={value}\n")

    def test_parse_rules_file(self):
        text = """
        # attribution rules
        target=Q183
        direct=P17,P495
        place=P19
        geo_chain=P17,P131
        max_depth=3
        exclude_classes=Q4167410,Q13406463
        """
        rules = parse_rules(text)
        assert rules.target == 183
        assert rules.direct_props == frozenset({17, 495})
        assert rules.place_props == frozenset({19})
        assert rules.geo_chain_props == (17, 131)
        assert rules.max_depth == 3
        assert 13406463 in rules.exclude_classes

    def test_a_byte_order_mark_loads_as_the_plain_file(self, tmp_path):
        text = "target=Q183\nplace=P19\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        assert load_rules(marked) == load_rules(plain) == parse_rules(text)

    def test_parse_rules_rejects_unknown_key(self):
        with pytest.raises(RulesError):
            parse_rules("colour=blue")
        # a line with no key at all
        with pytest.raises(RulesError, match="^line 2: expected key=value, got ' direct P17 '$"):
            parse_rules("target=Q30\n direct P17 \nmax_depth=3\n")

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("place=P19\nplace=P276", "line 2: repeated key 'place'"),
            ("target=Q30\n# a comment\n\ntarget=Q183", "line 4: repeated key 'target'"),
            ("max_depth=3\n max_depth = 4", "line 2: repeated key 'max_depth'"),
        ],
        ids=["place", "target", "max_depth"],
    )
    def test_parse_rules_rejects_a_repeated_key(self, text, problem):
        with pytest.raises(RulesError, match=f"^{problem}$"):
            parse_rules(text)

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("target=Q30\ndirect=P17,P19\nmax_depth=3\n", "line 2: direct and place property sets overlap: P19"),
            ("target=Q30\nplace=P27\n# no direct= here\n", "line 2: direct and place property sets overlap: P27"),
            ("place=P17,P19\ntarget=Q30\ndirect=P17,P19\n", "line 3: direct and place property sets overlap: P17, P19"),
        ],
        ids=["direct", "place", "both"],
    )
    def test_parse_rules_names_the_line_that_made_an_overlap(self, text, problem):
        # the later of the direct= and place= lines, whichever the file sets
        with pytest.raises(RulesError, match=f"^{problem}$"):
            parse_rules(text)

    @pytest.mark.parametrize("value", ["+3", "3_0", "\u0663", "three"], ids=["plus-sign", "underscore", "arabic-indic-digit", "word"])
    def test_parse_rules_rejects_a_max_depth_that_is_not_ascii_digits(self, value):
        with pytest.raises(RulesError, match=f"^line 2: {re.escape(f'non-numeric max_depth {value!r}')}$"):
            parse_rules(f"target=Q30\nmax_depth={value}")

    # every break str.splitlines takes but text-mode reading does not
    _ODD_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

    @pytest.mark.parametrize("odd", _ODD_BREAKS, ids=ascii)
    def test_an_odd_break_inside_a_value_is_part_of_its_line(self, odd):
        problem = f"line 2: non-numeric max_depth {f'3{odd}4'!r}"
        with pytest.raises(RulesError, match=f"^{re.escape(problem)}$"):
            parse_rules(f"target=Q30\nmax_depth=3{odd}4\n")

    @pytest.mark.parametrize("odd", _ODD_BREAKS, ids=ascii)
    def test_a_line_holding_an_odd_break_shifts_no_later_line_number(self, odd):
        with pytest.raises(RulesError, match="^line 4: unknown key 'colour'$"):
            parse_rules(f"target=Q30\n{odd}\n# {odd} comment\ncolour=blue\n")

    @pytest.mark.parametrize("end", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_lines_end_at_lf_cr_or_crlf(self, end):
        with pytest.raises(RulesError, match="^line 3: unknown key 'colour'$"):
            parse_rules(f"target=Q30{end}max_depth=3{end}colour=blue{end}")

    def test_parse_rules_rejects_bad_id(self):
        with pytest.raises(RulesError, match="^line 1: not an item id: 'Z9'$"):
            parse_rules("target=Z9")
        with pytest.raises(RulesError, match="^line 1: not an item id: 'P17'$"):
            parse_rules("target=P17")

    def test_empty_text_gives_defaults(self):
        assert parse_rules("") == RULES


class TestTsv:
    def test_round_trip(self):
        results = {
            1: ((27, 30),),
            2: (),
            3: ((19, 60, 30),),
        }
        sink = io.StringIO()
        write_attribution_tsv(results, sink)
        rows = read_attribution_tsv(io.StringIO(sink.getvalue()))
        assert list(rows) == [(1, ("Q1", True)), (2, ("Q2", False)), (3, ("Q3", True))]

    @given(
        st.lists(
            st.tuples(st.integers(1, 2**70), st.lists(st.integers(1, 2**70), min_size=1, max_size=5)),
            max_size=4,
        )
    )
    def test_every_rendered_provenance_reads_back(self, paths):
        provenance = tuple((prop, *items) for prop, items in paths)
        sink = io.StringIO()
        write_attribution_tsv({7: provenance}, sink)
        assert list(read_attribution_tsv(io.StringIO(sink.getvalue()))) == [(1, ("Q7", bool(provenance)))]

    def test_rendering_format(self):
        paths = ((27, 30), (19, 60, 30))
        assert render_provenance(paths) == "P27>Q30;P19>Q60>Q30"

    @pytest.mark.parametrize(
        "row, problem",
        [
            pytest.param(f"Q2\ttrue\t{p}", "", id=p)
            # a path is a P<n> then one or more Q<n>, as render_provenance writes it
            for p in ["P27>Q30x", "P27>Q03", "P27>", "P27>Q30;", ">Q30", "Q27>P30", "P27", "P27>P30", "Q27>Q30"]
        ]
        # only true and false are flags
        + [pytest.param("Q2\tmaybe\t", "", id="flag-maybe")]
        # the flag must mirror whether provenance is empty
        + [
            pytest.param("Q2\ttrue\t", "", id="true-without-provenance"),
            pytest.param("Q2\tfalse\tP27>Q30", "", id="false-with-provenance"),
        ]
        # every line holds three fields; which items it lists is the join's check
        # (test_metrics.TestAttributionJoin)
        + [pytest.param("Q2\ttrue", "expected 3 fields, got 2$", id="two-fields")],
    )
    def test_bad_provenance_token_names_its_line(self, row, problem):
        text = f"Q1\tfalse\t\n{row}\n"
        with pytest.raises(ValueError, match=f"^line 2: {problem}"):
            list(read_attribution_tsv(io.StringIO(text)))
