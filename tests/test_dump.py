import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikicoverage.attribution import parse_rules
from wikicoverage.dump import ParseIssue, parse_dump_stream
from wikicoverage.entities import SlimEntity
from wikicoverage.errors import DumpTruncatedError

from helpers import dump_text, entity_json, statement

KEEP = frozenset({17, 19, 27, 31, 276, 495})


def parse(text, keep=KEEP, wikis=None, errors=None, **kwargs):
    """The items of ``text``, read as UTF-8 lines from a binary handle, as the slim stage reads a dump."""
    errors = [] if errors is None else errors
    return list(parse_dump_stream(io.BytesIO(text.encode("utf-8")), keep, wikis, errors=errors, **kwargs))


class TestBasicParsing:
    def test_single_entity_with_claim_and_sitelink(self):
        text = dump_text(
            [entity_json("Q22686", {"P27": [30]}, {"enwiki": "Donald Trump"})]
        )
        (entity,) = parse(text)
        assert entity == SlimEntity(
            22686, {27: (30,)}, {"enwiki": "Donald Trump"}
        )

    def test_empty_dump_yields_nothing(self):
        errors = []
        assert parse("[\n]\n", errors=errors) == []
        assert errors == []

    def test_malformed_middle_line_is_tallied_and_skipped(self):
        text = dump_text(
            [
                entity_json("Q1", {"P17": [30]}),
                '{"type": "item", "id": "Q2", broken',
                entity_json("Q3", {"P17": [183]}),
            ]
        )
        errors = []
        entities = parse(text, errors=errors)
        assert [e.id for e in entities] == [1, 3]
        assert len(errors) == 1
        assert errors[0].line_number == 3
        assert "JSON" in errors[0].reason

    def test_json_that_the_decoder_refuses_is_tallied_and_skipped(self):
        # json.loads raises ValueError past int()'s digit limit and RecursionError
        # when nested too deep, not JSONDecodeError
        text = dump_text(
            [
                '{"type": "item", "id": "Q1", "extra": ' + "1" * 5000 + "}",
                "[" * 100_000 + "]" * 100_000,
                entity_json("Q3", {"P17": [30]}),
            ]
        )
        errors = []
        entities = parse(text, errors=errors)
        assert [e.id for e in entities] == [3]
        assert [e.line_number for e in errors] == [2, 3]
        assert all(e.reason.startswith("invalid JSON: ") for e in errors)
        assert "1" * 100 not in errors[0].reason

    def test_property_entities_are_dropped_silently(self):
        text = dump_text(
            [
                entity_json("P17", entity_type="property"),
                entity_json("Q5", {"P17": [30]}),
            ]
        )
        errors = []
        entities = parse(text, errors=errors)
        assert [e.id for e in entities] == [5]
        assert errors == []

    def test_keep_props_must_be_non_empty(self):
        # the parse keeps a rule set's required properties, never none: every
        # rule set needs P31 for its excluded classes, whatever the rules file empties
        rules = parse_rules("direct=\nplace=\ngeo_chain=\nexclude_classes=\n")
        assert rules.required_properties == frozenset({31})
        text = dump_text([entity_json("Q1", {"P31": [5], "P17": [30]})])
        assert parse(text, keep=rules.required_properties) == [SlimEntity(1, {31: (5,)})]

    def test_a_parse_shares_no_claim_value(self):
        # a memo of claim values would grow with the distinct values of the dump;
        # the values are past the small ints that CPython itself shares
        text = dump_text([entity_json(f"Q{n}", {"P17": [3000], "P19": [6000]}) for n in (1, 2)])
        first, second = parse(text)
        assert first == SlimEntity(1, {17: (3000,), 19: (6000,)})
        assert first.claims[17][0] is not second.claims[17][0]
        with pytest.raises(TypeError):
            parse(text, item_ids={})

    @pytest.mark.parametrize(
        "line, reason",
        [
            ('["Q1"]', "entity line is not a JSON object"),
            ('"Q1"', "entity line is not a JSON object"),
            ('{"id": "Q1", "claims": {}}', "entity has no type"),
        ],
        ids=["array", "string", "no-type"],
    )
    def test_a_line_that_is_no_typed_object_is_tallied(self, line, reason):
        text = dump_text([line, entity_json("Q2")])
        errors = []
        assert [e.id for e in parse(text, errors=errors)] == [2]
        assert [(i.line_number, i.reason) for i in errors] == [(2, reason)]

    def test_a_malformed_line_after_the_closing_bracket_is_tallied_at_the_end(self):
        text = dump_text([entity_json("Q1")]) + "{broken\n"
        errors = []
        assert [e.id for e in parse(text, errors=errors)] == [1]
        assert [(i.line_number, i.reason[:14]) for i in errors] == [(4, "invalid JSON: ")]

    @pytest.mark.parametrize("bad_id", ["Q\u0663", "Q\uff15", "Q05", "Q", "P17", 17, None])
    def test_bad_item_id_is_tallied(self, bad_id):
        obj = {"type": "item", "id": bad_id}
        text = dump_text([obj, entity_json("Q2")])
        errors = []
        assert [e.id for e in parse(text, errors=errors)] == [2]
        assert [(i.line_number, i.reason) for i in errors] == [(2, f"bad entity id: {bad_id!r}")]

    def test_file_order_is_preserved(self):
        text = dump_text([entity_json(f"Q{n}") for n in (9, 2, 7, 4)])
        assert [e.id for e in parse(text)] == [9, 2, 7, 4]


class TestFiltering:
    def test_non_kept_claims_are_dropped(self):
        text = dump_text([entity_json("Q1", {"P17": [30], "P131": [99]})])
        (entity,) = parse(text)
        assert set(entity.claims) == {17}

    def test_non_kept_sitelinks_are_dropped(self):
        text = dump_text(
            [entity_json("Q1", sitelinks={"enwiki": "A", "dewiki": "B", "enwikiquote": "C"})]
        )
        (entity,) = parse(text, wikis={"enwiki"})
        assert entity.sitelinks == {"enwiki": "A"}

    def test_none_keeps_all_sitelinks(self):
        text = dump_text([entity_json("Q1", sitelinks={"enwiki": "A", "dewiki": "B"})])
        (entity,) = parse(text)
        assert entity.sitelinks == {"enwiki": "A", "dewiki": "B"}

    @pytest.mark.parametrize(
        "wiki",
        ["a=b", "x|y", "a\tb", "a\rb", "a\nb", "a\ud800b"],
        ids=["equals", "pipe", "tab", "cr", "lf", "lone-surrogate"],
    )
    def test_wiki_code_is_kept_unless_it_holds_a_lone_surrogate(self, wiki):
        # json.dumps writes a lone surrogate as its "\ud800" escape; UTF-8
        # cannot encode what that decodes to, and JSON spells every other code
        text = dump_text(
            [
                json.dumps(entity_json("Q1", sitelinks={"enwiki": "A", wiki: "T"})),
                entity_json("Q2", sitelinks={"enwiki": "B"}),
            ]
        )
        errors = []
        records = list(parse(text, errors=errors))
        if "\ud800" in wiki:
            assert [entity.id for entity in records] == [2]
            assert errors == [ParseIssue(2, f"sitelink wiki code {wiki!r} holds a lone surrogate")]
        else:
            assert [entity.sitelinks for entity in records] == [dict(sorted({"enwiki": "A", wiki: "T"}.items())), {"enwiki": "B"}]
            assert [list(entity.sitelinks) for entity in records] == [sorted(["enwiki", wiki]), ["enwiki"]]
            assert errors == []
        # a keep-set's codes are the caller's; the others are dropped
        kept = parse(text, wikis={"enwiki"})
        assert [entity.sitelinks for entity in kept] == [{"enwiki": "A"}, {"enwiki": "B"}]

    @pytest.mark.parametrize("wikis", [None, {"enwiki", "dewiki"}], ids=["every-wiki", "kept"])
    def test_a_lone_surrogate_in_a_kept_title_is_tallied_and_skipped(self, wikis):
        # a "\ud800" escape decodes to a lone surrogate, which a UTF-8 store cannot hold
        bad = json.dumps(entity_json("Q1", sitelinks={"enwiki": "Bad \ud800 title", "dewiki": "A"}))
        text = dump_text([bad, entity_json("Q2", sitelinks={"enwiki": "B"})])
        errors = []
        assert [entity.id for entity in parse(text, wikis=wikis, errors=errors)] == [2]
        assert errors == [ParseIssue(2, "sitelink title for 'enwiki' holds a lone surrogate")]
        # a sitelink that is not kept is dropped, whatever it holds
        kept = parse(text, wikis={"dewiki"})
        assert [entity.sitelinks for entity in kept] == [{"dewiki": "A"}, {}]

    def test_deprecated_rank_claims_are_dropped(self):
        text = dump_text(
            [
                entity_json(
                    "Q1",
                    {"P17": [statement(30, rank="deprecated"), statement(183)]},
                )
            ]
        )
        (entity,) = parse(text)
        assert entity.claims[17] == (183,)

    def test_non_item_values_are_dropped(self):
        # a claim value that is not an item id (a string, a property) is dropped
        text = dump_text([entity_json("Q1", {"P17": ["just a string", 30, statement(5, kind="property")]})])
        (entity,) = parse(text)
        assert entity.claims[17] == (30,)

    def test_an_item_value_without_a_numeric_id_is_read_from_its_id(self):
        # a value with an "id" and no "numeric-id" is kept when the id is an item's
        def value(fields):
            return {"mainsnak": {"datavalue": {"value": {"entity-type": "item", **fields}}}, "rank": "normal"}

        claims = {"P17": [value({"id": "Q30"}), value({"id": "P30"}), value({"id": "Q030"}), value({}), 183]}
        (entity,) = parse(dump_text([entity_json("Q1", claims)]))
        assert entity.claims == {17: (30, 183)}

    def test_novalue_snak_becomes_opaque(self):
        # a no-value snak carries no item id: it is dropped, and so is the claim
        # group it leaves empty; a property value (P5) is dropped the same way
        stmt = {"mainsnak": {"snaktype": "novalue"}, "rank": "normal"}
        text = dump_text([entity_json("Q1", {"P17": [stmt], "P27": [statement(5, kind="property")], "P31": [5]})])
        (entity,) = parse(text)
        assert entity.claims == {31: (5,)}

    def test_empty_title_sitelink_is_skipped(self):
        # an empty wiki code is skipped the same way, with every wiki kept
        for wiki, title in (("enwiki", ""), ("", "x")):
            obj = {"type": "item", "id": "Q1", "sitelinks": {wiki: {"title": title}}}
            (entity,) = parse(dump_text([obj]))
            assert entity.sitelinks == {}


class TestTruncation:
    def test_missing_terminator_raises(self):
        text = "[\n" + json.dumps(entity_json("Q1")) + "\n"
        with pytest.raises(DumpTruncatedError):
            parse(text)

    def test_truncated_final_line_raises(self):
        text = "[\n" + json.dumps(entity_json("Q1")) + ",\n" + '{"type": "item", "id": "Q2'
        with pytest.raises(DumpTruncatedError):
            parse(text)

    def test_truncated_final_line_not_double_counted(self):
        text = "[\n" + '{"type": "item"'
        errors = []
        with pytest.raises(DumpTruncatedError):
            parse(text, errors=errors)
        assert errors == []

    def test_fragment_mode_allows_missing_brackets(self):
        fragment = json.dumps(entity_json("Q1", {"P17": [30]})) + ",\n"
        entities = parse(fragment, require_terminator=False)
        assert [e.id for e in entities] == [1]


class TestChunkBoundaryInvariance:
    def fixture_text(self):
        objects = [
            entity_json(f"Q{n}", {"P17": [30 + n % 3]}, {"enwiki": f"Article {n}"})
            for n in range(1, 11)
        ]
        objects.insert(4, "this line is broken {")
        return dump_text(objects)

    def test_every_line_boundary_split_matches_one_pass(self):
        text = self.fixture_text()
        one_pass = parse(text)
        lines = text.splitlines(keepends=True)
        for cut in range(1, len(lines)):
            head = "".join(lines[:cut])
            tail = "".join(lines[cut:])
            pieces = parse(head, require_terminator=False) + parse(
                tail, require_terminator=False
            )
            assert pieces == one_pass, f"split at line {cut} diverged"

    def test_three_way_split_matches_one_pass(self):
        text = self.fixture_text()
        lines = text.splitlines(keepends=True)
        rng = random.Random(7)
        for _ in range(10):
            a, b = sorted(rng.sample(range(1, len(lines)), 2))
            pieces = []
            for chunk in ("".join(lines[:a]), "".join(lines[a:b]), "".join(lines[b:])):
                pieces.extend(parse(chunk, require_terminator=False))
            assert pieces == parse(text)


class TestErrorIsolation:
    @given(
        valid=st.integers(min_value=0, max_value=12),
        malformed=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60)
    def test_counts_are_exact(self, valid, malformed, seed):
        rng = random.Random(seed)
        objects: list = [entity_json(f"Q{n + 1}", {"P17": [30]}) for n in range(valid)]
        for _ in range(malformed):
            objects.insert(rng.randint(0, len(objects)), '{"oops": ')
        errors = []
        entities = parse(dump_text(objects), errors=errors)
        assert len(entities) == valid
        assert len(errors) == malformed


class TestFilteringSoundness:
    @given(
        keep_mask=st.lists(st.booleans(), min_size=6, max_size=6),
        wiki_mask=st.lists(st.booleans(), min_size=3, max_size=3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40)
    def test_output_never_leaks_unkept_keys(self, keep_mask, wiki_mask, seed):
        all_props = [17, 19, 27, 31, 276, 495]
        all_wikis = ["enwiki", "dewiki", "frwiki"]
        keep = frozenset(p for p, m in zip(all_props, keep_mask) if m) or frozenset({17})
        wikis = {w for w, m in zip(all_wikis, wiki_mask) if m}
        rng = random.Random(seed)
        objects = []
        expected = {}
        for n in range(1, 8):
            claims = {p: rng.randint(1, 99) for p in rng.sample(all_props, rng.randint(0, 6))}
            sitelinks = {
                w: f"T{n}" for w in rng.sample(all_wikis, rng.randint(0, 3))
            }
            objects.append(
                entity_json(f"Q{n}", {f"P{p}": [v] for p, v in claims.items()}, sitelinks)
            )
            expected[n] = (
                {p: (v,) for p, v in claims.items() if p in keep},
                {w: t for w, t in sitelinks.items() if w in wikis},
            )
        entities = parse(dump_text(objects), keep=keep, wikis=wikis)
        # every kept claim and sitelink comes through, and nothing else does
        assert {e.id: (e.claims, e.sitelinks) for e in entities} == expected


class TestByteInput:
    def test_bytes_lines_are_decoded(self):
        text = dump_text([entity_json("Q1", sitelinks={"enwiki": "Café"})])
        stream = io.BytesIO(text.encode("utf-8"))
        (entity,) = list(parse_dump_stream(stream, KEEP, None, errors=[]))
        assert entity.sitelinks["enwiki"] == "Café"

    def test_invalid_utf8_line_is_tallied(self):
        good = json.dumps(entity_json("Q1")).encode("utf-8")
        lines = [b"[\n", b"\xff\xfe broken,\n", good + b"\n", b"]\n"]
        errors = []
        entities = list(parse_dump_stream(iter(lines), KEEP, None, errors=errors))
        assert [e.id for e in entities] == [1]
        assert len(errors) == 1 and errors[0].reason == "invalid UTF-8"


def test_parse_issue_is_frozen_record():
    issue = ParseIssue(3, "invalid JSON")
    assert issue.line_number == 3
    with pytest.raises(AttributeError):
        issue.line_number = 4
