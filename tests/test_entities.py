import io
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wikicoverage.dump import ParseIssue, parse_dump_stream
from wikicoverage.entities import SlimEntity, item_number, property_number
from wikicoverage.errors import SlimStoreCorruptionError
from wikicoverage.slimstore import read_slim_store

from helpers import dump_text, entity_json, statement

# the accepted tokens: a letter, then ASCII digits with no sign and no leading zero
TOKEN = re.compile(r"[QP][1-9][0-9]*")


class TestEntityId:
    """Entity id tokens (``Q42``, ``P17``) and the int numbers they read as."""

    def test_parse_an_item_token(self):
        assert item_number("Q22686") == 22686

    def test_parse_property(self):
        assert property_number("P17") == 17
        assert property_number(f"P{2**64 + 1}") == 2**64 + 1  # no fixed width

    @pytest.mark.parametrize("bad", ["", "Q", "P0", "Q-1", "X5", "Q07", "Q5x", "q5", None, 42])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            item_number(bad)
        with pytest.raises(ValueError):
            property_number(bad)

    def test_parse_item(self):
        assert item_number("Q60") == 60
        assert item_number("Q1234567890") == 1234567890
        assert item_number(f"Q{2**64 + 1}") == 2**64 + 1  # no fixed width

    @pytest.mark.parametrize(
        "bad", ["", "Q", "Q0", "Q07", "Q-1", "Q+1", "Q 1", "Q1 ", "Q\u0663", "Q\uff15", "P17", "q5", None, 42]
    )
    def test_parse_item_rejects_anything_but_an_item(self, bad):
        with pytest.raises(ValueError, match=f"^not an item id: {re.escape(repr(bad))}$"):
            item_number(bad)

    @pytest.mark.parametrize(
        "bad", ["", "P", "P0", "P07", "P-1", "P+1", "P 1", "P1 ", "P\u0663", "P\uff15", "Q17", "p5", None, 42]
    )
    def test_parse_property_rejects_anything_but_a_property(self, bad):
        with pytest.raises(ValueError, match=f"^not a property id: {re.escape(repr(bad))}$"):
            property_number(bad)

    @given(st.text(alphabet="QP0123456789\u0663x", max_size=6))
    def test_parse_item_agrees_with_parse(self, text):
        # each reader accepts exactly the tokens of its own letter
        for letter, number in (("Q", item_number), ("P", property_number)):
            if TOKEN.fullmatch(text) and text[0] == letter:
                assert number(text) == int(text[1:])
            else:
                with pytest.raises(ValueError):
                    number(text)

    def test_number_must_be_positive(self):
        with pytest.raises(ValueError):
            item_number("Q0")
        with pytest.raises(ValueError):
            property_number("P0")

    @given(st.sampled_from("QP"), st.integers(min_value=1, max_value=10**30))
    def test_render_parse_round_trip(self, letter, number):
        read = item_number if letter == "Q" else property_number
        assert read(f"{letter}%d" % number) == number

    @given(st.from_regex(r"P[0-9\u0663]{0,25}", fullmatch=True))
    def test_an_accepted_property_token_prints_back_as_itself(self, token):
        try:
            number = property_number(token)
        except ValueError:
            return
        assert "P%d" % number == token

    def test_hashable_and_equal(self):
        # an id is its int, which hashes alike under every string hash seed
        assert {30: 1}[item_number("Q30")] == 1
        assert hash(property_number("P17")) == hash(17) == 17


def parsed(*objects):
    """The records and malformed lines of a dump holding ``objects``, keeping P17."""
    errors = []
    text = dump_text(list(objects))
    records = list(parse_dump_stream(io.BytesIO(text.encode("utf-8")), frozenset({17}), None, errors=errors))
    return records, errors


def assert_store_refuses(record, problem, props="P17"):
    """Both reads of a store whose one record line is ``record`` refuse it
    with ``problem``: the checked whole-record parse, and the no-claim read."""
    text = f"WCM4\ncount=1 props={props}\n{record}\n"
    for required in ((int(props[1:]),), ()):
        message = f"^store line 3: {re.escape(problem)}$"
        with pytest.raises(SlimStoreCorruptionError, match=message):
            list(read_slim_store(io.StringIO(text), required))


class TestSlimEntity:
    """The constructor checks nothing.  A record's fields are checked where
    they enter, by the dump parser and the store reader, so each test here
    gives those readers a field that no record may hold."""

    def test_basic_construction(self):
        entity = SlimEntity(22686, {27: (30,)}, {"enwiki": "Donald Trump"})
        assert entity.id == 22686
        assert entity.claims == {27: (30,)}
        assert entity.sitelinks == {"enwiki": "Donald Trump"}

    def test_rejects_property_id(self):
        # an id token, of either kind, is no item number
        records, errors = parsed(entity_json("P17"), entity_json("Q2"))
        assert (records, errors) == ([SlimEntity(2)], [ParseIssue(2, "bad entity id: 'P17'")])
        assert_store_refuses('["P17",[],[]]', 'not an item number: "P17"')

    @pytest.mark.parametrize("bad", [("item", 1), 0, -1, True, "Q1", 1.0])
    def test_rejects_an_id_that_is_not_an_item_number(self, bad):
        # a store's id is a JSON integer: a value spelled any other way, as
        # the store spells it (a quoted "Q1" among them), is corruption
        spelled = json.dumps(bad, separators=(",", ":"))
        assert_store_refuses(f"[{spelled},[],[]]", f"not an item number: {spelled}")
        if type(bad) is not str:
            # a dump's id is a JSON string; a number, a bool or a list is a malformed line
            value = json.loads(json.dumps(bad))  # a tuple comes back as a list
            assert parsed({"type": "item", "id": bad}) == ([], [ParseIssue(2, f"bad entity id: {value!r}")])

    def test_rejects_empty_claim_group(self):
        # a claim group whose every statement is dropped is dropped with them
        deprecated = statement(30, rank="deprecated")
        assert parsed(entity_json("Q1", {"P17": [deprecated]})) == ([SlimEntity(1)], [])
        assert_store_refuses("[1,[17,[]],[]]", "claim values of 17 are not a non-empty array")

    def test_rejects_a_claim_value_that_is_not_an_item(self):
        # every reader takes a claim value as an item number
        assert parsed(entity_json("Q1", {"P17": [30, statement(5, kind="property")]})) == (
            [SlimEntity(1, {17: (30,)})],
            [],
        )
        assert_store_refuses('[1,[17,[30,"P5"]],[]]', 'not an item number: "P5"')
        assert_store_refuses("[1,[17,[30,0]],[]]", "not an item number: 0")

    @pytest.mark.parametrize("bad", ["P17", 0, True])
    def test_rejects_a_claim_key_that_is_not_a_property_number(self, bad):
        # a store's claim key is one of the properties its header lists, here P27 alone
        spelled = json.dumps(bad)
        assert_store_refuses(f"[1,[{spelled},[30]],[]]", f"claim key {spelled} is not in the header's props=", "P27")

    def test_rejects_empty_title(self):
        # the parser drops a sitelink with an empty title or wiki code
        sitelinks = {"enwiki": "", "": "X", "dewiki": "B"}
        assert parsed(entity_json("Q1", sitelinks=sitelinks)) == ([SlimEntity(1, {}, {"dewiki": "B"})], [])
        assert_store_refuses('[1,[],["enwiki",""]]', 'sitelink title for \'enwiki\' is not a non-empty string: ""')
        # nor may the other side of a sitelink be empty
        assert_store_refuses('[1,[],["","X"]]', 'sitelink wiki code "" is not a non-empty string')
