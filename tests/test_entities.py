import dataclasses
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wikicoverage.entities import SlimEntity, item_number, property_number

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


class TestSlimEntity:
    def test_basic_construction(self):
        entity = SlimEntity(22686, {27: (30,)}, {"enwiki": "Donald Trump"})
        assert entity.id == 22686
        assert entity.claims == {27: (30,)}
        assert entity.sitelinks == {"enwiki": "Donald Trump"}

    def test_rejects_property_id(self):
        # an id token, of either kind, is no item number
        with pytest.raises(ValueError):
            SlimEntity("P17")

    @pytest.mark.parametrize("bad", [("item", 1), 0, -1, True, "Q1", 1.0])
    def test_rejects_an_id_that_is_not_an_item_number(self, bad):
        with pytest.raises(ValueError, match=f"^entity id must be an item number, got {re.escape(repr(bad))}$"):
            SlimEntity(bad)

    def test_rejects_empty_claim_group(self):
        with pytest.raises(ValueError):
            SlimEntity(1, {17: ()})

    def test_rejects_a_claim_value_that_is_not_an_item(self):
        # every reader and the store writer take a claim value as an item number
        with pytest.raises(ValueError, match="^claim value must be an item number, got 'P5' under P17$"):
            SlimEntity(1, {17: (30, "P5")})
        with pytest.raises(ValueError, match="^claim value must be an item number, got 0 under P17$"):
            SlimEntity(1, {17: (30, 0)})

    @pytest.mark.parametrize("bad", ["P17", 0, True])
    def test_rejects_a_claim_key_that_is_not_a_property_number(self, bad):
        message = f"claim key must be a property number, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SlimEntity(1, {bad: (30,)})

    def test_rejects_empty_title(self):
        with pytest.raises(ValueError):
            SlimEntity(1, {}, {"enwiki": ""})
        # nor may the other side of a sitelink be empty
        with pytest.raises(ValueError, match="^sitelink wiki code is empty$"):
            SlimEntity(1, {}, {"": "X"})

    def test_trusted_construction_equals_the_checked_one(self):
        claims = {27: (30,)}
        trusted = SlimEntity.trusted(5, claims, {"enwiki": "X"})
        assert trusted == SlimEntity(5, claims, {"enwiki": "X"})
        with pytest.raises(dataclasses.FrozenInstanceError):
            trusted.id = 6
