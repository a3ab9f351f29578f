import dataclasses
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wikicoverage.entities import ITEM, PROPERTY, EntityId, IdMemo, SlimEntity, item_number


class TestEntityId:
    def test_parse_an_item_token(self):
        eid = EntityId.parse("Q22686")
        assert eid.kind == ITEM
        assert eid.number == 22686

    def test_parse_property(self):
        eid = EntityId.parse("P17")
        assert eid.kind == PROPERTY
        assert eid.number == 17

    @pytest.mark.parametrize("bad", ["", "Q", "P0", "Q-1", "X5", "Q07", "Q5x", "q5", None, 42])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            EntityId.parse(bad)

    def test_parse_item(self):
        assert item_number("Q60") == 60
        assert item_number("Q1234567890") == 1234567890
        assert item_number(f"Q{2**64 + 1}") == 2**64 + 1  # no fixed width

    @pytest.mark.parametrize(
        "bad", ["", "Q", "Q0", "Q07", "Q-1", "Q+1", "Q 1", "Q1 ", "Q\u0663", "Q\uff15", "P17", "q5", None, 42]
    )
    def test_parse_item_rejects_anything_but_an_item(self, bad):
        with pytest.raises(ValueError):
            item_number(bad)

    @given(st.text(alphabet="QP0123456789\u0663x", max_size=6))
    def test_parse_item_agrees_with_parse(self, text):
        try:
            expected = EntityId.parse(text)
        except ValueError:
            expected = None
        if expected is None or expected.kind != ITEM:
            with pytest.raises(ValueError):
                item_number(text)
        else:
            assert item_number(text) == expected.number

    def test_number_must_be_positive(self):
        with pytest.raises(ValueError):
            EntityId.item(0)

    @given(st.sampled_from("QP"), st.integers(min_value=1, max_value=10**9))
    def test_render_parse_round_trip(self, letter, number):
        eid = EntityId.item(number) if letter == "Q" else EntityId.prop(number)
        assert EntityId.parse(str(eid)) == eid

    def test_sort_key_orders_items_before_properties(self):
        assert EntityId.item(5).sort_key < EntityId.prop(5).sort_key
        assert EntityId.item(2).sort_key < EntityId.item(10).sort_key

    def test_hashable_and_equal(self):
        assert {EntityId.item(30): 1}[EntityId.parse("Q30")] == 1


class TestIdMemo:
    def test_each_token_is_parsed_once_and_shared(self):
        memo = IdMemo()
        first = memo["Q3000"]  # past the small ints that CPython itself shares
        assert first == 3000
        assert memo["Q3000"] is first
        assert memo["Q17"] == 17

    def test_kind_is_checked_on_first_entry(self):
        memo = IdMemo()
        with pytest.raises(ValueError, match="^not an item id: 'P17'$"):
            memo["P17"]
        assert "P17" not in memo

    @pytest.mark.parametrize("bad", ["", "*", "Q0", "xyz"])
    def test_bad_token_raises_and_is_not_kept(self, bad):
        memo = IdMemo()
        with pytest.raises(ValueError):
            memo[bad]
        assert bad not in memo


class TestSlimEntity:
    def test_basic_construction(self):
        entity = SlimEntity(22686, {EntityId.prop(27): (30,)}, {"enwiki": "Donald Trump"})
        assert entity.claim_values(EntityId.prop(27)) == (30,)
        assert entity.claim_values(EntityId.prop(17)) == ()

    def test_rejects_property_id(self):
        with pytest.raises(ValueError):
            SlimEntity(EntityId.prop(17))

    @pytest.mark.parametrize("bad", [EntityId.item(1), 0, -1, True, "Q1", 1.0])
    def test_rejects_an_id_that_is_not_an_item_number(self, bad):
        with pytest.raises(ValueError, match=f"^entity id must be an item number, got {re.escape(repr(bad))}$"):
            SlimEntity(bad)

    def test_rejects_empty_claim_group(self):
        with pytest.raises(ValueError):
            SlimEntity(1, {EntityId.prop(17): ()})

    def test_rejects_a_claim_value_that_is_not_an_item(self):
        # every reader and the store writer take a claim value as an item number
        message = "claim value must be an item number, got EntityId(kind='property', number=5) under P17"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SlimEntity(1, {EntityId.prop(17): (30, EntityId.prop(5))})
        with pytest.raises(ValueError, match="^claim value must be an item number, got 0 under P17$"):
            SlimEntity(1, {EntityId.prop(17): (30, 0)})

    def test_rejects_empty_title(self):
        with pytest.raises(ValueError):
            SlimEntity(1, {}, {"enwiki": ""})

    def test_trusted_construction_equals_the_checked_one(self):
        claims = {EntityId.prop(27): (30,)}
        trusted = SlimEntity.trusted(5, claims, {"enwiki": "X"})
        assert trusted == SlimEntity(5, claims, {"enwiki": "X"})
        with pytest.raises(dataclasses.FrozenInstanceError):
            trusted.id = 6
