import io
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikicoverage.entities import SlimEntity
from wikicoverage.errors import (
    DuplicateItemError,
    SlimStoreCorruptionError,
    SlimStoreMismatchError,
    SlimStoreVersionError,
    SlimStoreWriteError,
)
from wikicoverage.metrics import build_article_sets
from wikicoverage.slimstore import (
    read_slim_store,
    read_store_header,
    read_store_sitelinks,
    write_slim_store,
)

from helpers import STORE_PROPS, P, Q, random_entities


def write(entities, sink, keep_props=STORE_PROPS, **kwargs):
    return write_slim_store(entities, sink, keep_props=keep_props, **kwargs)


def round_trip(entities, **kwargs):
    sink = io.StringIO()
    count = write(entities, sink, **kwargs)
    return count, list(read_slim_store(io.StringIO(sink.getvalue())))


def outcome(reader, text):
    """The ids and sitelinks a reader yields from ``text``, or the error it raises."""
    try:
        return [(record.id, record.sitelinks) for record in reader(io.StringIO(text))]
    except SlimStoreCorruptionError as exc:
        return f"error: {exc}"


# records that break a token, each with the line it breaks; a first entry
# "props=..." stands in for the header's property list
BAD_TOKEN_CASES = [
    (["Q1\tQ5:Q30\t"], 3),
    (["P17\tP17:Q30\t"], 3),
    (["Q01\tP17:Q30\t"], 3),
    (["Q\u0663\tP17:Q30\t"], 3),
    (["Q\tP17:Q30\t"], 3),
    (["Q1\tP17:Q01\t"], 3),
    (["Q1\tP17:Q\u0663\t"], 3),
    (["Q1\tP17:Q\t"], 3),
    (["Q1\tP17:\t"], 3),
    (["Q1\tP17:Q30,\t"], 3),
    (["Q1\t\t=Title"], 3),
    (["Q1\t\tenwiki="], 3),
    (["Q1\tP17:Q30\tenwiki=A", "Q2\tP17:Q30,Q0\tenwiki=B"], 4),
    (["Q1\tP17:Q30\t", "Q2\tP17:Q30\t", "Q3\tP31:Q5;Q5:Q30\t"], 5),
    (["Q1\tP17:Q30,P5\t"], 3),
    (["props=P17,Q5x"], 2),
    (["props=P17,Q5"], 2),
]


def store_text(records):
    props = "props=P17,P31"
    if records[0].startswith("props="):
        props, records = records[0], records[1:]
    return f"WCM2\ncount={len(records)} {props} wikis=*\n" + "".join(r + "\n" for r in records)


class TestWrite:
    def test_empty_stream_writes_count_zero(self):
        sink = io.StringIO()
        assert write([], sink) == 0
        assert "count=0" in sink.getvalue().splitlines()[1]

    def test_keep_props_is_required(self):
        with pytest.raises(TypeError):
            write_slim_store([], io.StringIO())

    def test_records_are_sorted_by_id_number(self):
        entities = [SlimEntity(Q(9684)), SlimEntity(Q(30))]
        count, back = round_trip(entities)
        assert count == 2
        assert [e.id for e in back] == [Q(30), Q(9684)]

    def test_header_carries_keep_sets(self):
        sink = io.StringIO()
        write_slim_store(
            [SlimEntity(Q(1), {P(17): (Q(30),)})],
            sink,
            keep_props=[P(27), P(17)],
            keep_wikis=["enwiki"],
        )
        header = read_store_header(io.StringIO(sink.getvalue()))
        assert header.count == 1
        assert header.props == (P(17), P(27))
        assert header.wikis == ("enwiki",)

    def test_header_wikis_star_means_unrestricted(self):
        sink = io.StringIO()
        write([], sink)
        assert read_store_header(io.StringIO(sink.getvalue())).wikis is None

    @pytest.mark.parametrize(
        "entity, keep_wikis, problem",
        [
            (SlimEntity(Q(1), {P(99): (Q(5),)}, {"dewiki": "X"}), ["enwiki"], "item Q1: claim key P99 is not in keep_props"),
            (SlimEntity(Q(2), {P(17): (Q(5),)}, {"dewiki": "X"}), ["enwiki"], "item Q2: sitelink 'dewiki' is not in keep_wikis"),
            (SlimEntity(Q(3), {}, {"enwiki": "X"}), [], "item Q3: sitelink 'enwiki' is not in keep_wikis"),
        ],
        ids=["undeclared-claim-key", "undeclared-sitelink", "empty-keep-wikis"],
    )
    def test_record_outside_the_header_is_refused_before_writing(self, entity, keep_wikis, problem):
        sink = io.StringIO()
        records = [SlimEntity(Q(9), {P(17): (Q(30),)}, {"enwiki": "Y"}), entity]
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            write_slim_store(records, sink, keep_props=[P(17)], keep_wikis=keep_wikis)
        assert sink.getvalue() == ""

    def test_unrestricted_wikis_write_any_sitelink(self):
        entity = SlimEntity(Q(1), {P(17): (Q(5),)}, {"dewiki": "X", "xxwiki": "Y"})
        assert round_trip([entity], keep_props=[P(17)]) == (1, [entity])

    def test_partial_write_failure_reports_progress(self):
        class FlakySink:
            def __init__(self):
                self.calls = 0

            def write(self, text):
                self.calls += 1
                if self.calls > 4:  # magic, header, two records
                    raise OSError("disk full")

        entities = [SlimEntity(Q(n)) for n in range(1, 6)]
        with pytest.raises(SlimStoreWriteError) as err:
            write(entities, FlakySink())
        assert err.value.records_written == 2

    def test_repeated_item_is_refused_before_writing(self):
        sink = io.StringIO()
        records = [SlimEntity(Q(5), {P(17): (Q(30),)}), SlimEntity(Q(9)), SlimEntity(Q(5), {}, {"enwiki": "X"})]
        with pytest.raises(DuplicateItemError, match="^item Q5 appears twice in the input stream$"):
            write(records, sink)
        assert sink.getvalue() == ""


class TestRead:
    def test_single_entity_round_trip(self):
        entity = SlimEntity(
            Q(22686), {P(27): (Q(30),)}, {"enwiki": "Donald Trump"}
        )
        _, back = round_trip([entity])
        assert back == [entity]

    def test_count_mismatch_is_corruption(self):
        sink = io.StringIO()
        write([SlimEntity(Q(n)) for n in range(1, 5)], sink)
        text = sink.getvalue().replace("count=4", "count=5")
        with pytest.raises(SlimStoreCorruptionError):
            list(read_slim_store(io.StringIO(text)))

    def test_extra_records_are_corruption(self):
        sink = io.StringIO()
        write([SlimEntity(Q(1)), SlimEntity(Q(2))], sink)
        text = sink.getvalue().replace("count=2", "count=1")
        with pytest.raises(SlimStoreCorruptionError):
            list(read_slim_store(io.StringIO(text)))

    def test_unknown_version_is_version_error(self):
        # WCM1 also stored non-item claim values as '*'; it is not read
        text = "WCM1\ncount=1 props=P17 wikis=*\nQ1\tP17:*,Q30\t\n"
        with pytest.raises(SlimStoreVersionError):
            list(read_slim_store(io.StringIO(text)))
        with pytest.raises(SlimStoreVersionError):
            read_store_header(io.StringIO(text))

    def test_store_lacking_a_required_property_is_a_mismatch(self):
        sink = io.StringIO()
        write([SlimEntity(Q(1), {P(17): (Q(30),)})], sink, keep_props=[P(17), P(276)])
        text = sink.getvalue()
        assert len(list(read_slim_store(io.StringIO(text), [P(276), P(17)]))) == 1
        with pytest.raises(SlimStoreMismatchError, match="kept without P19, P27, which"):
            list(read_slim_store(io.StringIO(text), [P(27), P(17), P(19)]))

    def test_garbage_magic_is_corruption(self):
        with pytest.raises(SlimStoreCorruptionError):
            list(read_slim_store(io.StringIO("hello\n")))

    def test_empty_file_is_corruption(self):
        with pytest.raises(SlimStoreCorruptionError):
            list(read_slim_store(io.StringIO("")))

    def test_bad_record_field_count_is_corruption(self):
        text = "WCM2\ncount=1 props= wikis=*\nQ1\tonly-two-fields\n"
        with pytest.raises(SlimStoreCorruptionError):
            list(read_slim_store(io.StringIO(text)))

    @pytest.mark.parametrize("records, bad_line", BAD_TOKEN_CASES)
    def test_bad_token_is_corruption_naming_its_line(self, records, bad_line):
        with pytest.raises(SlimStoreCorruptionError, match=f"^line {bad_line}: "):
            list(read_slim_store(io.StringIO(store_text(records))))


    @pytest.mark.parametrize(
        "wikis, record, problem",
        [
            ("enwiki", "Q1\tP99:Q5\tenwiki=X", "claim key 'P99' is not in the header's props="),
            ("enwiki", "Q1\tP17:Q5\tdewiki=X", "sitelink 'dewiki' is not in the header's wikis="),
            ("enwiki", "Q1\tQ5:Q30\t", "claim key 'Q5' is not in the header's props="),
            ("", "Q1\t\tenwiki=X", "sitelink 'enwiki' is not in the header's wikis="),
        ],
        ids=["undeclared-claim-key", "undeclared-sitelink", "item-as-claim-key", "empty-wikis"],
    )
    def test_record_outside_its_header_is_corruption(self, wikis, record, problem):
        text = f"WCM2\ncount=2 props=P17 wikis={wikis}\nQ2\tP17:Q30\t\n{record}\n"
        with pytest.raises(SlimStoreCorruptionError, match=f"^line 4: {re.escape(problem)}$"):
            list(read_slim_store(io.StringIO(text)))

    def test_empty_title_is_corruption_under_a_wikis_list(self):
        text = "WCM2\ncount=1 props=P17 wikis=enwiki\nQ1\t\tenwiki=\n"
        with pytest.raises(SlimStoreCorruptionError, match="^line 3: sitelink title for 'enwiki' is empty$"):
            list(read_slim_store(io.StringIO(text)))

    def test_unrestricted_wikis_accept_any_sitelink(self):
        text = "WCM2\ncount=1 props=P17 wikis=*\nQ1\tP17:Q5\tdewiki=X|xxwiki=Y\n"
        [entity] = read_slim_store(io.StringIO(text))
        assert entity.sitelinks == {"dewiki": "X", "xxwiki": "Y"}

    @pytest.mark.parametrize("reader", [read_slim_store, read_store_sitelinks])
    @pytest.mark.parametrize(
        "records, problem",
        [
            (["Q5\tP17:Q30\t", "Q5\t\tenwiki=X"], "item Q5 does not follow Q5"),
            (["Q7\tP17:Q30\t", "Q5\t\tenwiki=X"], "item Q5 does not follow Q7"),
        ],
        ids=["repeated", "descending"],
    )
    def test_record_out_of_item_order_is_corruption(self, reader, records, problem):
        text = store_text(records)
        message = f"line 4: {problem}; records are sorted by item number, each item once"
        with pytest.raises(SlimStoreCorruptionError, match=f"^{re.escape(message)}$"):
            list(reader(io.StringIO(text)))


class TestTitleEscaping:
    @pytest.mark.parametrize(
        "title",
        [
            "Donald Trump",
            "a|b",
            "tab\there",
            "percent % sign",
            "%7C literal escape",
            "new\nline",
            "café 中文",
        ],
    )
    def test_awkward_titles_survive(self, title):
        entity = SlimEntity(Q(1), {}, {"enwiki": title})
        _, back = round_trip([entity])
        assert back[0].sitelinks["enwiki"] == title

    def test_star_claim_value_is_corruption(self):
        # WCM1 wrote a non-item claim value as '*'; in WCM2 it is a bad token
        text = "WCM2\ncount=2 props=P17 wikis=*\nQ1\tP17:Q30\t\nQ2\tP17:*,Q30\t\n"
        with pytest.raises(SlimStoreCorruptionError, match="^line 4: not an entity id: '\\*'$"):
            list(read_slim_store(io.StringIO(text)))

    def test_bare_entity_round_trips(self):
        _, back = round_trip([SlimEntity(Q(7))])
        assert back == [SlimEntity(Q(7))]

    def test_garbage_claim_token_is_corruption(self):
        text = "WCM2\ncount=1 props=P17 wikis=*\nQ1\tP17:xyz\t\n"
        with pytest.raises(SlimStoreCorruptionError):
            list(read_slim_store(io.StringIO(text)))


class TestRoundTripProperty:
    @given(seed=st.integers(min_value=0, max_value=2**31), count=st.integers(0, 60))
    @settings(max_examples=50, deadline=None)
    def test_read_write_equals_sorted_input(self, seed, count):
        entities = random_entities(random.Random(seed), count)
        written, back = round_trip(entities)
        assert written == count
        assert back == sorted(entities, key=lambda e: e.id.number)

    def test_shared_place_nodes_round_trip_as_one_object(self):
        places = [Q(n) for n in range(1000, 1010)]
        entities = [
            SlimEntity(
                Q(n),
                {P(17): (places[n % 3],), P(19): (places[n % 10], places[n % 7])},
                {"enwiki": f"Item {n}"},
            )
            for n in range(1, 500)
        ]
        _, back = round_trip(entities)
        assert back == entities
        shared = {id(v) for e in back for values in e.claims.values() for v in values}
        assert len(shared) == len(places)  # one object per distinct place

    def test_ten_thousand_record_round_trip(self):
        entities = random_entities(random.Random(1234), 10_000)
        _, back = round_trip(entities)
        assert back == sorted(entities, key=lambda e: e.id.number)


class TestSitelinksReader:
    """``read_store_sitelinks`` accepts exactly what ``read_slim_store`` accepts."""

    @given(seed=st.integers(min_value=0, max_value=2**31), count=st.integers(0, 60))
    @settings(max_examples=30, deadline=None)
    def test_yields_the_ids_and_sitelinks_of_every_record(self, seed, count):
        sink = io.StringIO()
        write(random_entities(random.Random(seed), count), sink)
        text = sink.getvalue()
        back = list(read_store_sitelinks(io.StringIO(text)))
        assert [(r.id, r.sitelinks) for r in back] == outcome(read_slim_store, text)
        assert len(back) == count

    @pytest.mark.parametrize(
        "records",
        [
            *(records for records, _ in BAD_TOKEN_CASES),
            ["Q1\tP17:Q5;P17:Q6\tenwiki=X"],  # a repeated claim key is read, the last group kept
            ["Q1\tP17:Q5\t", "Q1\tP31:Q5\t"],
            ["Q1\tP17:Q5\tenwiki=a%7Cb%25"],
            ["Q1\tP17:Q5\tenwiki"],
            ["Q1\tP17:Q5"],
            ["Q1\t;\t"],
            ["props=", "Q1\t\tenwiki=X"],
            ["props=", "Q1\tP17:Q5\t"],
        ],
    )
    def test_hand_written_stores_read_the_same(self, records):
        text = store_text(records)
        assert outcome(read_store_sitelinks, text) == outcome(read_slim_store, text)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        count=st.integers(1, 20),
        restricted=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=500, deadline=None)
    def test_a_mutated_field_reads_the_same_in_both_readers(self, seed, count, restricted, data):
        keep_wikis = ["enwiki", "dewiki", "frwiki", "plwiki", "zh_min_nanwiki"] if restricted else None
        sink = io.StringIO()
        write(random_entities(random.Random(seed), count), sink, keep_wikis=keep_wikis)
        lines = sink.getvalue().split("\n")  # lines[2:count + 2] are the records
        fields = lines[data.draw(st.integers(2, count + 1), label="line")].split("\t")
        which = data.draw(st.sampled_from([1, 2]), label="field")  # claims or sitelinks
        start = data.draw(st.integers(0, len(fields[which])), label="start")
        end = data.draw(st.integers(start, min(start + 3, len(fields[which]))), label="end")
        insert = data.draw(st.text("QP0123456789:;,=|%\t", max_size=3), label="insert")
        original = "\t".join(fields)
        fields[which] = fields[which][:start] + insert + fields[which][end:]
        text = sink.getvalue().replace(original, "\t".join(fields), 1)
        assert outcome(read_store_sitelinks, text) == outcome(read_slim_store, text)

    def test_claims_are_never_built(self, tmp_path):
        def store(values_per_record):
            entities = [
                SlimEntity(
                    Q(n),
                    {P(17): tuple(Q(n * 100 + k) for k in range(values_per_record))},
                    {"enwiki": f"Title {n}", "dewiki": f"Titel {n}"},
                )
                for n in range(1, 2001)
            ]
            path = tmp_path / f"{values_per_record}.slim"
            with open(path, "w", encoding="utf-8") as sink:
                write(entities, sink)
            return path

        def peak(reader, path):
            with open(path, encoding="utf-8") as source:
                tracemalloc.start()
                try:
                    build_article_sets(reader(source), ["en", "de"])
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        one, forty = store(1), store(40)
        peak(read_store_sitelinks, one)  # compiles and caches the claims pattern
        assert peak(read_store_sitelinks, forty) <= 1.1 * peak(read_store_sitelinks, one)
        # the measure sees claims: the whole-record reader, streamed the same way, peaks far higher
        assert peak(read_slim_store, forty) > 2 * peak(read_store_sitelinks, forty)
