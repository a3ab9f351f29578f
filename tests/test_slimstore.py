import io
import json
import random
import re
import tempfile
import tracemalloc
from functools import partial
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikicoverage import slimstore
from wikicoverage.attribution import RuleSet
from wikicoverage.cli import main
from wikicoverage.entities import SlimEntity
from wikicoverage.errors import (
    DuplicateItemError,
    SlimStoreCorruptionError,
    SlimStoreError,
    SlimStoreMismatchError,
    SlimStoreVersionError,
    SlimStoreWriteError,
)
from wikicoverage.report import slim_stage
from wikicoverage.slimstore import (
    read_slim_store,
    read_store_header,
    save_slim_store,
)

from helpers import STORE_PROPS, dump_text, entity_json, random_entities


def write(entities, sink, keep_props=STORE_PROPS):
    """Write ``entities``, in any order, as a store to ``sink`` through a writer; returns the count."""
    with slimstore.SlimStoreWriter(keep_props) as writer:
        for entity in entities:
            writer.add(entity)
        return writer.write(sink)


def save(entities, path):
    """Save ``entities`` at ``path`` through a writer, as the ``slim`` stage does."""
    with slimstore.SlimStoreWriter(STORE_PROPS) as writer:
        for entity in entities:
            writer.add(entity)
        return save_slim_store(writer, path)


def slim(tmp_path, objects, languages=None):
    """The records of the store that the ``slim`` stage, the writer's one
    producer, writes for a dump of ``objects``, and the malformed lines it tallies."""
    out = tmp_path / "s.slim"
    source = io.BytesIO(dump_text(objects).encode("utf-8"))
    _, issues, _ = slim_stage(source, out, RuleSet(), languages)
    return list(read_every_claim(io.StringIO(out.read_text(encoding="utf-8")))), issues


def round_trip(entities, **kwargs):
    sink = io.BytesIO()
    count = write(entities, sink, **kwargs)
    return count, list(read_every_claim(io.StringIO(sink.getvalue().decode("utf-8"))))


def header_props(text):
    """The properties the header of ``text`` lists; none when it has no good header."""
    try:
        return read_store_header(io.StringIO(text)).props
    except SlimStoreError:
        return ()


def read_every_claim(source):
    """A read that requires every property its store lists, as ``attribute``
    reads a store kept for its rules: each record holds every stored claim."""
    text = source.read()
    return read_slim_store(io.StringIO(text), header_props(text))


def read_no_claims(source):
    """A read that requires no property, as ``metrics`` reads a store."""
    return read_slim_store(source, ())


def outcome(text, required_props):
    """The records a read of ``text`` yields, as (id, claims, sitelinks), or
    the error it raises."""
    try:
        return [(r.id, r.claims, r.sitelinks) for r in read_slim_store(io.StringIO(text), required_props)]
    except SlimStoreError as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_every_read_agrees(text):
    """A read of ``text`` that requires a strict subset of the header's
    properties, or no property, yields the records of one that requires
    them all, with no claims when it requires no property, or raises its
    error."""
    props = header_props(text)
    full = outcome(text, props)
    for required in (props[1::2], ()):
        expected = full
        if required == () and not isinstance(full, str):
            expected = [(id_, {}, sitelinks) for id_, _, sitelinks in full]
        assert outcome(text, required) == expected, required


# records that break a field, each with the line it breaks; a first entry
# "props=..." stands in for the header's property list
BAD_TOKEN_CASES = [
    (['[1,["Q5",[30]],[]]'], 3),  # an item id as a claim key
    (['["P17",[17,[30]],[]]'], 3),  # a property id as the record's id
    (["[01,[17,[30]],[]]"], 3),  # a leading zero
    (["[\u0663,[17,[30]],[]]"], 3),  # a digit that is not ASCII
    (["[null,[17,[30]],[]]"], 3),
    (["[1,[17,[01]],[]]"], 3),
    (["[1,[17,[\u0663]],[]]"], 3),
    (['[1,[17,["30"]],[]]'], 3),
    (["[1,[17,[]],[]]"], 3),
    (["[1,[17,[30,]],[]]"], 3),
    (['[1,[],["","Title"]]'], 3),
    (['[1,[],["enwiki",""]]'], 3),
    (['[1,[17,[30]],["enwiki","A"]]', '[2,[17,[30,0]],["enwiki","B"]]'], 4),
    (["[1,[17,[30]],[]]", "[2,[17,[30]],[]]", '[3,[31,[5],"Q5",[30]],[]]'], 5),
    (['[1,[17,[30,"P5"]],[]]'], 3),
    (["props=P17,Q5x"], 2),
    (["props=P17,Q5"], 2),
    (["props=P17,,P31"], 2),
    (["props=P17,P31,P17"], 2),
    (["[1,[17,[" + "1" * 4301 + "]],[]]"], 3),  # more digits than int() reads
    (["props=P1,P17", "[1,[true,[5]],[]]"], 3),  # a bool equals 1, and is no property
    (["[true,[],[]]"], 3),
    (["[1,[17,[true]],[]]"], 3),
    (["[1,[17,[false]],[]]"], 3),
    (["[1.0,[],[]]"], 3),
    (["[1,[17,[30.0]],[]]"], 3),
    (["[1,[17,[3e1]],[]]"], 3),
    (["[1,[17,[-30]],[]]"], 3),
    (["[1,[17,[Infinity]],[]]"], 3),
    (["[1,[17,[NaN]],[]]"], 3),
    (["[1,[17,30],[]]"], 3),
    (["[1,[17],[]]"], 3),
    (["[1,{},[]]"], 3),
    (["[1,[[],[]],[]]"], 3),
    (["[1,[],{}]"], 3),
    (['[1,[],["enwiki"]]'], 3),
    (['[1,[],[5,"X"]]'], 3),
    (['[1,[],["enwiki",5]]'], 3),
    (['[1,[],["enwiki",["X"]]]'], 3),
    (['[1,[],["enwiki","a\\ud800"]]'], 3),  # a lone surrogate, spelled as its escape
    (['[1,[],["enwiki","a\\uDC00"]]'], 3),
    (['[1,[],["a\\ud800","X"]]'], 3),
    (["[1,[],[]]", "[" * 100_000], 4),  # nested deeper than the decoder recurses
    (["[1,[],[]]x"], 3),
    ([" [1,[],[]]"], 3),
]


# a record line mutates one token at a time: a digit run, a bracket, a comma,
# a quote or a run of other text is replaced by, or preceded by, one
# replacement: a number (zero, a leading zero, a sign, a fraction), a literal,
# a string, a bracket, a comma, a quote, an escape, or nothing
MUTABLE_TOKEN = re.compile(r'[0-9]+|[\[\],"]|[^\[\],"0-9]+')
TOKEN_REPLACEMENTS = [
    "0", "01", "7", "-7", "7.0", "1e3", "true", "null", "NaN",
    '"x"', '""', "[", "]", ",", '"', "{}", "\\ud800", "\\u00e9", " ", "",
]


def store_text(records):
    props = "props=P17,P31"
    if records[0].startswith("props="):
        props, records = records[0], records[1:]
    return f"WCM4\ncount={len(records)} {props}\n" + "".join(r + "\n" for r in records)


class TestWrite:
    def test_empty_stream_writes_count_zero(self):
        sink = io.BytesIO()
        assert write([], sink) == 0
        assert b"count=0" in sink.getvalue().splitlines()[1]

    def test_keep_props_is_required(self):
        with pytest.raises(TypeError):
            slimstore.SlimStoreWriter()

    def test_records_are_sorted_by_id_number(self):
        entities = [SlimEntity(9684), SlimEntity(30)]
        count, back = round_trip(entities)
        assert count == 2
        assert [e.id for e in back] == [30, 9684]

    def test_header_carries_keep_sets(self):
        sink = io.BytesIO()
        write(
            [SlimEntity(1, {17: (30,)})],
            sink,
            keep_props=[27, 17],
        )
        header = read_store_header(io.StringIO(sink.getvalue().decode("utf-8")))
        assert header == slimstore.StoreHeader(1, (17, 27))
        assert sink.getvalue().splitlines() == [b"WCM4", b"count=1 props=P17,P27", b"[1,[17,[30]],[]]"]

    @pytest.mark.parametrize("claims", [{"P99": [5], "P17": [30]}], ids=["undeclared-claim-key"])
    def test_record_outside_the_header_is_refused_before_writing(self, tmp_path, claims):
        # the parse keeps only the claims of the properties the header lists
        objects = [entity_json("Q9", {"P17": [30]}, {"enwiki": "Y"}), entity_json("Q1", claims, {"dewiki": "X"})]
        records, issues = slim(tmp_path, objects)
        assert records == [SlimEntity(1, {17: (30,)}, {"dewiki": "X"}), SlimEntity(9, {17: (30,)}, {"enwiki": "Y"})]
        assert issues == []

    @pytest.mark.parametrize("languages", [None, ["zh", "en", "de"]], ids=["all-wikis", "languages"])
    def test_the_one_producer_meets_the_key_order_precondition(self, tmp_path, languages):
        # the writer renders claims and sitelinks in dict order; the slim stage
        # hands it the parser's records, whose keys ascend whatever the dump's order
        objects = [entity_json("Q1", {"P31": [5], "P17": [30]}, {"zhwiki": "Z", "enwiki": "E", "dewiki": "D"})]
        (record,), issues = slim(tmp_path, objects, languages)
        assert issues == []
        assert list(record.claims) == [17, 31]
        assert list(record.sitelinks) == ["dewiki", "enwiki", "zhwiki"]
        line = (tmp_path / "s.slim").read_text(encoding="utf-8").splitlines()[2]
        assert line == '[1,[17,[30],31,[5]],["dewiki","D","enwiki","E","zhwiki","Z"]]'

    @pytest.mark.parametrize(
        "wiki",
        ["a=b", "x|y", "a\tb", "a\rb", "a\nb", 'a"b', "a\\b", "a,b", "a\u2028b", "a\U0001f600b"],
        ids=["equals", "pipe", "tab", "cr", "lf", "quote", "backslash", "comma", "line-separator", "astral"],
    )
    def test_wiki_code_with_a_delimiter_is_stored_and_read_back(self, tmp_path, wiki):
        # JSON spells any code; a store kept without languages holds it
        objects = [
            entity_json("Q9", sitelinks={"enwiki": "Y"}),
            entity_json("Q12", sitelinks={"enwiki": "Z", wiki: "T"}),
        ]
        expected = [SlimEntity(9, {}, {"enwiki": "Y"}), SlimEntity(12, {}, dict(sorted({"enwiki": "Z", wiki: "T"}.items())))]
        assert slim(tmp_path, objects) == (expected, [])
        # a run's languages keep only their own wiki codes
        records, issues = slim(tmp_path, objects, ["en"])
        assert (records, issues) == ([SlimEntity(9, {}, {"enwiki": "Y"}), SlimEntity(12, {}, {"enwiki": "Z"})], [])

    def test_unrestricted_wikis_write_any_sitelink(self):
        # no header line lists the wiki codes, so a comma or a space in one is stored as it is
        entity = SlimEntity(1, {17: (5,)}, {"a b": "W", "a,b": "Z", "dewiki": "X", "xxwiki": "Y"})
        assert round_trip([entity], keep_props=[17]) == (1, [entity])
        sink = io.BytesIO()
        write([entity], sink, keep_props=[17])
        assert outcome(sink.getvalue().decode("utf-8"), ()) == [(entity.id, {}, entity.sitelinks)]

    def test_partial_write_failure_reports_progress(self):
        class FlakySink:
            def __init__(self):
                self.calls = 0

            def write(self, data):
                self.calls += 1
                if self.calls > 4:  # magic, header, two records
                    raise OSError("disk full")

        entities = [SlimEntity(n) for n in range(1, 6)]
        with pytest.raises(SlimStoreWriteError) as err:
            write(entities, FlakySink())
        assert err.value.records_written == 2

    def test_repeated_item_is_refused_before_writing(self):
        sink = io.BytesIO()
        records = [SlimEntity(5, {17: (30,)}), SlimEntity(9), SlimEntity(5, {}, {"enwiki": "X"})]
        with pytest.raises(DuplicateItemError, match="^item Q5 appears twice in the input stream$"):
            write(records, sink)
        assert sink.getvalue() == b""


class TestSave:
    """A refused or failed save leaves the store already at its path as it
    was, and no temporary file beside it."""

    def existing_store(self, tmp_path):
        path = tmp_path / "s.slim"
        save([SlimEntity(5, {17: (30,)}, {"enwiki": "A"})], path)
        return path, path.read_bytes()

    def test_save_replaces_the_store(self, tmp_path):
        path, _ = self.existing_store(tmp_path)
        assert save([SlimEntity(7)], path) == 1
        assert [entity.id for entity in read_every_claim(io.StringIO(path.read_text(encoding="utf-8")))] == [7]
        assert [p.name for p in tmp_path.iterdir()] == ["s.slim"]

    @pytest.mark.parametrize(
        "entities, error",
        [
            ([SlimEntity(5), SlimEntity(5)], DuplicateItemError),
            # a lone surrogate has no UTF-8 form: the writer's add refuses it, before any file is opened
            ([SlimEntity(5, {}, {"a\ud800b": "X"})], UnicodeEncodeError),
        ],
        ids=["repeated-item", "unstorable-wiki-code"],
    )
    def test_a_refused_save_keeps_the_old_store(self, tmp_path, entities, error):
        path, kept = self.existing_store(tmp_path)
        with pytest.raises(error):
            save(entities, path)
        assert path.read_bytes() == kept
        assert [p.name for p in tmp_path.iterdir()] == ["s.slim"]

    @pytest.mark.parametrize(
        "failing, expected, message, written",
        [
            ("write", SlimStoreWriteError, "write failed after 1 of 2 records: disk full", 1),
            ("replace", OSError, "disk full", None),
        ],
        ids=["write", "replace"],
    )
    def test_an_os_error_keeps_the_old_store(self, tmp_path, monkeypatch, failing, expected, message, written):
        path, kept = self.existing_store(tmp_path)

        def fail(*args, **kwargs):
            raise OSError("disk full")

        def full_disk(*args, **kwargs):
            # the temporary file takes the two header lines and one record, then fails
            sink = open(*args, **kwargs)
            writes = iter([sink.write] * 3)
            sink.write = lambda data: next(writes, fail)(data)
            return sink

        if failing == "write":
            monkeypatch.setattr(slimstore, "open", full_disk, raising=False)
        else:
            monkeypatch.setattr(slimstore.os, "replace", fail)
        with pytest.raises(expected, match=f"^{message}$") as err:
            save([SlimEntity(7), SlimEntity(8)], path)
        if written is not None:
            assert err.value.records_written == written
        assert path.read_bytes() == kept
        assert [p.name for p in tmp_path.iterdir()] == ["s.slim"]


def reference_store(entities, props=STORE_PROPS) -> bytes:
    """The store bytes of ``entities`` as the format defines it: one compact
    JSON array per record, its claims and sitelinks flattened to alternating
    keys and values, everything sorted up front."""
    header = ",".join(f"P{p}" for p in sorted(props))
    lines = ["WCM4\n", f"count={len(entities)} props={header}\n"]
    for entity in sorted(entities, key=lambda e: e.id):
        claims = [x for prop, values in sorted(entity.claims.items()) for x in (prop, list(values))]
        links = [x for pair in sorted(entity.sitelinks.items()) for x in pair]
        lines.append(json.dumps([entity.id, claims, links], ensure_ascii=False, separators=(",", ":")) + "\n")
    return "".join(lines).encode("utf-8")


_temporary_file = tempfile.TemporaryFile  # the tests below patch it in the module


class Spills:
    """Every spill file the writer opens, so a test can see that each was closed."""

    def __init__(self):
        self.files = []

    def __call__(self, *args, **kwargs):
        spill = _temporary_file(*args, **kwargs)
        self.files.append(spill)
        return spill


class TestSpilledRuns:
    """A cap of a few records' text makes the writer spill sorted runs and merge them."""

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 40), st.integers(1, 300))
    def test_any_order_and_any_cap_write_the_sorted_reference(self, rng, count, cap):
        entities = random_entities(rng, count)
        rng.shuffle(entities)
        spills = Spills()
        with patch.object(slimstore, "RUN_BYTES", cap), patch.object(tempfile, "TemporaryFile", spills):
            sink = io.BytesIO()
            assert write(entities, sink) == count
        assert sink.getvalue() == reference_store(entities)
        assert all(spill.closed for spill in spills.files)
        if cap == 1:  # every record is a run of its own
            assert len(spills.files) == count
        default = io.BytesIO()
        write(entities, default)
        assert default.getvalue() == sink.getvalue()

    def test_a_run_is_capped_in_utf8_bytes(self, monkeypatch):
        # each title holds a 3-byte and a 4-byte character, so a line holds more
        # bytes than characters; every line has the same size, and a cap of two
        # lines' bytes spills every second record
        entities = [SlimEntity(n, {17: (30,)}, {"jawiki": f"東京 {n} \U0001f600"}) for n in range(29, 9, -1)]
        line = reference_store(entities[:1]).splitlines(keepends=True)[2]
        assert len(line) > len(line.decode("utf-8"))
        one_run = io.BytesIO()
        write(entities, one_run)
        spills = Spills()
        monkeypatch.setattr(slimstore, "RUN_BYTES", 2 * len(line))
        monkeypatch.setattr(slimstore.tempfile, "TemporaryFile", spills)
        sink = io.BytesIO()
        assert write(entities, sink) == 20
        assert len(spills.files) == 10 and all(spill.closed for spill in spills.files)
        assert sink.getvalue() == one_run.getvalue() == reference_store(entities)

    def test_a_held_run_traces_its_utf8_bytes(self):
        # as a str each line would take 4 bytes a character, its astral one
        # widening it; held as UTF-8 its text takes 1 to 4 bytes a character
        entities = [SlimEntity(n, {17: (30,)}, {"jawiki": "東京" * 100 + "\U0001f600"}) for n in range(1_000, 2_000)]
        size = len(reference_store(entities).split(b"\n", 2)[2])
        with slimstore.SlimStoreWriter(STORE_PROPS) as writer:
            tracemalloc.start()
            try:
                for entity in entities:
                    writer.add(entity)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        # a bytes object's header, its slot in the run, and its item number
        assert held <= size + 128 * len(entities)

    def test_a_repeat_across_runs_is_refused_and_keeps_the_old_store(self, tmp_path, monkeypatch):
        path = tmp_path / "s.slim"
        save([SlimEntity(5, {17: (30,)}, {"enwiki": "A"})], path)
        kept = path.read_bytes()
        spill_dir = tmp_path / "spills"
        spill_dir.mkdir()
        spills = Spills()
        monkeypatch.setattr(slimstore, "RUN_BYTES", 1)
        monkeypatch.setattr(slimstore.tempfile, "tempdir", str(spill_dir))
        monkeypatch.setattr(slimstore.tempfile, "TemporaryFile", spills)
        records = [SlimEntity(5, {17: (30,)}), SlimEntity(9), SlimEntity(5, {}, {"enwiki": "X"})]
        with pytest.raises(DuplicateItemError, match="^item Q5 appears twice in the input stream$"):
            save(records, path)
        assert len(spills.files) == 3 and all(spill.closed for spill in spills.files)
        assert path.read_bytes() == kept
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.slim", "spills"]
        assert list(spill_dir.iterdir()) == []

    def test_a_repeat_inside_a_run_is_refused_before_writing(self, monkeypatch):
        # each line is 10 bytes, so a run holds four records: the second run
        # holds both Q7s and is refused when it is spilled
        monkeypatch.setattr(slimstore, "RUN_BYTES", 40)
        sink = io.BytesIO()
        records = [SlimEntity(n) for n in (1, 2, 3, 4, 7, 5, 7, 6, 8)]
        with pytest.raises(DuplicateItemError, match="^item Q7 appears twice in the input stream$"):
            write(records, sink)
        assert sink.getvalue() == b""

    @pytest.mark.parametrize("cap", [1, slimstore.RUN_BYTES], ids=["spilled", "one-run"])
    def test_item_numbers_past_two_to_the_63_sort_and_repeat_exactly(self, monkeypatch, cap):
        # an item number is a Python int: no fixed-width integer may hold one
        monkeypatch.setattr(slimstore, "RUN_BYTES", cap)
        records = [SlimEntity(n, {17: (2**63 + 7,)}) for n in (2**63 + 1, 2**64 + 3, 2**63 - 1, 5)]
        sink = io.BytesIO()
        assert write(records, sink) == 4
        assert sink.getvalue() == reference_store(records)
        assert list(read_every_claim(io.StringIO(sink.getvalue().decode("utf-8")))) == sorted(records, key=lambda e: e.id)
        with pytest.raises(DuplicateItemError, match=f"^item Q{2**64 + 3} appears twice in the input stream$"):
            write([*records, SlimEntity(2**64 + 3)], io.BytesIO())

    def test_an_os_error_in_a_spill_keeps_the_old_store(self, tmp_path, monkeypatch):
        path = tmp_path / "s.slim"
        save([SlimEntity(5)], path)
        kept = path.read_bytes()

        def fail(*args, **kwargs):
            raise OSError("no space left for the run")

        monkeypatch.setattr(slimstore, "RUN_BYTES", 1)
        monkeypatch.setattr(slimstore.tempfile, "TemporaryFile", fail)
        with pytest.raises(SlimStoreWriteError, match="no space left for the run") as err:
            save([SlimEntity(7), SlimEntity(8)], path)
        assert err.value.records_written == 0
        assert path.read_bytes() == kept
        assert [p.name for p in tmp_path.iterdir()] == ["s.slim"]

    def test_an_os_error_reading_a_spill_back_is_a_write_error(self, monkeypatch):
        class Unreadable(Spills):
            def __call__(self, *args, **kwargs):
                spill = super().__call__(*args, **kwargs)
                spill.seek = lambda *a: (_ for _ in ()).throw(OSError("spill lost"))
                return spill

        spills = Unreadable()
        monkeypatch.setattr(slimstore, "RUN_BYTES", 1)
        monkeypatch.setattr(slimstore.tempfile, "TemporaryFile", spills)
        with pytest.raises(SlimStoreWriteError, match="^write failed after 0 of 2 records: spill lost$"):
            write([SlimEntity(8), SlimEntity(7)], io.BytesIO())
        assert all(spill.closed for spill in spills.files)


class TestRead:
    def test_single_entity_round_trip(self):
        entity = SlimEntity(
            22686, {27: (30,)}, {"enwiki": "Donald Trump"}
        )
        _, back = round_trip([entity])
        assert back == [entity]

    def test_count_mismatch_is_corruption(self):
        sink = io.BytesIO()
        write([SlimEntity(n) for n in range(1, 5)], sink)
        text = sink.getvalue().decode("utf-8").replace("count=4", "count=5")
        with pytest.raises(SlimStoreCorruptionError):
            list(read_every_claim(io.StringIO(text)))

    @pytest.mark.parametrize("count", ["\u0661", "+1", "1_0"], ids=["arabic-indic-digit", "plus-sign", "underscore"])
    def test_header_count_that_is_not_ascii_digits_is_corruption(self, count):
        text = f"WCM4\ncount={count} props=P17\n[1,[17,[30]],[]]\n"
        for read in (read_every_claim, read_no_claims):
            with pytest.raises(SlimStoreCorruptionError, match="^bad store header"):
                list(read(io.StringIO(text)))

    def test_header_count_with_more_digits_than_int_reads_is_corruption(self):
        text = f"WCM4\ncount={'1' * 5000} props=P17\n[1,[17,[30]],[]]\n"
        for read in (read_every_claim, read_no_claims):
            with pytest.raises(SlimStoreCorruptionError, match=r"^bad store header: count too large \(5000 digits\)$"):
                list(read(io.StringIO(text)))

    def test_extra_records_are_corruption(self):
        sink = io.BytesIO()
        write([SlimEntity(1), SlimEntity(2)], sink)
        text = sink.getvalue().decode("utf-8").replace("count=2", "count=1")
        with pytest.raises(SlimStoreCorruptionError):
            list(read_every_claim(io.StringIO(text)))

    @pytest.mark.parametrize(
        "text",
        [
            # WCM1 also stored non-item claim values as '*'
            "WCM1\ncount=1 props=P17 wikis=*\nQ1\tP17:*,Q30\t\n",
            # WCM2 also listed the kept wiki codes
            "WCM2\ncount=1 props=P17 wikis=*\nQ1\tP17:Q30\t\n",
            # WCM3 spelled records in a grammar of its own
            "WCM3\ncount=1 props=P17\nQ1\tP17:Q30\tenwiki=A%7CB\n",
        ],
        ids=["WCM1", "WCM2", "WCM3"],
    )
    def test_unknown_version_is_version_error(self, tmp_path, capsys, text):
        with pytest.raises(SlimStoreVersionError):
            list(read_every_claim(io.StringIO(text)))
        with pytest.raises(SlimStoreVersionError):
            read_store_header(io.StringIO(text))
        store = tmp_path / "old.slim"
        store.write_text(text, encoding="utf-8")
        assert main(["attribute", "--slim", str(store), "--out", str(tmp_path / "a.tsv")]) == 1
        assert capsys.readouterr().err == f"error: unsupported store version {text[:4]!r}\n"

    def test_store_lacking_a_required_property_is_a_mismatch(self):
        sink = io.BytesIO()
        write([SlimEntity(1, {17: (30,)})], sink, keep_props=[17, 276])
        text = sink.getvalue().decode("utf-8")
        assert len(list(read_slim_store(io.StringIO(text), [276, 17]))) == 1
        with pytest.raises(SlimStoreMismatchError, match="kept without P19, P27, which"):
            list(read_slim_store(io.StringIO(text), [27, 17, 19]))

    def test_garbage_magic_is_corruption(self):
        with pytest.raises(SlimStoreCorruptionError):
            list(read_every_claim(io.StringIO("hello\n")))

    def test_empty_file_is_corruption(self):
        with pytest.raises(SlimStoreCorruptionError):
            list(read_every_claim(io.StringIO("")))

    def test_magic_line_alone_is_corruption(self):
        for read in (read_every_claim, read_no_claims):
            with pytest.raises(SlimStoreCorruptionError, match="^store has no header line$"):
                list(read(io.StringIO("WCM4\n")))

    def test_blank_line_between_records_is_skipped_and_not_counted(self):
        text = 'WCM4\ncount=2 props=P17\n[1,[17,[30]],["enwiki","A"]]\n\n[2,[],["enwiki","B"]]\n'
        assert outcome(text, (17,)) == [(1, {17: (30,)}, {"enwiki": "A"}), (2, {}, {"enwiki": "B"})]
        assert_every_read_agrees(text)

    def test_bad_record_field_count_is_corruption(self):
        problem = "store line 3: a record is one JSON array of 3 elements"
        for record in ["[1,[]]", "[1,[],[],[]]", "{}", '"[1,[],[]]"', "[1,[],[]] []"]:
            text = f"WCM4\ncount=1 props=\n{record}\n"
            for read in (read_every_claim, read_no_claims):
                with pytest.raises(SlimStoreCorruptionError, match=f"^{re.escape(problem)}$"):
                    list(read(io.StringIO(text)))

    @pytest.mark.parametrize("records, bad_line", BAD_TOKEN_CASES)
    def test_bad_token_is_corruption_naming_its_line(self, records, bad_line):
        text = store_text(records)
        with pytest.raises(SlimStoreCorruptionError, match=f"^store line {bad_line}: "):
            list(read_every_claim(io.StringIO(text)))
        assert_every_read_agrees(text)


    @pytest.mark.parametrize(
        "record, problem",
        [
            ('[1,[99,[5]],["enwiki","X"]]', "claim key 99 is not in the header's props="),
            ('[1,["Q5",[30]],[]]', 'claim key "Q5" is not in the header\'s props='),
        ],
        ids=["undeclared-claim-key", "item-as-claim-key"],
    )
    def test_record_outside_its_header_is_corruption(self, record, problem):
        text = f"WCM4\ncount=2 props=P17\n[2,[17,[30]],[]]\n{record}\n"
        with pytest.raises(SlimStoreCorruptionError, match=f"^store line 4: {re.escape(problem)}$"):
            list(read_every_claim(io.StringIO(text)))

    def test_empty_title_is_corruption(self):
        text = 'WCM4\ncount=1 props=P17\n[1,[],["enwiki",""]]\n'
        message = 'store line 3: sitelink title for \'enwiki\' is not a non-empty string: ""'
        with pytest.raises(SlimStoreCorruptionError, match=f"^{re.escape(message)}$"):
            list(read_every_claim(io.StringIO(text)))

    def test_unrestricted_wikis_accept_any_sitelink(self):
        text = 'WCM4\ncount=1 props=P17\n[1,[17,[5]],["dewiki","X","xxwiki","Y"]]\n'
        [entity] = read_every_claim(io.StringIO(text))
        assert entity.sitelinks == {"dewiki": "X", "xxwiki": "Y"}

    @pytest.mark.parametrize("reader", [read_every_claim, read_no_claims])
    @pytest.mark.parametrize(
        "record, problem",
        [
            ('[2,[17,[5],17,[6]],["enwiki","A"]]', "claim key 17 does not follow 17; claim keys are ascending, each once"),
            ("[2,[17,[5],31,[7],17,[6]],[]]", "claim key 17 does not follow 31; claim keys are ascending, each once"),
            ('[2,[17,[5]],["enwiki","A","enwiki","B"]]', "sitelink 'enwiki' does not follow 'enwiki'; wiki codes are ascending, each once"),
            ('[2,[17,[5],17,[6]],["enwiki","A","enwiki","B"]]', "claim key 17 does not follow 17; claim keys are ascending, each once"),
            ("[2,[31,[5],17,[6]],[]]", "claim key 17 does not follow 31; claim keys are ascending, each once"),
            ('[2,[],["enwiki","A","dewiki","B"]]', "sitelink 'dewiki' does not follow 'enwiki'; wiki codes are ascending, each once"),
        ],
        ids=["claim-key", "claim-key-apart", "wiki", "both", "claim-keys-descending", "wikis-descending"],
    )
    def test_a_repeat_within_a_record_is_corruption(self, reader, record, problem):
        # the writer cannot write one (claims and sitelinks are dicts, their keys
        # ascending); reading one would keep only its last group or sitelink
        text = store_text(['[1,[17,[30]],["enwiki","X"]]', record])
        with pytest.raises(SlimStoreCorruptionError, match=f"^store line 4: {re.escape(problem)}$"):
            list(reader(io.StringIO(text)))

    @pytest.mark.parametrize("reader", [read_every_claim, read_no_claims])
    @pytest.mark.parametrize(
        "records, problem",
        [
            (["[5,[17,[30]],[]]", '[5,[],["enwiki","X"]]'], "item Q5 does not follow Q5"),
            (["[7,[17,[30]],[]]", '[5,[],["enwiki","X"]]'], "item Q5 does not follow Q7"),
        ],
        ids=["repeated", "descending"],
    )
    def test_record_out_of_item_order_is_corruption(self, reader, records, problem):
        text = store_text(records)
        message = f"store line 4: {problem}; records are sorted by item number, each item once"
        with pytest.raises(SlimStoreCorruptionError, match=f"^{re.escape(message)}$"):
            list(reader(io.StringIO(text)))


# any character but a lone surrogate: the ones a record's text could break on,
# JSON's own among them, a line separator, a noncharacter and astral ones
HOSTILE_TEXT = st.text(
    st.sampled_from("%|=\"\\\t\r\n\u2028\uffff\U0001f600") | st.characters(blacklist_categories=("Cs",)),
    min_size=1,
    max_size=8,
)


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
            "carriage\rreturn",
            'quote " and backslash \\',
            "\\ud800 spelled out",
            "line\u2028separator",
            "café 中文",
            "astral \U0001f600",
        ],
    )
    def test_awkward_titles_survive(self, title):
        entity = SlimEntity(1, {}, {"enwiki": title})
        _, back = round_trip([entity])
        assert back[0].sitelinks["enwiki"] == title

    def test_bare_entity_round_trips(self):
        _, back = round_trip([SlimEntity(7)])
        assert back == [SlimEntity(7)]

    def test_garbage_claim_token_is_corruption(self):
        text = 'WCM4\ncount=1 props=P17\n[1,[17,["xyz"]],[]]\n'
        with pytest.raises(SlimStoreCorruptionError, match='^store line 3: not an item number: "xyz"$'):
            list(read_every_claim(io.StringIO(text)))


class TestRoundTripProperty:
    @given(seed=st.integers(min_value=0, max_value=2**31), count=st.integers(0, 60))
    @settings(max_examples=50, deadline=None)
    def test_read_write_equals_sorted_input(self, seed, count):
        entities = random_entities(random.Random(seed), count)
        written, back = round_trip(entities)
        assert written == count
        assert back == sorted(entities, key=lambda e: e.id)

    @given(
        st.dictionaries(
            st.integers(1, 2**70),
            st.tuples(
                st.dictionaries(st.sampled_from(STORE_PROPS), st.lists(st.integers(1, 2**70), min_size=1, max_size=3)),
                st.dictionaries(HOSTILE_TEXT, HOSTILE_TEXT, max_size=3),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_hostile_titles_and_codes_round_trip(self, items):
        entities = [
            SlimEntity(n, {p: tuple(v) for p, v in sorted(claims.items())}, dict(sorted(links.items())))
            for n, (claims, links) in items.items()
        ]
        written, back = round_trip(entities)
        assert written == len(entities)
        assert back == sorted(entities, key=lambda e: e.id)
        sink = io.BytesIO()
        write(entities, sink)
        assert outcome(sink.getvalue().decode("utf-8"), ()) == [(e.id, {}, e.sitelinks) for e in back]

    @given(st.lists(st.dictionaries(HOSTILE_TEXT, HOSTILE_TEXT, max_size=3), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_a_store_kept_without_languages_carries_any_wiki_code(self, links):
        # the slim stage keeps every sitelink of the dump when it is given no languages
        with tempfile.TemporaryDirectory() as directory:
            objects = [entity_json(f"Q{n}", sitelinks=sitelinks) for n, sitelinks in enumerate(links, start=1)]
            records, issues = slim(Path(directory), objects)
        assert issues == []
        assert records == [SlimEntity(n, {}, dict(sorted(sitelinks.items()))) for n, sitelinks in enumerate(links, start=1)]

    def test_ten_thousand_record_round_trip(self):
        entities = random_entities(random.Random(1234), 10_000)
        _, back = round_trip(entities)
        assert back == sorted(entities, key=lambda e: e.id)


class TestSitelinksReader:
    """A read that requires no property makes every check the whole read
    makes and builds no claim; it accepts exactly what the whole read accepts
    and fails the others the same way."""

    @given(seed=st.integers(min_value=0, max_value=2**31), count=st.integers(0, 60))
    @settings(max_examples=30, deadline=None)
    def test_yields_the_ids_and_sitelinks_of_every_record(self, seed, count):
        sink = io.BytesIO()
        entities = sorted(random_entities(random.Random(seed), count), key=lambda e: e.id)
        write(entities, sink)
        text = sink.getvalue().decode("utf-8")
        back = list(read_no_claims(io.StringIO(text)))
        assert [(r.id, r.claims, r.sitelinks) for r in back] == [(e.id, {}, e.sitelinks) for e in entities]
        assert_every_read_agrees(text)

    @pytest.mark.parametrize(
        "records",
        [
            *(records for records, _ in BAD_TOKEN_CASES),
            ['[1,[17,[5],17,[6]],["enwiki","X"]]'],
            ['[1,[17,[5]],["enwiki","A","enwiki","B"]]'],
            ["[1,[31,[7],17,[5,8],17,[6]],[]]"],
            ["props=P1,P17", "[1,[1,[5],17,[6],1,[7]],[]]"],
            ["props=P1,P17", "[1,[17,[5],1,[6]],[]]"],
            ["[1,[17,[5]],[]]", "[1,[31,[5]],[]]"],
            ['[1,[17,[5]],["enwiki","a\\u007cb\\"\\\\"]]'],  # escapes a title may hold
            ['[1,[17,[5]],["enwiki","\\ud83d\\ude00"]]'],  # an escaped surrogate pair
            ['[1,[17,[5]],["enwiki"]]'],
            ["[1,[17,[5]]]"],
            ["[1,[,],[]]"],
            ["props=", '[1,[],["enwiki","X"]]'],
            ["props=", "[1,[17,[5]],[]]"],
            ["[1,[17,[" + "1" * 4300 + "]],[]]"],  # as many digits as int() reads
        ],
    )
    def test_hand_written_stores_read_the_same(self, records):
        assert_every_read_agrees(store_text(records))

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        count=st.integers(1, 20),
        data=st.data(),
    )
    @settings(max_examples=500, deadline=None)
    def test_a_mutated_field_reads_the_same_in_both_readers(self, seed, count, data):
        sink = io.BytesIO()
        write(random_entities(random.Random(seed), count), sink)
        lines = sink.getvalue().decode("utf-8").split("\n")  # lines[2:count + 2] are the records
        which = data.draw(st.integers(2, count + 1), label="line")
        replacement = data.draw(st.sampled_from(TOKEN_REPLACEMENTS), label="replacement")
        insert = data.draw(st.booleans(), label="insert")
        tokens = MUTABLE_TOKEN.findall(lines[which])
        for at in range(len(tokens) + 1):  # each token in turn, then an append
            mutated = tokens.copy()
            mutated[at:at if insert else at + 1] = [replacement]
            assert_every_read_agrees("\n".join([*lines[:which], "".join(mutated), *lines[which + 1 :]]))

    def test_claims_are_never_built(self, tmp_path):
        def store(values_per_record):
            entities = [
                SlimEntity(
                    n,
                    {17: tuple(n * 100 + k for k in range(values_per_record))},
                    {"dewiki": f"Titel {n}", "enwiki": f"Title {n}"},
                )
                for n in range(1, 2001)
            ]
            path = tmp_path / f"{values_per_record}.slim"
            with open(path, "wb") as sink:
                write(entities, sink)
            return path

        def peak(reader, path):
            # every record is held at once, so a record's claims would show
            with open(path, encoding="utf-8") as source:
                tracemalloc.start()
                try:
                    records = list(reader(source))
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        one, forty = store(1), store(40)
        assert peak(read_no_claims, forty) <= 1.1 * peak(read_no_claims, one)
        # the measure sees claims: the whole read, listed the same way, peaks far higher
        assert peak(partial(read_slim_store, required_props=STORE_PROPS), forty) > 2 * peak(read_no_claims, forty)
