"""Landscape diagnostics: records I/O, histograms, quadrants, dynamics,
and the top-K fidelity study."""

import inspect
import json
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaftlab import cli
from eaftlab import landscape as ls
from eaftlab import objectives as obj
from eaftlab import probstats
from eaftlab import toylm
from eaftlab.errors import (
    DegenerateVarianceError,
    InvalidArgumentError,
    RecordParseError,
    RecordValidationError,
)

BLOCK = ls._ROW_BLOCK
TINY = toylm.ModelConfig(vocab_size=8, context_len=3, embed_dim=2, hidden_dim=4, seed=5)


def table(rows):
    """A record table from per-record dicts; a field a dict leaves out is absent."""
    return ls.RecordTable.concat(ls.RecordTable.of(**row) for row in rows)


def record_dicts(records):
    """One dict per record, absent fields left out: the loop-era view of a table."""
    columns = {f: records.columns[f].tolist() for f in ls.RECORD_FIELDS}
    present = {f: records.present[f].tolist() for f in ls.OPTIONAL_FIELDS}
    return [
        {f: columns[f][i] for f in ls.RECORD_FIELDS if f not in present or present[f][i]}
        for i in range(len(records))
    ]


def make_records(n, seed=0, with_step=False):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        gate = float(rng.uniform(0, 1))
        row = dict(
            source_id="t",
            position=i,
            token_id=int(rng.integers(0, 64)),
            p_target=float(rng.uniform(0, 1)),
            entropy_full=float(rng.uniform(0, 4)),
            entropy_topk=gate * math.log(20),
            gate=gate,
            weight=gate,
            grad_norm=float(rng.uniform(0, 2)),
        )
        if with_step:
            row["step"] = int(rng.integers(0, 5))
        rows.append(row)
    return table(rows)


# tracemalloc peak of ingesting write_repetitive_records' file: 119.3 bytes
# per record measured (CPython 3.11, numpy 2.4), 127.5 with an array of
# line numbers, 314 with the columns copied out of the parse buffers and a
# string object per record
INGEST_PEAK_BYTES_PER_RECORD = 160


def write_repetitive_records(path, n=6000):
    """Export ``n`` records whose text fields repeat, as captures do, and
    return their table."""
    rng = np.random.default_rng(3)
    gate = rng.uniform(0, 1, n)
    recs = ls.RecordTable.of(
        source_id=np.array([f"probe-{i % 3}" for i in range(n)], dtype=object),
        position=np.arange(n),
        token_id=rng.integers(0, 64, n),
        token_text=np.array([f"tok-{t}" for t in rng.integers(0, 16, n)], dtype=object),
        p_target=rng.uniform(0, 1, n),
        entropy_full=rng.uniform(0, 4, n),
        entropy_topk=gate * math.log(20),
        gate=gate,
        weight=gate,
        grad_norm=rng.uniform(0, 2, n),
        step=np.arange(n) // 100,
    )
    ls.export_records(recs, path)
    return recs


class TestTokenRecord:
    def test_validation(self):
        with pytest.raises(RecordValidationError, match="record 0: p_target 1.5 outside"):
            ls.RecordTable.of(
                source_id="x", position=0, token_id=1, p_target=1.5,
                entropy_topk=0.1, gate=0.1,
            )
        # the first bad record is named, and a whole column is checked at once
        with pytest.raises(RecordValidationError, match="record 2: gate") as err:
            ls.RecordTable.of(
                source_id="x", position=[0, 1, 2, 3], token_id=1, p_target=0.5,
                entropy_topk=0.1, gate=[0.1, 0.2, 1.1, 2.0],
            )
        assert err.value.row == 2

    @pytest.mark.parametrize("field,value", [
        ("position", 2.7), ("position", [0, 1.5]), ("token_id", True),
        ("p_target", "0.5"), ("gate", np.array([True])), ("source_id", 5), ("step", 1.0),
    ])
    def test_of_rejects_loose_types(self, field, value):
        # numpy would cast these; the table takes the types ingest takes
        with pytest.raises(RecordValidationError, match=field):
            ls.RecordTable.of(**dict(REQUIRED, **{field: value}))

    def test_optional_fields_default_none(self):
        rec = ls.RecordTable.of(
            source_id="x", position=0, token_id=1, p_target=0.5,
            entropy_topk=0.1, gate=0.1,
        )
        assert len(rec) == 1
        assert not rec.present["entropy_full"].any() and not rec.present["step"].any()
        assert record_dicts(rec) == [
            {"source_id": "x", "position": 0, "token_id": 1, "p_target": 0.5,
             "entropy_topk": 0.1, "gate": 0.1}
        ]


NON_FINITE_FIELDS = ("entropy_topk", "entropy_full", "grad_norm")
REQUIRED = {"source_id": "a", "position": 0, "token_id": 1, "p_target": 0.5,
            "entropy_topk": 0.1, "gate": 0.2}


class TestNonFiniteRecords:
    @pytest.mark.parametrize("field", NON_FINITE_FIELDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_record_rejects(self, field, value):
        with pytest.raises(RecordValidationError, match=field):
            ls.RecordTable.of(**dict(REQUIRED, **{field: value}))

    def test_negative_grad_norm_rejected(self):
        with pytest.raises(RecordValidationError, match="grad_norm"):
            ls.RecordTable.of(**REQUIRED, grad_norm=-1e-9)

    @pytest.mark.parametrize("field", NON_FINITE_FIELDS)
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_ingest_rejects_literal(self, tmp_path, field, literal):
        path = tmp_path / "r.jsonl"
        bad = json.dumps(dict(REQUIRED, **{field: 0.25})).replace("0.25", literal)
        path.write_text(json.dumps(REQUIRED) + "\n" + bad + "\n")
        with pytest.raises(RecordParseError, match=field) as err:
            ls.ingest_records(path)
        assert err.value.line == 2 and literal in str(err.value)

    @pytest.mark.parametrize("field", NON_FINITE_FIELDS)
    def test_ingest_rejects_overflow_to_inf(self, tmp_path, field):
        # 1e999 is valid JSON but parses to inf; the record check names the field
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(dict(REQUIRED, **{field: 0.25})).replace("0.25", "1e999") + "\n")
        with pytest.raises(RecordParseError, match=field) as err:
            ls.ingest_records(path)
        assert err.value.line == 1

    def test_ingest_rejects_negative_grad_norm(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(dict(REQUIRED, grad_norm=-0.5)) + "\n")
        with pytest.raises(RecordParseError, match="grad_norm") as err:
            ls.ingest_records(path)
        assert err.value.line == 1

    def test_ingest_rejects_literal_in_unknown_field(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(dict(REQUIRED, mystery=0.25)).replace("0.25", "NaN") + "\n")
        with pytest.raises(RecordParseError, match="mystery"):
            ls.ingest_records(path)


# (field, JSON text of its value): each is a wrong JSON type or an integer
# outside [0, 2**63)
STRICT_CASES = [
    ("position", "2.7"),
    ("position", "true"),
    ("p_target", '"0.5"'),
    ("p_target", "true"),
    ("source_id", "5"),
    ("token_text", "7"),
    ("position", "-1"),
    ("token_id", "-3"),
    ("step", "-2"),
    ("position", str(2**70)),
    ("step", str(2**63)),
    ("p_target", "1" + "0" * 400),
]


class TestStrictTypes:
    @pytest.mark.parametrize("field,text", STRICT_CASES)
    def test_ingest_rejects(self, tmp_path, field, text):
        good = json.dumps(dict(REQUIRED, step=1))
        bad = json.dumps(dict(REQUIRED, step=1) | {field: "@"}).replace('"@"', text)
        path = tmp_path / "r.jsonl"
        path.write_text(good + "\n" + bad + "\n" + good + "\n")
        with pytest.raises(RecordParseError, match=field) as err:
            ls.ingest_records(path)
        assert err.value.line == 2

    def test_integral_float_field_accepted(self, tmp_path):
        # a JSON integer is a number; it is read as the float of that value
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(dict(REQUIRED, p_target=1, step=2**63 - 1)) + "\n")
        recs = ls.ingest_records(path)
        assert recs.columns["p_target"].tolist() == [1.0]
        assert recs.columns["step"].tolist() == [2**63 - 1]


class TestErrorPrecedence:
    # a range error is found by the whole-table check, a JSON or type error
    # on its own line; either way the earlier line is named
    RANGE = json.dumps(dict(REQUIRED, p_target=1.5))
    CASES = {"range": RANGE, "json": "{not json", "type": json.dumps(dict(REQUIRED, position=2.5))}

    @pytest.mark.parametrize("first,second", [
        ("range", "json"), ("json", "range"), ("range", "type"), ("type", "range"),
    ])
    def test_earliest_line_wins(self, tmp_path, first, second):
        good = json.dumps(REQUIRED)
        lines = [good, good, self.CASES[first], good, self.CASES[second], good]
        path = tmp_path / "r.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordParseError) as err:
            ls.ingest_records(path)
        assert err.value.line == 3

    def test_blank_lines_keep_line_numbers(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(REQUIRED) + "\n\n  \n" + self.RANGE + "\n")
        with pytest.raises(RecordParseError, match="p_target") as err:
            ls.ingest_records(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("second", ["json", "type", "range"])
    def test_blank_lines_around_both_errors(self, tmp_path, second):
        # blank lines before, between and after the two bad records, one of
        # them right before the first; the range error on line 6 is named
        # whatever fails on line 9
        good = json.dumps(REQUIRED)
        lines = ["", good, " ", good, "", self.RANGE, "\t", good, self.CASES[second], "", good]
        path = tmp_path / "r.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordParseError, match="p_target") as err:
            ls.ingest_records(path)
        assert err.value.line == 6

    def test_partial_record_left_out_of_range_check(self, tmp_path):
        # line 4 appends its out-of-range p_target before its step fails the
        # type check; that partial record is dropped, so the type error is named
        partial = json.dumps(dict(REQUIRED, p_target=1.5, step=2.5))
        path = tmp_path / "r.jsonl"
        path.write_text("\n".join(["", json.dumps(REQUIRED), " ", partial]) + "\n")
        with pytest.raises(RecordParseError, match="step must be a JSON integer") as err:
            ls.ingest_records(path)
        assert err.value.line == 4


class TestScoreCorpus:
    def test_empty_corpus(self):
        params = toylm.init_model(TINY)
        empty = toylm.Corpus(np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert len(ls.score_corpus(params, empty, k=8)) == 0

    def test_uniform_model_records(self):
        params = toylm.init_model(TINY)
        for f in toylm.PARAM_FIELDS:
            getattr(params, f)[:] = 0.0
        corpus = toylm.Corpus(np.array([[0, 1, 2], [3, 4, 5]]), np.array([2, 6]))
        recs = ls.score_corpus(params, corpus, k=8)
        assert recs.columns["gate"] == pytest.approx(1.0, abs=1e-12)
        assert recs.columns["p_target"] == pytest.approx(1 / 8, abs=1e-12)

    def test_record_count_and_order(self):
        params = toylm.init_model(TINY)
        corpus = toylm.Corpus.from_sequences([[0, 1, 2, 3, 4], [5, 6, 7, 0]], 3)
        recs = ls.score_corpus(params, corpus, k=8)
        assert len(recs) == len(corpus) == 3
        assert recs.columns["position"].tolist() == [0, 1, 2]


# hypothesis strategies for whole record tables: the float edge cases of
# JSON text, strings that need escaping, random optional-field masks
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1.0, 0.1 + 0.2]
UNIT = st.sampled_from(EDGE_FLOATS) | st.floats(0.0, 1.0)
NON_NEGATIVE = st.sampled_from(EDGE_FLOATS) | st.floats(0.0, 1e300)
TEXT = st.sampled_from(['say "hi"\\', "caf\u00e9 \u2192 \U0001f600", "\\n\t\x00", ""]) | st.text()
NATURAL = st.integers(0, 2**63 - 1)


@st.composite
def record_rows(draw):
    row = {
        "source_id": draw(TEXT),
        "position": draw(NATURAL),
        "token_id": draw(NATURAL),
        "p_target": draw(UNIT),
        "entropy_topk": draw(NON_NEGATIVE),
        "gate": draw(UNIT),
    }
    optional = {
        "token_text": TEXT,
        "entropy_full": NON_NEGATIVE,
        "weight": UNIT,
        "grad_norm": NON_NEGATIVE,
        "step": NATURAL,
    }
    for field, values in optional.items():
        if draw(st.booleans()):
            row[field] = draw(values)
    return row


class TestExportIngest:
    def test_jsonl_bytes_match_asdict_oracle(self, tmp_path):
        recs = ls.RecordTable.concat([
            make_records(20, with_step=True),
            table([
                dict(source_id="q", position=0, token_id=0, p_target=0.0,
                     entropy_topk=0.0, gate=0.0, step=0),
                dict(source_id='say "hi"\\', position=3, token_id=7, p_target=1.0,
                     entropy_topk=2.0**-1074, gate=1.0, token_text="caf\u00e9 \u2192 \U0001f600 \"x\"",
                     entropy_full=0.1 + 0.2, weight=0.0, grad_norm=0.0),
            ]),
        ])
        path = tmp_path / "r.jsonl"
        ls.export_records(recs, path)
        oracle = "".join(json.dumps(row, sort_keys=True) + "\n" for row in record_dicts(recs))
        assert path.read_bytes() == oracle.encode()
        assert ls.ingest_records(path) == recs

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(record_rows(), min_size=1, max_size=12))
    def test_roundtrip_bytes_property(self, tmp_path_factory, rows):
        # export -> ingest -> export gives the same bytes, and those bytes are
        # json.dumps(sort_keys=True) of each record with its absent fields left out
        tmp = tmp_path_factory.mktemp("roundtrip")
        recs = table(rows)
        first, second = tmp / "a.jsonl", tmp / "b.jsonl"
        ls.export_records(recs, first)
        back = ls.ingest_records(first)
        ls.export_records(back, second)
        oracle = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
        assert first.read_bytes() == second.read_bytes() == oracle.encode()
        assert back == recs
        assert record_dicts(back) == rows

    @pytest.mark.parametrize("fmt", ["jsonl"])
    def test_failed_export_keeps_old_file(self, tmp_path, monkeypatch, fmt):
        path = tmp_path / f"r.{fmt}"
        path.write_text("old contents\n")
        recs = make_records(6)
        recs.columns["source_id"][4] = None  # not a string: encoding it raises
        monkeypatch.setattr(ls, "_EXPORT_BLOCK", 2)  # the first blocks are written before it

        with pytest.raises(TypeError):
            ls.export_records(recs, path)
        assert path.read_text() == "old contents\n"
        assert os.listdir(tmp_path) == [path.name]

    def test_failed_row_export_keeps_old_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("old contents\n")
        with pytest.raises(AttributeError):
            ls.export_rows([{"x": 1.0}, "not a row"], ("x",), path)
        assert path.read_text() == "old contents\n"
        assert os.listdir(tmp_path) == [path.name]

    def test_jsonl_roundtrip(self, tmp_path):
        recs = make_records(50, with_step=True)
        path = tmp_path / "r.jsonl"
        ls.export_records(recs, path)
        assert ls.ingest_records(path) == recs

    def test_unknown_fields_ignored(self, tmp_path):
        path = tmp_path / "r.jsonl"
        doc = {
            "source_id": "a", "position": 1, "token_id": 2, "p_target": 0.5,
            "entropy_topk": 0.1, "gate": 0.2, "mystery": "ignored",
        }
        path.write_text(json.dumps(doc) + "\n")
        recs = ls.ingest_records(path)
        assert len(recs) == 1 and recs.columns["source_id"][0] == "a"

    def test_out_of_range_probability_names_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        good = {"source_id": "a", "position": 0, "token_id": 1, "p_target": 0.5,
                "entropy_topk": 0.1, "gate": 0.2}
        bad = dict(good, p_target=1.5)
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(RecordParseError) as err:
            ls.ingest_records(path)
        assert err.value.line == 2

    def test_malformed_line_names_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(RecordParseError) as err:
            ls.ingest_records(path)
        assert err.value.line == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text("")
        assert len(ls.ingest_records(path)) == 0

    def test_ingest_peak_per_record(self, tmp_path):
        # the numeric columns are views of the parsed buffers and each
        # distinct string is held once: a copy of either doubles the peak
        n = len(write_repetitive_records(tmp_path / "r.jsonl"))
        ls.ingest_records(tmp_path / "r.jsonl")  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            back = ls.ingest_records(tmp_path / "r.jsonl")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(back) == n
        assert peak / n <= INGEST_PEAK_BYTES_PER_RECORD

    def test_one_object_per_distinct_string(self, tmp_path):
        recs = write_repetitive_records(tmp_path / "r.jsonl")
        back = ls.ingest_records(tmp_path / "r.jsonl")
        assert back == recs
        for field in ("source_id", "token_text"):
            column = back.columns[field]
            assert len({id(s) for s in column}) == len(set(column)) < len(column) / 100

    def test_csv_17_digit_roundtrip(self, tmp_path):
        # a float needing all 17 significant digits survives the CSV
        value = 0.1234567890123456789
        rows = [{"x": value}, {"x": 1.0 / 3.0}, {"x": 2.0**-52}]
        path = tmp_path / "t.csv"
        ls.export_rows(rows, ("x",), path)
        lines = path.read_text().splitlines()[1:]
        for line, row in zip(lines, rows):
            assert float(line) == row["x"]

    def test_header_only_csv_for_empty_input(self, tmp_path):
        path = tmp_path / "t.csv"
        ls.export_rows([], ("a", "b"), path)
        assert path.read_text().splitlines() == ["a,b"]


class TestHistogram2D:
    def test_single_record(self):
        recs = make_records(1)
        hist = ls.histogram2d(recs, x_bins=4, y_bins=4)
        assert hist.counts.sum() == 1
        assert (hist.counts == 1).sum() == 1

    def test_conservation(self):
        recs = make_records(500)
        hist = ls.histogram2d(recs, x_bins=13, y_bins=7)
        assert hist.counts.sum() == 500

    def test_upper_edge_in_last_bin(self):
        recs = ls.RecordTable.of(
            source_id="a", position=np.arange(4), token_id=0, p_target=[0.0, 0.5, 1.0, 1.0],
            entropy_full=1.0, entropy_topk=0.5, gate=0.5,
        )
        hist = ls.histogram2d(recs, x_bins=2, y_bins=1)
        # both records at the max land in the final bin
        assert hist.counts[1, 0] == 3 and hist.counts[0, 0] == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_searchsorted_binning(self, seed):
        # values on the bin edges themselves: each bin holds [lo, hi) but the
        # last, which also holds the maximum
        rng = np.random.default_rng(seed)
        xs = rng.integers(0, 9, 300) / 8.0
        ys = rng.integers(0, 5, 300) * 0.7
        recs = ls.RecordTable.of(
            source_id="h", position=np.arange(300), token_id=0, p_target=xs,
            entropy_full=ys, entropy_topk=0.5, gate=0.5,
        )
        hist = ls.histogram2d(recs, x_bins=8, y_bins=3)
        xi = np.clip(np.searchsorted(hist.x_edges, xs, side="right") - 1, 0, 7)
        yi = np.clip(np.searchsorted(hist.y_edges, ys, side="right") - 1, 0, 2)
        expected = np.zeros((8, 3), dtype=np.int64)
        np.add.at(expected, (xi, yi), 1)
        assert hist.counts.dtype == np.int64
        assert np.array_equal(hist.counts, expected)

    def test_missing_axis_field(self):
        recs = table([
            dict(REQUIRED, entropy_full=1.0),
            dict(REQUIRED),
        ])
        with pytest.raises(RecordValidationError, match="record 1: .*entropy_full"):
            ls.histogram2d(recs)


class TestQuadrants:
    def test_partition_complete(self):
        recs = make_records(300)
        stats = ls.quadrant_stats(recs, q=0.15)
        assert sum(stats["counts"].values()) == 300
        assert sum(stats["shares"].values()) == pytest.approx(1.0, abs=1e-12)

    def test_constructed_fifteen_percent(self):
        # 15 records sit jointly below both thresholds; share is exactly 0.15
        low = np.arange(100) < 15
        recs = ls.RecordTable.of(
            source_id="c", position=np.arange(100), token_id=np.arange(100),
            p_target=np.where(low, 0.001, 0.5),
            entropy_topk=np.where(low, 0.01, 2.5),
            gate=np.where(low, 0.01, 0.9),
        )
        stats = ls.quadrant_stats(recs, q=0.15)
        assert stats["shares"]["confident-conflict"] == pytest.approx(0.15)

    def test_all_identical_records_degenerate(self):
        # nearest-rank thresholds put tied records into a single quadrant
        recs = ls.RecordTable.of(
            source_id="d", position=np.arange(10), token_id=0, p_target=0.3,
            entropy_topk=1.0, gate=0.4,
        )
        stats = ls.quadrant_stats(recs, q=0.15)
        assert stats["counts"]["confident-conflict"] == 10

    def test_explicit_thresholds(self):
        recs = make_records(100)
        stats = ls.quadrant_stats(recs, thresholds=(0.5, 0.5))
        assert stats["thresholds"] == (0.5, 0.5)


def loop_ranking(records, labels, quadrant, top_n):
    """The per-record loop the array ranking replaced: the reference."""
    groups = {}
    for rec, label in zip(record_dicts(records), labels):
        if label != quadrant:
            continue
        key = rec.get("token_text", rec["token_id"])
        entry = groups.setdefault(key, {"token": key, "token_id": rec["token_id"], "count": 0, "gate_sum": 0.0})
        entry["count"] += 1
        entry["gate_sum"] += rec["gate"]
    ranked = sorted(groups.values(), key=lambda e: (-e["count"], e["token_id"]))
    return [
        {"token": e["token"], "count": e["count"], "mean_gate": e["gate_sum"] / e["count"]}
        for e in ranked[:top_n]
    ]


def loop_dynamics(records, high_min=2.0, low_max=0.5):
    """The per-record loop the array dynamics replaced: the reference."""
    by_step = {}
    for rec in record_dicts(records):
        by_step.setdefault(rec["step"], []).append(rec)
    rows = []
    for step in sorted(by_step):
        group = by_step[step]
        ce = np.array([-math.log(max(r["p_target"], 1e-300)) for r in group])
        ent = np.array([r["entropy_full"] for r in group])
        hi = ent >= high_min
        lo = ent <= low_max
        rows.append({
            "step": step,
            "high_entropy_ce": float(ce[hi].mean()) if hi.any() else None,
            "high_entropy_count": int(hi.sum()),
            "low_entropy_ce": float(ce[lo].mean()) if lo.any() else None,
            "low_entropy_count": int(lo.sum()),
        })
    return rows


def tied_records(seed, n=400):
    """Few distinct tokens, some with text and some without, text shared
    across token ids, and a text equal to another record's id as a string;
    repeated gates make the running sums order-sensitive."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        row = dict(
            source_id="t", position=i, token_id=int(rng.integers(0, 6)),
            p_target=float(rng.choice([0.0, 1e-320, 0.1, 0.3, 0.7, 1.0])),
            entropy_full=float(rng.choice([0.1, 0.5, 1.0, 2.0, 3.3])),
            entropy_topk=0.5, gate=float(rng.choice([0.1, 0.2, 0.3, 1 / 3, 0.7])),
            step=int(rng.integers(0, 7)) * 10,
        )
        if rng.uniform() < 0.4:
            row["token_text"] = str(rng.choice(["a", "b", "3", "caf\u00e9"]))
        rows.append(row)
    return table(rows)


class TestRanking:
    def test_single_token_five_occurrences(self):
        recs = ls.RecordTable.of(
            source_id="r", position=np.arange(5), token_id=9, p_target=0.1,
            entropy_topk=0.1, gate=0.1,
        )
        labels = ["confident-conflict"] * 5
        rows = ls.quadrant_token_ranking(recs, labels, "confident-conflict", 10)
        assert rows == [{"token": 9, "count": 5, "mean_gate": pytest.approx(0.1)}]

    def test_top_n_zero(self):
        recs = make_records(10)
        labels = ["other"] * 10
        assert ls.quadrant_token_ranking(recs, labels, "other", 0) == []

    def test_stable_ordering(self):
        recs = make_records(200, seed=3)
        stats = ls.quadrant_stats(recs, q=0.3)
        a = ls.quadrant_token_ranking(recs, stats["labels"], "other", 10)
        b = ls.quadrant_token_ranking(recs, stats["labels"], "other", 10)
        assert a == b

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_record_loop(self, seed):
        # same tokens, counts, tie order and mean-gate bits as the loop
        recs = tied_records(seed)
        stats = ls.quadrant_stats(recs, q=0.4)
        for quadrant in (*probstats.QUADRANTS, "absent"):
            for top_n in (0, 3, 100):
                got = ls.quadrant_token_ranking(recs, stats["labels"], quadrant, top_n)
                assert got == loop_ranking(recs, stats["labels"], quadrant, top_n)
                assert [type(r["token"]) for r in got] == [
                    type(r["token"]) for r in loop_ranking(recs, stats["labels"], quadrant, top_n)
                ]


class TestDynamics:
    def test_requires_step_and_entropy(self):
        recs = make_records(5, with_step=False)
        with pytest.raises(RecordValidationError):
            ls.dynamics_track(recs)

    def test_single_record_step(self):
        rec = ls.RecordTable.of(source_id="a", position=0, token_id=0, p_target=0.5,
                                entropy_full=3.0, entropy_topk=1.0, gate=0.5, step=0)
        rows = ls.dynamics_track(rec)
        assert rows[0]["high_entropy_ce"] == pytest.approx(-math.log(0.5))
        assert rows[0]["high_entropy_count"] == 1
        assert rows[0]["low_entropy_count"] == 0
        assert rows[0]["low_entropy_ce"] is None

    def test_steps_sorted(self):
        recs = ls.RecordTable.of(source_id="a", position=0, token_id=0, p_target=0.5,
                                 entropy_full=0.1, entropy_topk=0.1, gate=0.1, step=[4, 0, 2])
        rows = ls.dynamics_track(recs)
        assert [r["step"] for r in rows] == [0, 2, 4]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_record_loop(self, seed):
        # each step's subgroup means over that step's records in record order,
        # bit for bit, with steps interleaved as captures never are
        recs = tied_records(seed)
        assert ls.dynamics_track(recs, 1.0, 0.5) == loop_dynamics(recs, 1.0, 0.5)
        assert ls.dynamics_track(recs) == loop_dynamics(recs)

    def test_default_thresholds(self):
        # the train log, dynamics_track and the dynamics command share them
        assert (probstats.HIGH_ENTROPY_MIN, probstats.LOW_ENTROPY_MAX) == (2.0, 0.5)
        defaults = inspect.signature(ls.dynamics_track).parameters
        assert (defaults["high_min"].default, defaults["low_max"].default) == (2.0, 0.5)
        args = cli.build_parser().parse_args(["dynamics", "in", "out"])
        assert (args.hi, args.lo) == (2.0, 0.5)
        recs = tied_records(0)
        for high_min, low_max in ((0.5, 0.5), (0.5, 1.0), (float("nan"), 0.5)):
            with pytest.raises(InvalidArgumentError):
                ls.dynamics_track(recs, high_min, low_max)


def whole_matrix_draw(n, vocab, seed):
    """The synthetic corpus drawn, scaled and softmaxed as one (n, vocab) matrix."""
    rng = np.random.default_rng(seed)
    temps = np.exp(rng.uniform(np.log(0.3), np.log(2.0), size=n))
    logits = rng.standard_normal((n, vocab))
    logits *= 14.0 / temps[:, None]
    return probstats.softmax_rows(logits)


class TestFidelity:
    def test_k_equals_v_is_exact(self):
        probs = ls.synthetic_fidelity_corpus(n_tokens=400, vocab_size=128)
        rows = ls.fidelity_from_probs(probs, [5, 128])
        assert rows[-1]["pearson_r"] == pytest.approx(1.0, abs=1e-12)

    def test_memory_cost_model(self):
        probs = ls.synthetic_fidelity_corpus(n_tokens=100, vocab_size=64)
        rows = ls.fidelity_from_probs(probs, [20, 64])
        assert rows[0]["extra_bytes_per_token"] == 240
        assert rows[0]["extra_bytes_per_token"] < 400

    def test_degenerate_variance(self):
        probs = np.full((50, 16), 1 / 16)
        with pytest.raises(DegenerateVarianceError):
            ls.fidelity_from_probs(probs, [4])

    def test_grid_must_ascend(self):
        probs = ls.synthetic_fidelity_corpus(n_tokens=50, vocab_size=32)
        for grid in ([10, 5], [5, 5]):
            with pytest.raises(InvalidArgumentError):
                ls.fidelity_from_probs(probs, grid)

    @pytest.mark.parametrize("n", [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_blocks_match_whole_matrix(self, n):
        # N at and around the block boundaries; the oracle is one whole-matrix
        # draw, softmax and kernel call
        vocab, seed = 12, 7
        oracle = whole_matrix_draw(n, vocab, seed)

        blocks = list(ls.synthetic_fidelity_blocks(n, vocab, seed))
        assert [len(b) for b in blocks[:-1]] == [BLOCK] * (len(blocks) - 1)
        assert np.concatenate(blocks).tobytes() == oracle.tobytes()
        assert ls.synthetic_fidelity_corpus(n, vocab, seed).tobytes() == oracle.tobytes()
        exact = np.concatenate([probstats.entropy_rows(b) for b in blocks])
        assert exact.tobytes() == probstats.entropy_rows(oracle).tobytes()
        ks = [1, 2, vocab]
        expected = []
        for k in ks:
            approx = np.concatenate([probstats.topk_entropy_rows(b, k) for b in blocks])
            whole = probstats.topk_entropy_rows(oracle, k)
            assert approx.tobytes() == whole.tobytes()
            r = probstats.pearson(exact, whole) if whole.std() > 0 else None
            expected.append({"k": k, "pearson_r": r, "extra_bytes_per_token": 12 * k})
        assert ls.fidelity_from_blocks(iter(blocks), ks) == expected
        assert ls.fidelity_from_probs(oracle, ks) == expected

    def test_too_few_rows_rejected(self):
        with pytest.raises(InvalidArgumentError, match="N >= 2"):
            ls.fidelity_from_blocks(ls.synthetic_fidelity_blocks(1, 8), [2])
        with pytest.raises(InvalidArgumentError, match="N >= 2"):
            ls.fidelity_from_blocks(iter([]), [2])

    def test_model_study_matches_manual(self):
        params = toylm.init_model(TINY)
        rng = np.random.default_rng(0)
        corpus = toylm.Corpus(rng.integers(0, 8, (64, 3)), rng.integers(0, 8, 64))
        rows = ls.topk_fidelity_study(params, corpus, [2, 8])
        assert rows[-1]["pearson_r"] == pytest.approx(1.0, abs=1e-12)

    def test_default_grid(self):
        assert ls.default_k_grid(4096) == [1, 2, 5, 10, 20, 50, 100, 4096]
        assert ls.default_k_grid(64) == [1, 2, 5, 10, 20, 50, 64]


def serial_fidelity(blocks, ks):
    """The one-thread block loop: each block scored in turn, in order, with
    the per-k kernel below V; k = V keeps every entry, so it is the exact
    entropy."""
    exact = np.concatenate([probstats.entropy_rows(b) for b in blocks])
    rows = []
    for k in ks:
        if k == blocks[0].shape[1]:
            approx = exact
        else:
            approx = np.concatenate([probstats.topk_entropy_rows(b, k) for b in blocks])
        r = probstats.pearson(exact, approx) if approx.std() > 0 else None
        rows.append({"k": k, "pearson_r": r, "extra_bytes_per_token": 12 * k})
    return rows


class IteratorFailed(Exception):
    pass


def failing_after(blocks, exc):
    yield from blocks
    raise exc


class TestFidelityPipeline:
    """Blocks are scored in turn on the caller; the synthetic generator's one
    helper thread draws the next block's logits into one of two buffers."""

    @pytest.mark.parametrize("n", [BLOCK, 2 * BLOCK, 2 * BLOCK + 5])
    def test_rows_match_serial_oracle(self, n):
        # one block, two blocks, and a partial last block
        blocks = list(ls.synthetic_fidelity_blocks(n, 48, 3))
        ks = [1, 2, 5, 48]
        assert ls.fidelity_from_blocks(iter(blocks), ks) == serial_fidelity(blocks, ks)

    def test_rows_match_serial_oracle_under_stress(self):
        # a short switch interval interleaves the two threads as often as it
        # can; the rows still come out in order
        blocks = list(ls.synthetic_fidelity_blocks(9 * BLOCK + 7, 32, 4))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rows = ls.fidelity_from_blocks(iter(blocks), [1, 3, 32])
        finally:
            sys.setswitchinterval(interval)
        assert rows == serial_fidelity(blocks, [1, 3, 32])

    @pytest.mark.parametrize("vocab", [64, 256, 1024])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_partition_matches_per_k_kernel(self, vocab, seed):
        # k = V is the exact entropy itself, and k < kmax is taken from the
        # top-kmax slice. The kernel sums both in another order, so they may
        # differ from it in the last bits, within a bound of ~k * (1 + ln k)
        # float64 ulps; only kmax is the kernel's own computation
        ks = ls.default_k_grid(vocab)
        kmax = ks[-2]
        blocks = list(ls.synthetic_fidelity_blocks(3 * BLOCK + 5, vocab, seed))
        for block in blocks:
            exact, *approx = ls._score_block(block, ks)
            assert exact.tobytes() == probstats.entropy_rows(block).tobytes()
            assert approx[-1].tobytes() == exact.tobytes()
            for k, values in zip(ks, approx):
                oracle = probstats.topk_entropy_rows(block, k)
                if k == kmax:
                    assert values.tobytes() == oracle.tobytes()
                else:
                    np.testing.assert_allclose(values, oracle, rtol=0, atol=1e-12)
            # a grid of V alone scores V as the exact entropy
            assert [h.tobytes() for h in ls._score_block(block, [vocab])] == [exact.tobytes()] * 2
        rows = ls.fidelity_from_blocks(iter(blocks), ks)
        for row, expected in zip(rows, serial_fidelity(blocks, ks), strict=True):
            if row["k"] >= kmax or expected["pearson_r"] is None:
                assert row == expected
            else:
                assert row == {**expected, "pearson_r": pytest.approx(expected["pearson_r"], abs=1e-12)}

    def test_drawn_on_one_helper_thread_into_two_buffers(self, monkeypatch):
        # the helper only draws, each time into the buffer that the block
        # before last used; the softmax and the scoring run on the caller
        drawers, buffers, softmaxes, scorers = [], [], [], []
        default_rng, softmax, score = np.random.default_rng, probstats.softmax_rows, ls._score_block

        class RecordingRng:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def uniform(self, *args, **kwargs):
                return self.rng.uniform(*args, **kwargs)

            def standard_normal(self, *args, **kwargs):
                drawers.append(threading.get_ident())
                out = kwargs.get("out")
                buffers.append(None if out is None else out.__array_interface__["data"][0])
                return self.rng.standard_normal(*args, **kwargs)

        def recording(record, fn):
            def call(*args):
                record.append(threading.get_ident())
                return fn(*args)
            return call

        expected = serial_fidelity(list(ls.synthetic_fidelity_blocks(5 * BLOCK, 16, 1)), [2, 16])
        monkeypatch.setattr(np.random, "default_rng", RecordingRng)
        monkeypatch.setattr(probstats, "softmax_rows", recording(softmaxes, softmax))
        monkeypatch.setattr(ls, "_score_block", recording(scorers, score))
        rows = ls.fidelity_from_blocks(ls.synthetic_fidelity_blocks(5 * BLOCK, 16, 1), [2, 16])
        caller = threading.get_ident()
        assert rows == expected
        assert len(drawers) == 5 and len(set(drawers)) == 1 and drawers[0] != caller
        assert None not in buffers and len(set(buffers)) == 2
        assert all(a != b for a, b in zip(buffers, buffers[1:]))
        assert softmaxes == [caller] * 5 and scorers == [caller] * 5

    def test_blocks_bit_equal_under_stress(self):
        # a short switch interval interleaves the two threads as often as it
        # can, and the slow consumer lets the helper finish each draw while
        # it holds every block so far
        n, vocab, seed = 9 * BLOCK + 7, 256, 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            blocks = []
            for block in ls.synthetic_fidelity_blocks(n, vocab, seed):
                time.sleep(0.002)
                blocks.append(block)
        finally:
            sys.setswitchinterval(interval)
        assert np.concatenate(blocks).tobytes() == whole_matrix_draw(n, vocab, seed).tobytes()

    def test_model_and_matrix_studies_start_no_thread(self, monkeypatch):
        # both score their blocks in turn on the caller; the pinned rows were
        # computed when a helper thread made each block, and keep their bits
        probs = ls.synthetic_fidelity_corpus(3 * BLOCK + 9, 48, 6)

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(ls, "ThreadPoolExecutor", no_pool)
        assert ls.fidelity_from_probs(probs, [1, 2, 5, 20, 48]) == [
            {"k": 1, "pearson_r": None, "extra_bytes_per_token": 12},
            {"k": 2, "pearson_r": 0.9164188433703544, "extra_bytes_per_token": 24},
            {"k": 5, "pearson_r": 0.992343142357003, "extra_bytes_per_token": 60},
            {"k": 20, "pearson_r": 0.9999999553050991, "extra_bytes_per_token": 240},
            {"k": 48, "pearson_r": 0.9999999999999999, "extra_bytes_per_token": 576},
        ]
        config = toylm.ModelConfig(vocab_size=32, context_len=3, embed_dim=4, hidden_dim=8, seed=2)
        rng = np.random.default_rng(5)
        n = 3 * BLOCK + 9
        corpus = toylm.Corpus(rng.integers(0, 32, (n, 3)), rng.integers(0, 32, n))
        assert ls.topk_fidelity_study(toylm.init_model(config), corpus, [1, 2, 5, 20, 32]) == [
            {"k": 1, "pearson_r": None, "extra_bytes_per_token": 12},
            {"k": 2, "pearson_r": 0.12823613286112237, "extra_bytes_per_token": 24},
            {"k": 5, "pearson_r": 0.3987124015382533, "extra_bytes_per_token": 60},
            {"k": 20, "pearson_r": 0.7568415107531907, "extra_bytes_per_token": 240},
            {"k": 32, "pearson_r": 1.0, "extra_bytes_per_token": 384},
        ]

    @pytest.mark.parametrize(
        "bad,message",
        [
            (np.full(16, 1 / 16), "N >= 2"),  # not 2-D
            (np.full((3, 4), 0.25), r"\[1, V\]"),  # k = 8 > V = 4
        ],
    )
    def test_bad_block_after_good_ones(self, bad, message):
        good = list(ls.synthetic_fidelity_blocks(3 * BLOCK, 8, 2))
        start = threading.active_count()
        with pytest.raises(InvalidArgumentError, match=message):
            ls.fidelity_from_blocks(iter(good + [bad] + good), [2, 8])
        assert threading.active_count() == start

    def test_earliest_bad_block_wins(self):
        # block 1 is not 2-D and block 2 is too narrow for k = 8
        good = list(ls.synthetic_fidelity_blocks(BLOCK, 8, 2))
        blocks = good + [np.full(8, 1 / 8), np.full((2, 4), 0.25)]
        with pytest.raises(InvalidArgumentError, match="N >= 2"):
            ls.fidelity_from_blocks(iter(blocks), [2, 8])

    def test_iterator_exception_propagates_unchanged(self):
        good = list(ls.synthetic_fidelity_blocks(3 * BLOCK, 8, 2))
        exc = IteratorFailed("draw failed")
        start = threading.active_count()
        with pytest.raises(IteratorFailed) as info:
            ls.fidelity_from_blocks(failing_after(good, exc), [2, 8])
        assert info.value is exc
        assert threading.active_count() == start

    def test_block_error_before_iterator_exception(self):
        # block 1 fails while the iterator fails to produce block 2
        good = list(ls.synthetic_fidelity_blocks(BLOCK, 8, 2))
        blocks = failing_after(good + [np.full(8, 1 / 8)], IteratorFailed("late"))
        start = threading.active_count()
        with pytest.raises(InvalidArgumentError, match="N >= 2"):
            ls.fidelity_from_blocks(blocks, [2, 8])
        assert threading.active_count() == start

    def test_threads_joined_after_return_and_late_errors(self):
        start = threading.active_count()
        ls.fidelity_from_blocks(ls.synthetic_fidelity_blocks(3 * BLOCK, 8, 2), [2, 8])
        assert threading.active_count() == start
        with pytest.raises(DegenerateVarianceError):
            ls.fidelity_from_blocks(iter([np.full((50, 16), 1 / 16)]), [4])
        assert threading.active_count() == start
        with pytest.raises(InvalidArgumentError, match="N >= 2"):
            ls.fidelity_from_blocks(iter([np.full((1, 16), 1 / 16)]), [4])
        assert threading.active_count() == start

    def test_helper_joined_while_traceback_is_held(self, tmp_path, monkeypatch):
        # the second block fails to score in the synthetic study; the failing
        # frames, held by the traceback, still refer to the generator, and its
        # helper is joined all the same
        score, scored = ls._score_block, []

        def failing_second(block, ks):
            scored.append(block)
            if len(scored) == 2:
                raise InvalidArgumentError("block 2 failed")
            return score(block, ks)

        monkeypatch.setattr(ls, "_score_block", failing_second)
        args = cli.build_parser().parse_args(["topk-study", str(tmp_path / "out"), "--synthetic"])
        start = threading.active_count()
        with pytest.raises(InvalidArgumentError, match="block 2") as info:
            cli.cmd_topk_study(args)
        assert info.tb is not None
        assert threading.active_count() == start

    def test_iterator_at_most_two_blocks_ahead(self, monkeypatch):
        # scoring is slowed so that an unbounded read-ahead would show
        scored = []
        score = ls._score_block

        def slow(block, ks):
            time.sleep(0.005)
            result = score(block, ks)
            scored.append(len(scored))
            return result

        monkeypatch.setattr(ls, "_score_block", slow)
        ahead = []

        def counting(blocks):
            for pulled, block in enumerate(blocks):
                ahead.append(pulled - len(scored))  # blocks pulled but not yet scored
                yield block

        blocks = list(ls.synthetic_fidelity_blocks(12 * BLOCK, 8, 2))
        rows = ls.fidelity_from_blocks(counting(blocks), [2, 8])
        assert rows == serial_fidelity(blocks, [2, 8])
        assert len(ahead) == 12 and max(ahead) <= 2
