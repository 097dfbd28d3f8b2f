"""Landscape diagnostics: records I/O, histograms, quadrants, dynamics,
and the top-K fidelity study."""

import json
import math
import os
from dataclasses import asdict

import numpy as np
import pytest

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


def make_records(n, seed=0, with_step=False):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        gate = float(rng.uniform(0, 1))
        out.append(
            ls.TokenRecord(
                source_id="t",
                position=i,
                token_id=int(rng.integers(0, 64)),
                p_target=float(rng.uniform(0, 1)),
                entropy_full=float(rng.uniform(0, 4)),
                entropy_topk=gate * math.log(20),
                gate=gate,
                weight=gate,
                grad_norm=float(rng.uniform(0, 2)),
                step=int(rng.integers(0, 5)) if with_step else None,
            )
        )
    return out


class TestTokenRecord:
    def test_validation(self):
        with pytest.raises(RecordValidationError):
            ls.TokenRecord(
                source_id="x", position=0, token_id=1, p_target=1.5,
                entropy_topk=0.1, gate=0.1,
            )

    def test_optional_fields_default_none(self):
        rec = ls.TokenRecord(
            source_id="x", position=0, token_id=1, p_target=0.5,
            entropy_topk=0.1, gate=0.1,
        )
        assert rec.entropy_full is None and rec.step is None


NON_FINITE_FIELDS = ("entropy_topk", "entropy_full", "grad_norm")
REQUIRED = {"source_id": "a", "position": 0, "token_id": 1, "p_target": 0.5,
            "entropy_topk": 0.1, "gate": 0.2}


class TestNonFiniteRecords:
    @pytest.mark.parametrize("field", NON_FINITE_FIELDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_record_rejects(self, field, value):
        with pytest.raises(RecordValidationError, match=field):
            ls.TokenRecord(**dict(REQUIRED, **{field: value}))

    def test_negative_grad_norm_rejected(self):
        with pytest.raises(RecordValidationError, match="grad_norm"):
            ls.TokenRecord(**REQUIRED, grad_norm=-1e-9)

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


class TestScoreCorpus:
    def test_empty_corpus(self):
        params = toylm.init_model(TINY)
        empty = toylm.Corpus(np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert ls.score_corpus(params, empty, k=8) == []

    def test_uniform_model_records(self):
        params = toylm.init_model(TINY)
        for f in toylm.PARAM_FIELDS:
            getattr(params, f)[:] = 0.0
        corpus = toylm.Corpus(np.array([[0, 1, 2], [3, 4, 5]]), np.array([2, 6]))
        recs = ls.score_corpus(params, corpus, k=8)
        for r in recs:
            assert r.gate == pytest.approx(1.0, abs=1e-12)
            assert r.p_target == pytest.approx(1 / 8, abs=1e-12)

    def test_record_count_and_order(self):
        params = toylm.init_model(TINY)
        corpus = toylm.Corpus.from_sequences([[0, 1, 2, 3, 4], [5, 6, 7, 0]], 3)
        recs = ls.score_corpus(params, corpus, k=8)
        assert len(recs) == len(corpus) == 3
        assert [r.position for r in recs] == [0, 1, 2]


class TestExportIngest:
    def test_jsonl_bytes_match_asdict_oracle(self, tmp_path):
        recs = make_records(20, with_step=True) + [
            ls.TokenRecord(source_id="q", position=0, token_id=0, p_target=0.0,
                           entropy_topk=0.0, gate=0.0, step=0),
            ls.TokenRecord(source_id='say "hi"\\', position=3, token_id=7, p_target=1.0,
                           entropy_topk=2.0**-1074, gate=1.0, token_text="caf\u00e9 \u2192 \U0001f600 \"x\"",
                           entropy_full=0.1 + 0.2, weight=0.0, grad_norm=0.0),
        ]
        path = tmp_path / "r.jsonl"
        ls.export_records(recs, path, "jsonl")
        oracle = "".join(
            json.dumps({k: v for k, v in asdict(r).items() if v is not None}, sort_keys=True) + "\n"
            for r in recs
        )
        assert path.read_bytes() == oracle.encode()
        assert ls.ingest_records(path) == recs

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_failed_export_keeps_old_file(self, tmp_path, fmt):
        path = tmp_path / f"r.{fmt}"
        path.write_text("old contents\n")

        def failing():
            yield from make_records(3)
            raise RuntimeError("writer failed mid-file")

        with pytest.raises(RuntimeError):
            ls.export_records(failing(), path, fmt)
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
        ls.export_records(recs, path, "jsonl")
        assert ls.ingest_records(path) == recs

    def test_unknown_fields_ignored(self, tmp_path):
        path = tmp_path / "r.jsonl"
        doc = {
            "source_id": "a", "position": 1, "token_id": 2, "p_target": 0.5,
            "entropy_topk": 0.1, "gate": 0.2, "mystery": "ignored",
        }
        path.write_text(json.dumps(doc) + "\n")
        recs = ls.ingest_records(path)
        assert len(recs) == 1 and recs[0].source_id == "a"

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
        assert ls.ingest_records(path) == []

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
        recs = [
            ls.TokenRecord(source_id="a", position=i, token_id=0, p_target=p,
                           entropy_full=1.0, entropy_topk=0.5, gate=0.5)
            for i, p in enumerate([0.0, 0.5, 1.0, 1.0])
        ]
        hist = ls.histogram2d(recs, x_bins=2, y_bins=1)
        # both records at the max land in the final bin
        assert hist.counts[1, 0] == 3 and hist.counts[0, 0] == 1

    def test_missing_axis_field(self):
        rec = ls.TokenRecord(source_id="a", position=0, token_id=0, p_target=0.5,
                             entropy_topk=0.5, gate=0.5)
        with pytest.raises(RecordValidationError):
            ls.histogram2d([rec])


class TestQuadrants:
    def test_partition_complete(self):
        recs = make_records(300)
        stats = ls.quadrant_stats(recs, q=0.15)
        assert sum(stats["counts"].values()) == 300
        assert sum(stats["shares"].values()) == pytest.approx(1.0, abs=1e-12)

    def test_constructed_fifteen_percent(self):
        # 15 records sit jointly below both thresholds; share is exactly 0.15
        recs = []
        for i in range(100):
            low = i < 15
            recs.append(
                ls.TokenRecord(
                    source_id="c", position=i, token_id=i,
                    p_target=0.001 if low else 0.5,
                    entropy_topk=0.01 if low else 2.5,
                    gate=0.01 if low else 0.9,
                )
            )
        stats = ls.quadrant_stats(recs, q=0.15)
        assert stats["shares"]["confident-conflict"] == pytest.approx(0.15)

    def test_all_identical_records_degenerate(self):
        # nearest-rank thresholds put tied records into a single quadrant
        recs = [
            ls.TokenRecord(source_id="d", position=i, token_id=0, p_target=0.3,
                           entropy_topk=1.0, gate=0.4)
            for i in range(10)
        ]
        stats = ls.quadrant_stats(recs, q=0.15)
        assert stats["counts"]["confident-conflict"] == 10

    def test_explicit_thresholds(self):
        recs = make_records(100)
        stats = ls.quadrant_stats(recs, thresholds=(0.5, 0.5))
        assert stats["thresholds"] == (0.5, 0.5)


class TestRanking:
    def test_single_token_five_occurrences(self):
        recs = [
            ls.TokenRecord(source_id="r", position=i, token_id=9, p_target=0.1,
                           entropy_topk=0.1, gate=0.1)
            for i in range(5)
        ]
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


class TestDynamics:
    def test_requires_step_and_entropy(self):
        recs = make_records(5, with_step=False)
        with pytest.raises(RecordValidationError):
            ls.dynamics_track(recs)

    def test_single_record_step(self):
        rec = ls.TokenRecord(source_id="a", position=0, token_id=0, p_target=0.5,
                             entropy_full=3.0, entropy_topk=1.0, gate=0.5, step=0)
        rows = ls.dynamics_track([rec])
        assert rows[0]["high_entropy_ce"] == pytest.approx(-math.log(0.5))
        assert rows[0]["high_entropy_count"] == 1
        assert rows[0]["low_entropy_count"] == 0
        assert rows[0]["low_entropy_ce"] is None

    def test_steps_sorted(self):
        recs = []
        for step in (4, 0, 2):
            recs.append(
                ls.TokenRecord(source_id="a", position=0, token_id=0, p_target=0.5,
                               entropy_full=0.1, entropy_topk=0.1, gate=0.1, step=step)
            )
        rows = ls.dynamics_track(recs)
        assert [r["step"] for r in rows] == [0, 2, 4]

    def test_default_thresholds(self):
        cfg = ls.DynamicsConfig()
        assert cfg.high_entropy_min == 2.0
        assert cfg.low_entropy_max == 0.5
        with pytest.raises(InvalidArgumentError):
            ls.DynamicsConfig(high_entropy_min=0.5, low_entropy_max=0.5)


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
        with pytest.raises(InvalidArgumentError):
            ls.fidelity_from_probs(probs, [10, 5])

    @pytest.mark.parametrize("n", [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_blocks_match_whole_matrix(self, n):
        # N at and around the block boundaries; the oracle is one whole-matrix
        # draw, softmax and kernel call
        vocab, seed = 12, 7
        rng = np.random.default_rng(seed)
        temps = np.exp(rng.uniform(np.log(0.3), np.log(2.0), size=n))
        logits = rng.standard_normal((n, vocab))
        logits *= 14.0 / temps[:, None]
        oracle = probstats.softmax_rows(logits)

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
