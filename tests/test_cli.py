"""CLI contract tests: exit codes, file outputs, idempotence, parallel merge."""

import json
from pathlib import Path

import numpy as np
import pytest

from eaftlab import cli, landscape as ls

RNG = np.random.default_rng(20260810)


def small_sequences(n=80, length=24, vocab=16):
    rng = np.random.default_rng(5)
    return [[int(t) for t in rng.integers(0, vocab, size=length)] for _ in range(n)]


def train_config(tmp_path, **overrides):
    doc = {
        "version": "1",
        "model": {"vocab_size": 16, "context_len": 3, "embed_dim": 4, "hidden_dim": 8, "seed": 1},
        "corpus": {"sequences": small_sequences()},
        "objective": {"name": "eaft", "k": 16},
        "optimizer": {"kind": "adam-lite", "learning_rate": 0.003},
        "train": {"steps": 40, "batch_size": 16, "capture_every": 10, "seed": 2},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def bench_protocol(tmp_path):
    doc = {
        "version": "1",
        "domain": {"seed": 0},
        "conflict": {},
        "sizes": {"pretrain_sequences": 120, "finetune_walks": 150, "eval_sequences": 100},
        "protocol": {
            "hidden_dim": 32,
            "pretrain_stages": [[300, "adam-lite", 0.003]],
            "finetune_steps": 20,
        },
        "objectives": ["ce", "eaft"],
        "seeds": [0, 1, 2],
    }
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps(doc))
    return path


class TestTrain:
    def test_missing_config_names_path(self, tmp_path, capsys):
        code = cli.main(["train", str(tmp_path / "nope.json"), str(tmp_path / "out")])
        assert code == 1
        assert "nope.json" in capsys.readouterr().err

    def test_minimal_config_writes_three_files(self, tmp_path):
        cfg = train_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["train", str(cfg), str(out)]) == 0
        assert (out / "checkpoint.ckpt").exists()
        assert (out / "trainlog.csv").exists()
        assert (out / "records.jsonl").exists()

    def test_rerun_byte_identical_trainlog(self, tmp_path):
        cfg = train_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", str(cfg), str(a)]) == 0
        assert cli.main(["train", str(cfg), str(b)]) == 0
        assert (a / "trainlog.csv").read_bytes() == (b / "trainlog.csv").read_bytes()
        assert (a / "checkpoint.ckpt").read_bytes() == (b / "checkpoint.ckpt").read_bytes()
        assert (a / "records.jsonl").read_bytes() == (b / "records.jsonl").read_bytes()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = train_config(tmp_path, extra_knob=1)
        assert cli.main(["train", str(cfg), str(tmp_path / "out")]) == 1
        assert "extra_knob" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_runtime_error(self, tmp_path, capsys):
        # a learning rate that overflows the logits is a runtime failure
        # (exit 2) that names the step, not a configuration error (exit 1)
        cfg = train_config(
            tmp_path,
            objective={"name": "ce", "k": 16},
            optimizer={"kind": "sgd-momentum", "learning_rate": 1e308},
        )
        assert cli.main(["train", str(cfg), str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "diverged at step" in err

    def test_unknown_objective_named(self, tmp_path, capsys):
        cfg = train_config(tmp_path, objective={"name": "flow"})
        assert cli.main(["train", str(cfg), str(tmp_path / "out")]) == 1
        assert "flow" in capsys.readouterr().err


class TestBench:
    def test_grid_outputs_and_parallel_merge(self, tmp_path):
        proto = bench_protocol(tmp_path)
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        assert cli.main(["bench", str(proto), str(out1), "--parallel", "1"]) == 0
        # 2 objectives x 3 seeds cell files plus the report
        cells = sorted(p.name for p in out1.glob("cell_*.json"))
        assert len(cells) == 6
        assert (out1 / "pareto.csv").exists()
        assert cli.main(["bench", str(proto), str(out2), "--parallel", "3"]) == 0
        assert (out1 / "pareto.csv").read_bytes() == (out2 / "pareto.csv").read_bytes()
        for name in cells:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_unknown_objective_in_grid(self, tmp_path, capsys):
        doc = json.loads(bench_protocol(tmp_path).read_text())
        doc["objectives"] = ["ce", "talr"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["bench", str(path), str(tmp_path / "out")]) == 1
        assert "talr" in capsys.readouterr().err


class TestAnalyze:
    def test_records_input_skips_model(self, tmp_path):
        records = []
        rng = np.random.default_rng(3)
        for i in range(200):
            g = float(rng.uniform(0, 1))
            records.append(
                ls.TokenRecord(
                    source_id="ext", position=i, token_id=int(rng.integers(0, 50)),
                    p_target=float(rng.uniform(0, 1)), entropy_full=float(rng.uniform(0, 4)),
                    entropy_topk=g * 3.0, gate=g,
                )
            )
        path = tmp_path / "records.jsonl"
        ls.export_records(records, path, "jsonl")
        out = tmp_path / "out"
        assert cli.main(["analyze", str(out), "--records", str(path)]) == 0
        for name in ("landscape.csv", "quadrants.csv", "ranking.csv"):
            assert (out / name).exists()

    def test_both_sources_rejected(self, tmp_path, capsys):
        assert cli.main([
            "analyze", str(tmp_path / "out"),
            "--records", "r.jsonl", "--checkpoint", "c.ckpt", "--corpus", "x.json",
        ]) == 1

    def test_neither_source_rejected(self, tmp_path):
        assert cli.main(["analyze", str(tmp_path / "out")]) == 1

    def test_checkpoint_scoring_path(self, tmp_path):
        cfg = train_config(tmp_path)
        run_out = tmp_path / "run"
        assert cli.main(["train", str(cfg), str(run_out)]) == 0
        corpus_doc = tmp_path / "corpus.json"
        corpus_doc.write_text(json.dumps({"sequences": small_sequences(40)}))
        out = tmp_path / "analysis"
        assert cli.main([
            "analyze", str(out),
            "--checkpoint", str(run_out / "checkpoint.ckpt"),
            "--corpus", str(corpus_doc),
            "--k", "16",
        ]) == 0
        assert (out / "quadrants.csv").exists()


class TestTopkStudy:
    def test_synthetic_mode_needs_no_checkpoint(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["topk-study", str(out), "--synthetic", "--k-grid", "1,2,5,10,20,4096"])
        assert code == 0
        lines = (out / "fidelity.csv").read_text().splitlines()
        assert lines[0] == "k,pearson_r,extra_bytes_per_token"
        last = lines[-1].split(",")
        assert last[0] == "4096"
        assert abs(float(last[1]) - 1.0) < 1e-12

    def test_requires_exactly_one_source(self, tmp_path):
        assert cli.main(["topk-study", str(tmp_path / "out")]) == 1


class TestDynamics:
    def test_lo_must_be_below_hi(self, tmp_path):
        d = tmp_path / "records"
        d.mkdir()
        (d / "x.jsonl").write_text("")
        assert cli.main(["dynamics", str(d), str(tmp_path / "out"), "--lo", "2.0", "--hi", "2.0"]) == 1

    def test_missing_captures(self, tmp_path):
        d = tmp_path / "records"
        d.mkdir()
        assert cli.main(["dynamics", str(d), str(tmp_path / "out")]) == 1

    def test_writes_table_per_objective(self, tmp_path):
        cfg = train_config(tmp_path)
        run_out = tmp_path / "run"
        assert cli.main(["train", str(cfg), str(run_out)]) == 0
        d = tmp_path / "records"
        d.mkdir()
        (d / "eaft.jsonl").write_bytes((run_out / "records.jsonl").read_bytes())
        out = tmp_path / "dyn"
        assert cli.main(["dynamics", str(d), str(out)]) == 0
        table = (out / "dynamics_eaft.csv").read_text().splitlines()
        assert table[0] == "step,high_entropy_ce,high_entropy_count,low_entropy_ce,low_entropy_count"
        # one row per capture step: steps 0,10,20,30 plus the final state
        assert len(table) == 1 + 5


class TestWarmStartWorkflow:
    def test_pretrain_finetune_dynamics_pipeline(self, tmp_path):
        """Full CLI loop: pretrain on the generated domain, fine-tune from the
        checkpoint with captures, then build the dynamics table."""
        bench = {
            "domain": {"seed": 2},
            "conflict": {},
            "sizes": {"pretrain_sequences": 120, "finetune_walks": 150, "eval_sequences": 100},
        }
        pre_cfg = {
            "version": "1",
            "model": {"vocab_size": 64, "context_len": 3, "embed_dim": 8, "hidden_dim": 32, "seed": 0},
            "corpus": {"bench": dict(bench, part="pretrain")},
            "objective": {"name": "ce"},
            "optimizer": {"kind": "adam-lite", "learning_rate": 0.003},
            "train": {"steps": 200, "batch_size": 64, "seed": 0},
        }
        (tmp_path / "pre.json").write_text(json.dumps(pre_cfg))
        assert cli.main(["train", str(tmp_path / "pre.json"), str(tmp_path / "pre")]) == 0
        ft_cfg = {
            "version": "1",
            "model": {"vocab_size": 64, "context_len": 3, "embed_dim": 8, "hidden_dim": 32, "seed": 0},
            "corpus": {"bench": dict(bench, part="finetune")},
            "objective": {"name": "eaft"},
            "optimizer": {"kind": "sgd-momentum", "learning_rate": 0.05},
            "train": {"steps": 30, "batch_size": 32, "capture_every": 10, "seed": 1},
            "init_checkpoint": str(tmp_path / "pre" / "checkpoint.ckpt"),
        }
        (tmp_path / "ft.json").write_text(json.dumps(ft_cfg))
        assert cli.main(["train", str(tmp_path / "ft.json"), str(tmp_path / "ft")]) == 0
        rec_dir = tmp_path / "captures"
        rec_dir.mkdir()
        (rec_dir / "eaft.jsonl").write_bytes((tmp_path / "ft" / "records.jsonl").read_bytes())
        assert cli.main(["dynamics", str(rec_dir), str(tmp_path / "dyn")]) == 0
        table = (tmp_path / "dyn" / "dynamics_eaft.csv").read_text().splitlines()
        assert len(table) == 1 + 4  # header + captures at 0,10,20 + final


class TestNoStrayOutputs:
    def test_outputs_confined_to_out_dir(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        cfg = train_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["train", str(cfg), str(out)]) == 0
        assert list(workdir.iterdir()) == []
