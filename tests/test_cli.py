"""CLI contract tests: exit codes, file outputs, idempotence, parallel merge."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eaftlab import cli, forgebench as fb, landscape as ls, toylm

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


@pytest.mark.parametrize(
    "argv",
    [["train", "c.json", "out"], ["analyze", "out"], ["topk-study", "out"], ["dynamics", "rec", "out"]],
    ids=lambda argv: argv[0],
)
def test_main_looks_commands_up_when_called(monkeypatch, argv):
    # a tracer that replaces cli.cmd_<x> after import still sees every call
    seen = []

    def recorder(args):
        seen.append(args)
        return 7

    monkeypatch.setattr(cli, "cmd_" + argv[0].replace("-", "_"), recorder)
    assert cli.main(argv) == 7
    assert len(seen) == 1 and seen[0].out_dir == "out"


@pytest.mark.parametrize("command", ["train", "bench", "analyze", "topk-study", "dynamics"])
def test_out_that_is_a_file_rejected_before_any_work(tmp_path, monkeypatch, capsys, command):
    # an output directory that is a file, a dangling link or lies under a
    # file exits 1 naming it before the command runs, instead of exit 2 after
    # the command's whole run
    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), lambda args: pytest.fail("the command ran"))
    inputs = {"train": ["c.json"], "bench": ["p.json"], "dynamics": ["rec"]}.get(command, [])
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    dangling = tmp_path / "link"
    dangling.symlink_to(tmp_path / "missing")
    for out in (blocker, blocker / "sub", dangling):
        assert cli.main([command, *inputs, str(out)]) == 1
        err = capsys.readouterr().err
        assert str(out) in err and "not a directory" in err
    assert blocker.read_text() == "kept" and not (tmp_path / "missing").exists()


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
        assert not (tmp_path / "out").exists()

    def test_overflow_is_runtime_error(self, tmp_path, capsys):
        # lr 1e300 leaves finite but overflowing parameters after one step;
        # the run must stop there instead of writing a checkpoint of them
        cfg = train_config(
            tmp_path,
            objective={"name": "ce", "k": 16},
            optimizer={"kind": "sgd-momentum", "learning_rate": 1e300},
        )
        assert cli.main(["train", str(cfg), str(tmp_path / "out")]) == 2
        assert "diverged at step 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "checkpoint.ckpt").exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "optimizer,field",
        [
            ({"kind": "adam"}, "optimizer.kind"),
            ({"learning_rate": "fast"}, "optimizer.learning_rate"),
            ({"learning_rate": 0}, "optimizer.learning_rate"),
        ],
    )
    def test_bad_optimizer_rejected(self, tmp_path, capsys, optimizer, field):
        cfg = train_config(tmp_path, optimizer=optimizer)
        assert cli.main(["train", str(cfg), str(tmp_path / "out")]) == 1
        assert field in capsys.readouterr().err

    def test_warm_start_checks_every_dimension(self, tmp_path, capsys):
        # a checkpoint of another shape must not train into an unreadable one
        pre = tmp_path / "pre"
        assert cli.main(["train", str(train_config(tmp_path)), str(pre)]) == 0
        doc = json.loads(train_config(tmp_path).read_text())
        doc["model"]["hidden_dim"] = 12
        doc["init_checkpoint"] = str(pre / "checkpoint.ckpt")
        cfg = tmp_path / "warm.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["train", str(cfg), str(tmp_path / "out")]) == 1
        assert "hidden_dim" in capsys.readouterr().err
        assert not (tmp_path / "out" / "checkpoint.ckpt").exists()

    @pytest.mark.parametrize("bad_id", [-1, 16])
    def test_token_id_outside_vocab_rejected(self, tmp_path, capsys, bad_id):
        seqs = small_sequences()
        seqs[-1][-1] = bad_id
        cfg = train_config(tmp_path, corpus={"sequences": seqs})
        assert cli.main(["train", str(cfg), str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "targets" in err and str(bad_id) in err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("steps", "many"), ("steps", -5), ("steps", 2.9), ("steps", True),
            ("batch_size", 0), ("probe_size", 0), ("capture_every", -3), ("seed", -1),
        ],
    )
    def test_bad_train_section_rejected(self, tmp_path, capsys, key, value):
        train = {"steps": 40, "batch_size": 16, "capture_every": 10, "seed": 2, key: value}
        cfg = train_config(tmp_path, train=train)
        assert cli.main(["train", str(cfg), str(tmp_path / "out")]) == 1
        assert f"train.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key,value", [("train", []), ("init_checkpoint", 5)]
    )
    def test_malformed_section_rejected(self, tmp_path, capsys, key, value):
        cfg = train_config(tmp_path, **{key: value})
        assert cli.main(["train", str(cfg), str(tmp_path / "out")]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section,change,field",
        [
            ("objective", {"k": "16"}, "objective.k"),
            ("objective", {"k": 16.0}, "objective.k"),
            ("objective", {"name": "hard_mask", "tau_entropy": "x"}, "objective.tau_entropy"),
            ("objective", {"name": "conflict_mask", "tau_prob": "0.1"}, "objective.tau_prob"),
            ("objective", {"name": "hard_mask", "tau_entropy": 1.5}, "objective.tau_entropy"),
            ("objective", {"aggregation": "median"}, "objective.aggregation"),
            ("objective", {"norm_mode": "bogus"}, "objective.norm_mode"),
            ("model", {"vocab_size": 16.5}, "model.vocab_size"),
            ("model", {"hidden_dim": True}, "model.hidden_dim"),
            ("model", {"seed": "1"}, "model.seed"),
        ],
    )
    def test_bad_field_rejected(self, tmp_path, capsys, section, change, field):
        doc = json.loads(train_config(tmp_path).read_text())
        cfg = train_config(tmp_path, **{section: {**doc[section], **change}})
        assert cli.main(["train", str(cfg), str(tmp_path / "out")]) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "objective,vocab",
        [
            ({"name": "eaft", "norm_mode": "paper-3.0", "k": 5}, 32),  # k = 5
            ({"name": "eaft", "norm_mode": "paper-3.0"}, 16),  # k = min(20, V) = 16
        ],
    )
    def test_paper_norm_needs_effective_k_20(self, tmp_path, capsys, objective, vocab):
        # rejected before the output directory exists, not at the first step
        doc = json.loads(train_config(tmp_path).read_text())
        cfg = train_config(tmp_path, objective=objective, model={**doc["model"], "vocab_size": vocab})
        assert cli.main(["train", str(cfg), str(tmp_path / "out")]) == 1
        assert "objective.norm_mode" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_paper_norm_with_effective_k_20_trains(self, tmp_path):
        doc = json.loads(train_config(tmp_path).read_text())
        cfg = train_config(
            tmp_path, objective={"name": "eaft", "norm_mode": "paper-3.0"},
            model={**doc["model"], "vocab_size": 20},
        )
        assert cli.main(["train", str(cfg), str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("bad_token", [1.5, "a", True, 2**70])
    def test_non_integer_token_rejected(self, tmp_path, capsys, bad_token):
        seqs = small_sequences()
        seqs[3][5] = bad_token
        cfg = train_config(tmp_path, corpus={"sequences": seqs})
        assert cli.main(["train", str(cfg), str(tmp_path / "out")]) == 1
        assert "corpus.sequences[3][5]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_objective_named(self, tmp_path, capsys):
        cfg = train_config(tmp_path, objective={"name": "flow"})
        assert cli.main(["train", str(cfg), str(tmp_path / "out")]) == 1
        assert "flow" in capsys.readouterr().err

    def test_kl_objective_needs_init_checkpoint(self, tmp_path, capsys):
        # the reference model of the KL term is the warm-start checkpoint
        cfg = train_config(tmp_path, objective={"name": "sft_kl"})
        assert cli.main(["train", str(cfg), str(tmp_path / "out")]) == 1
        assert "init_checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_version_must_be_1(self, tmp_path, capsys):
        cfg = train_config(tmp_path, version={"nonsense": True})
        assert cli.main(["train", str(cfg), str(tmp_path / "out")]) == 1
        assert "version" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("context_len,sizes", [(1, {}), (8, {"sequence_len": 8})])
    def test_bench_corpus_context_len_checked(self, tmp_path, capsys, context_len, sizes):
        # a bench part needs domain.markov_order (2) <= context_len < sizes.sequence_len
        doc = json.loads(train_config(tmp_path).read_text())
        cfg = train_config(
            tmp_path,
            model={**doc["model"], "context_len": context_len},
            corpus={"bench": {"sizes": sizes, "part": "finetune"}},
        )
        assert cli.main(["train", str(cfg), str(tmp_path / "out")]) == 1
        assert "model.context_len" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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


    @pytest.mark.parametrize(
        "key,value,field",
        [
            ("pretrain_stages", [[300, "adam-lite"]], "pretrain_stages[0]"),
            ("pretrain_stages", [[300, "adam-lite", 0.003], "x"], "pretrain_stages[1]"),
            ("pretrain_stages", [[1.5, "adam-lite", 0.003]], "pretrain_stages[0] steps"),
            ("pretrain_stages", [[300, "adam", 0.003]], "pretrain_stages[0] optimizer"),
            ("pretrain_stages", [[300, "adam-lite", "x"]], "pretrain_stages[0] learning_rate"),
            ("pretrain_stages", {"steps": 300}, "pretrain_stages"),
            ("seeds", [0, "a"], "seeds[1]"),
            ("seeds", [0, 1.5], "seeds[1]"),
            ("seeds", [-1], "seeds[0]"),
            ("seeds", [0, 0], "seeds[1]"),
            ("seeds", [], "seeds"),
            ("objectives", ["ce", "ce"], "objectives[1]"),
            ("objectives", "ce", "objectives"),
            ("objectives", [], "objectives"),
            ("version", {"nonsense": True}, "version"),
            # domain.markov_order (2) <= context_len < sizes.sequence_len (42)
            ("context_len", 1, "protocol.context_len"),
            ("context_len", 42, "protocol.context_len"),
            ("finetune_steps", -1, "protocol.finetune_steps"),
            ("hidden_dim", "96", "protocol.hidden_dim"),
            ("embed_dim", True, "protocol.embed_dim"),
            ("finetune_batch", 0, "protocol.finetune_batch"),
            ("pretrain_batch", 1.5, "protocol.pretrain_batch"),
            ("k", 0, "protocol.k"),
            ("mask_quantile", 1.0, "protocol.mask_quantile"),
            ("pilot_quantile", 0.0, "protocol.pilot_quantile"),
            ("pilot_quantile", "0.15", "protocol.pilot_quantile"),
            ("finetune_lr", 0, "protocol.finetune_lr"),
            ("finetune_lr", float("inf"), "protocol.finetune_lr"),
            ("finetune_optimizer", "adam", "protocol.finetune_optimizer"),
            ("capture_every", 5, "capture_every"),
            ("probe_size", 64, "probe_size"),
        ],
    )
    def test_bad_protocol_rejected(self, tmp_path, capsys, key, value, field):
        # rejected before any domain is generated, naming the field
        doc = json.loads(bench_protocol(tmp_path).read_text())
        if key in ("seeds", "objectives", "version"):
            doc[key] = value
        else:
            doc["protocol"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["bench", str(path), str(tmp_path / "out")]) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("domain", "markov_order", 2.5),
            ("domain", "markov_order", 0),
            ("domain", "vocab_size", "64"),
            ("domain", "vocab_size", 3),
            ("domain", "peaked_fraction", "0.6"),
            ("domain", "peaked_fraction", 1.5),
            ("domain", "peak_mass", None),
            ("domain", "peak_mass", 0.01),
            ("domain", "seed", -1),
            ("domain", "seed", 1.0),
            ("domain", "active_tokens", 2.5),
            ("domain", "active_tokens", 65),
            ("domain", "tail_concentration", 0),
            ("domain", "tail_concentration", "2"),
            ("domain", "flat_concentration", -1.0),
            ("domain", "flat_concentration", float("inf")),
            ("conflict", "conflict_rate", "0.3"),
            ("conflict", "conflict_rate", -0.1),
            ("conflict", "novelty_rate", True),
            ("conflict", "novel_peak_mass", 2.0),
            ("conflict", "novel_peak_mass", 0.0),
            ("sizes", "pretrain_sequences", 99),
            ("sizes", "finetune_walks", 150.0),
            ("sizes", "eval_sequences", [100]),
            ("sizes", "sequence_len", 8.5),
            ("sizes", "finetune_cap", 1.5),
            ("sizes", "finetune_cap", 0),
        ],
    )
    def test_bad_domain_rejected(self, tmp_path, capsys, section, key, value):
        # a generated-domain field is named before any output exists
        doc = json.loads(bench_protocol(tmp_path).read_text())
        doc[section][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["bench", str(path), str(tmp_path / "out")]) == 1
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section,change", [("conflict", {"novelty_rate": 0}), ("domain", {"peaked_fraction": 1.0})]
    )
    def test_no_domain_b_eval_rejected(self, tmp_path, capsys, section, change):
        # without domain-B contexts acquisition has no eval set; no cell is written
        doc = json.loads(bench_protocol(tmp_path).read_text())
        doc[section].update(change)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["bench", str(path), str(tmp_path / "out")]) == 1
        assert "conflict.novelty_rate" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds,parallel,started", [([0, 1], 500, [2]), ([0, 1, 2], 2, [2]), ([0], 500, [])])
    def test_pool_starts_at_most_one_worker_per_seed(self, tmp_path, monkeypatch, seeds, parallel, started):
        # a pool forks all its workers at once; the fake starts no process
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        doc = json.loads(bench_protocol(tmp_path).read_text())
        doc["seeds"] = seeds
        path = tmp_path / "protocol.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["bench", str(path), str(tmp_path / "out"), "--parallel", str(parallel)]) == 0
        assert pools == started
        assert len(list((tmp_path / "out").glob("cell_*.json"))) == 2 * len(seeds)

    @pytest.mark.parametrize("parallel", ["0", "-1"])
    def test_parallel_below_one_rejected(self, tmp_path, capsys, parallel):
        argv = ["bench", str(bench_protocol(tmp_path)), str(tmp_path / "out"), "--parallel", parallel]
        assert cli.main(argv) == 1
        assert "--parallel" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_k_above_vocab_scores_the_pilot_at_vocab(self, tmp_path):
        # the default protocol.k = 20 on V = 16: the objectives and the pilot
        # both read the top-16 gate, so the cells equal those of k = 16
        doc = json.loads(bench_protocol(tmp_path).read_text())
        doc["domain"]["vocab_size"] = 16
        doc["objectives"] = ["eaft", "hard_mask", "conflict_mask"]
        doc["seeds"] = [0]
        outs = []
        for k in (None, 16):
            if k is not None:
                doc["protocol"]["k"] = k
            path = tmp_path / f"protocol_{k}.json"
            path.write_text(json.dumps(doc))
            outs.append(tmp_path / f"out_{k}")
            assert cli.main(["bench", str(path), str(outs[-1])]) == 0
        names = sorted(p.name for p in outs[0].glob("cell_*.json"))
        assert len(names) == 3
        for name in names + ["pareto.csv"]:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestAnalyze:
    @pytest.mark.parametrize(
        "option,value",
        [("--bins", "0"), ("--q", "0"), ("--q", "1.5"), ("--q", "nan"), ("--top", "-1"), ("--k", "0")],
    )
    def test_bad_option_rejected_before_output(self, tmp_path, capsys, option, value):
        # checked before the records are read or any table is written
        out = tmp_path / "out"
        assert cli.main(["analyze", str(out), "--records", str(tmp_path / "none.jsonl"), option, value]) == 1
        assert option in capsys.readouterr().err
        assert not out.exists()

    def test_records_input_skips_model(self, tmp_path):
        rng = np.random.default_rng(3)
        gates = rng.uniform(0, 1, 200)
        records = ls.RecordTable.of(
            source_id="ext", position=np.arange(200), token_id=rng.integers(0, 50, 200),
            p_target=rng.uniform(0, 1, 200), entropy_full=rng.uniform(0, 4, 200),
            entropy_topk=gates * 3.0, gate=gates,
        )
        path = tmp_path / "records.jsonl"
        ls.export_records(records, path)
        out = tmp_path / "out"
        assert cli.main(["analyze", str(out), "--records", str(path)]) == 0
        for name in ("landscape.csv", "quadrants.csv", "ranking.csv"):
            assert (out / name).exists()

    @pytest.mark.parametrize("field,text", [
        ("position", "2.7"),
        ("position", "true"),
        ("p_target", '"0.5"'),
        ("source_id", "5"),
        ("token_id", "-1"),
        ("position", str(2**70)),
        ("p_target", "1" + "0" * 400),
    ])
    def test_strict_record_types(self, tmp_path, capsys, field, text):
        # each exits 1 naming the line and the field, never 0 or 2
        doc = {"source_id": "a", "position": 0, "token_id": 1, "p_target": 0.5,
               "entropy_full": 1.0, "entropy_topk": 0.1, "gate": 0.2}
        bad = json.dumps(dict(doc) | {field: "@"}).replace('"@"', text)
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(doc) + "\n" + bad + "\n")
        assert cli.main(["analyze", str(tmp_path / "out"), "--records", str(path)]) == 1
        assert f"line 2: {field}" in capsys.readouterr().err

    def test_k_with_records_rejected(self, tmp_path, capsys):
        # scored records already hold their gates; --k would be ignored
        path = tmp_path / "records.jsonl"
        ls.export_records(ls.RecordTable.of(
            source_id="a", position=np.arange(3), token_id=1, p_target=0.5,
            entropy_full=1.0, entropy_topk=0.1, gate=0.2,
        ), path)
        out = tmp_path / "out"
        assert cli.main(["analyze", str(out), "--records", str(path), "--k", "5"]) == 1
        assert "--k" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["analyze", "topk-study"])
    @pytest.mark.parametrize("bad_id", [-1, 16])
    def test_scored_token_id_outside_vocab_rejected(self, tmp_path, capsys, command, bad_id):
        run_out = tmp_path / "run"
        assert cli.main(["train", str(train_config(tmp_path)), str(run_out)]) == 0
        seqs = small_sequences(40)
        seqs[-1][-1] = bad_id
        corpus_doc = tmp_path / "corpus.json"
        corpus_doc.write_text(json.dumps({"sequences": seqs}))
        out = tmp_path / "scored"
        argv = [command, str(out), "--checkpoint", str(run_out / "checkpoint.ckpt"),
                "--corpus", str(corpus_doc)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "targets" in err and str(bad_id) in err
        assert not out.exists() or not any(out.iterdir())


    def test_k_above_checkpoint_vocab_rejected(self, tmp_path, capsys):
        run_out = tmp_path / "run"
        assert cli.main(["train", str(train_config(tmp_path)), str(run_out)]) == 0
        capsys.readouterr()
        out = tmp_path / "scored"
        argv = ["analyze", str(out), "--checkpoint", str(run_out / "checkpoint.ckpt"),
                "--corpus", str(tmp_path / "never_read.json"), "--k", "100"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "--k 100" in err and "vocab_size 16" in err
        assert not out.exists()

    def test_default_k_is_clamped_to_checkpoint_vocab(self, tmp_path):
        run_out = tmp_path / "run"
        assert cli.main(["train", str(train_config(tmp_path)), str(run_out)]) == 0
        corpus_doc = tmp_path / "corpus.json"
        corpus_doc.write_text(json.dumps({"sequences": small_sequences(40)}))
        argv = ["--checkpoint", str(run_out / "checkpoint.ckpt"), "--corpus", str(corpus_doc)]
        assert cli.main(["analyze", str(tmp_path / "default"), *argv]) == 0
        assert cli.main(["analyze", str(tmp_path / "k16"), *argv, "--k", "16"]) == 0
        for name in ("landscape.csv", "quadrants.csv", "ranking.csv"):
            assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "k16" / name).read_bytes()


def checkpoint_argv(tmp_path, command, checkpoint, out):
    """``command`` reading ``checkpoint``, and the field or option naming it."""
    if command == "train":
        return ["train", str(train_config(tmp_path, init_checkpoint=str(checkpoint))), str(out)], "init_checkpoint"
    corpus_doc = tmp_path / "corpus.json"
    corpus_doc.write_text(json.dumps({"sequences": small_sequences(40)}))
    return [command, str(out), "--checkpoint", str(checkpoint), "--corpus", str(corpus_doc)], "--checkpoint"


def bad_checkpoint(path, case: str) -> str:
    """Write the ``train_config`` model's checkpoint to ``path``, spoilt as
    ``case`` says; return the header part or tensor that a rejection names."""
    config = toylm.ModelConfig(vocab_size=16, context_len=3, embed_dim=4, hidden_dim=8, seed=1)
    params = toylm.init_model(config)
    if case in ("nan", "inf", "-inf"):
        params.out_bias[3] = float(case)
    toylm.save_checkpoint(path, config, params)
    raw = path.read_bytes()
    if case == "oversized header":
        # (2**32 - 1)**2 doubles of embedding alone: more than a read can ask for
        path.write_bytes(raw[:12] + struct.pack("<IIII", *[2**32 - 1] * 4) + raw[28:])
        return "embedding"
    if case == "truncated payload":
        path.write_bytes(raw[:-16])
    return "out_bias"


class TestMissingCheckpoint:
    @pytest.mark.parametrize("command", ["train", "analyze", "topk-study"])
    def test_missing_checkpoint_names_path(self, tmp_path, capsys, command):
        missing = tmp_path / "gone.ckpt"
        out = tmp_path / "out"
        argv, field = checkpoint_argv(tmp_path, command, missing, out)
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert field in err and str(missing) in err
        assert not out.exists()


class TestBadCheckpoint:
    @pytest.mark.parametrize("command", ["train", "analyze", "topk-study"])
    @pytest.mark.parametrize("case", ["oversized header", "truncated payload", "nan", "inf", "-inf"])
    def test_bad_checkpoint_rejected_before_output(self, tmp_path, capsys, command, case):
        path = tmp_path / "bad.ckpt"
        tensor = bad_checkpoint(path, case)
        out = tmp_path / "out"
        argv, field = checkpoint_argv(tmp_path, command, path, out)
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert field in err and str(path) in err and tensor in err, err
        assert not out.exists()


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

    def test_corpus_with_synthetic_rejected(self, tmp_path, capsys):
        # the synthetic corpus is drawn, so --corpus would be ignored
        out = tmp_path / "out"
        assert cli.main(["topk-study", str(out), "--synthetic", "--corpus", str(tmp_path / "none.json")]) == 1
        assert "--corpus" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["synthetic", "checkpoint"])
    @pytest.mark.parametrize("grid", ["0", "1,100000", "5,2", "0,5", "5,5,20"])
    def test_bad_k_grid_rejected_before_output(self, tmp_path, capsys, mode, grid):
        # a k below 1, a k above V or a grid that does not strictly ascend
        # exits 1 naming the option and V, before the corpus is read or the
        # output exists
        if mode == "synthetic":
            source, v = ["--synthetic"], 4096
        else:
            run_out = tmp_path / "run"
            assert cli.main(["train", str(train_config(tmp_path)), str(run_out)]) == 0
            source = ["--checkpoint", str(run_out / "checkpoint.ckpt"), "--corpus", str(tmp_path / "never_read.json")]
            v = 16
        capsys.readouterr()
        out = tmp_path / "out"
        assert cli.main(["topk-study", str(out), *source, "--k-grid", grid]) == 1
        err = capsys.readouterr().err
        assert f"--k-grid {grid}" in err and f"[1, {v}]" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sequences,message",
        [([[1, 2, 3]], "at least 2 positions"), ([[1, 1, 1, 1]], "exact entropies are constant")],
        ids=["one position", "one context"],
    )
    def test_degenerate_corpus_names_option_before_output(self, tmp_path, capsys, sequences, message):
        # no r is defined over one position, or over positions whose exact
        # entropies are equal because they share one context
        config = toylm.ModelConfig(vocab_size=8, context_len=2, embed_dim=4, hidden_dim=8, seed=1)
        checkpoint, corpus = tmp_path / "model.ckpt", tmp_path / "corpus.json"
        toylm.save_checkpoint(checkpoint, config, toylm.init_model(config))
        corpus.write_text(json.dumps({"sequences": sequences}))
        out = tmp_path / "out"
        assert cli.main(["topk-study", str(out), "--checkpoint", str(checkpoint), "--corpus", str(corpus)]) == 1
        err = capsys.readouterr().err
        assert f"--corpus {corpus}" in err and message in err, err
        assert not out.exists()

    def test_synthetic_streams_the_whole_matrix_rows(self, tmp_path):
        assert cli.main(["topk-study", str(tmp_path / "out"), "--synthetic"]) == 0
        grid = ls.default_k_grid(ls.SYNTHETIC_VOCAB)
        rows = ls.fidelity_from_probs(ls.synthetic_fidelity_corpus(), grid)
        fields = ("k", "pearson_r", "extra_bytes_per_token")
        ls.export_rows(rows, fields, tmp_path / "whole.csv")
        assert (tmp_path / "out" / "fidelity.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_synthetic_peak_memory(self, tmp_path):
        # The whole 10,000 x 4,096 float64 matrix alone is 328 MB. The child
        # reports VmHWM, the peak of its own address space: ru_maxrss survives
        # exec on Linux and would carry this test process's peak.
        code = (
            "import sys\n"
            "from eaftlab import cli\n"
            "assert cli.main(['topk-study', sys.argv[1], '--synthetic']) == 0\n"
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "out")],
            env=env, capture_output=True, text=True, check=True,
        )
        peak_mb = int(proc.stdout.split()[-1]) / 1024  # VmHWM is in kB
        assert peak_mb < 300


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


    def test_bad_file_leaves_no_partial_output(self, tmp_path, capsys):
        cfg = train_config(tmp_path)
        run_out = tmp_path / "run"
        assert cli.main(["train", str(cfg), str(run_out)]) == 0
        d = tmp_path / "records"
        d.mkdir()
        lines = (run_out / "records.jsonl").read_text().splitlines(keepends=True)
        (d / "a.jsonl").write_text("".join(lines))
        doc = json.loads(lines[1])
        doc["step"] = "x"
        (d / "b.jsonl").write_text(lines[0] + json.dumps(doc) + "\n")
        capsys.readouterr()
        out = tmp_path / "dyn"
        assert cli.main(["dynamics", str(d), str(out)]) == 1
        assert f"{d / 'b.jsonl'}: line 2: step must be a JSON integer" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_field_names_the_file(self, tmp_path, capsys):
        records = ls.RecordTable.of(
            source_id="a", position=np.arange(3), token_id=1, p_target=0.5,
            entropy_full=1.0, entropy_topk=0.5, gate=0.2,
        )
        d = tmp_path / "records"
        d.mkdir()
        ls.export_records(records, d / "nostep.jsonl")
        out = tmp_path / "dyn"
        assert cli.main(["dynamics", str(d), str(out)]) == 1
        assert f"{d / 'nostep.jsonl'}: line 1: missing required field 'step'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,field", [
        ("analyze", "entropy_full"), ("dynamics", "entropy_full"), ("dynamics", "step"),
    ])
    def test_missing_needed_field_names_the_line(self, tmp_path, capsys, command, field):
        # the blank second line makes the bad record's line (3) differ from its row (1)
        doc = {"source_id": "a", "position": 0, "token_id": 1, "p_target": 0.5,
               "entropy_full": 1.0, "entropy_topk": 0.1, "gate": 0.2, "step": 0}
        d = tmp_path / "records"
        d.mkdir()
        path = d / "r.jsonl"
        path.write_text(json.dumps(doc) + "\n\n" + json.dumps(doc | {field: None}) + "\n")
        out = tmp_path / "out"
        argv = ["analyze", str(out), "--records", str(path)] if command == "analyze" else ["dynamics", str(d), str(out)]
        assert cli.main(argv) == 1
        assert f"{path}: line 3: missing required field {field!r}" in capsys.readouterr().err
        assert not out.exists()


class TestNonUtf8Input:
    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_config_rejected_naming_the_file(self, tmp_path, capsys, command):
        path = train_config(tmp_path) if command == "train" else bench_protocol(tmp_path)
        path.write_bytes(path.read_bytes().replace(b'"1"', b'"\xff"', 1))
        out = tmp_path / "out"
        assert cli.main([command, str(path), str(out)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "can't decode byte 0xff" in err
        assert not out.exists()


class TestDirectoryAsInputFile:
    @pytest.mark.parametrize("command", ["train", "bench", "analyze"])
    def test_directory_rejected_naming_it(self, tmp_path, capsys, command):
        # a directory passes an exists() check but cannot be opened as JSON
        directory = tmp_path / "a_directory"
        directory.mkdir()
        out = tmp_path / "out"
        argv = [command, str(directory), str(out)]
        if command == "analyze":
            checkpoint = tmp_path / "model.ckpt"
            config = toylm.ModelConfig(vocab_size=16, context_len=3, embed_dim=4, hidden_dim=8, seed=1)
            toylm.save_checkpoint(checkpoint, config, toylm.init_model(config))
            argv = ["analyze", str(out), "--checkpoint", str(checkpoint), "--corpus", str(directory)]
        assert cli.main(argv) == 1
        assert str(directory) in capsys.readouterr().err
        assert not out.exists()


class TestTracebackOnRequest:
    @pytest.mark.parametrize("setting,shown", [(None, False), ("0", False), ("1", True)])
    def test_runtime_failure_traceback(self, tmp_path, monkeypatch, capsys, setting, shown):
        def failing(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_dynamics", failing)
        if setting is None:
            monkeypatch.delenv("EAFTLAB_TRACEBACK", raising=False)
        else:
            monkeypatch.setenv("EAFTLAB_TRACEBACK", setting)
        assert cli.main(["dynamics", str(tmp_path), str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "runtime error: boom" in err
        assert ("Traceback (most recent call last)" in err) == shown
        assert ("in failing" in err) == shown


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
