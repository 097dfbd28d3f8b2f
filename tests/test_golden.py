"""Golden hashes: the exact bytes of a short fixed pipeline.

Every artifact below is hashed with sha256 and compared with a digest
recorded from a reference build. A speed-up that changes any output bit,
however slightly, fails here. Floats are hashed through ``repr``, which
round-trips float64 exactly, or as raw little-endian bytes.

If a change is meant to move the numbers, re-record the digests with
``python tests/test_golden.py`` and say so in CHANGES.md.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from eaftlab import cli, forgebench as fb, objectives as obj, toylm

GOLDEN = {
    "domains_order2": "b120d766d6fedd65649b32a3b0bbd04b3448fdcae671987e2bc67825da536137",
    "domains_order1": "83d3f4d7452436151a34fbd7673613a724d4ad3d0c9b411b8b4e45b3d90914f5",
    "snapshot": "390a08de7502faef4ef55c3347ce7f296864412690caf565a691763270f54dc3",
    "cells": "4c33abb4bf90d673eb06bf3f0e5fd3ae5f80881fb8de281b78e950bd93066d79",
    "train_log_captures": "60034fee69c75720d051c4438e7b3dfcd0ba40f5b56f10534d84ef154249d74b",
    "cli_train_eaft": "31bf865992876d4a0a3b2b2f4a5bdc0ff04e7ce3fea204272204da916a3f5f52",
    "cli_train_sft_kl": "efde744d81cf3d4292c0e8c25f6cb93d53dc44a59ff00b487ab8ed9a92852632",
}

DOMAINS = {
    "domains_order2": (fb.DomainSpec(peak_mass=0.99, seed=11), 3),
    "domains_order1": (fb.DomainSpec(markov_order=1, vocab_size=12, active_tokens=5, seed=4), 2),
}
SIZES = fb.GenerationSizes(pretrain_sequences=100, finetune_walks=100, eval_sequences=100)
PROTOCOL = fb.BenchProtocol(
    hidden_dim=32,
    pretrain_stages=(
        fb.TrainStage(300, "adam-lite", 3e-3),
        fb.TrainStage(100, "sgd-momentum", 0.03),
    ),
    finetune_steps=40,
)
SEED = 2


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


def _arrays(*arrays) -> list:
    return [
        np.ascontiguousarray(a, dtype="<f8" if a.dtype.kind == "f" else a.dtype).tobytes()
        for a in arrays
    ]


def _params(params: toylm.ToyModelParams) -> list:
    return _arrays(*(getattr(params, f) for f in toylm.PARAM_FIELDS))


def domains_digest(name: str) -> str:
    domain, context_len = DOMAINS[name]
    data = fb.generate_domains(domain, fb.ConflictSpec(), SIZES, context_len)
    gt = data.ground_truth
    return _sha(
        *_arrays(
            data.pretrain.contexts,
            data.pretrain.targets,
            data.finetune.contexts,
            data.finetune.targets,
            data.finetune_states,
            data.eval_a.contexts,
            data.eval_a.targets,
            data.eval_b.contexts,
            data.eval_b.targets,
            gt.rows,
            gt.dominant,
            gt.peaked_mask,
        ),
        list(data.finetune_kinds),
        sorted(gt.conflict_contexts),
        sorted(gt.novel_contexts),
        sorted(gt.conflict_labels.items()),
        sorted(gt.novel_labels.items()),
        *_arrays(*(gt.novel_rows[s] for s in sorted(gt.novel_rows))),
    )


def _snapshot():
    return fb.pretrain_snapshot(DOMAINS["domains_order2"][0], fb.ConflictSpec(), SIZES, PROTOCOL, SEED)


def snapshot_digest(snapshot) -> str:
    return _sha(*_params(snapshot[2]))


def cells_digest(snapshot) -> str:
    docs = []
    for name in fb.DEFAULT_OBJECTIVE_GRID:
        cell = fb.run_cell(
            name, SEED, DOMAINS["domains_order2"][0], fb.ConflictSpec(), SIZES, PROTOCOL,
            _pretrained=snapshot,
        )
        docs.append((json.dumps(dataclasses.asdict(cell), sort_keys=True, indent=2) + "\n").encode())
    return _sha(*docs)


def train_digest(snapshot) -> str:
    """Direct ``train`` calls whose log and captures the CLI does not cover:
    gate-free objectives with capture, frozen position weights, the KL path."""
    config, data, params = snapshot
    weights = (np.arange(len(data.finetune)) % 3 != 0).astype(np.float64)
    chunks = []
    for name in ("ce", "dft", "sft_kl", "eaft_sigmoid"):
        result = toylm.train(
            toylm.TrainRun(
                config=config,
                corpus=data.finetune,
                objective=obj.named_objective(name),
                optimizer="sgd-momentum",
                learning_rate=0.1,
                steps=30,
                batch_size=32,
                capture_every=10,
                probe_size=64,
                seed=7,
                init=params,
                ref_params=params,
                position_weights=weights,
            )
        )
        chunks += [*_params(result.params), result.log, result.captures]
    return _sha(*chunks)


def _sequences():
    rng = np.random.default_rng(5)
    return [[int(t) for t in rng.integers(0, 16, size=24)] for _ in range(80)]


def cli_train_digest(tmp_path, name: str) -> str:
    model = {"vocab_size": 16, "context_len": 3, "embed_dim": 4, "hidden_dim": 8, "seed": 1}
    doc = {
        "model": model,
        "corpus": {"sequences": _sequences()},
        "objective": {"name": "eaft", "k": 16},
        "optimizer": {"kind": "adam-lite", "learning_rate": 0.01},
        "train": {"steps": 60, "batch_size": 16, "capture_every": 10, "seed": 2, "probe_size": 48},
    }
    if name == "sft_kl":
        # warm start from the eaft run, so the KL reference is a trained model
        cli_train_digest(tmp_path, "eaft")
        doc["objective"] = {"name": "sft_kl", "k": 5}
        doc["optimizer"] = {"kind": "sgd-momentum", "learning_rate": 0.2}
        doc["init_checkpoint"] = str(tmp_path / "eaft" / "checkpoint.ckpt")
    (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    out = tmp_path / name
    assert cli.main(["train", str(tmp_path / f"{name}.json"), str(out)]) == 0
    return _sha(*((out / f).read_bytes() for f in ("checkpoint.ckpt", "trainlog.csv", "records.jsonl")))


@pytest.fixture(scope="module")
def snapshot():
    return _snapshot()


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_generate_domains(name):
    assert domains_digest(name) == GOLDEN[name]


def test_pretrain_snapshot(snapshot):
    assert snapshot_digest(snapshot) == GOLDEN["snapshot"]


def test_run_cell_all_objectives(snapshot):
    assert cells_digest(snapshot) == GOLDEN["cells"]


def test_train_log_and_captures(snapshot):
    assert train_digest(snapshot) == GOLDEN["train_log_captures"]


@pytest.mark.parametrize("name", ["eaft", "sft_kl"])
def test_cli_train(tmp_path, name):
    assert cli_train_digest(tmp_path, name) == GOLDEN[f"cli_train_{name}"]


def _record(tmp_dir) -> dict:
    tmp = Path(tmp_dir)
    snap = _snapshot()
    out = {name: domains_digest(name) for name in DOMAINS}
    out["snapshot"] = snapshot_digest(snap)
    out["cells"] = cells_digest(snap)
    out["train_log_captures"] = train_digest(snap)
    for name in ("eaft", "sft_kl"):
        (tmp / name).mkdir()
        out[f"cli_train_{name}"] = cli_train_digest(tmp / name, name)
    return out


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in _record(tmp).items():
            print(f'    "{key}": "{digest}",')
