"""The config contract under fuzzing: one field of a small valid ``train``
config or ``bench`` protocol is set to a value of the wrong type or a small
out-of-range value. The command exits 0 or 1 (2 only for a diverged run),
an exit-1 message names the field, and an exit-0 ``train`` leaves a
checkpoint of its model. No mutation is a valid large count or size, so
every example runs in milliseconds."""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eaftlab import cli, toylm

TRAIN = {
    "version": "1",
    "model": {"vocab_size": 12, "context_len": 2, "embed_dim": 3, "hidden_dim": 6, "seed": 1},
    "corpus": {"sequences": [[(3 * i + j) % 12 for j in range(10)] for i in range(12)]},
    "objective": {"name": "eaft", "k": 8},
    "optimizer": {"kind": "adam-lite", "learning_rate": 0.003},
    "train": {"steps": 2, "batch_size": 8, "capture_every": 1, "seed": 2, "probe_size": 8},
}
TRAIN_FIELDS = {
    "model": ("vocab_size", "context_len", "embed_dim", "hidden_dim", "seed"),
    "corpus": ("sequences",),
    "objective": ("name", "k", "tau_entropy", "tau_prob", "norm_mode", "aggregation"),
    "optimizer": ("kind", "learning_rate"),
    "train": ("steps", "batch_size", "capture_every", "seed", "probe_size"),
}

BENCH = {
    "version": "1",
    "domain": {"seed": 0},
    "conflict": {},
    "sizes": {"pretrain_sequences": 100, "finetune_walks": 100, "eval_sequences": 100, "sequence_len": 8},
    "protocol": {
        "embed_dim": 3,
        "hidden_dim": 6,
        "pretrain_stages": [[2, "adam-lite", 0.003]],
        "pretrain_batch": 8,
        "finetune_steps": 2,
        "finetune_batch": 8,
    },
    "objectives": ["eaft"],
    "seeds": [0],
}
BENCH_FIELDS = {
    "domain": (
        "markov_order", "vocab_size", "peaked_fraction", "peak_mass", "seed",
        "active_tokens", "tail_concentration", "flat_concentration",
    ),
    "conflict": ("conflict_rate", "novelty_rate", "novel_peak_mass"),
    "sizes": ("pretrain_sequences", "finetune_walks", "eval_sequences", "sequence_len", "finetune_cap"),
    "protocol": (
        "embed_dim", "hidden_dim", "context_len", "pretrain_stages", "pretrain_batch",
        "finetune_steps", "finetune_optimizer", "finetune_lr", "finetune_batch", "k",
        "pilot_quantile", "mask_quantile",
    ),
}

# wrong types, and small values that are negative, zero or fractional
BAD_VALUES = st.sampled_from(
    ["x", "", "1", True, False, None, [], [1], {}, -1, 0, -2.5, -0.5, 0.0, 0.5, 1.5, float("nan")]
)


def mutations(fields: dict):
    """(section, field) of ``fields`` and the bad value to set it to."""
    return st.tuples(
        st.sampled_from([(s, f) for s, names in fields.items() for f in names]), BAD_VALUES
    )


def run(tmp_path, command: str, doc: dict, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = cli.main([command, str(path), str(out)])
    return code, capsys.readouterr().err, out


def check_contract(code: int, err: str, section: str, field: str) -> None:
    assert code in (0, 1, 2), err
    if code == 2:
        assert "diverged" in err, err
    if code == 1:
        assert f"{section}.{field}" in err, err


FUZZ = settings(
    max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@FUZZ
@given(mutation=mutations(TRAIN_FIELDS))
def test_train_config_contract(tmp_path_factory, capsys, mutation):
    (section, field), value = mutation
    doc = json.loads(json.dumps(TRAIN))
    doc[section][field] = value
    tmp_path = tmp_path_factory.mktemp("train")
    code, err, out = run(tmp_path, "train", doc, capsys)
    check_contract(code, err, section, field)
    if code == 0:
        config, _ = toylm.load_checkpoint(out / "checkpoint.ckpt")
        assert config == toylm.ModelConfig(**doc["model"])


@FUZZ
@given(mutation=mutations(BENCH_FIELDS))
def test_bench_protocol_contract(tmp_path_factory, capsys, mutation):
    (section, field), value = mutation
    doc = json.loads(json.dumps(BENCH))
    doc[section][field] = value
    code, err, _ = run(tmp_path_factory.mktemp("bench"), "bench", doc, capsys)
    check_contract(code, err, section, field)
