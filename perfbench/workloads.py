"""The benchmark's three workloads.

Each workload builds its inputs once in ``setup()`` from the seeds it is
given, and ``run(out)`` performs one measured iteration. ``check(outcome,
out)`` then verifies the outputs outside the timed region and returns one
``(operation, ok, digest)`` triple per operation: one snapshot, one cell or
one CLI command. The digest is a sha256 of what the operation produced, so
two iterations of one seed, or a traced and an untraced iteration, can be
compared bit for bit.

numpy must be imported only after the BLAS thread pinning in ``run.py``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from eaftlab import cli, forgebench, landscape, toylm

# Acceptance settings (tests/conftest.py) with the pretrain stages shortened
# by one common factor, so one snapshot takes seconds instead of ~30 s.
SCHEDULE_DIVISOR = 10
CONFLICT = forgebench.ConflictSpec()
SIZES = forgebench.GenerationSizes()
PROTOCOL = forgebench.BenchProtocol(
    pretrain_stages=tuple(
        dataclasses.replace(stage, steps=stage.steps // SCHEDULE_DIVISOR)
        for stage in forgebench.BenchProtocol().pretrain_stages
    )
)
PRETRAIN_STEPS = sum(stage.steps for stage in PROTOCOL.pretrain_stages)


@dataclasses.dataclass(frozen=True)
class Seeds:
    """Every seed a workload uses, derived from the one benchmark seed."""

    domain: int
    cell: int
    train: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        domain, cell, train = np.random.default_rng(seed).integers(0, 2**31, size=3)
        return cls(int(domain), int(cell), int(train))


def _domain(seeds: Seeds) -> forgebench.DomainSpec:
    return forgebench.DomainSpec(peak_mass=0.99, seed=seeds.domain)


def _snapshot(seeds: Seeds):
    return forgebench.pretrain_snapshot(_domain(seeds), CONFLICT, SIZES, PROTOCOL, seeds.cell)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def params_digest(params: toylm.ToyModelParams) -> str:
    return _sha(*(np.ascontiguousarray(getattr(params, f)).tobytes() for f in toylm.PARAM_FIELDS))


@contextlib.contextmanager
def _keep_train_logs(logs: list):
    """Keep the log of every ``toylm.train`` call that pretraining discards."""
    train = toylm.train

    def keeping(run):
        result = train(run)
        logs.append(result.log)
        return result

    toylm.train = keeping
    try:
        yield
    finally:
        toylm.train = train


class Pretrain:
    """One ``pretrain_snapshot`` per iteration: domain generation plus the
    adam-lite CE hot loop whose log statistics are thrown away."""

    name = "pretrain"
    operations = 1

    def __init__(self, seeds: Seeds):
        self.seeds = seeds

    def rates(self) -> dict:
        return {"steps_per_s": PRETRAIN_STEPS}

    def setup(self, out: Path) -> str:
        return ""

    def run(self, out: Path):
        logs: list = []
        try:
            with _keep_train_logs(logs):
                config, data, params = _snapshot(self.seeds)
        except Exception as exc:  # counted as a failed operation
            return [exc]
        return [(config, data, params, logs)]

    def check(self, outcome, out: Path):
        (result,) = outcome
        if isinstance(result, Exception):
            return [("pretrain_snapshot", False, repr(result))]
        config, data, params, logs = result
        ok = len(logs) == len(PROTOCOL.pretrain_stages) and all(
            math.isfinite(entry.mean_loss) for log in logs for entry in log
        )
        path = out / "snapshot.ckpt"
        toylm.save_checkpoint(path, config, params)
        loaded_config, loaded = toylm.load_checkpoint(path)
        digest = params_digest(params)
        ok = ok and loaded_config == config and params_digest(loaded) == digest
        nll = toylm.evaluate(params, data.eval_a)["mean_nll"]
        ok = ok and math.isfinite(nll) and nll < math.log(20)
        return [("pretrain_snapshot", ok, digest)]


class FinetuneGrid:
    """All nine objectives fine-tuned from one snapshot built in set-up, as
    the acceptance suite runs its cells."""

    name = "finetune_grid"
    operations = len(forgebench.DEFAULT_OBJECTIVE_GRID)

    def __init__(self, seeds: Seeds):
        self.seeds = seeds
        self.snapshot = None

    def rates(self) -> dict:
        return {
            "steps_per_s": self.operations * PROTOCOL.finetune_steps,
            "cells_per_s": self.operations,
        }

    def setup(self, out: Path) -> str:
        self.snapshot = _snapshot(self.seeds)
        return params_digest(self.snapshot[2])

    def run(self, out: Path):
        cells = []
        for name in forgebench.DEFAULT_OBJECTIVE_GRID:
            try:
                cells.append(
                    forgebench.run_cell(
                        name,
                        self.seeds.cell,
                        _domain(self.seeds),
                        CONFLICT,
                        SIZES,
                        PROTOCOL,
                        _pretrained=self.snapshot,
                    )
                )
            except Exception as exc:  # counted as a failed operation
                cells.append(exc)
        return cells

    def check(self, outcome, out: Path):
        results = []
        for name, cell in zip(forgebench.DEFAULT_OBJECTIVE_GRID, outcome):
            if isinstance(cell, Exception):
                results.append((name, False, repr(cell)))
                continue
            values = [
                cell.retention_delta,
                cell.acquisition_nll,
                cell.acquisition_acc,
                cell.conflict_quadrant_share,
            ]
            ok = all(math.isfinite(v) for v in values) and 0.0 <= cell.acquisition_acc <= 1.0
            doc = json.dumps(dataclasses.asdict(cell), sort_keys=True)
            results.append((name, ok, _sha(doc.encode())))
        return results


# The CSV headers the eaftlab CLI documents for each table it writes.
TRAINLOG_HEADER = [
    "step",
    "mean_loss",
    "mean_gate",
    "high_entropy_ce",
    "high_entropy_count",
    "low_entropy_ce",
    "low_entropy_count",
    "grad_norm",
]
ANALYZE_HEADERS = {
    "landscape.csv": ["x_lo", "x_hi", "y_lo", "y_hi", "count"],
    "quadrants.csv": ["quadrant", "count", "share", "tau_gate", "tau_p"],
    "ranking.csv": ["quadrant", "token", "count", "mean_gate"],
}
DYNAMICS_HEADER = [
    "step",
    "high_entropy_ce",
    "high_entropy_count",
    "low_entropy_ce",
    "low_entropy_count",
]
FIDELITY_HEADER = ["k", "pearson_r", "extra_bytes_per_token"]

FINETUNE_STEPS = 600
CAPTURE_EVERY = 10
PROBE_SIZE = 1024


def _header(path: Path) -> list:
    with open(path, newline="") as fh:
        return next(csv.reader(fh), [])


def _files_digest(paths) -> str:
    return _sha(*(p.read_bytes() for p in paths))


class DiagnosticsCli:
    """Five ``cli.main`` commands in-process: a capturing warm-start train,
    analysis of its records, dynamics, model scoring of the pretrain part, and
    the V=4096 synthetic top-K study."""

    name = "diagnostics_cli"
    operations = 5

    def __init__(self, seeds: Seeds):
        self.seeds = seeds
        self.inputs = None
        self.captured = 0

    def setup(self, out: Path) -> str:
        self.inputs = out
        config, data, params = _snapshot(self.seeds)
        toylm.save_checkpoint(out / "init.ckpt", config, params)
        bench_domain = {
            "peak_mass": 0.99,
            "seed": forgebench.derive_domain_seed(_domain(self.seeds), self.seeds.cell),
        }
        train = {
            "model": {
                "vocab_size": config.vocab_size,
                "context_len": config.context_len,
                "embed_dim": config.embed_dim,
                "hidden_dim": config.hidden_dim,
                "seed": config.seed,
            },
            "corpus": {"bench": {"domain": bench_domain, "part": "finetune"}},
            "objective": {"name": "eaft"},
            "optimizer": {"kind": PROTOCOL.finetune_optimizer, "learning_rate": PROTOCOL.finetune_lr},
            "train": {
                "steps": FINETUNE_STEPS,
                "batch_size": PROTOCOL.finetune_batch,
                "capture_every": CAPTURE_EVERY,
                "seed": self.seeds.train,
                "probe_size": PROBE_SIZE,
            },
            "init_checkpoint": str(out / "init.ckpt"),
        }
        (out / "train.json").write_text(json.dumps(train, indent=2))
        corpus = {"bench": {"domain": bench_domain, "part": "pretrain"}}
        (out / "corpus.json").write_text(json.dumps(corpus, indent=2))
        captures = len(range(0, FINETUNE_STEPS, CAPTURE_EVERY)) + 1
        self.captured = captures * min(PROBE_SIZE, len(data.finetune))
        return params_digest(params)

    def rates(self) -> dict:
        # records written by train plus those read back by analyze and dynamics
        return {"steps_per_s": FINETUNE_STEPS, "records_per_s": 3 * self.captured}

    def _commands(self, out: Path):
        setup = self.inputs
        return [
            ("train", ["train", str(setup / "train.json"), str(out / "train")]),
            ("analyze_records", ["analyze", str(out / "records"), "--records", str(out / "train" / "records.jsonl")]),
            ("dynamics", ["dynamics", str(out / "train"), str(out / "dynamics")]),
            (
                "analyze_corpus",
                [
                    "analyze",
                    str(out / "corpus"),
                    "--checkpoint",
                    str(out / "train" / "checkpoint.ckpt"),
                    "--corpus",
                    str(setup / "corpus.json"),
                ],
            ),
            ("topk_study", ["topk-study", str(out / "topk"), "--synthetic"]),
        ]

    def run(self, out: Path):
        return [cli.main(argv) for _, argv in self._commands(out)]

    def check(self, outcome, out: Path):
        expected = {
            "train": [
                (out / "train" / "checkpoint.ckpt", None),
                (out / "train" / "trainlog.csv", TRAINLOG_HEADER),
                (out / "train" / "records.jsonl", None),
            ],
            "analyze_records": [(out / "records" / f, h) for f, h in ANALYZE_HEADERS.items()],
            "dynamics": [(out / "dynamics" / "dynamics_records.csv", DYNAMICS_HEADER)],
            "analyze_corpus": [(out / "corpus" / f, h) for f, h in ANALYZE_HEADERS.items()],
            "topk_study": [(out / "topk" / "fidelity.csv", FIDELITY_HEADER)],
        }
        results = []
        for (name, _), code in zip(self._commands(out), outcome):
            files = expected[name]
            ok = code == 0 and all(p.is_file() for p, _ in files)
            ok = ok and all(h is None or _header(p) == h for p, h in files)
            if ok and name == "train":
                ingested = landscape.ingest_records(out / "train" / "records.jsonl")
                ok = len(ingested) == self.captured
            if ok:
                digest = _files_digest(p for p, _ in files)
            else:
                digest = f"exit code {code}" if code else "output check failed"
            results.append((name, ok, digest))
        return results


WORKLOADS = {w.name: w for w in (Pretrain, FinetuneGrid, DiagnosticsCli)}
