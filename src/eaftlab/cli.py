"""Command-line front end: deterministic runs in, CSV/JSONL tables out.

Subcommands
  train       train one model from a JSON config; writes checkpoint,
              trainlog.csv, and captured records.jsonl
  bench       run the forgetting benchmark grid; writes per-cell JSON files
              and pareto.csv
  analyze     entropy/probability landscape, quadrant stats, and token
              rankings from a checkpoint+corpus or an exported records file
  topk-study  top-K entropy fidelity vs memory cost table
  dynamics    per-step subgroup cross-entropy tables from captured records

Exit codes: 0 success, 1 configuration/validation error, 2 runtime error
(a diverged or overflowing training run among them). Configs are strict:
unknown keys are rejected. With EAFTLAB_TRACEBACK=1 in the environment, an
unexpected runtime error also prints its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import traceback
from pathlib import Path

from . import forgebench, landscape, objectives, probstats, toylm
from .errors import (
    ConfigError,
    DegenerateVarianceError,
    EaftLabError,
    InvalidArgumentError,
    InvalidInputError,
    RecordParseError,
    TrainingDivergedError,
    is_int,
)
from .fileio import atomic_write

def _require_keys(doc: dict, allowed, where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _construct(cls, where: str, **kwargs):
    """``cls(**kwargs)`` for a config section ``where``. The checks of the
    dataclasses and factory functions start their message with the field
    name, so a rejected field is named ``where.<field>``."""
    try:
        return cls(**kwargs)
    except InvalidArgumentError as exc:
        raise ConfigError(f"{where}.{exc}") from exc
    except EaftLabError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def _check_version(doc: dict) -> None:
    """A config's ``version``, when given, must be "1", the only format."""
    version = doc.get("version", "1")
    if version != "1":
        raise ConfigError(f'version must be "1", got {version!r}')


def _build_dataclass(cls, doc: dict, where: str):
    _require_keys(doc, [f.name for f in dataclasses.fields(cls)], where)
    return _construct(cls, where, **doc)


def _read_checkpoint(path, what: str):
    """Load a checkpoint named by a config field or an option; a missing or
    malformed file is a validation error naming both."""
    if not isinstance(path, str):
        raise ConfigError(f"{what} must be a path, got {path!r}")
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} not found: {p}")
    try:
        return toylm.load_checkpoint(p)
    except (InvalidArgumentError, InvalidInputError) as exc:
        raise ConfigError(f"{what} {p}: {exc}") from exc


def _read_records(path, require) -> landscape.RecordTable:
    """The records of a JSONL file, each holding the optional fields in
    ``require``; a missing, malformed or empty file, or a record without a
    required field, is a validation error naming the file and the line."""
    if not Path(path).is_file():
        raise ConfigError(f"records file not found: {path}")
    try:
        records = landscape.ingest_records(path, require)
    except RecordParseError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not records:
        raise ConfigError(f"no records in {path}")
    return records


def _distinct_list(doc: dict, key: str, default: list, check, what: str) -> list:
    """``doc[key]``: a non-empty list of distinct entries, each ``what``."""
    items = doc.get(key, default)
    if not isinstance(items, list) or not items:
        raise ConfigError(f"{key} must be a non-empty list, got {items!r}")
    for i, item in enumerate(items):
        if not check(item):
            raise ConfigError(f"{key}[{i}] must be {what}, got {item!r}")
        if item in items[:i]:
            raise ConfigError(f"{key}[{i}] repeats {item!r}")
    return items


def _pretrain_stages(stages) -> tuple:
    """Each ``protocol.pretrain_stages`` entry is [steps, optimizer, learning_rate]."""
    if not isinstance(stages, list):
        raise ConfigError("protocol.pretrain_stages must be a list of [steps, optimizer, learning_rate]")
    out = []
    for i, stage in enumerate(stages):
        where = f"protocol.pretrain_stages[{i}]"
        if not isinstance(stage, list) or len(stage) != 3:
            raise ConfigError(f"{where} must be [steps, optimizer, learning_rate], got {stage!r}")
        steps, optimizer, lr = stage
        if not is_int(steps) or steps < 0:
            raise ConfigError(f"{where} steps must be a non-negative integer, got {steps!r}")
        kind, rate = _optimizer(optimizer, lr, f"{where} optimizer", f"{where} learning_rate")
        out.append(forgebench.TrainStage(steps, kind, rate))
    return tuple(out)


def _optimizer(kind, lr, kind_field: str, lr_field: str) -> tuple[str, float]:
    toylm.check_optimizer(kind, lr, kind_field, lr_field)
    return kind, float(lr)


def _load_json(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        with open(p, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        raise ConfigError(f"invalid JSON in {p}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"top-level JSON in {p} must be an object")
    return doc


def _objective_from_doc(doc: dict, where: str) -> objectives.ObjectiveSpec:
    _require_keys(doc, ("name", "k", "tau_entropy", "tau_prob", "norm_mode", "aggregation"), where)
    if "name" not in doc:
        raise ConfigError(f"{where} needs an objective name")
    return _construct(objectives.named_objective, where, **doc)


def _generation_specs(doc: dict) -> tuple:
    """The ``domain``, ``conflict`` and ``sizes`` sections of a ``bench``
    protocol or a ``corpus.bench`` part; an absent section takes the
    defaults."""
    return (
        _build_dataclass(forgebench.DomainSpec, doc.get("domain", {}), "domain"),
        _build_dataclass(forgebench.ConflictSpec, doc.get("conflict", {}), "conflict"),
        _build_dataclass(forgebench.GenerationSizes, doc.get("sizes", {}), "sizes"),
    )


def _corpus_from_doc(doc: dict, context_len: int, where: str, context_where: str):
    """Either explicit sequences or a generated benchmark corpus part; a
    ``context_len`` that the part's walks cannot hold is named as
    ``<context_where>.context_len``."""
    _require_keys(doc, ("sequences", "bench"), where)
    if ("sequences" in doc) == ("bench" in doc):
        raise ConfigError(f"{where} needs exactly one of 'sequences' or 'bench'")
    if "sequences" in doc:
        return _construct(
            toylm.Corpus.from_sequences, where, sequences=doc["sequences"], context_len=context_len
        )
    bench = doc["bench"]
    _require_keys(bench, ("domain", "conflict", "sizes", "part"), f"{where}.bench")
    domain, conflict, sizes = _generation_specs(bench)
    part = bench.get("part", "finetune")
    if part not in ("pretrain", "finetune", "eval_a", "eval_b"):
        raise ConfigError(f"unknown corpus part {part!r}")
    _construct(
        forgebench.check_context_len, context_where, domain=domain, sizes=sizes, context_len=context_len
    )
    return getattr(forgebench.generate_domains(domain, conflict, sizes, context_len), part)


def cmd_train(args) -> int:
    doc = _load_json(args.config)
    _require_keys(
        doc,
        ("version", "model", "corpus", "objective", "optimizer", "train", "init_checkpoint"),
        "config",
    )
    _check_version(doc)
    model_cfg = _build_dataclass(toylm.ModelConfig, doc.get("model", {}), "model")
    corpus = _corpus_from_doc(doc.get("corpus", {}), model_cfg.context_len, "corpus", "model")
    spec = _objective_from_doc(doc.get("objective", {"name": "ce"}), "objective")
    # the gate evaluates k clamped to V; the spec alone cannot check the norm
    k = min(spec.k, model_cfg.vocab_size)
    try:
        probstats.check_gate_norm(k, spec.norm_mode)
    except InvalidArgumentError as exc:
        raise ConfigError(
            f"objective.norm_mode: {exc}; the effective k = min(objective.k, model.vocab_size) is {k}"
        ) from exc
    opt = doc.get("optimizer", {})
    _require_keys(opt, ("kind", "learning_rate"), "optimizer")
    kind, lr = _optimizer(
        opt.get("kind", "adam-lite"), opt.get("learning_rate", 3e-3),
        "optimizer.kind", "optimizer.learning_rate",
    )
    tr = doc.get("train", {})
    _require_keys(
        tr, ("steps", "batch_size", "capture_every", "seed", "probe_size"), "train"
    )
    if spec.kl_coefficient > 0 and "init_checkpoint" not in doc:
        raise ConfigError("objective: a KL objective needs init_checkpoint, its reference model")
    init = None
    if "init_checkpoint" in doc:
        init_cfg, init = _read_checkpoint(doc["init_checkpoint"], "init_checkpoint")
        for name in ("vocab_size", "context_len", "embed_dim", "hidden_dim"):
            ckpt_dim, model_dim = getattr(init_cfg, name), getattr(model_cfg, name)
            if ckpt_dim != model_dim:
                raise ConfigError(
                    f"init_checkpoint {name} {ckpt_dim} differs from model config {model_dim}"
                )
    run = _construct(
        toylm.TrainRun,
        "train",
        config=model_cfg,
        corpus=corpus,
        objective=spec,
        optimizer=kind,
        learning_rate=lr,
        init=init,
        ref_params=init if spec.kl_coefficient > 0 else None,
        **tr,
    )
    result = toylm.train(run)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    toylm.save_checkpoint(out / "checkpoint.ckpt", model_cfg, result.params)
    fields = [f.name for f in dataclasses.fields(toylm.TrainLogEntry)]
    landscape.export_rows(map(vars, result.log), fields, out / "trainlog.csv")
    landscape.export_records(result.captures, out / "records.jsonl")
    return 0


def load_experiment(path) -> forgebench.Experiment:
    """The ``bench`` protocol file at ``path``, checked in full before any
    domain is generated."""
    doc = _load_json(path)
    _require_keys(
        doc,
        ("version", "domain", "conflict", "sizes", "protocol", "objectives", "seeds"),
        "protocol",
    )
    _check_version(doc)
    domain, conflict, sizes = _generation_specs(doc)
    if conflict.novelty_rate == 0:
        raise ConfigError("conflict.novelty_rate must be > 0: acquisition is measured on the domain-B tokens")
    proto_doc = dict(doc.get("protocol", {}))
    if "pretrain_stages" in proto_doc:
        proto_doc["pretrain_stages"] = _pretrain_stages(proto_doc["pretrain_stages"])
    protocol = _build_dataclass(forgebench.BenchProtocol, proto_doc, "protocol")
    _construct(
        forgebench.check_context_len, "protocol", domain=domain, sizes=sizes, context_len=protocol.context_len
    )
    # a repeated objective or seed would overwrite its cell file and be
    # counted twice in the report
    defaults = forgebench.Experiment()
    names = _distinct_list(
        doc, "objectives", list(defaults.objectives),
        lambda name: name in objectives.OBJECTIVE_NAMES,
        f"one of {list(objectives.OBJECTIVE_NAMES)}",
    )
    seeds = _distinct_list(
        doc, "seeds", list(defaults.seeds),
        lambda seed: is_int(seed) and 0 <= seed < 2**64,
        "an integer in [0, 2**64)",
    )
    return forgebench.Experiment(domain, conflict, sizes, protocol, tuple(names), tuple(seeds))


def cmd_bench(args) -> int:
    if args.parallel < 1:
        raise ConfigError(f"--parallel must be >= 1, got {args.parallel}")
    experiment = load_experiment(args.protocol)
    cells = forgebench.run_grid(experiment, args.parallel)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for cell in cells:
        with atomic_write(out / f"cell_{cell.objective}_{cell.seed}.json") as fh:
            json.dump(dataclasses.asdict(cell), fh, sort_keys=True, indent=2)
            fh.write("\n")
    rows = forgebench.pareto_report(cells)
    landscape.export_rows(rows, list(rows[0]), out / "pareto.csv")
    return 0


def cmd_analyze(args) -> int:
    if args.bins < 1:
        raise ConfigError(f"--bins must be >= 1, got {args.bins}")
    if not 0 < args.q < 1:
        raise ConfigError(f"--q must be in (0, 1), got {args.q}")
    if args.top < 0:
        raise ConfigError(f"--top must be >= 0, got {args.top}")
    if args.k is not None and args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    has_model = args.checkpoint is not None or args.corpus is not None
    if bool(args.records) == bool(has_model):
        raise ConfigError("provide either --records or both --checkpoint and --corpus")
    if has_model and (args.checkpoint is None or args.corpus is None):
        raise ConfigError("model scoring needs both --checkpoint and --corpus")
    if args.records and args.k is not None:
        raise ConfigError("--k applies to --checkpoint/--corpus scoring; --records hold their gates")
    if args.records:
        records = _read_records(args.records, ("entropy_full",))
    else:
        cfg, params = _read_checkpoint(args.checkpoint, "--checkpoint")
        # the default top-20 gate works on any model, as in the objectives
        k = min(20, cfg.vocab_size) if args.k is None else args.k
        if k > cfg.vocab_size:
            raise ConfigError(f"--k {k} exceeds the checkpoint's vocab_size {cfg.vocab_size}")
        corpus_doc = _load_json(args.corpus)
        corpus = _corpus_from_doc(corpus_doc, cfg.context_len, "corpus", "--checkpoint")
        records = landscape.score_corpus(params, corpus, k=k)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    hist = landscape.histogram2d(records, x_bins=args.bins, y_bins=args.bins)
    fields = ["x_lo", "x_hi", "y_lo", "y_hi", "count"]
    landscape.export_rows(landscape.histogram_rows(hist), fields, out / "landscape.csv")
    stats = landscape.quadrant_stats(records, q=args.q)
    qrows = [
        {
            "quadrant": name,
            "count": stats["counts"][name],
            "share": stats["shares"][name],
            "tau_gate": stats["thresholds"][0],
            "tau_p": stats["thresholds"][1],
        }
        for name in stats["counts"]
    ]
    landscape.export_rows(
        qrows, ("quadrant", "count", "share", "tau_gate", "tau_p"), out / "quadrants.csv"
    )
    rank_rows = []
    for name in stats["counts"]:
        for row in landscape.quadrant_token_ranking(records, stats["labels"], name, args.top):
            rank_rows.append({"quadrant": name, **row})
    landscape.export_rows(
        rank_rows, ("quadrant", "token", "count", "mean_gate"), out / "ranking.csv"
    )
    return 0


def _k_grid(text, vocab_size: int) -> list[int]:
    """The ``--k-grid`` option against a vocabulary of ``vocab_size``: a
    strictly ascending list of ks in [1, V], or the default grid when absent."""
    if not text:
        return landscape.default_k_grid(vocab_size)
    try:
        grid = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --k-grid: {text!r}") from exc
    if grid != sorted(set(grid)) or not 1 <= grid[0] <= grid[-1] <= vocab_size:
        raise ConfigError(f"--k-grid {text} must strictly ascend within [1, V] = [1, {vocab_size}]")
    return grid


def cmd_topk_study(args) -> int:
    if bool(args.synthetic) == bool(args.checkpoint):
        raise ConfigError("provide either --synthetic or --checkpoint/--corpus")
    if bool(args.corpus) != bool(args.checkpoint):
        raise ConfigError("--corpus goes with --checkpoint, and only with it")
    if args.synthetic:
        grid = _k_grid(args.k_grid, landscape.SYNTHETIC_VOCAB)
        # closed on every exit, so an error joins the generator's helper thread
        with contextlib.closing(landscape.synthetic_fidelity_blocks()) as blocks:
            rows = landscape.fidelity_from_blocks(blocks, grid)
    else:
        cfg, params = _read_checkpoint(args.checkpoint, "--checkpoint")
        grid = _k_grid(args.k_grid, cfg.vocab_size)
        corpus_doc = _load_json(args.corpus)
        corpus = _corpus_from_doc(corpus_doc, cfg.context_len, "corpus", "--checkpoint")
        # a correlation needs two positions whose exact entropies differ
        if len(corpus) < 2:
            raise ConfigError(f"--corpus {args.corpus}: the study needs at least 2 positions, got {len(corpus)}")
        try:
            rows = landscape.topk_fidelity_study(params, corpus, grid)
        except DegenerateVarianceError as exc:
            raise ConfigError(f"--corpus {args.corpus}: {exc} under the checkpoint; no r is defined") from exc
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    landscape.export_rows(
        rows, ("k", "pearson_r", "extra_bytes_per_token"), out / "fidelity.csv"
    )
    return 0


def cmd_dynamics(args) -> int:
    if not args.lo < args.hi:
        raise ConfigError("--lo must be strictly below --hi")
    records_dir = Path(args.records_dir)
    if not records_dir.is_dir():
        raise ConfigError(f"records dir not found: {records_dir}")
    files = sorted(records_dir.glob("*.jsonl"))
    if not files:
        raise ConfigError(f"no captured record files (*.jsonl) in {records_dir}")
    tables = {}  # every file is read before any output exists
    for path in files:
        records = _read_records(path, ("step", "entropy_full"))
        tables[path.stem] = landscape.dynamics_track(records, args.hi, args.lo)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stem, rows in tables.items():
        landscape.export_rows(rows, landscape.DYNAMICS_FIELDS, out / f"dynamics_{stem}.csv")
    return 0


def _check_out_dir(path) -> None:
    """Reject an output directory that is a file (a dangling link among them)
    or lies under one, before any work; each command creates the directory
    only when it writes its outputs."""
    out = Path(path)
    found = next((p for p in (out, *out.parents) if os.path.lexists(p)), None)
    if found is not None and not found.is_dir():
        raise ConfigError(f"output directory {out} cannot be made: {found} is not a directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eaftlab",
        description="Entropy-gated fine-tuning laboratory (toy scale: defaults "
        "are calibrated for minute-long desk runs, not LLM training)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model from a JSON config")
    p.add_argument("config", help="path to the run config JSON")
    p.add_argument("out_dir", help="output directory")
    p.set_defaults(run=cmd_train)

    p = sub.add_parser("bench", help="run the forgetting benchmark grid")
    p.add_argument("protocol", help="path to the benchmark protocol JSON")
    p.add_argument("out_dir", help="output directory")
    p.add_argument("--parallel", type=int, default=1, help="worker processes (cells merge deterministically)")
    p.set_defaults(run=cmd_bench)

    p = sub.add_parser("analyze", help="landscape, quadrant, and ranking tables")
    p.add_argument("out_dir", help="output directory")
    p.add_argument("--checkpoint", help="model checkpoint to score with")
    p.add_argument("--corpus", help="corpus JSON to score")
    p.add_argument("--records", help="pre-scored records.jsonl (skips model scoring)")
    p.add_argument("--bins", type=int, default=40, help="histogram bins per axis")
    p.add_argument("--q", type=float, default=0.15, help="quadrant percentile")
    p.add_argument("--k", type=int, help="top-K for the entropy gate (default 20, or V if smaller)")
    p.add_argument("--top", type=int, default=30, help="ranking rows per quadrant")
    p.set_defaults(run=cmd_analyze)

    p = sub.add_parser("topk-study", help="top-K fidelity vs memory table")
    p.add_argument("out_dir", help="output directory")
    p.add_argument("--checkpoint", help="model checkpoint to score with")
    p.add_argument("--corpus", help="corpus JSON to score")
    p.add_argument("--synthetic", action="store_true", help="use the fixed synthetic corpus")
    p.add_argument("--k-grid", help="comma-separated strictly ascending k values")
    p.set_defaults(run=cmd_topk_study)

    p = sub.add_parser("dynamics", help="subgroup dynamics tables from captures")
    p.add_argument("records_dir", help="directory of captured records (*.jsonl)")
    p.add_argument("out_dir", help="output directory")
    p.add_argument("--hi", type=float, default=probstats.HIGH_ENTROPY_MIN, help="high-entropy group minimum (nats)")
    p.add_argument("--lo", type=float, default=probstats.LOW_ENTROPY_MAX, help="low-entropy group maximum (nats)")
    p.set_defaults(run=cmd_dynamics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out_dir(args.out_dir)
        return args.run(args)
    except TrainingDivergedError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except EaftLabError as exc:  # configuration and validation errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures
        if os.environ.get("EAFTLAB_TRACEBACK") == "1":
            traceback.print_exc()
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
