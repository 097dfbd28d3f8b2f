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

Exit codes: 0 success, 1 configuration/validation error, 2 runtime error.
Configs are strict: unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import forgebench, landscape, objectives, toylm
from .errors import ConfigError, EaftLabError, TrainingDivergedError

TRAINLOG_FIELDS = (
    "step",
    "mean_loss",
    "mean_gate",
    "high_entropy_ce",
    "high_entropy_count",
    "low_entropy_ce",
    "low_entropy_count",
    "grad_norm",
)


def _require_keys(doc: dict, allowed, where: str) -> None:
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _build_dataclass(cls, doc: dict, where: str):
    names = [f.name for f in dataclasses.fields(cls)]
    _require_keys(doc, names, where)
    try:
        return cls(**doc)
    except EaftLabError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def _load_json(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        with open(p) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {p}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"top-level JSON in {p} must be an object")
    return doc


def _objective_from_doc(doc: dict, where: str) -> objectives.ObjectiveSpec:
    _require_keys(doc, ("name", "k", "tau_entropy", "tau_prob", "norm_mode", "aggregation"), where)
    if "name" not in doc:
        raise ConfigError(f"{where} needs an objective name")
    kwargs = {}
    for key in ("tau_entropy", "tau_prob", "k", "norm_mode", "aggregation"):
        if key in doc:
            kwargs[key] = doc[key]
    return objectives.named_objective(doc["name"], **kwargs)


def _corpus_from_doc(doc: dict, context_len: int, where: str):
    """Either explicit sequences or a generated benchmark corpus part."""
    _require_keys(doc, ("sequences", "bench"), where)
    if ("sequences" in doc) == ("bench" in doc):
        raise ConfigError(f"{where} needs exactly one of 'sequences' or 'bench'")
    if "sequences" in doc:
        return toylm.Corpus.from_sequences(doc["sequences"], context_len)
    bench = doc["bench"]
    _require_keys(bench, ("domain", "conflict", "sizes", "part"), f"{where}.bench")
    domain = _build_dataclass(forgebench.DomainSpec, bench.get("domain", {}), "domain")
    conflict = _build_dataclass(forgebench.ConflictSpec, bench.get("conflict", {}), "conflict")
    sizes = _build_dataclass(forgebench.GenerationSizes, bench.get("sizes", {}), "sizes")
    part = bench.get("part", "finetune")
    if part not in ("pretrain", "finetune", "eval_a", "eval_b"):
        raise ConfigError(f"unknown corpus part {part!r}")
    data = forgebench.generate_domains(domain, conflict, sizes, context_len)
    return {
        "pretrain": data.pretrain,
        "finetune": data.finetune,
        "eval_a": data.eval_a,
        "eval_b": data.eval_b,
    }[part]


def _write_trainlog(path, log) -> None:
    rows = []
    for entry in log:
        rows.append(
            {
                "step": entry.step,
                "mean_loss": entry.mean_loss,
                "mean_gate": entry.mean_gate,
                "high_entropy_ce": entry.high_entropy_ce,
                "high_entropy_count": entry.high_entropy_count,
                "low_entropy_ce": entry.low_entropy_ce,
                "low_entropy_count": entry.low_entropy_count,
                "grad_norm": entry.grad_norm,
            }
        )
    landscape.export_rows(rows, TRAINLOG_FIELDS, path, "csv")


def cmd_train(config_path, out_dir) -> int:
    doc = _load_json(config_path)
    _require_keys(
        doc,
        ("version", "model", "corpus", "objective", "optimizer", "train", "init_checkpoint"),
        "config",
    )
    model_cfg = _build_dataclass(toylm.ModelConfig, doc.get("model", {}), "model")
    corpus = _corpus_from_doc(doc.get("corpus", {}), model_cfg.context_len, "corpus")
    spec = _objective_from_doc(doc.get("objective", {"name": "ce"}), "objective")
    opt = doc.get("optimizer", {})
    _require_keys(opt, ("kind", "learning_rate"), "optimizer")
    tr = doc.get("train", {})
    _require_keys(
        tr, ("steps", "batch_size", "capture_every", "seed", "probe_size"), "train"
    )
    init = None
    if "init_checkpoint" in doc:
        ckpt = Path(doc["init_checkpoint"])
        if not ckpt.exists():
            raise ConfigError(f"init_checkpoint not found: {ckpt}")
        init_cfg, init = toylm.load_checkpoint(ckpt)
        if init_cfg.vocab_size != model_cfg.vocab_size:
            raise ConfigError("init_checkpoint vocab_size differs from model config")
    run = toylm.TrainRun(
        config=model_cfg,
        corpus=corpus,
        objective=spec,
        optimizer=opt.get("kind", "adam-lite"),
        learning_rate=float(opt.get("learning_rate", 3e-3)),
        steps=int(tr.get("steps", 500)),
        batch_size=int(tr.get("batch_size", 64)),
        capture_every=int(tr.get("capture_every", 0)),
        seed=int(tr.get("seed", 0)),
        probe_size=int(tr.get("probe_size", 512)),
        init=init,
        ref_params=init if spec.kl_coefficient > 0 else None,
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = toylm.train(run)
    toylm.save_checkpoint(out / "checkpoint.ckpt", model_cfg, result.params)
    _write_trainlog(out / "trainlog.csv", result.log)
    landscape.export_records(result.captures, out / "records.jsonl", "jsonl")
    return 0


def cmd_bench(protocol_path, out_dir, parallel: int = 1) -> int:
    doc = _load_json(protocol_path)
    _require_keys(
        doc,
        ("version", "domain", "conflict", "sizes", "protocol", "objectives", "seeds"),
        "protocol",
    )
    domain = _build_dataclass(forgebench.DomainSpec, doc.get("domain", {}), "domain")
    conflict = _build_dataclass(forgebench.ConflictSpec, doc.get("conflict", {}), "conflict")
    sizes = _build_dataclass(forgebench.GenerationSizes, doc.get("sizes", {}), "sizes")
    proto_doc = dict(doc.get("protocol", {}))
    if "pretrain_stages" in proto_doc:
        proto_doc["pretrain_stages"] = tuple(
            forgebench.TrainStage(int(s), str(o), float(lr))
            for s, o, lr in proto_doc["pretrain_stages"]
        )
    protocol = _build_dataclass(forgebench.BenchProtocol, proto_doc, "protocol")
    names = doc.get("objectives", forgebench.DEFAULT_OBJECTIVE_GRID)
    for name in names:
        if name not in objectives.OBJECTIVE_NAMES:
            raise ConfigError(f"unknown objective {name!r} in grid")
    seeds = [int(s) for s in doc.get("seeds", [0, 1, 2, 3, 4])]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = forgebench.run_grid(
        names, seeds, domain, conflict, sizes, protocol, parallel=max(1, int(parallel))
    )
    for cell in cells:
        with open(out / f"cell_{cell.objective}_{cell.seed}.json", "w") as fh:
            json.dump(dataclasses.asdict(cell), fh, sort_keys=True, indent=2)
            fh.write("\n")
    rows = forgebench.pareto_report(cells)
    landscape.export_rows(
        rows,
        (
            "objective",
            "n_seeds",
            "retention_delta_mean",
            "retention_delta_sd",
            "acquisition_nll_mean",
            "acquisition_nll_sd",
            "acquisition_acc_mean",
        ),
        out / "pareto.csv",
        "csv",
    )
    return 0


def cmd_analyze(args) -> int:
    has_model = args.checkpoint is not None or args.corpus is not None
    if bool(args.records) == bool(has_model):
        raise ConfigError("provide either --records or both --checkpoint and --corpus")
    if has_model and (args.checkpoint is None or args.corpus is None):
        raise ConfigError("model scoring needs both --checkpoint and --corpus")
    if args.records:
        records = landscape.ingest_records(args.records)
        if not records:
            raise ConfigError(f"no records in {args.records}")
    else:
        cfg, params = toylm.load_checkpoint(args.checkpoint)
        corpus_doc = _load_json(args.corpus)
        corpus = _corpus_from_doc(corpus_doc, cfg.context_len, "corpus")
        records = landscape.score_corpus(params, corpus, k=args.k)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    hist = landscape.histogram2d(records, x_bins=args.bins, y_bins=args.bins)
    fields = ["x_lo", "x_hi", "y_lo", "y_hi", "count"]
    landscape.export_rows(landscape.histogram_rows(hist), fields, out / "landscape.csv", "csv")
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
        qrows, ("quadrant", "count", "share", "tau_gate", "tau_p"), out / "quadrants.csv", "csv"
    )
    rank_rows = []
    for name in stats["counts"]:
        for row in landscape.quadrant_token_ranking(records, stats["labels"], name, args.top):
            rank_rows.append({"quadrant": name, **row})
    landscape.export_rows(
        rank_rows, ("quadrant", "token", "count", "mean_gate"), out / "ranking.csv", "csv"
    )
    return 0


def cmd_topk_study(args) -> int:
    if bool(args.synthetic) == bool(args.checkpoint):
        raise ConfigError("provide either --synthetic or --checkpoint/--corpus")
    if args.k_grid:
        try:
            grid = [int(x) for x in args.k_grid.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --k-grid: {args.k_grid!r}") from exc
    else:
        grid = None
    if args.synthetic:
        probs = landscape.synthetic_fidelity_corpus()
        rows = landscape.fidelity_from_probs(probs, grid or landscape.default_k_grid(probs.shape[1]))
    else:
        if not args.corpus:
            raise ConfigError("--checkpoint mode needs --corpus")
        cfg, params = toylm.load_checkpoint(args.checkpoint)
        corpus_doc = _load_json(args.corpus)
        corpus = _corpus_from_doc(corpus_doc, cfg.context_len, "corpus")
        rows = landscape.topk_fidelity_study(
            params, corpus, grid or landscape.default_k_grid(cfg.vocab_size)
        )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    landscape.export_rows(
        rows, ("k", "pearson_r", "extra_bytes_per_token"), out / "fidelity.csv", "csv"
    )
    return 0


def cmd_dynamics(args) -> int:
    if args.lo >= args.hi:
        raise ConfigError("--lo must be strictly below --hi")
    records_dir = Path(args.records_dir)
    if not records_dir.is_dir():
        raise ConfigError(f"records dir not found: {records_dir}")
    files = sorted(records_dir.glob("*.jsonl"))
    if not files:
        raise ConfigError(f"no captured record files (*.jsonl) in {records_dir}")
    cfg = landscape.DynamicsConfig(high_entropy_min=args.hi, low_entropy_max=args.lo)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fields = (
        "step",
        "high_entropy_ce",
        "high_entropy_count",
        "low_entropy_ce",
        "low_entropy_count",
    )
    for path in files:
        records = landscape.ingest_records(path)
        if not records:
            raise ConfigError(f"no records in {path}")
        rows = landscape.dynamics_track(records, cfg)
        landscape.export_rows(rows, fields, out / f"dynamics_{path.stem}.csv", "csv")
    return 0


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

    p = sub.add_parser("bench", help="run the forgetting benchmark grid")
    p.add_argument("protocol", help="path to the benchmark protocol JSON")
    p.add_argument("out_dir", help="output directory")
    p.add_argument("--parallel", type=int, default=1, help="worker processes (cells merge deterministically)")

    p = sub.add_parser("analyze", help="landscape, quadrant, and ranking tables")
    p.add_argument("out_dir", help="output directory")
    p.add_argument("--checkpoint", help="model checkpoint to score with")
    p.add_argument("--corpus", help="corpus JSON to score")
    p.add_argument("--records", help="pre-scored records.jsonl (skips model scoring)")
    p.add_argument("--bins", type=int, default=40, help="histogram bins per axis")
    p.add_argument("--q", type=float, default=0.15, help="quadrant percentile")
    p.add_argument("--k", type=int, default=20, help="top-K for the entropy gate")
    p.add_argument("--top", type=int, default=30, help="ranking rows per quadrant")

    p = sub.add_parser("topk-study", help="top-K fidelity vs memory table")
    p.add_argument("out_dir", help="output directory")
    p.add_argument("--checkpoint", help="model checkpoint to score with")
    p.add_argument("--corpus", help="corpus JSON to score")
    p.add_argument("--synthetic", action="store_true", help="use the fixed synthetic corpus")
    p.add_argument("--k-grid", help="comma-separated ascending k values")

    p = sub.add_parser("dynamics", help="subgroup dynamics tables from captures")
    p.add_argument("records_dir", help="directory of captured records (*.jsonl)")
    p.add_argument("out_dir", help="output directory")
    p.add_argument("--hi", type=float, default=2.0, help="high-entropy group minimum (nats)")
    p.add_argument("--lo", type=float, default=0.5, help="low-entropy group maximum (nats)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args.config, args.out_dir)
        if args.command == "bench":
            return cmd_bench(args.protocol, args.out_dir, args.parallel)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "topk-study":
            return cmd_topk_study(args)
        if args.command == "dynamics":
            return cmd_dynamics(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except TrainingDivergedError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except EaftLabError as exc:  # configuration and validation errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
