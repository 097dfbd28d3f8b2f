#!/usr/bin/env python3
"""Token-subgroup training dynamics: CE versus the entropy-gated objective.

Pretrains once, fine-tunes on the conflict-injected corpus under both
objectives with periodic token captures, and writes per-step subgroup
cross-entropy tables plus the entropy/probability landscape of the
fine-tuning corpus before training.
"""

import argparse
from pathlib import Path

from eaftlab import forgebench as fb
from eaftlab import landscape as ls
from eaftlab import toylm


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/dynamics", help="output directory")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=600)
    ap.add_argument("--lr", type=float, default=0.015)
    ap.add_argument("--capture-every", type=int, default=50)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    domain = fb.DomainSpec(peak_mass=0.99, seed=0)
    protocol = fb.BenchProtocol()
    config, data, snapshot = fb.pretrain_snapshot(
        domain, fb.ConflictSpec(), fb.GenerationSizes(), protocol, args.seed
    )

    records = ls.score_corpus(snapshot, data.finetune, k=protocol.k)
    ls.export_records(records, out / "finetune_scored.jsonl")
    stats = ls.quadrant_stats(records, q=0.15)
    print("fine-tune corpus quadrants (q=0.15):", stats["counts"])

    scores = fb.score_gates(snapshot, data.finetune, protocol.k)
    for name in ("ce", "eaft"):
        spec, pw = fb.resolve_objective(name, scores, protocol)
        result = toylm.train(
            toylm.TrainRun(
                config=config, corpus=data.finetune, objective=spec,
                optimizer=protocol.finetune_optimizer, learning_rate=args.lr,
                steps=args.steps, batch_size=protocol.finetune_batch,
                capture_every=args.capture_every, probe_size=1024,
                seed=13, init=snapshot, position_weights=pw,
            )
        )
        ls.export_records(result.captures, out / f"{name}.jsonl")
        rows = ls.dynamics_track(result.captures)
        ls.export_rows(rows, ls.DYNAMICS_FIELDS, out / f"dynamics_{name}.csv")
        first, last = rows[0], rows[-1]
        print(
            f"  {name:4s}: low-entropy CE {first['low_entropy_ce']:.2f} -> {last['low_entropy_ce']:.2f}"
            f" | high-entropy CE {first['high_entropy_ce']:.2f} -> {last['high_entropy_ce']:.2f}"
        )


if __name__ == "__main__":
    main()
