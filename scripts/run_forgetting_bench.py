#!/usr/bin/env python3
"""Run the full forgetting-benchmark grid and write the Pareto report.

Reproduces the headline table: every objective crossed with every seed on
the synthetic two-domain benchmark, aggregated into results/pareto.csv.
The grid runs through ``eaftlab bench`` with a protocol file written to the
output directory, so the cell files are byte-identical to the CLI's.
"""

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from eaftlab import cli
from eaftlab import forgebench as fb


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/bench", help="output directory")
    ap.add_argument("--seeds", type=int, default=5, help="number of seeds")
    ap.add_argument("--parallel", type=int, default=1, help="worker processes")
    ap.add_argument("--peak-mass", type=float, default=0.99,
                    help="domain-A transition peak mass (sharper = stronger priors)")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    protocol = out / "protocol.json"
    protocol.write_text(json.dumps({
        "domain": {"peak_mass": args.peak_mass, "seed": 0},
        "objectives": list(fb.DEFAULT_OBJECTIVE_GRID),
        "seeds": list(range(args.seeds)),
    }, indent=2) + "\n")
    t0 = time.perf_counter()
    code = cli.main(["bench", str(protocol), str(out), "--parallel", str(args.parallel)])
    if code:
        return code
    elapsed = time.perf_counter() - t0
    with open(out / "pareto.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    n_cells = sum(int(r["n_seeds"]) for r in rows)
    print(f"{n_cells} cells in {elapsed:.0f}s -> {out/'pareto.csv'}")
    width = max(len(r["objective"]) for r in rows)
    for r in rows:
        print(
            f"  {r['objective']:{width}s}"
            f"  retention {float(r['retention_delta_mean']):+.3f}"
            f" ± {float(r['retention_delta_sd']):.3f}"
            f"   acquisition {float(r['acquisition_nll_mean']):.3f}"
            f" ± {float(r['acquisition_nll_sd']):.3f}"
            f"   acc {float(r['acquisition_acc_mean']):.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
