#!/usr/bin/env python3
"""Top-K entropy fidelity vs memory cost on the synthetic corpus.

Runs ``eaftlab topk-study OUT --synthetic`` and prints its table. The CSV
(OUT/fidelity.csv) holds the Pearson correlation of the renormalized top-K
entropy against the exact entropy, plus the per-token byte overhead of
storing K (probability, index) pairs.
"""

import argparse
import csv
import sys
from pathlib import Path

from eaftlab import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/fidelity", help="output directory")
    args = ap.parse_args()

    code = cli.main(["topk-study", args.out, "--synthetic"])
    if code != 0:
        return code
    with open(Path(args.out) / "fidelity.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            r = row["pearson_r"]
            r_str = "   --  " if r == "" else f"{float(r):.5f}"
            print(f"  k={int(row['k']):5d}  r={r_str}  bytes/token={row['extra_bytes_per_token']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
