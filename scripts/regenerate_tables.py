#!/usr/bin/env python3
"""Regenerate the three even-value density tables from scratch and write
them as CSV files (one per table, plus a metadata sidecar each).

Usage:
  python scripts/regenerate_tables.py --outdir results
"""

import argparse
import sys
import time
from pathlib import Path

from copartitions import cli


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for which in (1, 2, 3):
        target = outdir / f"table{which}.csv"
        argv = ["tables", str(which), "--format", "csv", "--out", str(target)]
        t0 = time.time()
        code = cli.main(argv)
        if code != 0:
            return code
        print(f"table {which} -> {target} ({time.time() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
