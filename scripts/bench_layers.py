#!/usr/bin/env python3
"""Time the kernel's claim reads, per cell and per law kind, in a parent
checkout and a changed one, alternating in one interpreter.

For each claim law (a dyadic Uniform, a non-dyadic Uniform, an Exponential
and a ScaledBeta, each beside a constant resource law) and each read size
(2^14 and 2^18 cells, in rows of 256 claims), it times
``ReplicateRows.claims`` of one generation of as many replicates as fill the
read.  Each timing repeats the read until 2^21 cells are read and divides
by the cells.  Both checkouts' ``src/rdbp`` are loaded as separate packages
by ``scripts/ab_inprocess.py``'s loader, and each pair of timings alternates
which side goes first.  It prints the median ns per cell of each side, the
median per-pair ratio change / parent, and the pairs the change won.  It
stops with an error if the two sides read any cell differently.

This is the universe section of a per-layer harness: it writes no file.

Example, with the parent exported to ../parent:
    python3 scripts/bench_layers.py --parent ../parent --pairs 10
"""

import argparse
import importlib
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_inprocess import HERE, load  # noqa: E402

#: claim laws by label, as (class name, constructor arguments)
LAWS = {
    "uniform U(0, 2)": ("Uniform", (0.0, 2.0)),
    "uniform U(0, 3)": ("Uniform", (0.0, 3.0)),
    "exponential(1.5)": ("Exponential", (1.5,)),
    "scaled_beta(2, 2, 2)": ("ScaledBeta", (2.0, 2.0, 2.0)),
}
READ_CELLS = (1 << 14, 1 << 18)
ROW = 256
#: cells read per timing, so a small read is repeated until its time is long
#: enough to measure
TIMED_CELLS = 1 << 21


def reader(package: str, law: str, cells: int):
    """A claim read of ``cells`` cells: a function of no arguments that
    returns the claims of generation 3 of ``cells // ROW`` replicates."""
    dist = importlib.import_module(f"{package}.distributions")
    universe = importlib.import_module(f"{package}.universe")
    name, params = LAWS[law]
    laws = dist.LawTriple(dist.OffspringLaw((0.25, 0.0, 0.75)), getattr(dist, name)(*params), dist.Constant(1.2))
    rows = np.arange(cells // ROW)
    rows_of = universe.ReplicateRows(universe.Universe(universe.Seed(1), laws), rows, 3)
    return lambda: rows_of.claims(rows, ROW)


def ns_per_cell(read, cells: int) -> float:
    repeats = max(TIMED_CELLS // cells, 1)
    t0 = time.perf_counter()
    for _ in range(repeats):
        read()
    return (time.perf_counter() - t0) * 1e9 / (repeats * cells)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, default=HERE,
                    help="checkout of the change (default: the one holding this script)")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    sides = ("parent", "change")
    for side, checkout in zip(sides, (args.parent, args.change)):
        load(checkout.resolve(), f"rdbp_{side}")
    print(f"ns per cell of ReplicateRows.claims, median of {args.pairs} alternating pairs; "
          f"rows of {ROW} claims, constant resource law")
    print(f"{'claim law':22} {'cells':>7} {'parent':>8} {'change':>8} {'ratio':>6} {'won':>5}")
    for law in LAWS:
        for cells in READ_CELLS:
            reads = {side: reader(f"rdbp_{side}", law, cells) for side in sides}
            # the first read of each side builds its row keys and any lazy
            # tables, untimed
            if reads["parent"]().tobytes() != reads["change"]().tobytes():
                print(f"error: {law} at {cells} cells: the two sides read different claims", file=sys.stderr)
                return 1
            ns = {side: [] for side in sides}
            for pair in range(args.pairs):
                for side in (sides if pair % 2 == 0 else sides[::-1]):
                    ns[side].append(ns_per_cell(reads[side], cells))
            ratios = [c / p for p, c in zip(ns["parent"], ns["change"])]
            won = sum(c < p for p, c in zip(ns["parent"], ns["change"]))
            print(f"{law:22} {cells:7d} {statistics.median(ns['parent']):8.2f} "
                  f"{statistics.median(ns['change']):8.2f} {statistics.median(ratios):6.3f} "
                  f"{won:2d}/{args.pairs}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
