#!/usr/bin/env python3
"""Time the kernel's layers in a parent checkout and a changed one,
alternating in one interpreter.

Two sections run in turn:

* ``claims`` (universe): for each claim law (a dyadic Uniform, a non-dyadic
  Uniform, an Exponential and a ScaledBeta, each beside a constant resource
  law) and each read size (2^14 and 2^18 cells, in rows of 256 claims), it
  times ``ReplicateRows.claims`` of one generation of as many replicates as
  fill the read.  Each timing repeats the read until 2^21 cells are read
  and divides by the cells.
* ``count_rows`` (policies): for every built-in policy and each row length
  (10^2, 10^3, 8192, 3*10^4, 10^5 and 4.5*10^5 claims) it counts a block of
  U(0, 2) claims in int64 quanta of 2^-32, as many rows as fill 2^18 cells
  (the engine's claim batch; one row if longer), each row's budget a third
  of its total, with random uint64 aux words.  fcfs is timed only on rows
  shorter than the change's ``policies._SELECT_MIN_CLAIMS``: the engine
  counts every longer fcfs row as it reads it
  (``ReplicateRows.served_in_arrival_order``) and never hands it to
  ``count_rows``.  Each timing is one call, divided by the claims.  Every
  policy counts the same block at a row length, and all their timers, of
  both sides, alternate in one loop, so the host's drift moves no policy
  against another.  The last column is each policy's change-side median
  over strongest-first's at that length.

Both checkouts' ``src/rdbp`` are loaded as separate packages by
``scripts/ab_inprocess.py``'s loader, and each pair of timings alternates
which side goes first.  Each row prints the median ns per cell or claim of
each side, the median per-pair ratio change / parent, and the pairs the
change won.  It stops with an error if the two sides read any cell or count
any row differently.  It writes no file.

Example, with the parent exported to ../parent:
    python3 scripts/bench_layers.py --parent ../parent --pairs 10
"""

import argparse
import importlib
import statistics
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_inprocess import HERE, alternate, load  # noqa: E402

SIDES = ("parent", "change")
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
LENGTHS = (100, 1000, 8192, 30_000, 100_000, 450_000)
BLOCK_CELLS = 1 << 18


class Disagree(Exception):
    """The two sides computed different results."""


def columns(ns: dict[str, list[float]], pairs: int) -> str:
    """Each side's median of its samples, the median ratio change / parent
    and the pairs the change won, as columns."""
    ratios = [c / p for p, c in zip(ns["parent"], ns["change"])]
    won = sum(c < p for p, c in zip(ns["parent"], ns["change"]))
    return (f"{statistics.median(ns['parent']):8.2f} {statistics.median(ns['change']):8.2f} "
            f"{statistics.median(ratios):6.3f} {won:2d}/{pairs}")


def paired(timers: dict[str, Callable[[], float]], pairs: int) -> str:
    """``columns`` of ``pairs`` alternating pairs of each side's timer."""
    return columns(alternate(timers, pairs), pairs)


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


def ns_per_claim(policy, block: np.ndarray, budgets: np.ndarray, aux: np.ndarray) -> float:
    t0 = time.perf_counter()
    policy.count_rows(block, budgets, aux)
    return (time.perf_counter() - t0) * 1e9 / block.size


def claims(pairs: int) -> None:
    """The universe section: ns per cell of ``ReplicateRows.claims``."""
    print(f"ns per cell of ReplicateRows.claims, median of {pairs} alternating pairs; "
          f"rows of {ROW} claims, constant resource law")
    print(f"{'claim law':22} {'cells':>7} {'parent':>8} {'change':>8} {'ratio':>6} {'won':>5}")
    for law in LAWS:
        for cells in READ_CELLS:
            reads = {side: reader(f"rdbp_{side}", law, cells) for side in SIDES}
            # the first read of each side builds its row keys and any lazy
            # tables, untimed
            if reads["parent"]().tobytes() != reads["change"]().tobytes():
                raise Disagree(f"{law} at {cells} cells: the two sides read different claims")
            timers = {side: partial(ns_per_cell, read, cells) for side, read in reads.items()}
            print(f"{law:22} {cells:7d} {paired(timers, pairs)}", flush=True)


def count_rows(pairs: int) -> None:
    """The policies section: ns per claim of each policy's ``count_rows``."""
    modules = {side: importlib.import_module(f"rdbp_{side}.policies") for side in SIDES}
    policies = {token: {side: module.policy_from_token(token) for side, module in modules.items()}
                for token in modules["change"].POLICY_TOKENS}
    rng = np.random.default_rng(1)
    print(f"ns per claim of count_rows, median of {pairs} alternating pairs; "
          f"U(0, 2) claims in int64 quanta of 2^-32, budget a third of each row's total")
    print(f"{'policy':15} {'claims':>7} {'rows':>5} {'parent':>8} {'change':>8} {'ratio':>6} {'won':>5} {'vs sf':>6}")
    for length in LENGTHS:
        rows = max(BLOCK_CELLS // length, 1)
        block = (rng.uniform(0.0, 2.0, (rows, length)) * 2.0 ** 32).astype(np.int64)
        # random words tie within a row with odds below 1e-8 at these
        # lengths; a tie that moved a count would show as the two sides'
        # counts disagreeing
        aux = rng.integers(0, 2 ** 64, (rows, length), dtype=np.uint64)
        inputs = (block, block.sum(axis=1) // 3, aux)
        timers = {}
        for token, sides in policies.items():
            if sides["change"].in_arrival_order and length >= modules["change"]._SELECT_MIN_CLAIMS:
                continue
            if sides["parent"].count_rows(*inputs).tolist() != sides["change"].count_rows(*inputs).tolist():
                raise Disagree(f"{token} at {length} claims: the two sides count differently")
            for side, policy in sides.items():
                timers[token, side] = partial(ns_per_claim, policy, *inputs)
        ns = alternate(timers, pairs)
        sf = statistics.median(ns["sf", "change"])
        for token in policies:
            if (token, "change") not in ns:
                continue
            samples = {side: ns[token, side] for side in SIDES}
            print(f"{token:15} {length:7d} {rows:5d} {columns(samples, pairs)} "
                  f"{statistics.median(samples['change']) / sf:6.3f}", flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, default=HERE,
                    help="checkout of the change (default: the one holding this script)")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    for side, checkout in zip(SIDES, (args.parent, args.change)):
        load(checkout.resolve(), f"rdbp_{side}")
    try:
        for section in (claims, count_rows):
            section(args.pairs)
    except Disagree as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
