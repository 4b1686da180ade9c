#!/usr/bin/env python3
"""Time ``count_rows`` of every built-in policy, per claim, in a parent
checkout and the checkout holding this script, alternating in one
interpreter.

For each row length (10^2, 10^3, 8192, 3*10^4, 10^5 and 4.5*10^5 claims)
it counts a block of U(0, 2) claims, as many rows as fill 2^18 cells (the
engine's claim batch; one row if longer), each row's budget a third of its
total.  fcfs is timed only on rows shorter than the change's
``policies._SELECT_MIN_CLAIMS``: the engine counts every longer fcfs row
as it reads it (``ReplicateRows.served_in_arrival_order``) and never hands
it to ``count_rows``.  Claims and budgets are int64 quanta of 2^-32.  A checkout from
before the int64 lattice (its ``LawTriple`` has no ``lattice_bits``)
counts the same values as floats, q * 2^-32, whose every prefix total is
exact at these lengths.  Each side gets aux cells in the format its own
``ReplicateRows.aux`` reads: random uint64 words, or for a checkout that
reads float units, the units of the same words, ((w >> 11) | 1) * 2^-53.
Both checkouts' ``src/rdbp`` are
loaded as separate packages by ``scripts/ab_inprocess.py``'s loader, and
each pair of calls alternates which side goes first.  It prints the median
ns per claim of each side, the median per-pair ratio change / parent, and
the pairs the change won.  It stops with an error if the two sides count
any row differently.

Example, with the parent exported to ../parent:
    python3 scripts/count_ns_per_claim.py --parent ../parent --pairs 9
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

LENGTHS = (100, 1000, 8192, 30_000, 100_000, 450_000)
BLOCK_CELLS = 1 << 18


def reads_words(package: str) -> bool:
    """Whether the package's ``ReplicateRows.aux`` reads uint64 words
    rather than float units."""
    rdbp = importlib.import_module(package)
    universe = importlib.import_module(f"{package}.universe")
    base = universe.Universe(universe.Seed(1), rdbp.COUNTEREXAMPLE_TRIPLE)
    cells = universe.ReplicateRows(base, np.zeros(1, dtype=np.int64), 0).aux(np.zeros(1, dtype=np.intp), 1)
    return cells.dtype == np.uint64


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=7)
    args = ap.parse_args()
    modules = {}
    for side, checkout in (("parent", args.parent), ("change", HERE)):
        load(checkout.resolve(), f"rdbp_{side}")
        modules[side] = importlib.import_module(f"rdbp_{side}.policies")
    lattice = {side: hasattr(importlib.import_module(f"rdbp_{side}.distributions").LawTriple, "lattice_bits")
               for side in modules}
    words = {side: reads_words(f"rdbp_{side}") for side in modules}
    tokens = modules["change"].POLICY_TOKENS
    rng = np.random.default_rng(1)
    print(f"ns per claim of count_rows, median of {args.pairs} alternating pairs; "
          f"U(0, 2) claims in int64 quanta of 2^-32, budget a third of each row's total; "
          f"aux as {', '.join(side + (' words' if w else ' units') for side, w in words.items())}")
    print(f"{'policy':15} {'claims':>7} {'rows':>5} {'parent':>8} {'change':>8} {'ratio':>6} {'won':>5}")
    for token in tokens:
        policies = {side: module.policy_from_token(token) for side, module in modules.items()}
        for length in LENGTHS:
            if policies["change"].in_arrival_order and length >= modules["change"]._SELECT_MIN_CLAIMS:
                continue
            rows = max(BLOCK_CELLS // length, 1)
            claims = (rng.uniform(0.0, 2.0, (rows, length)) * 2.0 ** 32).astype(np.int64)
            # random words tie within a row with odds below 1e-8 at these
            # lengths, their units below 1e-4; a tie that moved a count
            # would show as the two sides' counts disagreeing
            aux_words = rng.integers(0, 2 ** 64, (rows, length), dtype=np.uint64)
            aux_units = ((aux_words >> np.uint64(11)) | np.uint64(1)).astype(np.float64) * 2.0 ** -53
            budgets = claims.sum(axis=1) // 3
            inputs = {side: ((claims, budgets) if lattice[side] else (claims * 2.0 ** -32, budgets * 2.0 ** -32))
                      + (aux_words if words[side] else aux_units,) for side in policies}
            ns = {side: [] for side in policies}
            counts = {side: policy.count_rows(*inputs[side]) for side, policy in policies.items()}
            if counts["parent"].tolist() != counts["change"].tolist():
                print(f"error: {token} at {length} claims: the two sides count differently", file=sys.stderr)
                return 1
            for pair in range(args.pairs):
                for side in (("parent", "change") if pair % 2 == 0 else ("change", "parent")):
                    t0 = time.perf_counter()
                    policies[side].count_rows(*inputs[side])
                    ns[side].append((time.perf_counter() - t0) * 1e9 / claims.size)
            ratios = [c / p for p, c in zip(ns["parent"], ns["change"])]
            won = sum(c < p for p, c in zip(ns["parent"], ns["change"]))
            print(f"{token:15} {length:7d} {rows:5d} {statistics.median(ns['parent']):8.2f} "
                  f"{statistics.median(ns['change']):8.2f} {statistics.median(ratios):6.3f} "
                  f"{won:2d}/{args.pairs}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
