#!/usr/bin/env python3
"""Time and referee ``ScaledBeta.icdf`` in a parent checkout and the
checkout holding this script, alternating in one interpreter.

For every shape of the test grid (a, b in 0.5, 1, 2, 5) and the large
shapes (3, 30), (1.5, 20) and (50, 50) it prints:
  * ns per sample of each side on pieces of 2^14 uniform units, the size
    the universe kernel hands a law, as the median of alternating pairs,
    with the median per-pair ratio change / parent and the pairs the
    change won;
  * the median and largest error of each side's x, in ulp of the root,
    against the 200-bit mpmath root of ``tests/mp_beta.py``, on
    ``--units`` random units, half of them in each half of (0, 1).
Both checkouts' ``src/rdbp`` are loaded as separate packages by
``scripts/ab_inprocess.py``'s loader.

Example, with the parent exported to ../parent:
    python3 scripts/beta_inverse_ulp.py --parent ../parent --pairs 9
"""

import argparse
import importlib
import statistics
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from ab_inprocess import HERE, alternate, load  # noqa: E402
from mp_beta import beta_root  # noqa: E402

GRID = (0.5, 1.0, 2.0, 5.0)
SHAPES = [(a, b) for a in GRID for b in GRID] + [(3.0, 30.0), (1.5, 20.0), (50.0, 50.0)]
PIECE = 1 << 14


def ulps(x: np.ndarray, roots: list) -> np.ndarray:
    """|x - root| in units of the spacing of doubles at each root."""
    return np.array([float(abs(root - v)) / float(np.spacing(float(root))) if np.isfinite(v) else np.inf
                     for v, root in zip(x.tolist(), roots)])


def ns_per_sample(law, piece: np.ndarray) -> float:
    t0 = time.perf_counter()
    law.icdf(piece)
    return (time.perf_counter() - t0) * 1e9 / PIECE


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=9)
    ap.add_argument("--units", type=int, default=200, help="units refereed per shape (default: 200)")
    args = ap.parse_args()
    modules = {}
    for side, checkout in (("parent", args.parent), ("change", HERE)):
        load(checkout.resolve(), f"rdbp_{side}")
        modules[side] = importlib.import_module(f"rdbp_{side}.distributions")
    rng = np.random.default_rng(1)
    print(f"ns per sample on {PIECE}-unit pieces (median of {args.pairs} alternating pairs); "
          f"ulp of x against the mpmath root on {args.units} units (median / largest)")
    print(f"{'shape':>11} {'parent':>8} {'change':>8} {'ratio':>6} {'won':>5}   "
          f"{'parent ulp':>12} {'change ulp':>12}")
    for a, b in SHAPES:
        laws = {side: module.ScaledBeta(a, b) for side, module in modules.items()}
        piece = rng.random(PIECE)
        for law in laws.values():  # builds the tables, untimed
            law.icdf(piece)
        ns = alternate({side: partial(ns_per_sample, law, piece) for side, law in laws.items()}, args.pairs)
        ratios = [c / p for p, c in zip(ns["parent"], ns["change"])]
        won = sum(c < p for p, c in zip(ns["parent"], ns["change"]))
        half = args.units // 2
        units = np.concatenate([0.5 * rng.random(half), 0.5 + 0.5 * rng.random(args.units - half)])
        xs = {side: law.icdf(units) for side, law in laws.items()}
        roots = [beta_root(a, b, unit, x if 0.0 < x < 1.0 else 0.0)
                 for unit, x in zip(units.tolist(), xs["change"].tolist())]
        errors = {side: ulps(x, roots) for side, x in xs.items()}
        cols = "".join(f" {np.median(e):5.2f} / {e.max():4.1f}" for e in errors.values())
        print(f"{f'({a:g}, {b:g})':>11} {statistics.median(ns['parent']):8.1f} "
              f"{statistics.median(ns['change']):8.1f} {statistics.median(ratios):6.3f} "
              f"{won:2d}/{args.pairs}  {cols}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
