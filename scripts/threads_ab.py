#!/usr/bin/env python3
"""Time `rdbp verify` with one worker against two, on the benchmark configs.

Runs ``rdbp.cli.main(["verify", ...])`` in this process at ``--threads 1``
and ``--threads 2`` in interleaved pairs, alternating which side goes
first, on the workload configs in ``perfbench/workloads/`` (read only).
Every pair must write byte-identical ``verify.json`` files; the script
stops with an error otherwise.  It prints the median and quartiles of each
side, per config.

Example, from the root of a checkout:
    PYTHONPATH=src python3 scripts/threads_ab.py --pairs 10 --seed 1
"""

import argparse
import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

import rdbp.cli

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_inprocess import quartiles  # noqa: E402

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
CONFIGS = ("short-lived", "deep-growth", "beta-claims")


def verify(config: Path, seed: int, threads: int, out: Path) -> tuple[float, bytes]:
    argv = ["verify", "--config", str(config), "--seed", str(seed),
            "--threads", str(threads), "--out", str(out)]
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = rdbp.cli.main(argv)
    seconds = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"rdbp {' '.join(argv)} exited {code}")
    return seconds, (out / "verify.json").read_bytes()


def summary(times: list[float]) -> str:
    q1, q2, q3 = quartiles(times)
    return f"{q2:.4f} s [{q1:.4f}, {q3:.4f}]"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=5, help="interleaved pairs per config")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("configs", nargs="*", default=CONFIGS,
                    help=f"workload names under perfbench/workloads (default: {' '.join(CONFIGS)})")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        for name in args.configs:
            config = WORKLOADS / f"{name}.json"
            times = {1: [], 2: []}
            for pair in range(args.pairs):
                sides = (1, 2) if pair % 2 == 0 else (2, 1)
                written = {}
                for threads in sides:
                    seconds, written[threads] = verify(config, args.seed, threads,
                                                       Path(scratch) / f"{name}-{threads}")
                    times[threads].append(seconds)
                if written[1] != written[2]:
                    print(f"error: {name} pair {pair}: verify.json differs between 1 and 2 workers",
                          file=sys.stderr)
                    return 1
            print(f"{name}: --threads 1 {summary(times[1])}   --threads 2 {summary(times[2])}"
                  f"   ({args.pairs} pairs, verify.json identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
