#!/usr/bin/env python3
"""Run the benchmark on a parent checkout and a changed one, in alternating pairs.

For each of ``--pairs`` seeds (``--first-seed``, ``--first-seed + 1``, ...)
it runs ``python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0`` once in each checkout, the parent first in even pairs and the
change first in odd ones.  ``perfbench/`` is only read.  It first prints
the line count of each checkout's ``src/`` (its ``*.py`` files), and per
workload then, for every end-to-end metric of ``BENCHMARK.json``, each
side's median [Q1, Q3], the change of the medians, and the pairs the
change won (ties count for neither side).  The line count and the
quartiles are those of ``scripts/ab_inprocess.py``.  It stops with an error if a run fails or
reports ``"correct": false``, or if the ``result_digest`` lines of the two
runs of a pair differ.  ``--moved PATH`` names an output file, as its
``result_digest`` line does (``curve/curve.csv``), that the change moves on
purpose: its digests may differ, and the summary says they did.

Each side's runs compile into their own bytecode cache: an empty
``PYTHONPYCACHEPREFIX`` directory per side, with ``PYTHONDONTWRITEBYTECODE``
unset for them, so the warm-up of that side's first ``perfbench/run.py``
writes the cache and every later process of that side reads it.  Neither a
``__pycache__`` left in a checkout nor an environment that forbids writing
bytecode then times one side differently from the other.  The mode is
printed first.

Example, with the parent exported to ../parent:
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload deep-growth --pairs 10 --seconds 30
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_inprocess import HERE, bytecode_env, quartiles, src_lines  # noqa: E402


def run(checkout: Path, workload: str, seed: int, seconds: float, env: dict) -> tuple[dict, list[str]]:
    """One timed benchmark run: its metric values and its digest lines."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, env=env)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(argv[1:])} in {checkout} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    report = json.loads(lines[-1])
    if not report["correct"]:
        raise SystemExit(f"error: {workload} seed {seed} in {checkout}: correct is false "
                         f"({report['failed']} of {report['attempted']} operations failed)")
    metrics = {name: m["value"] for name, m in report["metrics"].items()}
    return metrics, [line for line in lines if line.startswith("result_digest ")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, default=HERE,
                    help="checkout of the change (default: the one holding this script)")
    ap.add_argument("--workload", action="append", required=True,
                    help="benchmark workload; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0, help="--seconds of each run")
    ap.add_argument("--moved", action="append", default=[], metavar="PATH",
                    help="output file the change moves on purpose, whose digests may differ; repeat for several")
    args = ap.parse_args()
    better = {m["name"]: (m["unit"], m["better"])
              for m in json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    lines = {side: src_lines(path) for side, path in sides.items()}
    print(f"src/ lines: parent {lines['parent']}, change {lines['change']} "
          f"({lines['change'] - lines['parent']:+d})", flush=True)
    with tempfile.TemporaryDirectory() as caches:
        envs = {side: bytecode_env(Path(caches) / side) for side in sides}
        print("bytecode: each side compiles once into its own empty PYTHONPYCACHEPREFIX, "
              "PYTHONDONTWRITEBYTECODE unset", flush=True)
        compare(args, sides, better, envs)
    return 0


def compare(args: argparse.Namespace, sides: dict, better: dict, envs: dict) -> None:
    """Runs the pairs of every workload and prints their summaries."""
    for workload in args.workload:
        values = {side: {name: [] for name in better} for side in sides}
        seeds = range(args.first_seed, args.first_seed + args.pairs)
        moved = set()
        for pair, seed in enumerate(seeds):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            digests = {}
            for side in order:
                metrics, digests[side] = run(sides[side], workload, seed, args.seconds, envs[side])
                for name in better:
                    values[side][name].append(metrics[name])
            diff = sorted(set(digests["parent"]) ^ set(digests["change"]))
            moved.update(line.split()[1] for line in diff if line.split()[1] in args.moved)
            diff = [line for line in diff if line.split()[1] not in args.moved]
            if diff:
                raise SystemExit(f"error: {workload} seed {seed}: result_digest lines differ\n"
                                 + "\n".join(diff))
            print(f"  {workload} seed {seed}: "
                  + ", ".join(f"{name} {values['parent'][name][-1]:.4g} -> {values['change'][name][-1]:.4g}"
                              for name in better), file=sys.stderr, flush=True)

        print(f"{workload}: {args.pairs} alternating pairs, seeds {seeds[0]}-{seeds[-1]}, "
              f"--seconds {args.seconds:g}; every run correct, every pair's result_digest lines equal"
              + (f" except the moved {', '.join(sorted(moved))}" if moved else ""))
        for name, (unit, direction) in better.items():
            parent, change = values["parent"][name], values["change"][name]
            p1, p2, p3 = quartiles(parent)
            c1, c2, c3 = quartiles(change)
            sign = -1.0 if direction == "lower" else 1.0
            won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            print(f"  {name:17} {unit:4} parent {p2:.4g} [{p1:.4g}, {p3:.4g}]   "
                  f"change {c2:.4g} [{c1:.4g}, {c3:.4g}]   {100 * (c2 / p2 - 1):+.1f} %   "
                  f"change won {won}/{args.pairs}   (parent IQR {p3 - p1:.4g})")


if __name__ == "__main__":
    sys.exit(main())
