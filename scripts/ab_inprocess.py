#!/usr/bin/env python3
"""Time one CLI call of two checkouts in one interpreter, in alternating pairs.

Loads ``src/rdbp`` of a parent checkout and of a changed one as two
separately named packages (``rdbp_parent`` and ``rdbp_change``) and calls
each one's ``cli.main`` on a benchmark workload config in turn, alternating
which side goes first.  Both sides share the interpreter, the allocator and
the CPU's state, so drift of the host's speed between two calls is far
smaller than between two processes.  rdbp must import its own modules only
relatively, or the two copies would mix; the script checks that first.

Each call is timed with ``time.process_time`` after one untimed warm-up call
per side.  It prints each side's median [Q1, Q3], the quartiles of the
per-pair ratio change / parent, the pairs the change won (ties count for
neither) and each checkout's line count of ``src/``.  It stops with an
error if a call exits non-zero or writes files that differ in any byte
from those of the parent's warm-up call.  ``alternate`` is the
alternating-pairs loop that ``bench_layers.py``, ``beta_inverse_ulp.py``
and ``threads_ab.py`` share with it.

In-process pairs still drift by a few percent: on the deep-growth workload
an identical copy of a checkout read -2.4 % to +0.3 % against itself over
three runs of 16 pairs.  A reading of 2-5 % there needs
``scripts/bench_pairs.py``, which times separate processes, to confirm it.

Example, with the parent exported to ../parent:
    python3 scripts/ab_inprocess.py --parent ../parent --workload beta-claims \\
        --command verify --pairs 12
"""

import argparse
import ast
import contextlib
import importlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parents[1]


def absolute_imports(package: Path) -> list[str]:
    """``file:line`` of every import of ``rdbp`` by its absolute name."""
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(name == "rdbp" or name.startswith("rdbp.") for name in names):
                found.append(f"{path}:{node.lineno}")
    return found


def load(checkout: Path, name: str):
    """``cli`` of the checkout's ``src/rdbp``, imported as package ``name``."""
    package = checkout / "src" / "rdbp"
    bad = absolute_imports(package)
    if bad:
        raise SystemExit("error: rdbp imports itself by name, so two copies cannot share one "
                         "interpreter:\n  " + "\n  ".join(bad))
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def bytecode_env(cache: Path) -> dict:
    """The environment of a side's processes, which compile into ``cache``."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(cache)
    return env


def call(cli, argv: list[str]) -> float:
    """CPU seconds of one ``cli.main(argv)``."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.process_time()
        code = cli.main(argv)
        seconds = time.process_time() - t0
    if code != 0:
        raise SystemExit(f"error: rdbp {' '.join(argv)} exited {code}")
    return seconds


def src_lines(checkout: Path) -> int:
    """Lines of the Python files under the checkout's ``src/``."""
    return sum(len(path.read_text().splitlines()) for path in (checkout / "src").rglob("*.py"))


def written(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def alternate(timers: dict, pairs: int, after_pair: Optional[Callable[[int, dict], None]] = None) -> dict:
    """Each side's samples of ``pairs`` alternating pairs of its timer.

    ``timers`` maps sides (the parent first, where there is one) to timers
    of no arguments; they run in that order in even pairs and in reverse in
    odd ones.  Returns one list of samples per side, and calls
    ``after_pair(pair, samples)`` after each pair.
    """
    sides = tuple(timers)
    samples = {side: [] for side in sides}
    for pair in range(pairs):
        for side in (sides if pair % 2 == 0 else sides[::-1]):
            samples[side].append(timers[side]())
        if after_pair is not None:
            after_pair(pair, samples)
    return samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, default=HERE,
                    help="checkout of the change (default: the one holding this script)")
    ap.add_argument("--workload", required=True, help="config name under perfbench/workloads")
    ap.add_argument("--command", default="verify", help="rdbp subcommand (default: verify)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=None, help="--seed of every call (default: the config's)")
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()
    config = args.change / "perfbench" / "workloads" / f"{args.workload}.json"
    clis = {"parent": load(args.parent.resolve(), "rdbp_parent"),
            "change": load(args.change.resolve(), "rdbp_change")}
    with tempfile.TemporaryDirectory() as scratch:
        def run(side: str) -> tuple[float, dict[str, bytes]]:
            out = Path(scratch) / side
            out.mkdir(exist_ok=True)
            argv = [args.command, "--config", str(config), "--threads", str(args.threads), "--out", str(out)]
            if args.seed is not None:
                argv += ["--seed", str(args.seed)]
            return call(clis[side], argv), written(out)

        # lazy set-up (scipy, tables) happens here, untimed; every timed call
        # must write what the parent's warm-up wrote
        _, reference = run("parent")
        run("change")

        def timer(side: str) -> float:
            seconds, files = run(side)
            if files != reference:
                differ = sorted(name for name in files.keys() | reference.keys()
                                if files.get(name) != reference.get(name))
                raise SystemExit(f"error: {side} wrote {', '.join(differ)} unlike the parent's warm-up")
            return seconds

        def progress(pair: int, times: dict[str, list[float]]) -> None:
            print(f"  pair {pair}: parent {times['parent'][-1]:.4f} s, change {times['change'][-1]:.4f} s",
                  file=sys.stderr, flush=True)

        times = alternate({side: partial(timer, side) for side in clis}, args.pairs, progress)

    parent, change = times["parent"], times["change"]
    ratios = [c / p for p, c in zip(parent, change)]
    won = sum(c < p for p, c in zip(parent, change))
    p1, p2, p3 = quartiles(parent)
    c1, c2, c3 = quartiles(change)
    r1, r2, r3 = quartiles(ratios)
    seed = "the config's seed" if args.seed is None else f"seed {args.seed}"
    print(f"{args.workload} {args.command}, {seed}, --threads {args.threads}: {args.pairs} "
          f"alternating pairs in one interpreter, every pair's files byte-identical")
    lines = {side: src_lines(path) for side, path in (("parent", args.parent), ("change", args.change))}
    print(f"  process_time  parent {p2:.4f} s [{p1:.4f}, {p3:.4f}]   change {c2:.4f} s [{c1:.4f}, {c3:.4f}]")
    print(f"  src/ lines    parent {lines['parent']}   change {lines['change']} "
          f"({lines['change'] - lines['parent']:+d})")
    print(f"  change / parent per pair: median {r2:.3f} [{r1:.3f}, {r3:.3f}] ({100 * (r2 - 1):+.1f} %), "
          f"change won {won}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
