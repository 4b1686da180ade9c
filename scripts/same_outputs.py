#!/usr/bin/env python3
"""Check that two checkouts write the same outputs for every CLI call.

Runs ``python -m rdbp.cli`` with each of ``verify``, ``simulate``,
``classify`` and ``curve`` on every config in ``perfbench/workloads/``, at
each ``--seeds`` value and each ``--threads`` value, once in the parent
checkout and once in the change.  Both sides read the change's configs.
Each call runs in its own temporary directory with ``--out out``, so the
paths printed on stdout match; nothing is written outside the temporary
directories.  The two calls must agree on the exit code, stdout, stderr
(with each checkout's path replaced by ``<checkout>``) and the bytes of
every output file.  Calls that fail the same way on both sides, such as a
config without ``m_grid`` given to ``curve``, agree.  The script lists
every difference and exits 1 if there is one.

It also prints each call's peak RSS on both sides, the ``ru_maxrss`` of
that child alone (``os.wait4``), and lists the calls whose peak moved by
more than 10 %.  Peaks are for information only and never fail the run.
Each side's calls compile into their own empty ``PYTHONPYCACHEPREFIX``
directory, with ``PYTHONDONTWRITEBYTECODE`` unset for them, so the first
call of a side compiles and writes the bytecode and its later calls read
it, whatever ``__pycache__`` a checkout holds; the mode is printed first.

Example, with the parent exported to ../parent:
    python3 scripts/same_outputs.py --parent ../parent --seeds 1 2 7 --threads 1 2
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_inprocess import HERE, bytecode_env  # noqa: E402

COMMANDS = ("verify", "simulate", "classify", "curve")
#: a call whose peak RSS moved by more than this share is listed
PEAK_MOVE = 0.10


def run(checkout: Path, argv: list[str], workdir: Path, cache: Path) -> dict:
    """One CLI call in ``workdir``, compiling into ``cache``: its exit code,
    streams, output files and peak RSS in MB."""
    workdir.mkdir(parents=True)
    env = dict(bytecode_env(cache), PYTHONPATH=str(checkout / "src"))
    # the streams go to files beside out/, so the call can be reaped by
    # os.wait4, whose rusage holds this child's peak alone
    streams = {name: workdir / name for name in ("stdout", "stderr")}
    with open(streams["stdout"], "wb") as stdout, open(streams["stderr"], "wb") as stderr:
        proc = subprocess.Popen([sys.executable, "-m", "rdbp.cli", *argv, "--out", "out"], cwd=workdir, env=env,
                                stdout=stdout, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    out = workdir / "out"
    files = {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}
    return {"exit code": proc.returncode, "stdout": streams["stdout"].read_text(),
            "stderr": streams["stderr"].read_text().replace(str(checkout), "<checkout>"), "files": files,
            "peak MB": usage.ru_maxrss / 1024}  # kilobytes on Linux


def differences(parent: dict, change: dict) -> list[str]:
    """What the change's call does differently from the parent's."""
    found = [what for what in ("exit code", "stdout", "stderr") if parent[what] != change[what]]
    for name in sorted(set(parent["files"]) | set(change["files"])):
        if parent["files"].get(name) != change["files"].get(name):
            found.append(f"out/{name}")
    return found


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, default=HERE,
                    help="checkout of the change (default: the one holding this script)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 7])
    ap.add_argument("--threads", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    configs = sorted((sides["change"] / "perfbench" / "workloads").glob("*.json"))
    calls = differing = 0
    moved = []
    print("bytecode: each side compiles once into its own empty PYTHONPYCACHEPREFIX, PYTHONDONTWRITEBYTECODE unset",
          flush=True)
    with tempfile.TemporaryDirectory() as scratch:
        for config in configs:
            for command in COMMANDS:
                for seed in args.seeds:
                    for threads in args.threads:
                        argv = [command, "--config", str(config), "--seed", str(seed), "--threads", str(threads)]
                        tag = f"{config.stem}-{command}-{seed}-{threads}"
                        got = {side: run(path, argv, Path(scratch) / side / tag, Path(scratch) / f"{side}-cache")
                               for side, path in sides.items()}
                        found = differences(got["parent"], got["change"])
                        calls += 1
                        call = f"{config.name} {command} --seed {seed} --threads {threads}"
                        before, after = got["parent"]["peak MB"], got["change"]["peak MB"]
                        print(f"{call}: peak RSS {before:.1f} -> {after:.1f} MB", flush=True)
                        if abs(after - before) > PEAK_MOVE * before:
                            moved.append(f"{call}: {before:.1f} -> {after:.1f} MB ({after / before - 1:+.1%})")
                        if found:
                            differing += 1
                            print(f"DIFFERS {call}: {', '.join(found)}", flush=True)
    print(f"peak RSS moved by more than {PEAK_MOVE:.0%} in {len(moved)} of {calls} calls (information only)")
    for line in moved:
        print(f"  {line}")
    print(f"{calls} calls, {differing} differ (exit codes, stdout, stderr and output files)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
