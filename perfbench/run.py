#!/usr/bin/env python3
"""rdbp benchmark: time the CLI on pinned Monte Carlo workloads, check its outputs.

    python3 perfbench/run.py --workload short-lived --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Every workload is a fixed sequence of ``rdbp.cli.main`` calls on
configs in ``perfbench/workloads/``, seeded with ``--seed``.  Each
repetition starts a fresh interpreter (``workload.py``), so every one of
them also measures set-up.

``--trace 0`` repeats the sequence until ``--seconds`` have passed and
reports medians of the end-to-end metrics.  ``--trace 1`` runs it once as
timed and once more in a single process with every public rdbp callable
wrapped, requires both runs to write byte-identical files, and reports the
per-layer metrics derived from the recorded spans.

Every CLI call and every output invariant is one operation; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "workloads"
#: a workload process still running this long after the run began is
#: stopped, and the run fails
DEADLINE_S = 170
#: fresh interpreters that only set up, before the repetitions, per timed run
SETUP_PROBES = 3


@dataclass(frozen=True)
class Call:
    label: str
    command: str
    config: str
    seeded: bool = True
    threads: int = 1


@dataclass(frozen=True)
class Workload:
    config: str
    calls: tuple[Call, ...]


# Why each workload exists is recorded in workloads/README.md.
WORKLOADS = {
    "short-lived": Workload(
        "short-lived.json",
        (
            Call("verify", "verify", "short-lived.json", threads=2),
            # the scan stops at the first witness, whose position is set by
            # the seed, so it runs on the seed its config pins
            Call("counterexample", "verify", "short-lived-counterexample.json", seeded=False),
            Call("simulate", "simulate", "short-lived.json"),
        ),
    ),
    "deep-growth": Workload(
        "deep-growth.json",
        (
            Call("verify", "verify", "deep-growth.json"),
            Call("simulate", "simulate", "deep-growth.json"),
        ),
    ),
    "beta-claims": Workload(
        "beta-claims.json",
        (
            Call("verify", "verify", "beta-claims.json"),
            Call("classify", "classify", "beta-claims.json"),
            Call("curve", "curve", "beta-claims.json"),
            Call("simulate", "simulate", "beta-claims.json"),
        ),
    ),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verify_s": "s",
    "replicates_per_s": "1/s",
    "simulate_s": "s",
    "peak_rss_mb": "MB",
}


def config_replicates(config: dict) -> int:
    """Replicates the checks of one verify config run, from the config alone.

    The counterexample scan is left out: where it stops depends on the seed.
    """
    reps = config["mc"]["replicates"]
    params = config.get("check_params", {})
    total = 0
    for check in config["checks"]:
        p = params.get(check, {})
        if check in ("dominance", "envelope"):
            total += reps
        elif check == "safe_haven":
            total += reps * len(set(p.get("initial_sizes", (1, 2, 5, 10))) | {1})
        elif check == "superadditivity":
            total += reps * (1 + p.get("initial_size", 2))
        elif check == "sf_probe":
            total += reps * len(p.get("t_values", (1, 2, 3, 4, 5)))
    return total


class Tally:
    """Operations attempted and failed; each failure is named on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)


class Runner:
    """Starts workload processes inside one scratch directory of the checkout."""

    def __init__(self, root: Path, name: str, seed: int) -> None:
        self.root = root
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = root / ".bench_build" / "perfbench" / f"{name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.count = 0
        self.deadline = time.monotonic() + DEADLINE_S

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def start(self, calls, threads=None, spans=False) -> tuple[float, dict, Path]:
        """One fresh interpreter running ``calls``; returns (setup_s, report, out dir)."""
        self.count += 1
        tag = self.work / f"rep{self.count}"
        out = tag / "out"
        argvs = []
        for call in calls:
            argv = [call.command, "--config", str(CONFIGS / call.config), "--out", str(out / call.label),
                    "--threads", str(threads or call.threads)]
            if call.seeded:
                argv += ["--seed", str(self.seed)]
            argvs.append({"label": call.label, "argv": argv})
        tag.mkdir()
        plan = {
            "src": str(self.root / "src"),
            "setup_config": str(CONFIGS / self.workload.config),
            "seed": str(self.seed),
            "calls": argvs,
            "log": str(tag / "cli.log"),
            "report": str(tag / "report.json"),
            "spans": str(tag / "spans.npz") if spans else None,
        }
        (tag / "plan.json").write_text(json.dumps(plan))
        with open(tag / "process.log", "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / "workload.py"), str(tag / "plan.json")],
                                    cwd=self.root, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
            try:
                code = proc.wait(timeout=max(0.0, self.deadline - t0))
            except subprocess.TimeoutExpired:
                raise RuntimeError(f"the run did not finish within {DEADLINE_S} s") from None
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        if code != 0:
            raise RuntimeError(f"workload process exited {code}:\n{(tag / 'process.log').read_text()[-2000:]}")
        report = json.loads((tag / "report.json").read_text())
        return report["setup_done"] - t0, report, out


def read_outputs(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def check_outputs(tally: Tally, report: dict, out: Path) -> None:
    """The output invariants of one repetition."""
    for call in report["calls"]:
        tally.check(call["code"] == 0, f"rdbp {call['label']} exited {call['code']}")
    for verify in sorted(out.glob("*/verify.json")):
        checks = json.loads(verify.read_text())["checks"]
        for name, outcome in checks.items():
            tally.check(outcome["ok"], f"{verify.parent.name}: check {name} not ok")
        if "dominance" in checks:
            violations = checks["dominance"]["result"]["violations"]
            tally.check(violations == 0, f"{violations} dominance violations")
        if "safe_haven" in checks:
            tally.check(checks["safe_haven"]["result"]["monotone_nonincreasing"],
                        "safe_haven extinction estimates not monotone in the founder count")
        if "counterexample" in checks:
            tally.check(checks["counterexample"]["result"]["found"], "no counterexample witness found")


def timed_run(runner: Runner, seconds: float, tally: Tally) -> dict:
    calls = runner.workload.calls
    replicates = config_replicates(json.loads((CONFIGS / runner.workload.config).read_text()))
    t0 = time.monotonic()
    setups = [runner.start([])[0] for _ in range(SETUP_PROBES)]
    walls, verifies, simulates, rss, rep_s = [], [], [], [], []
    first = None
    # start another repetition only while a typical one still fits
    while not walls or time.monotonic() - t0 + statistics.median(rep_s) <= seconds:
        t = time.monotonic()
        setup, report, out = runner.start(calls)
        rep_s.append(time.monotonic() - t)
        check_outputs(tally, report, out)
        outputs = read_outputs(out)
        if first is None:
            first = outputs
            print_digests(outputs)
        else:
            tally.check(outputs == first, "a repetition wrote different output files")
        by_label = {c["label"]: c["s"] for c in report["calls"]}
        setups.append(setup)
        walls.append(report["wall_s"])
        verifies.append(by_label["verify"])
        simulates.append(by_label["simulate"])
        rss.append(report["peak_rss_mb"])
        shutil.rmtree(out.parent)
    verify_s = statistics.median(verifies)
    print(f"repetitions={len(walls)} setup_samples={len(setups)}", file=sys.stderr)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "verify_s": verify_s,
        "replicates_per_s": replicates / verify_s,
        "simulate_s": statistics.median(simulates),
        "peak_rss_mb": statistics.median(rss),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def traced_run(runner: Runner, tally: Tally) -> dict:
    calls = runner.workload.calls
    _, timed, timed_out = runner.start(calls)
    check_outputs(tally, timed, timed_out)
    _, traced, traced_out = runner.start(calls, threads=1, spans=True)
    check_outputs(tally, traced, traced_out)
    expected, got = read_outputs(timed_out), read_outputs(traced_out)
    print_digests(expected)
    tally.check(got == expected, "the traced run wrote different output files than the timed run")

    metrics = spans.layer_metrics(spans.load(traced_out.parent / "spans.npz"))
    metrics["cli.output_bytes"] = (sum(len(b) for b in got.values()), "bytes")
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / timed["wall_s"], "ratio")
    return metrics


def print_digests(outputs: dict[str, bytes]) -> None:
    for path, data in outputs.items():
        print(f"result_digest {path} sha256:{hashlib.sha256(data).hexdigest()}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        ap.error("--seed must be in [0, 2**64)")
    root = Path.cwd()
    if not (root / "src" / "rdbp" / "__init__.py").is_file():
        print(f"error: no rdbp source tree under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    runner = Runner(root, args.workload, args.seed)
    tally = Tally()
    try:
        runner.start([])  # compiles the sources and warms the file cache
        metrics = traced_run(runner, tally) if args.trace else timed_run(runner, args.seconds, tally)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        runner.close()
    if args.trace:
        metrics["failed_ratio"] = (tally.failed / tally.attempted, "ratio")
    print(f"failed_ratio={tally.failed / tally.attempted} ({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
