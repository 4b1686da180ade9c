"""Command line front end.

Four subcommands share one JSON config format (see config.py):

* simulate  - run a single trajectory, write trajectory.csv / trajectory.json
* classify  - solve thresholds and verdicts, write classification.json
* curve     - critical resource curves over an offspring-mean grid, write curve.csv
* verify    - run Monte Carlo checks from the config, write verify.json

Exit codes: 0 success, 1 a verify check violated a hard invariant,
2 configuration problem, 3 runtime failure.  Given the same config and
seed, every subcommand writes byte-identical output files on rerun.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import partial
from pathlib import Path

from .config import (
    CHECK_NAMES,
    ConfigError,
    RunConfig,
    law_to_json,
    offspring_law_to_json,
    parse_run_config,
)
from .criteria import (
    ConvergenceError,
    DomainError,
    UnboundedClaimError,
    UnsupportedKindError,
    critical_curve,
    critical_report,
)
from .engine import (
    EngineError,
    ProcessSpec,
    simulate,
    trajectory_to_csv,
    trajectory_to_json,
)
from .montecarlo import (
    InsufficientSurvivors,
    counterexample_search,
    dominance_check,
    envelope_check,
    run_coupled,
    safe_haven_check,
    sf_monotonicity_probe,
    superadditivity_check,
)
from .policies import policy_from_token
from .universe import Seed, Universe

__all__ = ["main"]

#: failures after the config has parsed; each exits with code 3.  A
#: MemoryError is an allocation that no cap caught: it ends one check or
#: subcommand, not the process
_RUNTIME_ERRORS = (DomainError, UnboundedClaimError, UnsupportedKindError, ConvergenceError,
                   EngineError, InsufficientSurvivors, OSError, ValueError, MemoryError)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_text(outdir: Path, name: str, text: str) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(text)
    return path


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _clean(obj):
    """Recursively convert dataclasses/tuples for JSON output."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _clean(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def _cmd_simulate(cfg: RunConfig, args) -> int:
    triple = cfg.triple()
    if cfg.policy is None:
        raise ConfigError("config.policy: missing required field")
    spec = ProcessSpec(
        laws=triple,
        policy=policy_from_token(cfg.policy),
        initial_size=cfg.process.initial_size,
        horizon=cfg.process.horizon,
        explosion_cap=cfg.process.explosion_cap,
    )
    traj = simulate(spec, Universe(cfg.seed, triple))
    outdir = Path(args.out)
    csv_path = _write_text(outdir, "trajectory.csv", trajectory_to_csv(traj))
    json_path = _write_text(outdir, "trajectory.json", _json_text(trajectory_to_json(traj)))
    gen = traj.outcome.generation
    print(f"policy={cfg.policy} outcome={traj.outcome.kind}"
          f"{'' if gen is None else f' generation={gen}'} final_size={traj.sizes[-1]}")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_classify(cfg: RunConfig, args) -> int:
    triple = cfg.triple()
    report = critical_report(triple)
    payload = {
        "laws": {
            "offspring": offspring_law_to_json(triple.offspring),
            "claim": law_to_json(triple.claim, claim=True),
            "resource": law_to_json(triple.resource),
        },
        "report": _clean(report),
    }
    path = _write_text(Path(args.out), "classification.json", _json_text(payload))
    for kind, cls in report.classifications.items():
        print(f"{kind}: {cls.verdict} ({cls.basis})")
    print(f"wrote {path}")
    return 0


def _cmd_curve(cfg: RunConfig, args) -> int:
    if cfg.claim is None:
        raise ConfigError("laws.claim: missing required field")
    if cfg.m_grid is None:
        raise ConfigError("config.m_grid: missing required field")
    rows = critical_curve(cfg.claim, cfg.m_grid)
    lines = ["m,r_wc,r_uc,r_sc"]
    for m, r_wc, r_uc, r_sc in rows:
        lines.append(",".join(_fmt(v) for v in (m, r_wc, r_uc, r_sc)))
    path = _write_text(Path(args.out), "curve.csv", "\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"wrote {path}")
    return 0


#: each check verify runs: a call of its function with mc and workers
#: (through this module's name for it, so a wrapper set on that name sees
#: the call), its verdict on the result, and the default of each param its
#: function leaves without one or that verify sets otherwise.  A callable
#: default reads the run config.  Envelope keeps min_size and slack here,
#: since run_coupled builds it from arguments that have no defaults
_CHECKS = {
    "dominance": (lambda mc, workers, **args: dominance_check(mc=mc, workers=workers, **args),
                  lambda violations: violations == 0,
                  {"policy": lambda cfg: cfg.policy or "sf", "initial_size": lambda cfg: cfg.process.initial_size}),
    "envelope": (lambda mc, workers, **args: envelope_check(mc=mc, workers=workers, **args),
                 lambda r: r.band_low - r.slack <= r.mean_ratio <= r.band_high + r.slack,
                 {"policy": lambda cfg: cfg.policy, "initial_size": lambda cfg: cfg.process.initial_size,
                  "min_size": 10 ** 4, "slack": 0.05}),
    "safe_haven": (lambda mc, workers, **args: safe_haven_check(mc=mc, workers=workers, **args),
                   lambda r: r.monotone_nonincreasing and all(row.within_bound for row in r.rows),
                   {"initial_sizes": (1, 2, 5, 10)}),
    "superadditivity": (lambda mc, workers, **args: superadditivity_check(mc=mc, workers=workers, **args),
                        lambda r: r.ok, {"initial_size": 2, "n_gens": 3}),
    "counterexample": (lambda mc, workers, **args: counterexample_search(mc=mc, **args),
                       lambda r: r.found, {}),
    "sf_probe": (lambda mc, workers, **args: sf_monotonicity_probe(mc=mc, **args),
                 lambda r: True, {"t_values": (1, 2, 3, 4, 5)}),
}


def _check_args(name: str, cfg: RunConfig) -> dict:
    """The arguments of a check's function, but for mc and workers: the
    params check_params sets, laid over the defaults of ``_CHECKS``."""
    triple = cfg.triple()
    args = {key: default(cfg) if callable(default) else default for key, default in _CHECKS[name][2].items()}
    args.update(cfg.check_params.get(name, {}))
    if "policy" in args:  # parse_run_config has checked both tokens
        if args["policy"] is None:
            raise ConfigError("config.policy: missing required field")
        args["policy"] = policy_from_token(args["policy"])
    return dict(args, triple=triple)


def _entry(name: str, args: dict, result) -> dict:
    """A check's verify.json entry; only a dominance violation fails hard."""
    ok = _CHECKS[name][1](result)
    if name == "dominance":
        return {"ok": ok, "hard": True, "result": {"policy": args["policy"].name, "violations": result}}
    payload = _clean(result)
    if name == "envelope":
        payload["policy"] = args["policy"].name
    return {"ok": ok, "hard": False, "result": payload}


def _check_runs(calls: dict, mc, threads: int) -> dict:
    """Each check's run: a function that returns (or raises) its result.

    The checks that ``run_coupled`` couples step their specs in one pass.
    If that pass fails, each reruns alone through its own function, so one
    failing check keeps the others' results.
    """
    runs = {name: partial(_CHECKS[name][0], mc, threads, **args) for name, args in calls.items()}
    try:
        runs.update(run_coupled(calls, mc, threads))
    except _RUNTIME_ERRORS:
        pass  # each coupled check keeps its run alone
    return runs


def _cmd_verify(cfg: RunConfig, args) -> int:
    if cfg.checks is None:
        raise ConfigError("config.checks: missing required field")
    calls = {name: _check_args(name, cfg) for name in cfg.checks}
    runs = _check_runs(calls, cfg.mc, args.threads)
    results = {}
    hard_failure = runtime_failure = False
    for name in cfg.checks:
        try:
            outcome = _entry(name, calls[name], runs[name]())
        except ConfigError:  # a ValueError, but a config problem exits with 2
            raise
        except _RUNTIME_ERRORS as exc:
            # recorded, so the checks before and after it keep their results
            print(f"error: check {name}: {exc}", file=sys.stderr)
            outcome = {"ok": False, "error": str(exc)}
            runtime_failure = True
        results[name] = outcome
        if outcome.get("hard") and not outcome["ok"]:
            hard_failure = True
        print(f"check={name} ok={outcome['ok']}")
    payload = {"seed": cfg.seed.value, "checks": results}
    path = _write_text(Path(args.out), "verify.json", _json_text(payload))
    print(f"wrote {path}")
    if runtime_failure:
        return 3
    return 1 if hard_failure else 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "classify": _cmd_classify,
    "curve": _cmd_curve,
    "verify": _cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdbp",
        description="Simulate and classify branching populations that share a "
                    "limited resource under a service policy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "simulate": "run one trajectory and write it as CSV and JSON",
        "classify": "solve thresholds, effective means and verdicts",
        "curve": "tabulate critical resource means over an offspring-mean grid",
        "verify": f"run Monte Carlo checks ({', '.join(CHECK_NAMES)})",
    }
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=descriptions[name])
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--seed", default=None,
                       help="override the config seed (decimal or 0x-prefixed hex)")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes for Monte Carlo checks")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            raw = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        seed_override = None
        if args.seed is not None:
            try:
                seed_override = Seed.parse(args.seed)
            except ValueError as exc:
                raise ConfigError(f"--seed: {exc}") from exc
        if args.threads < 1:
            raise ConfigError("--threads: must be >= 1")
        cfg = parse_run_config(data, seed_override=seed_override)
        return args.fn(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
