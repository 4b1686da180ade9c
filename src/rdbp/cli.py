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
from pathlib import Path
from typing import Optional

from .config import (
    CHECK_NAMES,
    ConfigError,
    RunConfig,
    claim_law_to_json,
    offspring_law_to_json,
    parse_run_config,
    resource_law_to_json,
)
from .criteria import (
    DomainError,
    SolverConfig,
    UnboundedClaimError,
    UnsupportedKindError,
    critical_curve,
    critical_report,
)
from .engine import (
    EngineError,
    ProcessSpec,
    simulate,
    trajectory_json_text,
    trajectory_to_csv,
)
from .montecarlo import (
    InsufficientSurvivors,
    counterexample_search,
    dominance_check,
    envelope_check,
    safe_haven_check,
    sf_monotonicity_probe,
    superadditivity_check,
)
from .policies import POLICY_TOKENS, policy_from_token
from .special import ConvergenceError
from .universe import Seed, Universe

__all__ = ["main"]

#: failures after the config has parsed; each exits with code 3
_RUNTIME_ERRORS = (DomainError, UnboundedClaimError, UnsupportedKindError, ConvergenceError,
                   EngineError, InsufficientSurvivors, OSError, ValueError)


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


def _policy_token(cfg: RunConfig, params: dict, fallback: Optional[str] = None) -> str:
    token = params.get("policy", cfg.policy or fallback)
    if token is None:
        raise ConfigError("config.policy: missing required field")
    if token not in POLICY_TOKENS:
        raise ConfigError(f"check_params.policy: expected one of {', '.join(POLICY_TOKENS)}, got {token!r}")
    return token


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
    json_path = _write_text(outdir, "trajectory.json", trajectory_json_text(traj))
    gen = traj.outcome.generation
    print(f"policy={cfg.policy} outcome={traj.outcome.kind}"
          f"{'' if gen is None else f' generation={gen}'} final_size={traj.sizes[-1]}")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_classify(cfg: RunConfig, args) -> int:
    triple = cfg.triple()
    report = critical_report(triple, cfg.solver)
    payload = {
        "laws": {
            "offspring": offspring_law_to_json(triple.offspring),
            "claim": claim_law_to_json(triple.claim),
            "resource": resource_law_to_json(triple.resource),
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
    rows = critical_curve(cfg.claim, cfg.m_grid, cfg.solver)
    lines = ["m,r_wc,r_uc,r_sc"]
    for m, r_wc, r_uc, r_sc in rows:
        lines.append(",".join(_fmt(v) for v in (m, r_wc, r_uc, r_sc)))
    path = _write_text(Path(args.out), "curve.csv", "\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"wrote {path}")
    return 0


def _run_check(name: str, cfg: RunConfig, threads: int) -> dict:
    params = cfg.check_params.get(name, {})
    triple = cfg.triple()
    if name == "dominance":
        token = _policy_token(cfg, params, fallback="sf")
        violations = dominance_check(
            policy_from_token(token),
            triple,
            cfg.mc,
            initial_size=params.get("initial_size", cfg.process.initial_size),
            workers=threads,
        )
        return {"ok": violations == 0, "hard": True,
                "result": {"policy": token, "violations": violations}}
    if name == "envelope":
        token = _policy_token(cfg, params)
        est = envelope_check(
            policy_from_token(token),
            triple,
            cfg.mc,
            min_size=params.get("min_size", 10 ** 4),
            slack=params.get("slack", 0.05),
            initial_size=params.get("initial_size", cfg.process.initial_size),
        )
        ok = est.band_low - est.slack <= est.mean_ratio <= est.band_high + est.slack
        return {"ok": ok, "hard": False,
                "result": dict(_clean(est), policy=token)}
    if name == "safe_haven":
        report = safe_haven_check(
            triple,
            tuple(params.get("initial_sizes", (1, 2, 5, 10))),
            cfg.mc,
            workers=threads,
        )
        ok = report.monotone_nonincreasing and all(row.within_bound for row in report.rows)
        return {"ok": ok, "hard": False, "result": _clean(report)}
    if name == "superadditivity":
        report = superadditivity_check(
            triple,
            initial_size=params.get("initial_size", 2),
            n_gens=params.get("n_gens", 3),
            mc=cfg.mc,
            alpha=params.get("alpha", 1e-3),
        )
        ok = report.fosd_ok and report.zero_column_ok
        return {"ok": ok, "hard": False, "result": _clean(report)}
    if name == "counterexample":
        result = counterexample_search(triple, cfg.mc, budget=params.get("budget", 10 ** 6))
        return {"ok": result.found, "hard": False, "result": _clean(result)}
    if name == "sf_probe":
        report = sf_monotonicity_probe(
            triple,
            tuple(params.get("t_values", (1, 2, 3, 4, 5))),
            cfg.mc,
            v_max=params.get("v_max"),
        )
        return {"ok": True, "hard": False, "result": _clean(report)}
    raise ConfigError(f"config.checks: unknown check {name!r}")


def _cmd_verify(cfg: RunConfig, args) -> int:
    if cfg.checks is None:
        raise ConfigError("config.checks: missing required field")
    results = {}
    hard_failure = runtime_failure = False
    for name in cfg.checks:
        try:
            outcome = _run_check(name, cfg, args.threads)
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
