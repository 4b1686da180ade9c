#!/usr/bin/env python3
"""Extinction probability versus resource mean, policy by policy.

Sweeps the per-head resource production r over a grid, estimates the
extinction probability for each policy by Monte Carlo, and writes a tidy
CSV.  The closed-form critical resource means are printed alongside so
the crossing points in the empirical columns can be eyeballed against
theory.

Example:
    python3 scripts/run_extinction_sweep.py --replicates 500 --out results
"""

import argparse
from pathlib import Path

from rdbp import (
    Constant,
    LawTriple,
    McConfig,
    OffspringLaw,
    ProcessSpec,
    Seed,
    Uniform,
    critical_resource_mean,
    estimate_extinction,
    policy_from_token,
)

OFFSPRING = OffspringLaw((0.25, 0.0, 0.75))
CLAIM = Uniform(0.0, 2.0)
POLICIES = ("wf", "fcfs", "sf")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results", help="output directory")
    ap.add_argument("--replicates", type=int, default=400)
    ap.add_argument("--horizon", type=int, default=120)
    ap.add_argument("--explosion-cap", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--r-min", type=float, default=0.2)
    ap.add_argument("--r-max", type=float, default=2.2)
    ap.add_argument("--steps", type=int, default=11)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    m = OFFSPRING.mean()
    for token in POLICIES:
        r_c = critical_resource_mean(token, CLAIM, m)
        print(f"critical r for {token}: {r_c:.6f}")

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "extinction_sweep.csv"
    mc = McConfig(
        replicates=args.replicates,
        horizon=args.horizon,
        explosion_cap=args.explosion_cap,
        base_seed=Seed(args.seed),
    )

    rs = [
        args.r_min + (args.r_max - args.r_min) * i / (args.steps - 1)
        for i in range(args.steps)
    ]
    with path.open("w") as fh:
        fh.write("policy,r,p_extinct,ci_low,ci_high,n_exploded\n")
        for token in POLICIES:
            policy = policy_from_token(token)
            for r in rs:
                triple = LawTriple(OFFSPRING, CLAIM, Constant(r))
                spec = ProcessSpec(laws=triple, policy=policy, initial_size=1)
                est = estimate_extinction(spec, mc, workers=args.workers)
                fh.write(
                    f"{token},{r:.6g},{est.p_extinct:.6g},"
                    f"{est.ci_low:.6g},{est.ci_high:.6g},{est.n_exploded}\n"
                )
            print(f"{token}: swept {len(rs)} resource levels")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
