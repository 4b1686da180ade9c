"""One workload process: set up rdbp, run its CLI calls, report timings.

Run by ``run.py`` as ``python3 perfbench/workload.py <plan.json>``.  The
plan names the source tree, the config to parse for the set-up time, the
CLI argument lists and where to write the report.  Set-up ends once
``rdbp`` and ``rdbp.cli`` are imported and ``parse_run_config`` has parsed
the config; ``run.py`` reads that instant on the same monotonic clock and
subtracts the moment it started this interpreter.  With ``spans`` set, the
public callables of rdbp are wrapped first and the span table is written
there at the end.
"""

import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import rdbp
    import rdbp.cli
    from rdbp.config import parse_run_config
    from rdbp.universe import Seed

    parse_run_config(json.loads(Path(plan["setup_config"]).read_text()),
                     seed_override=Seed.parse(plan["seed"]))
    setup_done = time.monotonic()
    if not Path(rdbp.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported rdbp from {rdbp.__file__}, not from {src}")

    restore = None
    if plan.get("spans"):
        import spans
        recorder = spans.SpanRecorder()
        restore = spans.install(recorder)

    calls = []
    with open(plan["log"], "w") as log, contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        t0 = time.perf_counter()
        for call in plan["calls"]:
            t = time.perf_counter()
            code = rdbp.cli.main(call["argv"])
            calls.append({"label": call["label"], "code": code, "s": time.perf_counter() - t})
        wall = time.perf_counter() - t0
    if restore is not None:
        restore()
        recorder.dump(plan["spans"])

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report = {"setup_done": setup_done, "calls": calls, "wall_s": wall, "peak_rss_mb": peak_kb / 1024.0}
    Path(plan["report"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
