"""Tests for the benchmark's own code: span arithmetic, wrapping, metric names.

    python3 -m pytest perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def table(rows, names):
    """Span table from rows of (parent, name, start, end, items, out)."""
    cols = np.array(rows, dtype=np.int64).reshape(-1, 6).T
    keys = ("parent", "name", "start", "end", "items", "out")
    out = {key: col.copy() for key, col in zip(keys, cols)}
    out["names"] = np.array(names, dtype=str)
    return out


def test_self_time_subtracts_only_direct_children():
    parent = [-1, 0, 1, 0, -1]
    start = [0, 10, 15, 50, 200]
    end = [100, 40, 25, 90, 230]
    assert spans.self_times(parent, start, end).tolist() == [30, 20, 10, 40, 30]


def test_layer_metrics_on_a_hand_built_trace():
    names = [
        "engine:simulate",
        "engine:step",
        "universe:Universe.offspring_row",
        "distributions:OffspringLaw.quantile",
        "policies:wf.count",
        "policies:wf.count_wf",
        "montecarlo:safe_haven_check",
        "universe:Universe.derive_replicate",
    ]
    rows = [
        # parent, name, start, end, items, out
        (-1, 6, 0, 10_000, 0, -1),     # 0 safe_haven_check
        (0, 7, 100, 200, 0, -1),       # 1 derive_replicate under montecarlo
        (0, 0, 1_000, 9_000, 0, -1),   # 2 simulate
        (2, 1, 2_000, 5_000, 4, 6),    # 3 step at size 4 -> 6
        (3, 2, 2_100, 2_500, 4, -1),   # 4 offspring row of 4 cells
        (4, 3, 2_200, 2_300, 4, -1),   # 5 quantile of 4 samples
        (3, 4, 3_000, 4_000, 8, 6),    # 6 policy count: 8 claims, 6 served
        (6, 5, 3_200, 3_700, 8, 6),    # 7 nested count_wf, not counted again
        (2, 1, 6_000, 7_000, 20, 0),   # 8 step at size 20 -> 0
    ]
    m = {k: v for k, (v, _unit) in spans.layer_metrics(table(rows, names)).items()}
    assert m["engine.steps"] == 2
    assert m["engine.members"] == 24
    assert m["engine.peak_size"] == 20
    assert m["engine.simulate_calls"] == 1
    # simulate 8000 - steps 4000; step 3000 - 400 - 1000; step 1000
    assert m["engine.self_s"] == pytest.approx((4000 + 1600 + 1000) / 1e9)
    assert m["engine.ns_per_member"] == pytest.approx(4000 / 24)
    assert m["engine.us_per_small_step"] == pytest.approx(3.0)
    assert m["universe.cells"] == 4
    assert m["universe.row_calls"] == 1
    assert m["universe.ns_per_cell"] == pytest.approx(300 / 4)
    assert m["distributions.samples.offspring"] == 4
    assert m["distributions.ns_per_sample.offspring"] == pytest.approx(100 / 4)
    assert m["policies.claims_ranked"] == 8
    assert m["policies.served"] == 6
    assert m["policies.served_ratio"] == pytest.approx(0.75)
    assert m["policies.ns_per_claim.wf"] == pytest.approx(1000 / 8)
    assert m["policies.self_s"] == pytest.approx(1000 / 1e9)
    assert m["montecarlo.s.safe_haven"] == pytest.approx(10_000 / 1e9)
    assert m["montecarlo.replicates"] == 1
    assert m["montecarlo.self_s"] == pytest.approx((10_000 - 100 - 8_000) / 1e9)
    assert m["criteria.calls"] == 0


def test_wrapped_callables_return_what_the_originals_return():
    import rdbp.cli
    import rdbp.montecarlo
    from rdbp import (Constant, LawTriple, OffspringLaw, ProcessSpec, Seed, Uniform, Universe,
                      WeakestFirstPolicy, count_sf, simulate)

    laws = LawTriple(OffspringLaw((0.25, 0.0, 0.75)), Uniform(0.0, 2.0), Constant(1.2))
    universe = Universe(Seed(2), laws)
    spec = ProcessSpec(laws=laws, policy=WeakestFirstPolicy(), horizon=30, explosion_cap=5000)
    claims = universe.claim_row(3, 500)
    want = (simulate(spec, universe), claims, count_sf(claims, 40.0))
    original = rdbp.montecarlo.safe_haven_check

    recorder = spans.SpanRecorder()
    restore = spans.install(recorder)
    try:
        # callers that imported by name see the wrappers too
        assert rdbp.cli.safe_haven_check is not original
        assert rdbp.cli.safe_haven_check is rdbp.montecarlo.safe_haven_check
        assert rdbp.montecarlo.count_sf.__wrapped__ is count_sf
        assert rdbp.cli.simulate.__wrapped__ is simulate
        got_claims = universe.claim_row(3, 500)
        got = (rdbp.cli.simulate(spec, universe), got_claims, rdbp.montecarlo.count_sf(got_claims, 40.0))
    finally:
        restore()
    assert rdbp.cli.safe_haven_check is original
    assert got[0] == want[0]
    assert got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
    assert type(got[2]) is type(want[2]) and got[2] == want[2]
    m = {k: v for k, (v, _unit) in spans.layer_metrics(recorder.table()).items()}
    assert m["engine.simulate_calls"] == 1
    assert m["engine.steps"] == len(want[0].sizes) - 1
    assert m["universe.cells"] > 0
    assert m["distributions.samples.uniform"] >= 500


def test_metric_names_and_units_match_the_benchmark_definition():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    declared += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(name) for name in declared)
    assert len(set(declared)) == len(declared)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)

    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    produced = {k: unit for k, (_v, unit) in spans.layer_metrics(table([], [])).items()}
    produced.update({"cli.output_bytes": "bytes", "trace.overhead_ratio": "ratio", "failed_ratio": "ratio"})
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == produced


def test_replicates_are_counted_from_the_config():
    config = json.loads((run.CONFIGS / "deep-growth.json").read_text())
    reps = config["mc"]["replicates"]
    # dominance, safe_haven at 1, 2, 5 and 10 founders, envelope, superadditivity from 2 founders
    assert run.config_replicates(config) == reps * (1 + 4 + 1 + 3)
