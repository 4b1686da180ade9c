"""End-to-end runs of the command line front end.

Each test drives ``main`` in process with a config written to a temp
directory, so assertions can look at exit codes, stdout, stderr, and the
bytes of the output files.  One subprocess test at the end confirms the
module also works through a real interpreter boundary.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import rdbp.cli as cli
import rdbp.config
import rdbp.engine
import rdbp.montecarlo
import rdbp.universe
from rdbp import ConvergenceError


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return str(path)


def write_config_with(tmp_path, data, literal):
    """A config whose "@" strings are replaced by a raw JSON number such as
    NaN or 1e400 (which parses to inf)."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data, indent=2).replace('"@"', literal))
    return str(path)


def base_laws():
    return {
        "offspring": {"probabilities": [0.25, 0.0, 0.75]},
        "claim": {"kind": "uniform", "params": {"d": 2.0}},
        "resource": {"kind": "constant", "params": {"value": 1.2}},
    }


@pytest.fixture
def sim_config(tmp_path):
    return write_config(
        tmp_path,
        {
            "seed": 2024,
            "laws": base_laws(),
            "policy": "wf",
            "process": {"horizon": 20, "explosion_cap": 500},
        },
    )


# ---------------------------------------------------------------------------
# simulate


class TestSimulate:
    def test_writes_trajectory_files(self, sim_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", sim_config, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "policy=wf outcome=" in captured.out
        assert "final_size=" in captured.out
        csv_text = (out / "trajectory.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "generation,size"
        assert lines[1].startswith("0,")
        assert lines[-1].startswith("# outcome,")
        payload = json.loads((out / "trajectory.json").read_text())
        assert set(payload) == {"sizes", "outcome", "growth_ratios"}
        assert payload["sizes"][0] == 1
        assert len(payload["growth_ratios"]) == len(payload["sizes"]) - 1

    def test_rerun_is_byte_identical(self, sim_config, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", sim_config, "--out", str(out_a)]) == 0
        assert cli.main(["simulate", "--config", sim_config, "--out", str(out_b)]) == 0
        for name in ("trajectory.csv", "trajectory.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override_decimal_and_hex_agree(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"seed": 1, "laws": base_laws(), "policy": "wf", "process": {"horizon": 15}},
        )
        out_dec, out_hex, out_cfg = (tmp_path / d for d in ("dec", "hex", "cfgseed"))
        assert cli.main(["simulate", "--config", cfg, "--seed", "2024", "--out", str(out_dec)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--seed", "0x7e8", "--out", str(out_hex)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(out_cfg)]) == 0
        dec = (out_dec / "trajectory.csv").read_bytes()
        assert dec == (out_hex / "trajectory.csv").read_bytes()
        # the override really replaced the config seed
        assert dec != (out_cfg / "trajectory.csv").read_bytes()

    def test_missing_policy(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": 1, "laws": base_laws()})
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: config.policy" in capsys.readouterr().err

    def test_missing_law(self, tmp_path, capsys):
        laws = base_laws()
        del laws["resource"]
        cfg = write_config(tmp_path, {"seed": 1, "laws": laws, "policy": "wf"})
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "laws.resource: missing required field" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# classify


class TestClassify:
    def test_verdicts_and_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": 3, "laws": base_laws()})
        out = tmp_path / "out"
        assert cli.main(["classify", "--config", cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        payload = json.loads((out / "classification.json").read_text())
        assert payload["laws"]["claim"] == {"kind": "uniform", "params": {"d": 2.0}}
        verdicts = {k: v["verdict"] for k, v in payload["report"]["classifications"].items()}
        # budget 1.2 a head: generous for smallest-first, fatal for largest-first
        assert verdicts["wf"] == "positive_survival"
        assert verdicts["sf"] == "almost_sure_extinction"
        assert verdicts["fcfs"] == "positive_survival"
        for kind in ("wf", "sf", "fcfs"):
            assert f"{kind}: {verdicts[kind]}" in captured.out

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": 3, "laws": base_laws()})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["classify", "--config", cfg, "--out", str(out_a)]) == 0
        assert cli.main(["classify", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "classification.json").read_bytes() == (out_b / "classification.json").read_bytes()


# ---------------------------------------------------------------------------
# curve


class TestCurve:
    def test_uniform_closed_forms(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "laws": {"claim": {"kind": "uniform", "params": {"d": 2.0}}},
                "m_grid": [1.5, 2.0, 3.0],
            },
        )
        out = tmp_path / "out"
        assert cli.main(["curve", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "curve.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "m,r_wc,r_uc,r_sc"
        assert len(lines) == 4
        m, r_wc, r_uc, r_sc = (float(v) for v in lines[2].split(","))
        # uniform claims on (0, d): d/(2m), d/2, d(1 - 1/(2m))
        assert m == 2.0
        assert r_wc == pytest.approx(0.5, abs=1e-9)
        assert r_uc == pytest.approx(1.0, abs=1e-9)
        assert r_sc == pytest.approx(1.5, abs=1e-9)
        # stdout echoes the same table
        assert lines[0] in capsys.readouterr().out

    def test_missing_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"laws": {"claim": {"kind": "uniform", "params": {"d": 2.0}}}})
        assert cli.main(["curve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config.m_grid" in capsys.readouterr().err

    def test_unbounded_claims_fail_at_runtime(self, tmp_path, capsys):
        # the largest-first threshold needs bounded claims, so exponential
        # claims are a runtime refusal, not a config problem
        cfg = write_config(
            tmp_path,
            {
                "laws": {"claim": {"kind": "exponential", "params": {"rate": 1.0}}},
                "m_grid": [2.0],
            },
        )
        assert cli.main(["curve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def verify_config(tmp_path, checks, check_params=None, resource_value=0.9):
    laws = base_laws()
    laws["resource"] = {"kind": "constant", "params": {"value": resource_value}}
    data = {
        "seed": 5,
        "laws": laws,
        "mc": {"replicates": 30, "horizon": 12, "explosion_cap": 1000},
        "checks": checks,
    }
    if check_params:
        data["check_params"] = check_params
    return write_config(tmp_path, data)


class TestVerify:
    def test_checks_run_and_report(self, tmp_path, capsys):
        cfg = verify_config(
            tmp_path,
            ["dominance", "sf_probe"],
            {"dominance": {"policy": "fcfs"}, "sf_probe": {"t_values": [1, 2], "v_max": 2}},
        )
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "check=dominance ok=True" in captured.out
        assert "check=sf_probe ok=True" in captured.out
        payload = json.loads((out / "verify.json").read_text())
        assert payload["seed"] == 5
        dom = payload["checks"]["dominance"]
        assert dom["hard"] is True
        assert dom["result"] == {"policy": "fcfs", "violations": 0}
        probe = payload["checks"]["sf_probe"]
        assert probe["result"]["t_values"] == [1, 2]
        assert probe["result"]["exploratory"] is True

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = verify_config(tmp_path, ["dominance"], {"dominance": {"policy": "sf"}})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["verify", "--config", cfg, "--out", str(out_a)]) == 0
        assert cli.main(["verify", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "verify.json").read_bytes() == (out_b / "verify.json").read_bytes()

    def test_integral_slack_writes_what_its_float_writes(self, tmp_path, capsys):
        written = []
        for slack in (0, 0.0):
            cfg = verify_config(tmp_path, ["envelope"], {"envelope": {"policy": "wf", "min_size": 10, "slack": slack}},
                                resource_value=1.2)
            assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
            written.append((tmp_path / "o" / "verify.json").read_bytes())
        assert b'"slack": 0.0' in written[0]
        assert written[0] == written[1]

    def test_hard_violation_sets_exit_code(self, tmp_path, capsys, monkeypatch):
        # the engine cannot produce a dominance violation, so fake one in
        # the reduction verify's shared pass runs, to exercise the exit path
        monkeypatch.setattr(rdbp.montecarlo, "_excess_generations", lambda sizes: 3)
        cfg = verify_config(tmp_path, ["dominance"])
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "check=dominance ok=False" in capsys.readouterr().out

    def test_soft_failure_keeps_exit_zero(self, tmp_path, capsys):
        # an envelope run that cannot reach its size threshold is a runtime
        # error rather than a silent failure
        cfg = verify_config(
            tmp_path,
            ["envelope"],
            {"envelope": {"policy": "wf", "min_size": 10**7}},
            resource_value=1.2,
        )
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_safe_haven_founders_at_the_cap(self, tmp_path, capsys):
        # 10 founders are already at the cap of 8: every such run counts as
        # exploded and the smaller founder counts keep their rows
        cfg = write_config(tmp_path, {
            "seed": 0,
            "laws": base_laws(),
            "mc": {"replicates": 50, "horizon": 60, "explosion_cap": 8},
            "checks": ["safe_haven"],
            "check_params": {"safe_haven": {"initial_sizes": [1, 2, 10]}},
        })
        out = tmp_path / "o"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
        result = json.loads((out / "verify.json").read_text())["checks"]["safe_haven"]["result"]
        assert result["monotone_nonincreasing"] is True
        assert [row["initial_size"] for row in result["rows"]] == [1, 2, 10]
        capped = result["rows"][2]["estimate"]
        assert capped["n_exploded"] == 50 and capped["p_extinct"] == 0.0

    def test_founders_from_the_process_block_at_the_cap_fail_that_check_alone(self, tmp_path, capsys):
        # the same config is valid for simulate, so verify reports the
        # founder count of dominance, which it takes from the process block,
        # as a run-time error of that check
        cfg = write_config(tmp_path, {
            "seed": 5,
            "laws": base_laws(),
            "policy": "wf",
            "process": {"initial_size": 1000, "horizon": 3},
            "mc": {"replicates": 30, "horizon": 12, "explosion_cap": 1000},
            "checks": ["dominance", "safe_haven"],
        })
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 0
        capsys.readouterr()
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 3
        assert "error: check dominance: explosion_cap must exceed initial_size" in capsys.readouterr().err
        checks = json.loads((out / "verify.json").read_text())["checks"]
        assert checks["dominance"] == {"ok": False, "error": "explosion_cap must exceed initial_size"}
        assert checks["safe_haven"]["ok"] is True

    def test_failing_check_keeps_the_other_results(self, tmp_path, capsys):
        # the README laws have no litter of three, so the counterexample
        # search rejects them after dominance has already finished
        cfg = verify_config(tmp_path, ["dominance", "counterexample", "sf_probe"],
                            {"sf_probe": {"t_values": [1, 2]}})
        out = tmp_path / "o"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "check=dominance ok=True" in captured.out
        assert "check=counterexample ok=False" in captured.out
        assert "check=sf_probe ok=True" in captured.out
        assert "error: check counterexample:" in captured.err
        checks = json.loads((out / "verify.json").read_text())["checks"]
        assert checks["dominance"]["result"]["violations"] == 0
        assert checks["counterexample"] == {
            "ok": False,
            "error": "counterexample search needs P[offspring = 3] > 0",
        }
        assert checks["sf_probe"]["ok"] is True

    def test_memory_error_in_one_check_exits_3_and_keeps_the_others(self, tmp_path, capsys, monkeypatch):
        # an allocation that no cap caught; only the coinflip policy, which
        # dominance runs here, reads aux units
        def out_of_memory(self, rows, count):
            raise MemoryError("cannot allocate the aux block")

        monkeypatch.setattr(rdbp.universe.ReplicateRows, "aux", out_of_memory)
        cfg = Path(verify_config(tmp_path, ["sf_probe", "dominance", "safe_haven"],
                                 {"sf_probe": {"t_values": [1, 2]}}))
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "policy": "coinflip"}))
        out = tmp_path / "o"
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "error: check dominance: cannot allocate the aux block" in captured.err
        checks = json.loads((out / "verify.json").read_text())["checks"]
        assert checks["dominance"] == {"ok": False, "error": "cannot allocate the aux block"}
        assert checks["sf_probe"]["ok"] is True and checks["safe_haven"]["ok"] is True

    def test_missing_checks_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": 5, "laws": base_laws()})
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config.checks" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config and argument failures shared by all subcommands


class TestErrorPaths:
    def test_unreadable_config(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert cli.main(["classify", "--config", missing, "--out", str(tmp_path)]) == 2
        assert "config error: cannot read config file" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["classify", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": 1, "lawz": {}})
        assert cli.main(["classify", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "lawz" in capsys.readouterr().err

    def test_bad_seed_override(self, sim_config, tmp_path, capsys):
        assert cli.main(["simulate", "--config", sim_config, "--seed", "zz", "--out", str(tmp_path)]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_bad_thread_count(self, sim_config, tmp_path, capsys):
        assert cli.main(
            ["simulate", "--config", sim_config, "--threads", "0", "--out", str(tmp_path)]
        ) == 2
        assert "--threads" in capsys.readouterr().err

    def test_subcritical_grid_entry(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"laws": {"claim": {"kind": "uniform", "params": {"d": 2.0}}}, "m_grid": [1.0]},
        )
        assert cli.main(["curve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "m_grid[0]" in capsys.readouterr().err

    def test_unknown_check_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"laws": base_laws(), "checks": ["dominance", "bogus"]})
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "checks[1]" in capsys.readouterr().err

    def test_repeated_check_name(self, tmp_path, capsys):
        # a repeated check would run twice and print its line twice, but
        # keep one entry in verify.json
        checks = ["superadditivity", "superadditivity", "dominance", "dominance"]
        cfg = write_config(tmp_path, {"laws": base_laws(), "checks": checks})
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "config.checks[1]: check 'superadditivity' is listed twice" in captured.err
        assert "check=" not in captured.out
        assert not out.exists()

    def test_unknown_check_param(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "laws": base_laws(),
                "checks": ["dominance"],
                "check_params": {"dominance": {"bogus": 1}},
            },
        )
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "check_params.dominance" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "check, key, value, path",
        [
            # wrong types used to end in an uncaught TypeError (exit 1)
            ("safe_haven", "initial_sizes", "ab", "check_params.safe_haven.initial_sizes"),
            ("dominance", "initial_size", "x", "check_params.dominance.initial_size"),
            ("envelope", "min_size", "big", "check_params.envelope.min_size"),
            ("superadditivity", "n_gens", "3", "check_params.superadditivity.n_gens"),
            # used to pass silently
            ("safe_haven", "initial_sizes", [1.5], "check_params.safe_haven.initial_sizes[0]"),
            # used to fail at run time (exit 3), the last with "math domain error"
            ("dominance", "initial_size", 0, "check_params.dominance.initial_size"),
            ("superadditivity", "n_gens", 0, "check_params.superadditivity.n_gens"),
            ("superadditivity", "alpha", 2.0, "check_params.superadditivity.alpha"),
            # used to name only check_params.policy
            ("dominance", "policy", "greedy", "check_params.dominance.policy"),
            # at or above mc.explosion_cap = 1000: used to fail at run time
            # (exit 3) with a message that named no field
            ("dominance", "initial_size", 1000, "check_params.dominance.initial_size"),
            ("envelope", "initial_size", 5000, "check_params.envelope.initial_size"),
        ],
    )
    def test_bad_check_param_value(self, tmp_path, capsys, check, key, value, path):
        cfg = verify_config(tmp_path, [check], {check: {key: value}})
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert path + ":" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize(
        "block, values, path, bound",
        [
            # the process block used to parse, and simulate then exited 3
            # with a message that named no field
            ("process", {"initial_size": 0}, "process.initial_size", ">= 1"),
            ("process", {"horizon": 0}, "process.horizon", ">= 1"),
            ("process", {"initial_size": 5, "explosion_cap": 5}, "process.explosion_cap", ">= 6"),
            # founders above the default cap are checked against it too
            ("process", {"initial_size": 2 * 10 ** 6}, "process.explosion_cap", ">= 2000001"),
            ("mc", {"replicates": 0}, "mc.replicates", ">= 1"),
            ("mc", {"explosion_cap": 1}, "mc.explosion_cap", ">= 2"),
            ("mc", {"confidence": 1.0}, "mc.confidence", "in (0, 1)"),
        ],
    )
    def test_out_of_range_run_limits_name_their_field(self, tmp_path, capsys, command, block, values, path,
                                                       bound):
        cfg = write_config(tmp_path, {"laws": base_laws(), "policy": "wf", block: values,
                                      "checks": ["dominance"]})
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: expected ") and bound in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_founders_over_the_claim_cap_name_their_field(self, tmp_path, capsys, monkeypatch, command):
        # founders are the one generation the claim cap does not bound by
        # itself: a founder row of the cap's size would take gigabytes, and
        # its budget could leave int64.  The cap is lowered, so nothing large
        # is built either way
        monkeypatch.setattr(rdbp.engine, "CLAIM_CAP", 100)
        process = {"initial_size": 101, "explosion_cap": 1000}
        cfg = write_config(tmp_path, {"laws": base_laws(), "policy": "wf", "process": process,
                                      "checks": ["dominance"]})
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: process.initial_size: expected an integer <= 100\n"
        assert not (tmp_path / "o").exists()
        process["initial_size"] = 100
        assert rdbp.config.parse_run_config({"process": process}).process.initial_size == 100

    @pytest.mark.parametrize(
        "check, key, value, path",
        [
            # each used to parse and fail at run time (exit 3), naming no field
            ("dominance", "initial_size", 101, "check_params.dominance.initial_size"),
            ("envelope", "initial_size", 101, "check_params.envelope.initial_size"),
            ("superadditivity", "initial_size", 101, "check_params.superadditivity.initial_size"),
            ("safe_haven", "initial_sizes", [1, 101], "check_params.safe_haven.initial_sizes[1]"),
            ("sf_probe", "t_values", [101], "check_params.sf_probe.t_values[0]"),
        ],
    )
    def test_check_founders_over_the_claim_cap_name_their_field(self, tmp_path, capsys, monkeypatch, check, key,
                                                                 value, path):
        # a check's founder counts are bounded like process.initial_size,
        # under mc.explosion_cap = 1000
        monkeypatch.setattr(rdbp.engine, "CLAIM_CAP", 100)
        cfg = verify_config(tmp_path, [check], {check: {key: value}})
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {path}: expected an integer <= 100\n"
        assert not (tmp_path / "o").exists()
        at_cap = [100] if isinstance(value, list) else 100
        assert rdbp.config.parse_run_config({"check_params": {check: {key: at_cap}}}).check_params[check][key] \
            in (100, (100,))

    @pytest.mark.parametrize(
        "check, key, value, at",
        [
            # each used to run: safe_haven reported ok=False for estimates
            # monotone in the founder count, sf_probe a "significant
            # decrease" from 3 to 1 arrivals, and a repeat duplicated a row
            # or reported two t values with cells for one
            ("safe_haven", "initial_sizes", [10, 1, 2], 1),
            ("safe_haven", "initial_sizes", [2, 2, 5], 1),
            ("sf_probe", "t_values", [3, 1], 1),
            ("sf_probe", "t_values", [1, 2, 2], 2),
        ],
    )
    def test_founder_lists_must_increase(self, tmp_path, capsys, check, key, value, at):
        cfg = verify_config(tmp_path, [check], {check: {key: value}})
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (f"config error: check_params.{check}.{key}[{at}]: expected an integer "
                                           f"> {value[at - 1]}, as the list must increase\n")
        assert not (tmp_path / "o").exists()
        run = {"safe_haven": rdbp.montecarlo.safe_haven_check, "sf_probe": rdbp.montecarlo.sf_monotonicity_probe}
        with pytest.raises(ValueError, match=f"must increase, but {value[at]} follows {value[at - 1]}"):
            run[check](rdbp.montecarlo.COUNTEREXAMPLE_TRIPLE, value, rdbp.montecarlo.McConfig(replicates=5))

    @pytest.mark.parametrize("block, key", [("process", "initial_size"), ("process", "explosion_cap"),
                                            ("mc", "replicates"), ("mc", "horizon")])
    def test_wrong_type_names_its_field_once(self, tmp_path, capsys, block, key):
        # the error used to carry the block twice: "process: process.initial_size: ..."
        cfg = write_config(tmp_path, {"laws": base_laws(), "policy": "wf", block: {key: "x"}})
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {block}.{key}: expected an integer\n"

    def test_bad_policy_token(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"laws": base_laws(), "policy": "greedy"})
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config.policy" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, law, key, literal",
        [
            # used to run on NaN claims and exit 0, extinct at generation 1
            ("simulate", "claim", "a", "NaN"),
            ("simulate", "resource", "scale", "1e400"),
            # used to end in a ConvergenceError (exit 3)
            ("classify", "claim", "b", "NaN"),
            ("classify", "claim", "scale", "1e400"),
        ],
    )
    def test_non_finite_beta_parameter(self, tmp_path, capsys, command, law, key, literal):
        laws = base_laws()
        laws[law] = {"kind": "scaled_beta", "params": dict({"a": 2.0, "b": 2.0, "scale": 2.0}, **{key: "@"})}
        cfg = write_config_with(tmp_path, {"laws": laws, "policy": "wf"}, literal)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"laws.{law}.params: scaled beta law requires finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [("simulate", {}), ("verify", {"checks": ["safe_haven"]})])
    def test_exponential_rate_whose_largest_draw_overflows(self, tmp_path, capsys, command, extra):
        # the largest draw, about 36.7 / rate, used to overflow and every
        # claim to come out as -2**63 quanta; verify read ok: true
        laws = base_laws()
        laws["claim"] = {"kind": "exponential", "params": {"rate": 2.0e-307}}
        cfg = write_config(tmp_path, {"laws": laws, "policy": "wf", **extra})
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "laws.claim.params: exponential law requires a rate whose largest draw is finite" in (
            capsys.readouterr().err)

    # the criteria are closed forms, so a solver block has nothing to set
    @pytest.mark.parametrize("solver", [{"abs_tol": 1e-12, "max_iter": 50}, {}])
    def test_solver_block_is_an_unknown_key(self, tmp_path, capsys, solver):
        cfg = write_config(tmp_path, {"laws": base_laws(), "solver": solver})
        assert cli.main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config.solver: unknown field" in capsys.readouterr().err

    def test_infinite_grid_entry(self, tmp_path, capsys):
        # used to exit 3 from critical_curve
        cfg = write_config_with(
            tmp_path, {"laws": {"claim": {"kind": "uniform", "params": {"d": 2.0}}}, "m_grid": [2.0, "@"]}, "1e400"
        )
        assert cli.main(["curve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config.m_grid[1]: offspring mean must be in (1, inf)" in capsys.readouterr().err

    # json reads a long integer literal as an int that float() refuses
    HUGE = "1" + "0" * 401

    def test_integer_past_double_range_in_the_grid(self, tmp_path, capsys):
        cfg = write_config_with(
            tmp_path, {"laws": {"claim": {"kind": "uniform", "params": {"d": 2.0}}}, "m_grid": [2.0, "@"]}, self.HUGE
        )
        assert cli.main(["curve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config.m_grid[1]: offspring mean must be in (1, inf)" in capsys.readouterr().err

    def test_integer_past_double_range_in_a_law(self, tmp_path, capsys):
        laws = base_laws()
        laws["claim"] = {"kind": "uniform", "params": {"d": "@"}}
        cfg = write_config_with(tmp_path, {"laws": laws}, self.HUGE)
        assert cli.main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "laws.claim.params: uniform law requires 0 <= lo < hi < inf" in capsys.readouterr().err

    def test_integer_past_double_range_in_the_offspring_law(self, tmp_path, capsys):
        laws = base_laws()
        laws["offspring"] = {"probabilities": [0.5, "@"]}
        cfg = write_config_with(tmp_path, {"laws": laws}, self.HUGE)
        assert cli.main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "laws.offspring.probabilities: " in capsys.readouterr().err

    def test_convergence_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def stall(*args):
            raise ConvergenceError("no wf closed form in double precision")

        monkeypatch.setattr(cli, "critical_curve", stall)
        cfg = write_config(tmp_path, {"laws": {"claim": {"kind": "uniform", "params": {"d": 2.0}}}, "m_grid": [2.0]})
        assert cli.main(["curve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "error: no wf closed form in double precision" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# through a real interpreter


def test_claims_over_the_cap_exit_3(sim_config, tmp_path, capsys, monkeypatch):
    # a small cap stands in for a run that would ask for gigabytes of claims
    monkeypatch.setattr(rdbp.engine, "CLAIM_CAP", 50)
    assert cli.main(["simulate", "--config", sim_config, "--out", str(tmp_path / "o")]) == 3
    assert "exceed the claim cap 50" in capsys.readouterr().err


def test_memory_error_exits_3(sim_config, tmp_path, capsys, monkeypatch):
    def out_of_memory(self, rows, count):
        raise MemoryError("cannot allocate the claim block")

    monkeypatch.setattr(rdbp.universe.ReplicateRows, "claims", out_of_memory)
    assert cli.main(["simulate", "--config", sim_config, "--out", str(tmp_path / "o")]) == 3
    assert "error: cannot allocate the claim block" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "laws": {"claim": {"kind": "uniform", "params": {"d": 1.0}}},
            "m_grid": [2.0],
        },
    )
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "rdbp.cli", "curve", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (out / "curve.csv").exists()
    assert "m,r_wc,r_uc,r_sc" in proc.stdout


@pytest.mark.parametrize("b", [0.0005, 0.005])
@pytest.mark.parametrize("law", ["claim", "resource"])
def test_beta_laws_with_a_tiny_b_simulate_quietly(tmp_path, law, b):
    # b = 0.0005 used to end in a ZeroDivisionError and exit 1; b = 0.005
    # printed the RuntimeWarnings of the inverse's table
    laws = base_laws()
    laws[law] = {"kind": "scaled_beta", "params": {"a": 2.0, "b": b, "scale": 2.0}}
    cfg = write_config(tmp_path, {"seed": 2, "laws": laws, "policy": "wf",
                                  "process": {"horizon": 5, "explosion_cap": 500}})
    proc = subprocess.run([sys.executable, "-m", "rdbp.cli", "simulate", "--config", cfg, "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


STARTUP_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import rdbp, rdbp.cli
from rdbp.config import parse_run_config
config, out = sys.argv[2], sys.argv[3]
with open(config) as fh:
    parse_run_config(json.load(fh))
for command in ("simulate", "classify", "curve"):
    assert rdbp.cli.main([command, "--config", config, "--out", out]) == 0
assert "scipy" not in sys.modules, "a uniform-claims run imported scipy"
rdbp.ScaledBeta(2.0, 2.0, 2.0)
assert "scipy.special" in sys.modules, "building a ScaledBeta did not import scipy"
"""


def test_uniform_claims_never_import_scipy(tmp_path):
    # scipy is the costliest import rdbp can pull in, and only ScaledBeta needs it
    config = write_config(tmp_path, {"seed": 2024, "laws": base_laws(), "policy": "wf",
                                     "process": {"horizon": 20, "explosion_cap": 500},
                                     "m_grid": [1.5, 2.0]})
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, src, config, str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("trajectory.csv", "classification.json", "curve.csv"):
        assert (tmp_path / "out" / name).exists()


POOL_IMPORT_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import rdbp, rdbp.cli
assert "concurrent.futures.process" not in sys.modules, "importing rdbp loaded the worker pool"
"""


def test_importing_the_cli_leaves_the_worker_pool_unloaded():
    # the pool module and its multiprocessing imports load only when a check
    # fans out, which no small run does
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", POOL_IMPORT_SCRIPT, src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
