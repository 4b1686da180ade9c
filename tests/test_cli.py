"""End-to-end runs of the command line front end.

Each test drives ``main`` in process with a config written to a temp
directory, so assertions can look at exit codes, stdout, stderr, and the
bytes of the output files.  One subprocess test at the end confirms the
module also works through a real interpreter boundary.
"""

import json
import subprocess
import sys

import pytest

import rdbp.cli as cli


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
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

    def test_hard_violation_sets_exit_code(self, tmp_path, capsys, monkeypatch):
        # the engine cannot produce a dominance violation, so fake one to
        # exercise the exit path
        monkeypatch.setattr(cli, "dominance_check", lambda *a, **k: 3)
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

    def test_bad_policy_token(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"laws": base_laws(), "policy": "greedy"})
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config.policy" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# through a real interpreter


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
