import json
import math
import subprocess
import sys
import time

import pytest

from qcmatch import cli
from qcmatch.harness import (
    ConfigError,
    ExperimentConfig,
    run_experiment,
    run_suite,
    validate_config,
)
from qcmatch.instances import save_instance


def single_edge_file(tmp_path, q=1.0, r=1.0):
    from qcmatch.instances import INFINITE, make_instance

    inst = make_instance(
        ["u"], ["v"], ["a"], {(("u", "v"), "a"): q}, {(("u", "v"), "a"): r},
        {"u": INFINITE, "v": 1},
    )
    path = tmp_path / "single.json"
    save_instance(inst, path)
    return str(path)


def test_validate_config_errors(tmp_path):
    cfg = ExperimentConfig(pipeline="nope", trials=0, seed=1)
    msgs = validate_config(cfg)
    assert any("pipeline" in m for m in msgs)
    assert any("trials" in m for m in msgs)
    assert any("instance" in m for m in msgs)
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_run_experiment_single_edge(tmp_path):
    path = single_edge_file(tmp_path)
    cfg = ExperimentConfig(
        pipeline="lp-c+full", trials=40000, seed=3, instance_file=path,
        out=str(tmp_path / "res"),
    )
    res = run_experiment(cfg)
    assert abs(res.report.ratio_vs_lp - (1 - 1 / 2.718281828459045)) <= 0.02
    assert res.passed
    assert (tmp_path / "res.json").exists()
    assert (tmp_path / "res.csv").exists()


def test_run_experiment_report(tmp_path):
    path = single_edge_file(tmp_path)
    cfg = ExperimentConfig(pipeline="lp-c+full", trials=50_000, seed=6, instance_file=path)
    rep = run_experiment(cfg).report
    assert abs(rep.mean - (1 - 1 / math.e)) <= 5 * math.sqrt(0.25 / 50_000)
    assert rep.ratio_vs_lp is not None and rep.ratio_vs_opt is not None
    assert rep.half_width == pytest.approx(1.96 * math.sqrt(rep.variance / rep.trials))
    cfg.trials = 0
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_run_experiment_deterministic_bytes(tmp_path):
    path = single_edge_file(tmp_path)
    outs = []
    for k in range(2):
        cfg = ExperimentConfig(
            pipeline="lp-c+full", trials=2000, seed=5, instance_file=path,
            out=str(tmp_path / f"r{k}"),
        )
        run_experiment(cfg)
        outs.append((tmp_path / f"r{k}.json").read_bytes())
    assert outs[0] == outs[1]


def test_run_experiment_generator_pipelines(tmp_path):
    for pipeline in ("lp-m+greedy", "lp-c+greedy", "lp-c-colgen+full"):
        cfg = ExperimentConfig(
            pipeline=pipeline, trials=4000, seed=7,
            generator={"seed": 7, "n_u": 2, "n_v": 2, "n_a": 1, "patience_range": [1, 2]},
            eps=0.01,
        )
        res = run_experiment(cfg)
        assert res.report.mean >= 0.0
        assert res.lp_value > 0.0


def test_run_suite_and_threshold_override(tmp_path):
    path = single_edge_file(tmp_path)
    manifest = {
        "experiments": [
            {"id": "ok", "pipeline": "lp-c+full", "trials": 20000, "seed": 1, "instance": path},
            {
                "id": "bad", "pipeline": "lp-c+full", "trials": 20000, "seed": 1,
                "instance": path, "threshold_ratio": 0.99,
            },
        ]
    }
    rows, ok = run_suite(manifest)
    assert not ok
    by_id = {r["id"]: r for r in rows}
    assert by_id["ok"]["passed"] and not by_id["bad"]["passed"]
    rows2, ok2 = run_suite(manifest, id_filter="ok")
    assert ok2 and len(rows2) == 1
    with pytest.raises(ConfigError):
        run_suite(manifest, id_filter="zzz")
    with pytest.raises(ConfigError):
        run_suite({"experiments": []})


def test_suite_csv_output(tmp_path):
    path = single_edge_file(tmp_path)
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(
        json.dumps(
            {"experiments": [{"id": "a", "pipeline": "lp-c+full", "trials": 5000, "seed": 2,
                              "instance": path}]}
        )
    )
    out_csv = tmp_path / "table.csv"
    rows, ok = run_suite(str(manifest_path), out_path=str(out_csv))
    assert ok
    text = out_csv.read_text()
    assert text.splitlines()[0].startswith("id,pipeline,lp_value")


# ---- CLI ----


def run_cli(args):
    return cli.main(args)


def test_cli_gen_opt_roundtrip(tmp_path, capsys):
    inst_path = str(tmp_path / "i.json")
    assert run_cli(["gen", "--seed", "3", "--n-u", "2", "--n-v", "2", "--patience", "1,2",
                    "--out", inst_path]) == 0
    capsys.readouterr()
    assert run_cli(["opt", inst_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "value" in doc and "states_expanded" in doc


def test_cli_opt_emits_layer_sizes(tmp_path, capsys):
    inst_path = str(tmp_path / "i.json")
    assert run_cli(["gen", "--seed", "3", "--n-u", "3", "--n-v", "2", "--patience", "1,2,inf",
                    "--out", inst_path]) == 0
    capsys.readouterr()
    assert run_cli(["opt", inst_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sum(doc["layer_sizes"]) == doc["states_expanded"] > 1


def test_cli_lp_commands(tmp_path, capsys):
    inst_path = str(tmp_path / "i.json")
    run_cli(["gen", "--seed", "4", "--out", inst_path])
    capsys.readouterr()
    for cmd in (["lp-m", inst_path], ["lp-c", inst_path], ["lp-c-colgen", inst_path, "--eps", "0.01"]):
        assert run_cli(cmd) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "value" in doc and "marginals" in doc and "duals" in doc
        # the simplex pivots (summed over column generation's master solves)
        assert type(doc["iterations"]) is int and doc["iterations"] >= 0, cmd[0]


def test_cli_lp_values_agree(tmp_path, capsys):
    inst_path = str(tmp_path / "i.json")
    run_cli(["gen", "--seed", "5", "--out", inst_path])
    capsys.readouterr()
    run_cli(["lp-c", inst_path])
    v1 = json.loads(capsys.readouterr().out)["value"]
    run_cli(["lp-c-colgen", inst_path, "--eps", "0.01"])
    v2 = json.loads(capsys.readouterr().out)["value"]
    assert abs(v1 - v2) <= 0.01 * v1 + 1e-6


def test_cli_round(tmp_path, capsys):
    inst_path = single_edge_file(tmp_path)
    assert run_cli(["round", inst_path, "--policy", "full", "--trials", "20000", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {"mean", "half_width", "lp_value", "ratio_vs_lp"} <= set(doc)


def test_cli_prcrs_mc(tmp_path, capsys):
    scheme = {"actions": ["*"], "patience": 2, "p": [[1.0], [0.0]], "x": [[0.5], [1.0]]}
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(scheme))
    assert run_cli(["prcrs-mc", "--input", str(path), "--trials", "30000", "--seed", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "i,a,x,p,estimate,half_width,bound,pass"
    assert len(out) == 3
    out_path = tmp_path / "rows.csv"
    assert run_cli(["prcrs-mc", "--input", str(path), "--trials", "30000", "--seed", "2",
                    "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text().splitlines() == out


def test_cli_star_eptas(tmp_path, capsys, monkeypatch):
    inst_path = str(tmp_path / "star.json")
    run_cli(["gen", "--seed", "6", "--n-u", "4", "--n-v", "1", "--n-a", "2",
             "--patience", "2", "--out", inst_path])
    capsys.readouterr()
    assert run_cli(["star-eptas", inst_path, "--eps", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {"value", "order", "actions", "guesses_tried", "feasible_guesses"} <= set(doc)
    # eps = 0 is a usage error; at eps = 1/50 the walk runs past the budget
    assert run_cli(["star-eptas", inst_path, "--eps", "0"]) == 2
    assert "error:" in capsys.readouterr().err
    monkeypatch.setenv("QCL_BUDGET", "1000")
    assert run_cli(["star-eptas", inst_path, "--eps", "0.02"]) == 2
    assert "budget exceeded" in capsys.readouterr().err
    # a grid of 1e8 steps costs no more before the budget runs out
    t0 = time.monotonic()
    assert run_cli(["star-eptas", inst_path, "--eps", "0.0001"]) == 2
    assert time.monotonic() - t0 < 1.0
    assert "budget exceeded" in capsys.readouterr().err


def test_cli_verify_numerics_subset(capsys):
    assert run_cli(["verify-numerics", "--suite", "bennett"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["suite"] == "bennett" and doc[0]["pass"]


def test_cli_verify_numerics_exchange(capsys):
    assert run_cli(["verify-numerics", "--suite", "exchange"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["suite"] == "exchange" and doc[0]["pass"]
    assert doc[0]["points_checked"] == 63750


def test_cli_verify_numerics_failing_suite_exit_code(capsys):
    # the mass-monotonicity suite reports its counterexample and fails
    assert run_cli(["verify-numerics", "--suite", "fl"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["suite"] == "fl" and not doc[0]["pass"]
    assert doc[0]["witness"][0] == 3


def test_cli_suite_exit_codes(tmp_path, capsys):
    inst_path = single_edge_file(tmp_path)
    manifest = tmp_path / "m.json"
    manifest.write_text(
        json.dumps(
            {
                "experiments": [
                    {"id": "good", "pipeline": "lp-c+full", "trials": 20000, "seed": 1,
                     "instance": inst_path},
                    {"id": "bad", "pipeline": "lp-c+full", "trials": 20000, "seed": 1,
                     "instance": inst_path, "threshold_ratio": 0.99},
                ]
            }
        )
    )
    assert run_cli(["suite", str(manifest), "--filter", "good"]) == 0
    capsys.readouterr()
    assert run_cli(["suite", str(manifest)]) == 1
    capsys.readouterr()
    assert run_cli(["suite", str(manifest), "--filter", "nothing"]) == 2


def test_cli_iteration_limits_exit_code(tmp_path, capsys, monkeypatch):
    from functools import partial

    from qcmatch import simplex

    inst_path = str(tmp_path / "i.json")
    run_cli(["gen", "--seed", "4", "--out", inst_path])
    capsys.readouterr()
    # column generation's column limit
    monkeypatch.setattr(cli, "solve_lp_c_colgen", partial(cli.solve_lp_c_colgen, iteration_limit=1))
    assert run_cli(["lp-c-colgen", inst_path, "--eps", "0.01"]) == 2
    assert "error: column limit 1 reached" in capsys.readouterr().err
    # the simplex's pivot limit
    monkeypatch.setattr(simplex, "solve_packing_lp", partial(simplex.solve_packing_lp, max_iter=0))
    assert run_cli(["lp-m", inst_path]) == 2
    assert "error: iteration limit 0 hit" in capsys.readouterr().err


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["unknown-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["opt", "instance.json", "--workers", "2"])  # only suite takes --workers
    assert exc.value.code == 2


def test_cli_entrypoint_subprocess(tmp_path):
    # the installed console script works end to end
    inst_path = str(tmp_path / "i.json")
    r = subprocess.run(
        [sys.executable, "-m", "qcmatch.cli", "gen", "--seed", "1", "--out", inst_path],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    r2 = subprocess.run(
        [sys.executable, "-m", "qcmatch.cli", "opt", inst_path], capture_output=True, text=True
    )
    assert r2.returncode == 0
    assert "states_expanded" in r2.stdout
