"""Command-line entry points: exit codes, report shape, artifacts."""

import argparse
import json

import numpy as np
import pytest

from exitrate import cli, verify
from exitrate.cli import build_parser, main
from exitrate.grid import build_grid
from exitrate.problems import problem_by_name, save_problem, validate_problem


def _run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_solve_reports_the_eigenvalue(capsys):
    rc, rep = _run_json(capsys, ["solve", "--problem", "bm-interval", "--h", "0.03125"])
    assert rc == 0
    assert rep["lam"] == pytest.approx(np.pi ** 2 / 2, abs=5e-3)
    assert rep["n_nodes"] == 31
    lo, hi = rep["cw_interval"]
    assert lo - 1e-9 <= rep["lam"] <= hi + 1e-9
    assert rep["config"]["problem"] == "bm-interval"


def test_solve_writes_artifacts(tmp_path):
    out = tmp_path / "solve"
    rc = main(
        ["solve", "--problem", "bm-interval", "--h", "0.0625", "--out", str(out)]
    )
    assert rc == 0
    assert (out / "solve_report.json").exists()
    assert (out / "eigenpair.csv").exists()
    rep = json.loads((out / "solve_report.json").read_text())
    assert rep["lam"] == pytest.approx(np.pi ** 2 / 2, abs=0.05)


def test_parameters_flow_through(capsys):
    rc, rep = _run_json(
        capsys,
        ["solve", "--problem", "drift-interval", "--param", "c=2.0", "--h", "0.03125"],
    )
    assert rc == 0
    assert rep["lam"] == pytest.approx(np.pi ** 2 / 2 + 2.0, abs=0.02)
    assert rep["config"]["params"] == {"c": 2.0}


def test_optimize_improves_on_the_first_action(capsys):
    rc, rep = _run_json(
        capsys, ["optimize", "--problem", "bang-bang", "--h", "0.125", "--mode", "MAX"]
    )
    assert rc == 0
    lams = rep["lam_sequence"]
    assert rep["lam"] == pytest.approx(min(lams))
    assert all(b <= a + 1e-12 for a, b in zip(lams, lams[1:]))
    assert rep["converged"]
    assert rep["sweeps"] == len(lams)
    rc2, rep2 = _run_json(
        capsys, ["optimize", "--problem", "bang-bang", "--h", "0.125", "--mode", "MIN"]
    )
    assert rep2["lam"] > rep["lam"]


def test_qprocess_report_and_artifacts(tmp_path, capsys):
    out = tmp_path / "qp"
    rc = main(
        ["qprocess", "--problem", "drift-interval", "--h", "0.0625", "--out", str(out)]
    )
    assert rc == 0
    rep = json.loads((out / "qprocess_report.json").read_text())
    assert rep["row_sum_residual"] <= 1e-8
    assert rep["product_residual"] <= 1e-10
    assert rep["certificate"]["rho"] > 0.0
    assert (out / "measures.csv").exists()


def test_variational_value_tracks_the_optimum(tmp_path):
    out = tmp_path / "var"
    rc = main(
        ["variational", "--problem", "bang-bang", "--h", "0.25", "--out", str(out)]
    )
    assert rc == 0
    rep = json.loads((out / "variational_report.json").read_text())
    assert rep["lp_value"] == pytest.approx(rep["lam_star"], rel=1e-5)
    assert rep["rel_gap"] <= 1e-5
    assert rep["transform_point_objective"] >= rep["lp_value"] - 1e-9
    assert rep["structure"]["all_ok"]
    assert (out / "occupation.mps").exists()
    assert (out / "occupation.csv").exists()


def test_variational_solves_rect_2d_at_an_eighth(capsys):
    rc, rep = _run_json(capsys, ["variational", "--problem", "rect-2d", "--h", "0.125"])
    assert rc == 0
    assert rep["rel_gap"] <= 1e-9


@pytest.mark.parametrize(
    "argv, named",
    [
        (["solve", "--h", "0"], "spacing h must be finite and positive, got 0.0"),
        (["optimize", "--problem", "bang-bang", "--h", "-0.25"], "spacing h must be finite and positive, got -0.25"),
        (["solve", "--h", "nan"], "spacing h must be finite and positive, got nan"),
        (["simulate", "--h", "0.125", "--dt", "0"], "dt must be finite and positive, got 0.0"),
        (["simulate", "--h", "0.125", "--dt", "-0.001"], "dt must be finite and positive, got -0.001"),
        (["simulate", "--h", "0.125", "--T", "inf"], "T must be finite and nonnegative, got inf"),
        (["simulate", "--h", "0.125", "--T", "-1"], "T must be finite and nonnegative, got -1.0"),
        (["simulate", "--h", "0.125", "--paths", "0"], "n_paths must be at least 1, got 0"),
        (["qprocess", "--x0", "5"], "--x0 5 needs 1 coordinates strictly inside the box (0, 1)"),
        (["qprocess", "--x0", "nan"], "--x0 nan needs 1 coordinates strictly inside the box (0, 1)"),
        (["simulate", "--h", "0.125", "--x0", "1.5"], "--x0 1.5 needs 1 coordinates strictly inside the box (0, 1)"),
        (["solve", "--tol", "-1"], "tol must be finite and positive, got -1.0"),
        (["solve", "--tol", "nan"], "tol must be finite and positive, got nan"),
        (
            ["simulate", "--h", "0.125", "--x0", "0.2"],
            "--x0 0.2 must sit two cells inside the box at h=0.125, in (0.25, 0.75)",
        ),
        (["qprocess", "--x0", "abc"], "--x0 abc needs 1 comma-separated numbers"),
        (["simulate", "--h", "0.125", "--x0", "0.5,x"], "--x0 0.5,x needs 1 comma-separated numbers"),
        (["solve", "--action", "5"], "--action 5 needs an action index of bm-interval in 0..0"),
        (["solve", "--action", "-1"], "--action -1 needs an action index of bm-interval in 0..0"),
    ],
)
def test_bad_spacing_step_or_path_count_is_rejected(capsys, argv, named):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}\n"


def test_simulate_smoke(tmp_path):
    out = tmp_path / "sim"
    rc = main(
        [
            "simulate",
            "--problem",
            "bm-interval",
            "--h",
            "0.125",
            "--paths",
            "2000",
            "--dt",
            "0.002",
            "--T",
            "0.8",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rep = json.loads((out / "simulate_report.json").read_text())
    assert rep["killed_qpaths"] == 0
    assert rep["beta_hat"] == pytest.approx(np.pi ** 2 / 2, rel=0.35)
    assert (out / "ensemble.csv").exists()
    assert (out / "occupancy.csv").exists()


def _spy(monkeypatch, name):
    """Record what the library function `name`, as cli calls it, returns."""
    results = []
    real = getattr(cli, name)

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, name, spy)
    return results


def _assert_node_table(path, prob, h, columns):
    """One row per node of build_grid(prob, h): x1.. then columns, each parsing back bit-equal."""
    nodes = build_grid(prob, h).nodes
    names = [f"x{k + 1}" for k in range(nodes.shape[1])] + list(columns)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(names)
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert table.shape == (len(nodes), len(names))
    for k, col in enumerate([*nodes.T, *columns.values()]):
        assert table[:, k].tobytes() == np.asarray(col, dtype=float).tobytes(), names[k]


def test_solve_table_holds_the_eigenpair(tmp_path, monkeypatch, rect_2d):
    pairs = _spy(monkeypatch, "principal_eigenpair")
    assert main(["solve", "--problem", "rect-2d", "--h", "0.125", "--out", str(tmp_path)]) == 0
    (pair,) = pairs
    _assert_node_table(tmp_path / "eigenpair.csv", rect_2d, 0.125, {"psi": pair.psi, "phi": pair.phi})


def test_optimize_table_holds_the_optimal_eigenpair(tmp_path, monkeypatch, bang_bang):
    traces = _spy(monkeypatch, "policy_iteration")
    assert main(["optimize", "--problem", "bang-bang", "--h", "0.125", "--out", str(tmp_path)]) == 0
    pair = traces[0].final_pair
    _assert_node_table(tmp_path / "eigenpair.csv", bang_bang, 0.125, {"psi": pair.psi, "phi": pair.phi})


def test_qprocess_table_holds_the_measures_and_the_lyapunov_function(tmp_path, monkeypatch, bang_bang):
    traces = _spy(monkeypatch, "policy_iteration")
    measures = _spy(monkeypatch, "stationary_measures")
    certs = _spy(monkeypatch, "lyapunov_certificate")
    assert main(["qprocess", "--problem", "bang-bang", "--h", "0.0625", "--out", str(tmp_path)]) == 0
    (mu, alpha), pair = measures[0], traces[0].final_pair
    columns = {"mu_tilde": mu, "alpha": alpha, "psi": pair.psi, "phi": pair.phi, "V": certs[0].V}
    _assert_node_table(tmp_path / "measures.csv", bang_bang, 0.0625, columns)


def test_simulate_table_holds_the_confined_occupancy(tmp_path, monkeypatch, bm_interval):
    checks = _spy(monkeypatch, "monte_carlo_check")
    argv = ["simulate", "--h", "0.125", "--paths", "2000", "--dt", "0.002", "--T", "0.8", "--out", str(tmp_path)]
    assert main(argv) == 0
    occ = checks[0][2]
    _assert_node_table(tmp_path / "occupancy.csv", bm_interval, 0.125, {"mass": occ.histogram})


def test_representations_agree(capsys):
    rc, rep = _run_json(
        capsys, ["representations", "--problem", "bm-interval", "--h", "0.015625"]
    )
    assert rc == 0
    vals = [
        rep["values"]["log_gradient_form"],
        rep["values"]["log_gradient_family_min"],
        rep["values"]["eigenfunction_ratio"],
        rep["values"]["eigenfunction_ratio_family_min"],
    ]
    assert max(vals) - min(vals) <= 0.05 * min(vals)
    assert rep["max_pairwise_rel_diff"] <= 0.05
    assert rep["lam_star"] == pytest.approx(np.pi ** 2 / 2, abs=5e-3)


def test_representations_keep_their_bytes_without_a_kept_solve(monkeypatch):
    # The MAX and MIN traces share the grid's right solve of the constant
    # action 0; when each trace solves it afresh, the report keeps its bytes.
    prob, h = validate_problem(problem_by_name("bang-bang")), 1 / 64
    kept = verify.four_representations(prob, h)
    real_pi = verify.policy_iteration

    def forgetful(*args, grid, **kwargs):
        trace = real_pi(*args, grid=grid, **kwargs)
        grid.shared.pop((prob, kwargs["tol"]), None)
        return trace

    monkeypatch.setattr(verify, "policy_iteration", forgetful)
    assert json.dumps(verify.four_representations(prob, h)) == json.dumps(kept)


def test_problem_file_round_trip(tmp_path, capsys):
    path = tmp_path / "custom.json"
    save_problem(problem_by_name("drift-interval", c=1.5), str(path))
    rc, rep = _run_json(capsys, ["solve", "--problem", str(path), "--h", "0.03125"])
    assert rc == 0
    assert rep["lam"] == pytest.approx(np.pi ** 2 / 2 + 1.125, abs=0.02)


def test_unknown_problem_fails_cleanly(capsys):
    rc = main(["solve", "--problem", "bogus"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:")
    assert "bogus" in captured.err


def test_missing_problem_file_fails_cleanly(capsys):
    rc = main(["solve", "--problem", "no-such-file.json"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_problem_file_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "dim": 1, "bounds": 5, "actions": ["0"], "drift": [["0"]], "sigma": ["1"]}))
    rc = main(["solve", "--problem", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "'bounds'" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "problem, param, accepted",
    [
        ("drift-interval", "x=1", "takes c"),
        ("bm-interval", "c=1", "takes none"),
        ("drift-interval", "c", "takes c"),
        ("drift-interval", "c=", "takes c"),
        ("drift-interval", "c=two", "takes c"),
        ("rect-2d", "c=1", "takes b"),
    ],
)
def test_bad_param_fails_cleanly(capsys, problem, param, accepted):
    rc = main(["solve", "--problem", problem, "--param", param, "--h", "0.125"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: --param {param!r}")
    assert problem in err and accepted in err


def test_param_on_a_problem_file_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "custom.json"
    save_problem(problem_by_name("bm-interval"), str(path))
    rc = main(["solve", "--problem", str(path), "--param", "c=1"])
    assert rc == 1
    assert "takes none" in capsys.readouterr().err


def test_nonconforming_spacing_fails_cleanly(capsys):
    rc = main(["solve", "--problem", "bm-interval", "--h", "0.3"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_reports_carry_no_timing_noise(capsys):
    rc, rep = _run_json(capsys, ["solve", "--problem", "bm-interval", "--h", "0.125"])
    assert rc == 0
    text = json.dumps(rep)
    for banned in ("time", "date", "thread", "duration"):
        assert banned not in text.lower()


_SMALL = {
    "solve": ["--h", "0.125"],
    "optimize": ["--problem", "bang-bang", "--h", "0.25"],
    "qprocess": ["--h", "0.125"],
    "variational": ["--problem", "bang-bang", "--h", "0.25"],
    "simulate": ["--h", "0.125", "--paths", "2000", "--dt", "0.002", "--T", "0.8"],
    "representations": ["--h", "0.125"],
}


@pytest.mark.parametrize("command", sorted(_SMALL))
def test_report_config_records_exactly_the_flags_the_command_takes(command, tmp_path):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        a.dest for a in sub.choices[command]._actions if a.option_strings and a.dest != "help"
    }
    rc = main([command, *_SMALL[command], "--out", str(tmp_path)])
    assert rc == 0
    config = json.loads((tmp_path / f"{command}_report.json").read_text())["config"]
    # The output directory does not change the results, so it is not recorded;
    # --param is recorded as "params" when given.
    assert set(config) == flags - {"out", "param"}


@pytest.mark.parametrize(
    "argv",
    [
        ["variational", "--mode", "MIN"],
        ["solve", "--seed", "1"],
        ["optimize", "--action", "1"],
        ["verify", "--dt", "1e-4"],
        ["verify", "--T", "50"],
        ["verify", "--paths", "100000"],
    ],
)
def test_dropped_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(argv)
    assert err.value.code == 2


def test_qprocess_beyond_the_dense_cap_fails_cleanly(capsys):
    rc = main(["qprocess", "--problem", "rect-2d", "--h", "0.015625"])
    assert rc == 1
    assert capsys.readouterr().err == "error: dense path capped at n=2000, got 3969\n"


def test_qprocess_refuses_the_dense_cap_before_policy_iteration(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("policy iteration ran before the dense cap check")

    monkeypatch.setattr(cli, "policy_iteration", forbidden)
    assert main(["qprocess", "--problem", "rect-2d", "--h", "0.015625"]) == 1
    assert capsys.readouterr().err == "error: dense path capped at n=2000, got 3969\n"


def test_qprocess_masks_a_negative_seed(capsys):
    # Random payoffs come from Philox keyed by the seed modulo 2^64.
    reports = [
        _run_json(capsys, ["qprocess", "--h", "0.125", "--seed", str(seed)])
        for seed in (-1, 2**64 - 1)
    ]
    assert [rc for rc, _ in reports] == [0, 0]
    assert reports[0][1]["conjugation_sup_gap"] == reports[1][1]["conjugation_sup_gap"]
