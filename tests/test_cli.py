"""Command-line interface: happy paths, determinism, exit codes."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frailtykit
from frailtykit import joint_survival, model_from_dict
from frailtykit import model as md
from frailtykit.cli import run


MODEL = {
    "structure": {"kind": "shared", "l1": 2, "l2": 2},
    "hazards": {
        "1": [{"family": "weibull", "gamma": 1.5, "alpha": 0.5},
              {"family": "weibull", "gamma": 0.8, "alpha": 1.0}],
        "2": [{"family": "weibull", "gamma": 1.5, "alpha": 0.5},
              {"family": "weibull", "gamma": 0.8, "alpha": 1.0}],
    },
    "frailty": {"atoms": [[0.6], [1.4]], "weights": [0.5, 0.5],
                "assert_mean_one": True},
}

POINT_MODEL = {
    "structure": {"kind": "shared", "l1": 2, "l2": 2},
    "hazards": MODEL["hazards"],
    "frailty": {"atoms": [[1.0]], "weights": [1.0]},
}

EXP_MODEL = {
    "structure": {"kind": "shared", "l1": 2, "l2": 2},
    "hazards": {
        "1": [{"family": "exponential", "gamma": 1.0, "alpha": 0.7},
              {"family": "exponential", "gamma": 1.0, "alpha": 0.3}],
        "2": [{"family": "exponential", "gamma": 1.0, "alpha": 0.7},
              {"family": "exponential", "gamma": 1.0, "alpha": 0.3}],
    },
    "frailty": {"atoms": [[1.0]], "weights": [1.0]},
}


# a shape so small that its first-failure quantiles, and most of its
# cause-1 mass, lie below the smallest normal double
SMALL_SHAPE_MODEL = {
    "structure": {"kind": "shared", "l1": 2, "l2": 2},
    "hazards": {k: [{"family": "weibull", "gamma": 0.01, "alpha": 1e6},
                    {"family": "weibull", "gamma": 0.8, "alpha": 1.0}]
                for k in ("1", "2")},
    "frailty": {"atoms": [[0.6], [1.4]], "weights": [0.5, 0.5]},
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, payload in (("m", MODEL), ("point", POINT_MODEL),
                          ("exp", EXP_MODEL), ("small", SMALL_SHAPE_MODEL)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"t1_points": [0.1, 0.3, 0.7, 1.2, 2.0],
                                "t2_points": [0.1, 0.3, 0.7, 1.2, 2.0]}))
    paths["grid"] = str(grid)
    paths["dir"] = tmp_path
    return paths


def test_validate_passes_mean_one_model(files, capsys):
    assert run(["validate", "--model", files["m"]]) == 0
    out = capsys.readouterr().out
    assert "validation passed" in out


def test_validate_flags_unsaturatable_model(tmp_path):
    flat = {
        "structure": {"kind": "shared", "l1": 1, "l2": 1},
        "hazards": {
            "1": [{"family": "loglogistic", "gamma": 0.05, "alpha": 1e-3}],
            "2": [{"family": "loglogistic", "gamma": 0.05, "alpha": 1e-3}],
        },
        "frailty": {"atoms": [[1.0]], "weights": [1.0]},
    }
    p = tmp_path / "flat.json"
    p.write_text(json.dumps(flat))
    assert run(["validate", "--model", str(p)]) == 1


def test_validate_flags_a_weibull_model_beyond_the_double_range(tmp_path,
                                                               capsys):
    # (60 / alpha) ** (1 / gamma) and the inverse at load 40 both overflow;
    # RuntimeWarning is an error here
    flat = {
        "structure": {"kind": "shared", "l1": 1, "l2": 1},
        "hazards": {
            "1": [{"family": "weibull", "gamma": 0.01, "alpha": 1e-3}],
            "2": [{"family": "weibull", "gamma": 0.01, "alpha": 1e-3}],
        },
        "frailty": {"atoms": [[1.0]], "weights": [1.0]},
    }
    p = tmp_path / "flat.json"
    p.write_text(json.dumps(flat))
    assert run(["validate", "--model", str(p)]) == 1
    out = capsys.readouterr().out
    assert "normalization: FAIL [saturation horizon exceeds" in out
    assert "validation failed: normalization" in out


@pytest.mark.parametrize("count", [2.5, 2.0, True, "2", None, 0])
def test_validate_rejects_a_cause_count_that_is_not_an_integer(tmp_path,
                                                               capsys, count):
    bad = json.loads(json.dumps(MODEL))
    bad["structure"]["l1"] = count
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert run(["validate", "--model", str(p)]) == 2
    assert "cause count of individual 1" in capsys.readouterr().err


def test_simulate_deterministic_and_thread_invariant(files):
    out1 = files["dir"] / "a.csv"
    out2 = files["dir"] / "b.csv"
    out3 = files["dir"] / "c.csv"
    args = ["simulate", "--model", files["m"], "--n", "2000", "--seed", "42"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert run(args + ["--out", str(out3), "--threads", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == out3.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "pair_id,t1,j1,d1,t2,j2,d2"


def test_simulate_env_threads(files, monkeypatch):
    out1 = files["dir"] / "env1.csv"
    out2 = files["dir"] / "env2.csv"
    args = ["simulate", "--model", files["m"], "--n", "1000", "--seed", "5"]
    assert run(args + ["--out", str(out1)]) == 0
    monkeypatch.setenv("FRAILTYKIT_THREADS", "3")
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    monkeypatch.setenv("FRAILTYKIT_THREADS", "zero")
    assert run(args + ["--out", str(out2)]) == 2


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_simulate_rejects_thread_counts_below_one(files, threads, capsys):
    out = files["dir"] / "threads.csv"
    assert run(["simulate", "--model", files["m"], "--n", "10", "--seed",
                "1", "--out", str(out), "--threads", threads]) == 2
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_debug_atoms_column(files):
    out = files["dir"] / "atoms.csv"
    assert run(["simulate", "--model", files["m"], "--n", "50", "--seed",
                "1", "--out", str(out), "--debug-atoms"]) == 0
    header = out.read_text().splitlines()[0]
    assert header.endswith(",atom_id")


def test_eval_output_table(files):
    out = files["dir"] / "F.csv"
    assert run(["eval", "--model", files["m"], "--grid", files["grid"],
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t1,t2,j1,j2,F,f"
    assert len(lines) == 1 + 5 * 5 * 2 * 2

    # the four sub-distributions at the largest corner account for all
    # probability not explained by joint survival
    m = model_from_dict(MODEL)
    rows = [line.split(",") for line in lines[1:]]
    corner = [r for r in rows if float(r[0]) == 2.0 and float(r[1]) == 2.0]
    total_f = sum(float(r[4]) for r in corner)
    ref = 1.0 - joint_survival(m, 2.0, 0.0) - joint_survival(m, 0.0, 2.0) \
        + joint_survival(m, 2.0, 2.0)
    assert abs(total_f - ref) < 1e-4

    # rerunning is byte-identical
    out2 = files["dir"] / "F2.csv"
    run(["eval", "--model", files["m"], "--grid", files["grid"],
         "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_eval_rows_match_a_reference_loop(tmp_path):
    # unequal cause counts and axis lengths pin the (t1, t2, j1, j2) order
    payload = {
        "structure": {"kind": "shared", "l1": 2, "l2": 3},
        "hazards": {
            "1": [{"family": "gamma", "gamma": 1.6, "alpha": 0.8},
                  {"family": "loglogistic", "gamma": 2.2, "alpha": 0.5}],
            "2": [{"family": "weibull", "gamma": 1.4, "alpha": 0.6},
                  {"family": "exponential", "gamma": 1.0, "alpha": 0.4},
                  {"family": "gamma", "gamma": 0.7, "alpha": 1.1}],
        },
        "frailty": {"atoms": [[0.6], [1.4]], "weights": [0.5, 0.5]},
    }
    t1, t2 = [0.1, 0.3, 0.7, 1.2, 2.0], [0.05, 0.2, 0.5, 1.0, 1.7, 3.0]
    model_path, grid_path = tmp_path / "m.json", tmp_path / "grid.json"
    model_path.write_text(json.dumps(payload))
    grid_path.write_text(json.dumps({"t1_points": t1, "t2_points": t2}))
    out = tmp_path / "F.csv"
    assert run(["eval", "--model", str(model_path), "--grid", str(grid_path),
                "--out", str(out)]) == 0

    m = model_from_dict(payload)
    big_f = md.joint_sub_distribution_grid(m, t1, t2)
    small_f = md.joint_sub_density_grid(m, t1, t2)
    ref = ["t1,t2,j1,j2,F,f"]
    for a, x in enumerate(t1):
        for b, y in enumerate(t2):
            for i in range(2):
                for l in range(3):
                    ref.append(f"{x:.17g},{y:.17g},{i + 1},{l + 1},"
                               f"{big_f[i, l, a, b]:.17g},"
                               f"{small_f[i, l, a, b]:.17g}")
    assert out.read_text() == "\n".join(ref) + "\n"


def test_eval_file_matches_the_per_row_template(files):
    # times whose %.17g form is longer than their repr, a time near the
    # bottom of the double range, and integer-valued floats
    t1 = [1e-300, 0.1, 1 / 3, 2.0, 7.0]
    t2 = [1e-300, 1 / 3, 1.0, 3.0, 10.0]
    grid_path, out = files["dir"] / "awkward.json", files["dir"] / "F.csv"
    grid_path.write_text(json.dumps({"t1_points": t1, "t2_points": t2}))
    assert run(["eval", "--model", files["m"], "--grid", str(grid_path),
                "--out", str(out)]) == 0

    m = model_from_dict(MODEL)
    big_f = md.joint_sub_distribution_grid(m, t1, t2)
    small_f = md.joint_sub_density_grid(m, t1, t2)
    rows = ["t1,t2,j1,j2,F,f\n"]
    for a, x in enumerate(t1):
        for b, y in enumerate(t2):
            for i in range(2):
                for l in range(2):
                    rows.append("%.17g,%.17g,%d,%d,%.17g,%.17g\n" % (
                        x, y, i + 1, l + 1, big_f[i, l, a, b],
                        small_f[i, l, a, b]))
    assert out.read_bytes() == "".join(rows).encode("utf-8")


def test_eval_gives_a_finite_grid_for_a_small_shape_model(files):
    out = files["dir"] / "F.csv"
    assert run(["eval", "--model", files["small"], "--grid", files["grid"],
                "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (5 * 5 * 2 * 2, 6)
    assert np.all(np.isfinite(rows))


def test_simulate_draws_causes_where_a_hazard_overflows(files):
    # every failure time of this model lies below the smallest normal
    # double, so the solver returns it a few ulp above it, where h of
    # W(0.01, 1e6) overflows but its log does not; there cause 1 carries
    # t h_1 = 0.01 H_1 = 8.4 against t h_2 < 1e-245
    out = files["dir"] / "small.csv"
    assert run(["simulate", "--model", files["small"], "--n", "100",
                "--seed", "7", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (100, 7)
    tiny = np.finfo(float).tiny
    times = rows[:, [1, 4]]
    assert np.all((times >= tiny) & (times <= tiny + 8 * np.spacing(tiny)))
    assert np.all(rows[:, [2, 5]] == 1.0) and np.all(rows[:, [3, 6]] == 1.0)


@pytest.mark.parametrize("command", ["probe", "recover"])
def test_default_grid_below_the_double_range_exits_2(files, capsys, command):
    args = (["--model-a", files["small"], "--model-b", files["small"]]
            if command == "probe"
            else ["--target", files["small"], "--init", files["small"]])
    assert run([command, *args, "--out", str(files["dir"] / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: first-failure quantiles at levels [0.1, ")
    assert "shared model with hazards {1: ['weibull(0.01, 1e+06)'" in err
    assert err.endswith("lie below the smallest normal double; pass an "
                        "explicit probe grid\n")


def test_probe_self_and_separated(files):
    report_path = files["dir"] / "probe.json"
    assert run(["probe", "--model-a", files["m"], "--model-b", files["m"],
                "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["verdict"] == "indistinguishable"
    assert report["sup_distance"] < 1e-12

    assert run(["probe", "--model-a", files["m"], "--model-b",
                files["point"], "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["verdict"] == "separated"
    assert report["sup_distance"] > 1e-4


def test_recover_round_trip(files):
    out = files["dir"] / "rec.json"
    assert run(["recover", "--target", files["m"], "--init", files["m"],
                "--budget", "50", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["evaluations"] == 1
    assert result["converged"] is True
    assert result["distance"] == 0.0
    assert "model" in result and "grid" in result


def test_fit_pipeline(files):
    data = files["dir"] / "fit_data.csv"
    out = files["dir"] / "fit.json"
    assert run(["simulate", "--model", files["exp"], "--n", "800",
                "--seed", "7", "--out", str(data)]) == 0
    assert run(["fit", "--data", str(data), "--structure", "shared",
                "--atoms", "1", "--family", "exponential",
                "--budget", "2000", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    alphas = [h["alpha"] for h in result["model"]["hazards"]["1"]]
    assert abs(alphas[0] - 0.7) < 0.08
    assert abs(alphas[1] - 0.3) < 0.06
    assert result["n_pairs"] == 800


def test_fit_equalizes_cause_counts_for_cause_specific(files):
    # label 2 never fires for individual 2 in this sample; the inferred
    # structure must still use two causes on both sides
    rows = ["pair_id,t1,j1,d1,t2,j2,d2"]
    rng = np.random.default_rng(9)
    for i in range(12):
        rows.append(f"{i},{rng.uniform(0.2, 2.0):.6f},{1 + i % 2},1,"
                    f"{rng.uniform(0.2, 2.0):.6f},1,1")
    data = files["dir"] / "lop.csv"
    data.write_text("\n".join(rows) + "\n")
    out = files["dir"] / "lop.json"
    assert run(["fit", "--data", str(data), "--structure",
                "correlated_cause_specific", "--atoms", "1", "--family",
                "exponential", "--budget", "50", "--out", str(out)]) == 0
    fitted = json.loads(out.read_text())
    assert fitted["model"]["structure"] == {
        "kind": "correlated_cause_specific", "l1": 2, "l2": 2}


def test_fit_rejects_an_empty_budget(files, capsys):
    data = files["dir"] / "budget.csv"
    assert run(["simulate", "--model", files["exp"], "--n", "30", "--seed",
                "3", "--out", str(data)]) == 0
    assert run(["fit", "--data", str(data), "--structure", "shared",
                "--atoms", "1", "--family", "exponential", "--budget", "0",
                "--out", str(files["dir"] / "x.json")]) == 2
    assert "budget" in capsys.readouterr().err


def test_fit_rejects_censored_data(files):
    data = files["dir"] / "cens.csv"
    assert run(["simulate", "--model", files["exp"], "--n", "60", "--seed",
                "3", "--censoring-rate", "0.5", "--out", str(data)]) == 0
    assert run(["fit", "--data", str(data), "--structure", "shared",
                "--atoms", "1", "--out", str(files["dir"] / "x.json")]) == 2


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_simulate_rejects_a_non_finite_censoring_rate(files, capsys, rate):
    out = files["dir"] / "rate.csv"
    assert run(["simulate", "--model", files["exp"], "--n", "5", "--seed",
                "3", "--censoring-rate", rate, "--out", str(out)]) == 2
    assert "censoring rate" in capsys.readouterr().err
    assert not out.exists()


def test_validate_integrates_one_table_per_individual(files, monkeypatch):
    calls = []
    table = md.sub_distribution_table

    def counted(m, k, *args, **kwargs):
        calls.append(k)
        return table(m, k, *args, **kwargs)

    monkeypatch.setattr(md, "sub_distribution_table", counted)
    assert run(["validate", "--model", files["m"]]) == 0
    assert calls == [1, 2]


def test_malformed_inputs_exit_2(files, capsys):
    bad = files["dir"] / "bad.json"
    bad.write_text('{"structure": \n')
    assert run(["validate", "--model", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.json:2" in err

    bad_csv = files["dir"] / "bad.csv"
    bad_csv.write_text("pair_id,t1,j1,d1,t2,j2,d2\n0,1.0,1,1,2.0\n")
    assert run(["fit", "--data", str(bad_csv), "--structure", "shared",
                "--atoms", "1", "--out", str(files["dir"] / "x.json")]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err

    assert run(["simulate", "--model", files["m"]]) == 2
    assert run(["probe", "--model-a", files["m"], "--model-b",
                str(files["dir"] / "missing.json"),
                "--out", str(files["dir"] / "r.json")]) == 2


def test_library_input_errors_exit_2_with_their_message(files, tmp_path,
                                                        capsys):
    other = tmp_path / "correlated.json"
    other.write_text(json.dumps(
        {**POINT_MODEL,
         "structure": {"kind": "correlated", "l1": 2, "l2": 2},
         "frailty": {"atoms": [[1.0, 1.0]], "weights": [1.0]}}))
    assert run(["probe", "--model-a", files["m"], "--model-b", str(other),
                "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == (
        "error: models must share the frailty structure\n")

    one_cause = tmp_path / "one_cause.json"
    one_cause.write_text(json.dumps(
        {"structure": {"kind": "shared", "l1": 1, "l2": 1},
         "hazards": {k: MODEL["hazards"][k][:1] for k in ("1", "2")},
         "frailty": POINT_MODEL["frailty"]}))
    assert run(["recover", "--target", files["m"], "--init", str(one_cause),
                "--out", str(tmp_path / "rec.json")]) == 2
    assert capsys.readouterr().err == (
        "error: target has shape (2, 2, 6, 6), the grid and init give "
        "(1, 1, 6, 6)\n")


def test_validate_names_a_malformed_model_block(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([1, 2]))
    assert run(["validate", "--model", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: bad model: model must be an object, got list\n")

    path.write_text(json.dumps(
        {**MODEL, "hazards": {"1": MODEL["hazards"]["1"][0],
                              "2": MODEL["hazards"]["2"]}}))
    assert run(["validate", "--model", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: bad model: model hazards of individual 1 must be a "
        "list of hazard specs, got dict\n")


def _script_target(name):
    """The ``module:attr`` that ``[project.scripts]`` declares for `name`."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def _child_env():
    """Environment whose PYTHONPATH leads with the frailtykit under test."""
    env = dict(os.environ)
    paths = [str(Path(frailtykit.__file__).resolve().parents[1])]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def test_console_script_entry_point(files, tmp_path):
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "frailtykit.cli"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2

    module, attr = _script_target("frailtykit").split(":")
    assert callable(getattr(importlib.import_module(module), attr))

    # launch the target the way an installed console script does
    launcher = (f"import sys; from {module} import {attr}; "
                f"sys.argv[0] = 'frailtykit'; sys.exit({attr}())")
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "simulate", "--model", files["m"],
         "--n", "10", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.skipif(shutil.which("frailtykit") is None,
                    reason="frailtykit console script is not on PATH")
def test_installed_console_script(files, tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        ["frailtykit", "simulate", "--model", files["m"], "--n", "10",
         "--seed", "1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
