"""Each correctness check accepts the program's output and rejects a
deliberately wrong one.

Run with ``python -m pytest bench/tests -q`` from the repository root.
"""

import json

import numpy as np
import pytest

import frailtykit as fk
from frailtykit import cli

import inputs
import reference as ref

JOINT_GRID = ([0.3, 0.6, 1.0, 1.5, 2.2], [0.3, 0.6, 1.0, 1.5, 2.2])


@pytest.fixture(scope="module")
def truth():
    return inputs.mixed_model(fk)


def _draw(m, tmp_path, name, n=20000, seed=5):
    path = tmp_path / name
    fk.write_dataset_csv(m, fk.SimConfig(n_pairs=n, seed=seed), path)
    return ref.read_pairs_csv(path)


def _with_hazard(m, key, **change):
    spec = m.hazard(*key)
    params = {"gamma": spec.gamma, "alpha": spec.alpha, **change}
    hazards = dict(m.hazards)
    hazards[key] = fk.HazardSpec(spec.family, params["gamma"], params["alpha"])
    return fk.ModelSpec(m.structure, hazards, m.frailty,
                        require_unit_mean=m.require_unit_mean)


def test_simulated_check(truth, tmp_path):
    desc = ref.describe(truth)
    cols = _draw(truth, tmp_path, "ok.csv")
    assert ref.check_simulated(cols, desc, 20000, JOINT_GRID) == []

    wrong = _draw(_with_hazard(truth, (2, 2), alpha=0.4 * 1.3), tmp_path,
                  "perturbed.csv")
    assert ref.check_simulated(wrong, desc, 20000, JOINT_GRID)

    censored = dict(cols, d1=np.where(np.arange(20000) == 7, 0.0, 1.0))
    assert ref.check_simulated(censored, desc, 20000, JOINT_GRID)
    assert ref.check_simulated(cols, desc, 20001, JOINT_GRID)


def test_fit_check(truth, tmp_path):
    cols = _draw(truth, tmp_path, "fit.csv", n=2000)
    data = fk.read_dataset_csv(tmp_path / "fit.csv")
    start = inputs.fit_start(fk, truth)
    res = fk.fit_mle(data, truth.structure, 3, start, budget=40, seed=0)
    fitted, begin = ref.describe(res.model), ref.describe(start)

    assert ref.check_fit(res.log_likelihood, fitted, begin, cols) == []
    assert ref.check_fit(res.log_likelihood + 1e-3, fitted, begin, cols)
    assert ref.check_fit(res.log_likelihood - 1e-3, fitted, begin, cols)
    # a "fit" that ended below its own start point
    worse = ref.describe(_with_hazard(res.model, (1, 1), alpha=2.0))
    ll_worse = ref.log_likelihood(worse, cols["t1"], cols["j1"].astype(int),
                                  cols["t2"], cols["j2"].astype(int))
    assert ref.check_fit(ll_worse, worse, fitted, cols)


def test_log_likelihood_reference_matches_density(truth, tmp_path):
    cols = _draw(truth, tmp_path, "ll.csv", n=50)
    desc = ref.describe(truth)
    j1, j2 = cols["j1"].astype(int), cols["j2"].astype(int)
    dens = ref.joint_sub_density(desc, cols["t1"], j1, cols["t2"], j2)
    assert ref.log_likelihood(desc, cols["t1"], j1, cols["t2"], j2) == \
        pytest.approx(float(np.sum(np.log(dens))), rel=1e-13)


def test_probe_check():
    m, mc = inputs.scale_pair(fk)
    pairs = inputs.probe_pairs(fk, seed=3, rotations=1)
    report = fk.probe_models(*pairs[0])
    assert ref.check_probe(report.verdict.value, report.sup_distance,
                           confounded=False) == []
    same = fk.probe_models(pairs[0][0], pairs[0][0])
    assert ref.check_probe(same.verdict.value, same.sup_distance,
                           confounded=False)

    scaled = fk.probe_models(m, mc)
    assert ref.check_probe(scaled.verdict.value, scaled.sup_distance,
                           confounded=True) == []
    assert ref.check_probe("indistinguishable", 2e-9, confounded=True)


@pytest.fixture(scope="module")
def eval_table(truth, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("eval")
    grid = inputs.eval_grid(8)
    (tmp / "m.json").write_text(json.dumps(fk.model_to_dict(truth)))
    (tmp / "g.json").write_text(json.dumps(grid))
    assert cli.run(["eval", "--model", str(tmp / "m.json"), "--grid",
                    str(tmp / "g.json"), "--out", str(tmp / "e.csv")]) == 0
    return grid, ref.read_eval_csv(tmp / "e.csv", 8, 8, 2, 2)


def test_eval_check(truth, eval_table):
    grid, table = eval_table
    desc = ref.describe(truth)
    subset = [0, 3, 7]
    assert ref.check_eval(table, desc, grid, subset) == []

    scaled_big = dict(table, F=table["F"] * (1.0 + 1e-6))
    assert ref.check_eval(scaled_big, desc, grid, subset)

    scaled_small = dict(table, f=table["f"] * (1.0 + 1e-9))
    assert ref.check_eval(scaled_small, desc, grid, subset)

    dented = table["F"].copy()
    dented[5, 5, 0, 0] = dented[4, 5, 0, 0] - 1e-12
    assert ref.check_eval(dict(table, F=dented), desc, grid, subset)


def test_quad_reference_is_normalized(truth):
    """The quad reference integrates to the mixture's cause probabilities:
    the four joint sub-distributions sum to one at a large time."""
    desc = ref.describe(truth)
    total = ref.joint_sub_distribution(desc, [60.0], [60.0]).sum()
    assert total == pytest.approx(1.0, abs=1e-9)


def test_recovered_check():
    target = inputs.recovery_target(fk)
    truth = ref.describe(target)
    assert ref.check_recovered(truth, truth) == []

    off_hazard = ref.describe(_with_hazard(target, (1, 2), alpha=1.0 * 1.02))
    assert ref.check_recovered(off_hazard, truth)

    st = target.structure
    g = fk.DiscreteFrailty(st, np.array(target.frailty.atoms) * [[1.0], [1.02]],
                           target.frailty.weights)
    off_atoms = ref.describe(fk.ModelSpec(st, dict(target.hazards), g,
                                          require_unit_mean=False))
    assert ref.check_recovered(off_atoms, truth)
