"""Simulation: exactness against closed forms, determinism, CSV handling."""

import io

import numpy as np
import pytest

from frailtykit import (
    normalize_to_unit_mean,
    BivariateObservation,
    DiscreteFrailty,
    Family,
    FrailtyKind,
    FrailtyStructure,
    HazardSpec,
    ModelSpec,
    SimConfig,
    dkw_bandwidth,
    marginal_sub_distribution,
    read_dataset_csv,
    simulate_dataset,
    simulate_pair,
    simulate_table,
    write_dataset_csv,
)

from helpers import random_model

E = lambda a: HazardSpec(Family.EXPONENTIAL, 1.0, a)


def exp_model(alphas, atoms=((1.0,),), weights=(1.0,)):
    structure = FrailtyStructure(FrailtyKind.SHARED, len(alphas), len(alphas))
    g = normalize_to_unit_mean(DiscreteFrailty(structure, atoms, weights))
    specs = [E(a) for a in alphas]
    return ModelSpec.from_lists(structure, specs, specs, g)


def test_single_cause_exponential_mean():
    m = exp_model([1.0])
    table = simulate_table(m, SimConfig(n_pairs=100000, seed=2024))
    t1 = table["t1"]
    # 4 sigma band, sigma = 1/sqrt(n)
    assert abs(t1.mean() - 1.0) < 0.013
    assert np.all(table["d1"]) and np.all(table["d2"])
    assert np.all(table["j1"] >= 1)


def test_cause_fractions():
    m = exp_model([0.3, 0.7])
    table = simulate_table(m, SimConfig(n_pairs=100000, seed=9))
    frac = np.mean(table["j1"] == 1)
    # 4 sigma binomial band at p=0.3
    assert abs(frac - 0.3) < 0.006


def test_shared_frailty_induces_concordance():
    m = exp_model([1.0], atoms=((0.5,), (1.5,)), weights=(0.5, 0.5))
    table = simulate_table(m, SimConfig(n_pairs=100000, seed=31))
    t1, t2 = table["t1"], table["t2"]
    n = 20000
    a, b = t1[:n:2], t2[:n:2]
    c, d = t1[1:n:2], t2[1:n:2]
    # concordance of independent pair draws; positive under shared frailty.
    # the 0.05 floor sits well under the simulated value near 0.126
    tau = np.mean(np.sign((a - c) * (b - d)))
    assert tau > 0.05


def test_empirical_marginals_within_dkw_band():
    m = exp_model([0.4, 0.6], atoms=((0.7,), (1.3,)), weights=(0.5, 0.5))
    n = 40000
    table = simulate_table(m, SimConfig(n_pairs=n, seed=77))
    band = dkw_bandwidth(n, 1e-3)
    grid = np.quantile(table["t1"], np.linspace(0.05, 0.95, 20))
    for j in (1, 2):
        emp = np.array([np.mean((table["t1"] <= t) & (table["j1"] == j))
                        for t in grid])
        ref = np.array([marginal_sub_distribution(m, 1, j, float(t))
                        for t in grid])
        assert np.max(np.abs(emp - ref)) < band


def test_seed_determinism_and_thread_invariance():
    rng = np.random.default_rng(55)
    m = random_model(FrailtyKind.CORRELATED, rng, num_atoms=2)
    cfg = SimConfig(n_pairs=9000, seed=123)
    t_a = simulate_table(m, cfg)
    t_b = simulate_table(m, cfg)
    t_c = simulate_table(m, cfg, threads=4)
    for col in t_a:
        np.testing.assert_array_equal(t_a[col], t_b[col])
        np.testing.assert_array_equal(t_a[col], t_c[col])


def test_full_shards_do_not_depend_on_total_count():
    # each complete 4096-pair shard has its own child stream, so growing
    # the dataset only appends shards; the leading full shards are frozen
    m = exp_model([1.0])
    a = simulate_table(m, SimConfig(n_pairs=5000, seed=4))
    b = simulate_table(m, SimConfig(n_pairs=9000, seed=4))
    np.testing.assert_array_equal(a["t1"][:4096], b["t1"][:4096])
    np.testing.assert_array_equal(a["j2"][:4096], b["j2"][:4096])


def test_censoring_rates():
    m = exp_model([0.3, 0.7])
    r = 0.5
    table = simulate_table(m, SimConfig(n_pairs=60000, seed=13,
                                        censoring_rate=r))
    frac_censored = np.mean(~table["d1"])
    # exposure race: P(censored) = r / (r + alpha_total)
    ref = r / (r + 1.0)
    assert abs(frac_censored - ref) < 4.0 * np.sqrt(ref * (1 - ref) / 60000)
    assert np.all(table["j1"][~table["d1"]] == 0)
    assert np.all(table["j1"][table["d1"]] >= 1)


def test_simulate_pair_and_dataset():
    m = exp_model([1.0])
    rng = np.random.default_rng(8)
    obs = simulate_pair(m, rng)
    assert isinstance(obs, BivariateObservation)
    assert obs.t1 > 0 and obs.d1 and obs.j1 == 1

    data = simulate_dataset(m, SimConfig(n_pairs=5, seed=99))
    assert len(data) == 5
    assert simulate_dataset(m, SimConfig(n_pairs=0, seed=1)) == []


def test_observation_validation():
    with pytest.raises(ValueError):
        BivariateObservation(t1=-1.0, j1=1, d1=True, t2=1.0, j2=1, d2=True)
    with pytest.raises(ValueError):
        BivariateObservation(t1=1.0, j1=0, d1=True, t2=1.0, j2=1, d2=True)
    with pytest.raises(ValueError):
        BivariateObservation(t1=1.0, j1=1, d1=False, t2=1.0, j2=1, d2=True)


def test_csv_round_trip(tmp_path):
    m = exp_model([0.5, 0.5], atoms=((0.8,), (1.2,)), weights=(0.4, 0.6))
    path = tmp_path / "pairs.csv"
    n = write_dataset_csv(m, SimConfig(n_pairs=300, seed=6), str(path))
    assert n == 300
    data = read_dataset_csv(str(path))
    assert len(data) == 300
    ref = simulate_dataset(m, SimConfig(n_pairs=300, seed=6))
    for a, b in zip(data, ref):
        assert a == b


def test_csv_writer_accepts_file_objects():
    m = exp_model([1.0])
    buf = io.StringIO()
    write_dataset_csv(m, SimConfig(n_pairs=3, seed=10), buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "pair_id,t1,j1,d1,t2,j2,d2"
    assert len(lines) == 4


def test_csv_reader_error_lines(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("pair_id,t1,j1,d1,t2,j2,d2\n0,1.0,1,1,2.0,1\n")
    with pytest.raises(ValueError, match="line 2"):
        read_dataset_csv(str(path))
    path.write_text("t1,j1\n")
    with pytest.raises(ValueError, match="header"):
        read_dataset_csv(str(path))
    path.write_text("pair_id,t1,j1,d1,t2,j2,d2\n0,zebra,1,1,2.0,1,1\n")
    with pytest.raises(ValueError, match="line 2"):
        read_dataset_csv(str(path))


def test_dkw_bandwidth_formula():
    assert abs(dkw_bandwidth(100000, 1e-3)
               - np.sqrt(np.log(2.0 / 1e-3) / (2.0 * 100000))) < 1e-15
    with pytest.raises(ValueError):
        dkw_bandwidth(0, 0.5)
    with pytest.raises(ValueError):
        dkw_bandwidth(10, 1.5)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_pairs=-1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(n_pairs=10, seed=0, censoring_rate=-0.5)


def test_csv_reader_rejects_non_finite_times_and_bad_flags(tmp_path):
    path = tmp_path / "bad.csv"
    header = "pair_id,t1,j1,d1,t2,j2,d2\n"
    for row in ("0,nan,1,7,inf,2,1", "0,nan,1,1,2.0,1,1",
                "0,1.0,1,1,inf,1,1", "0,1.0,1,7,2.0,1,1",
                "0,1.0,1,1,2.0,1,-1", "0,1.0,1,1,2.0,1,true"):
        path.write_text(header + "0,1.0,1,1,2.0,1,1\n" + row + "\n")
        with pytest.raises(ValueError, match="line 3"):
            read_dataset_csv(str(path))
    path.write_text(header + "0,1.0,1,1,2.0,0,0\n")
    (obs,) = read_dataset_csv(str(path))
    assert obs.d1 is True and obs.d2 is False
