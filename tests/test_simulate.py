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
    ObservationColumns,
    SimConfig,
    cumulative_hazard,
    dkw_bandwidth,
    marginal_sub_distribution,
    read_dataset_csv,
    simulate_dataset,
    simulate_pair,
    simulate_table,
    write_dataset_csv,
)

from frailtykit import hazards
from frailtykit.simulate import SHARD_SIZE, _invert_total_load

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
    # gamma causes only: full shards take the lower-tail series
    m_gamma = random_model(FrailtyKind.CORRELATED, rng, num_atoms=2,
                           families=(Family.GAMMA,))
    cfg = SimConfig(n_pairs=9000, seed=123)
    for model in (m, m_gamma):
        t_a = simulate_table(model, cfg)
        t_b = simulate_table(model, cfg)
        t_c = simulate_table(model, cfg, threads=4)
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


def test_dataset_rows_equal_a_per_field_construction_from_the_table():
    m = random_model(FrailtyKind.CORRELATED, np.random.default_rng(3))
    cfg = SimConfig(n_pairs=SHARD_SIZE + 7, seed=5, censoring_rate=0.4)
    table = simulate_table(m, cfg)
    ref = [
        BivariateObservation(
            t1=float(table["t1"][i]), j1=int(table["j1"][i]),
            d1=bool(table["d1"][i]),
            t2=float(table["t2"][i]), j2=int(table["j2"][i]),
            d2=bool(table["d2"][i]))
        for i in range(cfg.n_pairs)
    ]
    got = simulate_dataset(m, cfg)
    assert got == ref
    fields = ("t1", "j1", "d1", "t2", "j2", "d2")
    for obs in got + [simulate_pair(m, 8, censoring_rate=0.4)]:
        assert tuple(type(getattr(obs, f)) for f in fields) == (
            float, int, bool, float, int, bool)


def test_simulate_pair_is_the_one_pair_dataset_of_its_seed():
    m = random_model(FrailtyKind.CORRELATED, np.random.default_rng(3))
    seed = int(np.random.default_rng(8).integers(0, 2 ** 63))
    assert simulate_pair(m, np.random.default_rng(8)) == simulate_dataset(
        m, SimConfig(n_pairs=1, seed=seed))[0]
    assert simulate_pair(m, 8, censoring_rate=0.4) == simulate_dataset(
        m, SimConfig(n_pairs=1, seed=8, censoring_rate=0.4))[0]


@pytest.mark.parametrize("seed, rate", [
    (1, -1.0), (1, np.nan), (2.7, 0.0), (True, 0.0)])
def test_simulate_pair_checks_its_seed_and_censoring_rate(seed, rate):
    with pytest.raises(ValueError):
        simulate_pair(exp_model([1.0]), seed, censoring_rate=rate)


@pytest.mark.parametrize("threads", [0, -3, 2.5, True])
def test_simulation_rejects_a_thread_count_below_one_or_not_an_integer(
        threads):
    m, cfg = exp_model([1.0]), SimConfig(n_pairs=10, seed=1)
    for run in (simulate_table, simulate_dataset,
                lambda m, cfg, threads: write_dataset_csv(
                    m, cfg, io.StringIO(), threads=threads)):
        with pytest.raises(ValueError, match="threads"):
            run(m, cfg, threads=threads)


@pytest.mark.parametrize("kwargs", [
    {"n_pairs": 2.5, "seed": 0},
    {"n_pairs": True, "seed": 0},
    {"n_pairs": np.float64(3.0), "seed": 0},
    {"n_pairs": 10, "seed": 1.5},
    {"n_pairs": 10, "seed": "7"},
    {"n_pairs": 10, "seed": 2 ** 64},
    {"n_pairs": 10, "seed": 0, "censoring_rate": np.nan},
    {"n_pairs": 10, "seed": 0, "censoring_rate": np.inf},
])
def test_config_rejects_non_integer_counts_and_seeds_and_non_finite_rates(
        kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


def test_config_accepts_numpy_integers():
    cfg = SimConfig(n_pairs=np.int64(3), seed=np.uint64(2 ** 64 - 1))
    assert len(simulate_table(exp_model([1.0]), cfg)["t1"]) == 3


@pytest.mark.parametrize("n", [np.nan, 2.5, 10.0, True])
def test_dkw_bandwidth_rejects_a_count_that_is_not_an_integer(n):
    with pytest.raises(ValueError):
        dkw_bandwidth(n, 0.5)


def test_observation_validation():
    with pytest.raises(ValueError):
        BivariateObservation(t1=-1.0, j1=1, d1=True, t2=1.0, j2=1, d2=True)
    with pytest.raises(ValueError):
        BivariateObservation(t1=1.0, j1=0, d1=True, t2=1.0, j2=1, d2=True)
    with pytest.raises(ValueError):
        BivariateObservation(t1=1.0, j1=1, d1=False, t2=1.0, j2=1, d2=True)


@pytest.mark.contract
@pytest.mark.parametrize("j", [1.0, 1.5, np.float64(2.0), True, "1"])
def test_observation_rejects_a_cause_label_that_is_not_an_integer(j):
    # fit_mle's int64 cause column would truncate 1.5 to cause 1
    with pytest.raises(ValueError, match="cause labels must be integers"):
        BivariateObservation(1.0, 1, True, 2.0, j, True)
    with pytest.raises(ValueError, match="cause labels must be integers"):
        BivariateObservation(1.0, j, True, 2.0, 1, True)
    assert BivariateObservation(1.0, np.int64(2), True, 2.0, 1, True).j1 == 2


_BAD_CELLS = [("j1", -1, "cause labels are nonnegative"),
              ("j2", -3, "cause labels are nonnegative"),
              ("j1", 0, "cause 0 must pair with a censoring flag"),
              ("j2", 1.5, "cause labels must be integers"),
              ("t1", 0.0, "finite and strictly positive"),
              ("t2", -1.0, "finite and strictly positive"),
              ("t1", np.inf, "finite and strictly positive")]


@pytest.mark.contract
@pytest.mark.parametrize("key, value, message", _BAD_CELLS)
def test_observation_columns_reject_what_an_observation_rejects(key, value,
                                                              message):
    # fit_mle gathers its rates by cause: a negative one would wrap into
    # another cause's row
    table = simulate_table(exp_model([0.4, 0.6]), SimConfig(n_pairs=200,
                                                            seed=1))
    columns = {k: table[k].astype(type(value)) if k == key else table[k]
               for k in ("t1", "j1", "d1", "t2", "j2", "d2")}
    columns[key][17] = value
    with pytest.raises(ValueError, match=message):
        ObservationColumns(columns)
    with pytest.raises(ValueError, match=message):
        BivariateObservation(**{k: col[17].item()
                                for k, col in columns.items()})


def test_observation_columns_reject_columns_of_unequal_length():
    columns = {"t1": [1.0, 2.0], "j1": [1, 1], "d1": [True, True],
               "t2": [1.0], "j2": [1], "d2": [True]}
    with pytest.raises(ValueError, match="1-D arrays of one length"):
        ObservationColumns(columns)


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


def test_csv_rows_match_a_per_row_reference_across_a_chunk_boundary():
    m = random_model(FrailtyKind.CORRELATED_CAUSE_SPECIFIC,
                     np.random.default_rng(41))
    cfg = SimConfig(n_pairs=SHARD_SIZE + 4, seed=12, censoring_rate=0.3)
    buf = io.StringIO()
    write_dataset_csv(m, cfg, buf, record_atoms=True)
    table = simulate_table(m, cfg, record_atoms=True)
    assert 0 < np.mean(~table["d1"]) < 1
    ref = ["pair_id,t1,j1,d1,t2,j2,d2,atom_id"]
    for i in range(cfg.n_pairs):
        ref.append(f"{i},{table['t1'][i]:.17g},{table['j1'][i]},"
                   f"{int(table['d1'][i])},{table['t2'][i]:.17g},"
                   f"{table['j2'][i]},{int(table['d2'][i])},"
                   f"{table['atom_id'][i]}")
    assert buf.getvalue() == "\n".join(ref) + "\n"


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


@pytest.mark.contract
def test_csv_reader_returns_a_read_only_sequence_of_observations(tmp_path):
    m = exp_model([0.5, 0.5], atoms=((0.8,), (1.2,)), weights=(0.4, 0.6))
    cfg = SimConfig(n_pairs=40, seed=8, censoring_rate=0.6)
    path = tmp_path / "pairs.csv"
    write_dataset_csv(m, cfg, str(path), record_atoms=True)
    data = read_dataset_csv(str(path))
    ref = simulate_dataset(m, cfg)
    assert len(data) == 40 and bool(data)
    assert list(data) == ref and data == ref and ref == data
    assert data[0] == ref[0] and data[-1] == ref[-1]
    assert data[3:7] == ref[3:7] and len(data[3:7]) == 4
    assert data != ref[:-1] and data != tuple(ref)
    with pytest.raises(IndexError):
        data[40]
    flags = [o.d1 for o in data] + [data[i].d2 for i in range(len(data))]
    assert True in flags and False in flags
    assert all(type(d) is bool for d in flags)
    obs = data[5]
    assert (type(obs.t1), type(obs.j1)) == (float, int)
    with pytest.raises(ValueError):
        data.columns["t1"][0] = 1.0
    assert not hasattr(data, "append")


@pytest.mark.contract
@pytest.mark.parametrize("early, late", [
    ("0,1.0,1,1,2.0,x,1", "0,zebra,1,1,2.0,1,1"),
    ("0,zebra,1,1,2.0,1,1", "0,1.0,1,1,2.0,x,1"),
    ("0,1.0,1,1,-2.0,1,1", "0,1.0,1,7,2.0,1,1"),
    ("0,1.0,1,1,2.0,1,7", "0,1.0,1,1,2.0,1"),
    ("0,1.0,-1,0,2.0,1,1", "0,1.0,1,1,nan,1,1"),
])
def test_csv_reader_reports_the_first_bad_row_in_line_order(tmp_path, early,
                                                            late):
    # bad values in different columns: the earlier line wins
    path = tmp_path / "bad.csv"
    good = "0,1.0,1,1,2.0,1,1\n"
    path.write_text("pair_id,t1,j1,d1,t2,j2,d2\n" + good + early + "\n"
                    + good + late + "\n")
    with pytest.raises(ValueError, match="^line 3: "):
        read_dataset_csv(str(path))


@pytest.mark.contract
def test_csv_reader_keeps_line_numbers_across_blank_lines(tmp_path):
    path = tmp_path / "pairs.csv"
    header = "pair_id,t1,j1,d1,t2,j2,d2\n"
    path.write_text(header + "0,1.0,1,1,2.0,1,1\n\n  \n1,3.0,2,1,4.0,0,0\n")
    assert read_dataset_csv(str(path)) == [
        BivariateObservation(1.0, 1, True, 2.0, 1, True),
        BivariateObservation(3.0, 2, True, 4.0, 0, False)]
    path.write_text(header + "0,1.0,1,1,2.0,1,1\n\n  \n1,3.0,2,1,4.0,0,1\n")
    with pytest.raises(ValueError, match="^line 5: cause 0"):
        read_dataset_csv(str(path))
    # a label that does not fit the int64 cause column
    path.write_text(header + "\n0,1.0,1,1,2.0,%d,1\n" % 2 ** 63)
    with pytest.raises(ValueError, match="^line 3: cause labels"):
        read_dataset_csv(str(path))


@pytest.mark.contract
def test_csv_reader_reads_a_header_only_file_as_empty(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("pair_id,t1,j1,d1,t2,j2,d2\n\n")
    data = read_dataset_csv(str(path))
    assert len(data) == 0 and data == [] and list(data) == []


def _bisected_load_root(specs, eps, target):
    """Reference root of sum_j eps[:, j] H_j(t) = target by bisection:
    first on log t between the smallest normal double and 1e300, then on t
    itself, which resolves the root to the last ulp at any magnitude."""
    def above(t):
        with np.errstate(over="ignore"):
            load = sum(eps[:, j] * cumulative_hazard(sp, t)
                       for j, sp in enumerate(specs))
        return load >= target

    lo = np.full(target.shape, np.log(np.finfo(float).tiny))
    hi = np.full(target.shape, np.log(1e300))
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        up = above(np.exp(mid))
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    lo = np.maximum(np.exp(lo) * (1 - 1e-9), np.finfo(float).tiny)
    hi = np.exp(hi) * (1 + 1e-9)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        up = above(mid)
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    return 0.5 * (lo + hi)


_LOAD_SPECS = {
    "exponential": [HazardSpec(Family.EXPONENTIAL, 1.0, 0.4)],
    "weibull": [HazardSpec(Family.WEIBULL, 1.4, 0.6)],
    "gamma": [HazardSpec(Family.GAMMA, 1.6, 0.8)],
    "loglogistic": [HazardSpec(Family.LOGLOGISTIC, 2.2, 0.5)],
    "mixed": [HazardSpec(Family.GAMMA, 1.6, 0.8),
              HazardSpec(Family.LOGLOGISTIC, 2.2, 0.5),
              HazardSpec(Family.WEIBULL, 1.4, 0.6),
              HazardSpec(Family.EXPONENTIAL, 1.0, 0.4)],
    "weibull_small_gamma": [HazardSpec(Family.WEIBULL, 0.5, 1.3)],
    "gamma_small_gamma": [HazardSpec(Family.GAMMA, 0.3, 2.0)],
    "loglogistic_small_gamma": [HazardSpec(Family.LOGLOGISTIC, 0.6, 0.7)],
    "mixed_small_gamma": [HazardSpec(Family.GAMMA, 0.4, 1.1),
                          HazardSpec(Family.WEIBULL, 0.7, 0.5)],
}


@pytest.mark.parametrize("name", sorted(_LOAD_SPECS))
def test_newton_load_inversion_matches_bisection(name):
    specs = _LOAD_SPECS[name]
    targets = [1e-300, 1e-12, 0.3, 1.0, 4.0, 700.0]
    if min(sp.gamma for sp in specs) < 1.0:
        # the root of t**g = 1e-300 lies below the double range
        targets.remove(1e-300)
    if name == "loglogistic_small_gamma":
        # log(1 + a t**0.6) = 700 at t = 1e507
        targets[-1] = 300.0
    rng = np.random.default_rng(len(name))
    eps = rng.uniform(1.0, 2.0, size=(len(targets) * 8, len(specs)))
    target = np.repeat(targets, 8) * rng.uniform(1.0, 1.1, size=eps.shape[0])
    target[::8] = targets
    got = _invert_total_load(specs, eps, target)
    ref = _bisected_load_root(specs, eps, target)
    # at extreme t the load evaluates exp and log of arguments about |log t|
    # in size and carries that many ulp of rounding; a root of it moves by
    # that over the log-log slope, which is about gamma
    g_min = min(sp.gamma for sp in specs)
    tol = 1e-14 + 1e-15 * np.abs(np.log(ref)) / g_min
    assert np.all(np.abs(got - ref) <= tol * ref)


def test_load_inversion_reports_roots_outside_the_double_range():
    # H = log(1 + t**0.05) reaches 700 only far beyond 1e300
    flat = [HazardSpec(Family.LOGLOGISTIC, 0.05, 1.0)]
    with pytest.raises(RuntimeError, match="bracket"):
        _invert_total_load(flat, np.ones((1, 1)), np.array([700.0]))
    # t**0.5 = 1e-300 has its root at 1e-600: the smallest normal double
    # comes back, positive and finite
    steep = [HazardSpec(Family.WEIBULL, 0.5, 1.0)]
    t = _invert_total_load(steep, np.ones((1, 1)), np.array([1e-300]))
    assert 0.0 < t[0] <= 1.000001 * np.finfo(float).tiny


@pytest.mark.parametrize("g", [1.0, 2.0])
def test_load_inversion_is_exact_for_power_loads(g):
    # eps * a * t**g = target has the root (target / (eps a))**(1/g), exact
    # to an ulp or two for g = 1 and 2 at any magnitude
    family = Family.EXPONENTIAL if g == 1.0 else Family.WEIBULL
    specs = [HazardSpec(family, g, 0.6)]
    rng = np.random.default_rng(3)
    target = np.repeat([1e-300, 1e-12, 1.0, 700.0], 16)
    eps = rng.uniform(0.4, 2.0, size=(target.size, 1))
    got = _invert_total_load(specs, eps, target)
    ref = (target / (eps[:, 0] * 0.6)) ** (1.0 / g)
    assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * ref)


@pytest.mark.contract
def test_load_inversion_converges_in_a_few_newton_steps(monkeypatch):
    # the draw of a shard: exponential targets, one load per atom row
    calls = []
    kernel = hazards._log_hazard_and_cumulative
    monkeypatch.setattr(hazards, "_log_hazard_and_cumulative",
                        lambda sp, t: calls.append(t.size) or kernel(sp, t))
    specs = _LOAD_SPECS["mixed"]
    rng = np.random.default_rng(8)
    eps = rng.uniform(0.4, 2.0, size=(3, len(specs)))[
        rng.integers(3, size=SHARD_SIZE)]
    _invert_total_load(specs, eps, rng.exponential(size=SHARD_SIZE))
    # one load evaluation per step; the bisection it replaced took about 50
    assert 0 < len(calls) // len(specs) <= 8
