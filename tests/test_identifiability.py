"""Separation probes, confounding certificate, recovery, MLE."""

import math
import warnings

import numpy as np
import pytest

from frailtykit import (
    BivariateObservation,
    DiscreteFrailty,
    Family,
    FrailtyKind,
    FrailtyStructure,
    HazardSpec,
    ModelSpec,
    ProbeGrid,
    QuadratureConfig,
    SimConfig,
    Verdict,
    canonicalize,
    cumulative_hazard,
    default_probe_grid,
    fit_mle,
    frailty_close,
    hazard_rate,
    inverse_cumulative_hazard,
    joint_sub_density,
    joint_survival,
    limit_identity_check,
    lst,
    lst_sequence_test,
    normalize_to_unit_mean,
    probe_models,
    recover_from_model,
    recover_parameters,
    scale_confounding_transform,
    simulate_dataset,
    simulate_table,
    sub_distribution_distance,
)
from frailtykit import identifiability as ident
from frailtykit import model as md
from frailtykit._incgamma import log_gammainc_upper
from frailtykit._quad import QuadratureError
from frailtykit.identifiability import (
    _Parametrization,
    _Residuals,
    _dataset_arrays,
    _log_likelihood,
    _sequence_loads,
    target_tensor,
)

from helpers import (
    ALL_FAMILIES,
    ALL_KINDS,
    perturb_frailty,
    perturb_model,
    random_hazard,
    random_model,
)

W = lambda g, a: HazardSpec(Family.WEIBULL, g, a)
E = lambda a: HazardSpec(Family.EXPONENTIAL, 1.0, a)


def shared(atoms, weights, specs, require=True):
    st = FrailtyStructure(FrailtyKind.SHARED, len(specs), len(specs))
    g = DiscreteFrailty(st, np.asarray(atoms, float).reshape(-1, 1), weights)
    return ModelSpec.from_lists(st, specs, specs, g,
                                require_unit_mean=require)


@pytest.fixture
def benchmark_pair():
    specs = [W(1.5, 0.5), W(0.8, 1.0)]
    ma = shared([1.0], [1.0], specs)
    mb = shared([0.6, 1.4], [0.5, 0.5], specs)
    return ma, mb


def test_probe_grid_validation():
    with pytest.raises(ValueError):
        ProbeGrid((0.1, 0.2, 0.3, 0.4), (0.1, 0.2, 0.3, 0.4, 0.5))
    with pytest.raises(ValueError):
        ProbeGrid((0.1, 0.2, 0.2, 0.3, 0.4), (0.1, 0.2, 0.3, 0.4, 0.5))
    grid = ProbeGrid((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
    assert grid.t1_points == (1.0, 2.0, 3.0, 4.0, 5.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_probe_grid_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="finite"):
        ProbeGrid((0.1, 0.2, 0.3, 0.4, bad), (0.1, 0.2, 0.3, 0.4, 0.5))
    with pytest.raises(ValueError, match="finite"):
        ProbeGrid((0.1, 0.2, 0.3, 0.4, 0.5), (bad, 0.2, 0.3, 0.4, 0.5))


def test_default_grid_hits_quantile_levels(benchmark_pair):
    ma, _ = benchmark_pair
    grid = default_probe_grid(ma)
    assert len(grid.t1_points) >= 5
    levels = [1.0 - joint_survival(ma, t, t) for t in grid.t1_points]
    np.testing.assert_allclose(
        levels, [0.1, 0.25, 0.5, 0.75, 0.9, 0.99], rtol=1e-9)


def test_identical_models_indistinguishable(benchmark_pair):
    _, mb = benchmark_pair
    grid = default_probe_grid(mb)
    assert sub_distribution_distance(mb, mb, grid) < 1e-12
    report = probe_models(mb, mb, grid)
    assert report.verdict is Verdict.INDISTINGUISHABLE
    assert report.lst_sequence_gap == 0.0


def test_point_mass_versus_two_atoms_separates(benchmark_pair):
    ma, mb = benchmark_pair
    grid = default_probe_grid(ma)
    d = sub_distribution_distance(ma, mb, grid)
    assert d > 1e-4
    report = probe_models(ma, mb, grid)
    assert report.verdict is Verdict.SEPARATED
    assert report.sup_distance == d
    assert max(report.limit_residuals["a"]) < 1e-9
    assert report.per_pair[(1, 1)] <= d


def test_scale_confounding_is_invisible(benchmark_pair):
    _, mb = benchmark_pair
    grid = default_probe_grid(mb)
    q = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-13)
    for c in (0.5, 2.0, 5.0):
        mc = scale_confounding_transform(mb, c)
        assert abs(np.mean(mc.frailty.atoms) / np.mean(mb.frailty.atoms)
                   - c) < 1e-12
        assert sub_distribution_distance(mb, mc, grid, q) < 1e-9


def test_confounding_transform_guards():
    m = shared([1.0], [1.0], [E(0.5), HazardSpec(Family.GAMMA, 2.0, 1.0)])
    with pytest.raises(ValueError):
        scale_confounding_transform(m, 2.0)
    m2 = shared([1.0], [1.0], [W(1.5, 0.5), W(0.8, 1.0)])
    with pytest.raises(ValueError):
        scale_confounding_transform(m2, -1.0)


def test_limit_identity_residuals(benchmark_pair):
    _, mb = benchmark_pair
    res = limit_identity_check(mb)
    for key, values in res.items():
        assert values[0] > values[1] > values[2]

    # every hazard with gamma >= 1: residual is O(alpha t E[eps^2])
    m_fast = shared([0.6, 1.4], [0.5, 0.5], [W(1.5, 0.5), W(1.0, 1.0)])
    res = limit_identity_check(m_fast)
    assert all(v[2] < 1e-5 for v in res.values())

    # degenerate frailty: the tilted mean equals exp(-total load)
    m0 = shared([1.0], [1.0], [E(0.3), E(0.7)])
    res = limit_identity_check(m0, times=(0.5,))
    expected = 1.0 - np.exp(-0.5)
    assert abs(res[(1, 1)][0] - expected) < 1e-12

    # mean-2 mixture: residual tends to |mean - 1| = 1, not 0
    g2 = DiscreteFrailty(m0.structure, [[2.0]], [1.0])
    m2 = ModelSpec(m0.structure, dict(m0.hazards), g2,
                   require_unit_mean=False)
    res = limit_identity_check(m2, times=(1e-2, 1e-6))
    assert abs(res[(1, 1)][1] - 1.0) < 1e-4


def test_lst_sequence_known_gap():
    st = FrailtyStructure(FrailtyKind.SHARED, 2, 2)
    g1 = DiscreteFrailty(st, [[1.0]], [1.0])
    g2 = DiscreteFrailty(st, [[0.5], [1.5]], [0.5, 0.5])
    gap = lst_sequence_test(g1, g2, n_max=1)
    ref = abs(np.exp(-1.0) - 0.5 * (np.exp(-0.5) + np.exp(-1.5)))
    assert abs(gap - ref) < 1e-15
    assert abs(gap - 0.046951) < 1e-6

    # relabeled atoms: exactly zero, not merely small
    g3 = DiscreteFrailty(st, [[1.5], [0.5]], [0.5, 0.5])
    assert lst_sequence_test(g2, g3, n_max=10) == 0.0


def test_lst_sequence_distinct_three_atom_laws():
    rng = np.random.default_rng(3)
    st = FrailtyStructure(FrailtyKind.SHARED, 2, 2)
    for _ in range(25):
        a = normalize_to_unit_mean(DiscreteFrailty(
            st, rng.uniform(0.4, 2.0, (3, 1)), [1 / 3] * 3))
        b = normalize_to_unit_mean(DiscreteFrailty(
            st, rng.uniform(0.4, 2.0, (3, 1)), [1 / 3] * 3))
        if frailty_close(a, b):
            continue
        assert lst_sequence_test(a, b, n_max=20) > 1e-9


@pytest.mark.parametrize("n_max", [True, 2.5, 0])
def test_lst_sequence_rejects_a_step_count_that_is_not_a_positive_int(n_max):
    st = FrailtyStructure(FrailtyKind.SHARED, 2, 2)
    g = DiscreteFrailty(st, [[1.0]], [1.0])
    with pytest.raises(ValueError, match="n_max"):
        lst_sequence_test(g, g, n_max=n_max)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sequence_loads_on_an_array_equal_the_stacked_steps(kind):
    rng = np.random.default_rng(23)
    # each individual's first cause, which the sequence inverts, is of a
    # different family; gamma inverts through gammaincinv
    families = {(1, 1): Family.GAMMA, (1, 2): Family.LOGLOGISTIC,
                (2, 1): Family.LOGLOGISTIC, (2, 2): Family.GAMMA}
    m = ModelSpec(FrailtyStructure(kind, 2, 2),
                  {key: random_hazard(rng, (fam,))
                   for key, fam in families.items()},
                  random_model(kind, rng).frailty)
    steps = np.arange(1, 31)
    s = _sequence_loads(m.structure, m.hazards, steps)
    assert s.shape == (steps.size, m.structure.dimension)
    ref = np.stack([_sequence_loads(m.structure, m.hazards, int(n))
                    for n in steps])
    assert np.array_equal(s, ref)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_lst_sequence_matches_a_per_step_reference(kind):
    rng = np.random.default_rng(29)
    for _ in range(5):
        m = random_model(kind, rng)
        gb = perturb_frailty(m, rng).frailty
        ca, cb = canonicalize(m.frailty), canonicalize(gb)
        ref = 0.0
        for n in range(1, 21):
            s = _sequence_loads(m.structure, m.hazards, n)
            ref = max(ref, abs(lst(ca, s) - lst(cb, s)))
        gap = lst_sequence_test(m.frailty, gb, n_max=20, hazards=m.hazards)
        assert ref > 0.0
        assert abs(gap - ref) <= 1e-16


def test_lst_sequence_cause_specific_needs_hazards():
    st = FrailtyStructure(FrailtyKind.SHARED_CAUSE_SPECIFIC, 2, 2)
    g1 = DiscreteFrailty(st, [[0.8, 1.2], [1.2, 0.8]], [0.5, 0.5])
    g2 = DiscreteFrailty(st, [[1.0, 1.0]], [1.0])
    with pytest.raises(ValueError):
        lst_sequence_test(g1, g2)
    hz = {(1, 1): W(1.5, 0.5), (1, 2): W(0.8, 1.0),
          (2, 1): W(1.5, 0.5), (2, 2): W(0.8, 1.0)}
    assert lst_sequence_test(g1, g2, hazards=hz) > 1e-9

    # the argument sequence pushes m = n/(n+1) through the first cause:
    # coordinate 1 carries 2m, coordinate 2 carries both individuals'
    # second-cause loads at the matching time
    s = _sequence_loads(st, hz, 1)
    t_star = inverse_cumulative_hazard(hz[(1, 1)], 0.5)
    assert abs(s[0] - 1.0) < 1e-12
    assert abs(s[1] - 2.0 * cumulative_hazard(hz[(1, 2)], t_star)) < 1e-12


def test_perturbation_pairs_separate_in_all_structures():
    rng = np.random.default_rng(11)
    for kind in ALL_KINDS:
        for _ in range(3):
            m = random_model(kind, rng, num_atoms=2,
                             gamma_range=(1.0, 2.5), alpha_range=(0.3, 1.2))
            for other in (perturb_model(m, rng), perturb_frailty(m, rng)):
                report = probe_models(m, other)
                assert report.verdict is Verdict.SEPARATED, kind


def test_recovery_early_exit(benchmark_pair):
    _, mb = benchmark_pair
    grid = default_probe_grid(mb)
    res = recover_parameters(target_tensor(mb, grid), grid, mb, budget=50)
    assert res.evaluations == 1
    assert res.converged
    assert res.objective == 0.0


def test_recovery_benchmark(benchmark_pair):
    _, target = benchmark_pair
    init = shared([0.6 * 1.3, 1.4 * 1.3], [0.5, 0.5],
                  [W(1.5 * 1.3, 0.5 * 1.3), W(0.8 * 1.3, 1.0 * 1.3)],
                  require=False)
    res, _ = recover_from_model(target, init, budget=20000, seed=0)
    assert res.converged
    assert res.evaluations <= 20000
    assert res.distance < 1e-6
    for key in target.hazards:
        ts, fs = target.hazard(*key), res.model.hazard(*key)
        assert abs(fs.gamma - ts.gamma) < 1e-2 * ts.gamma
        assert abs(fs.alpha - ts.alpha) < 1e-2 * ts.alpha
    ct = canonicalize(target.frailty)
    cf = canonicalize(res.model.frailty)
    assert np.max(np.abs(cf.atoms - ct.atoms)) < 2e-2


def test_unconstrained_recovery_finds_the_confounded_ridge(benchmark_pair):
    _, target = benchmark_pair
    grid = default_probe_grid(target)
    tensor = target_tensor(target, grid)
    scales = []
    for c in (1.25, 0.8):
        init = shared([0.6 * c, 1.4 * c], [0.5, 0.5],
                      [W(1.5, 0.5 / c), W(0.8, 1.0 / c)], require=False)
        res = recover_parameters(tensor, grid, init, budget=6000, seed=1,
                                 enforce_unit_mean=False)
        assert res.distance < 1e-8
        scales.append(float(np.mean(res.model.frailty.atoms)))
    # same surface, different frailty scale: the ridge the mean-1 rule removes
    assert abs(scales[0] - scales[1]) > 0.1 * min(scales)


def _recovery_start(seed):
    """Every parameter of the benchmark model times 1.3 * (1 + u), |u| <= 0.05."""
    f = 1.3 * (1.0 + 0.05 * np.random.default_rng(seed).uniform(-1, 1, 6))
    return shared([0.6 * f[0], 1.4 * f[1]], [0.5, 0.5],
                  [W(1.5 * f[2], 0.5 * f[3]), W(0.8 * f[4], 1.0 * f[5])],
                  require=False)


@pytest.mark.parametrize("seed", range(5))
def test_least_squares_recovery_reaches_machine_precision(benchmark_pair,
                                                          seed):
    _, target = benchmark_pair
    res, _ = recover_from_model(target, _recovery_start(seed), budget=300)
    assert res.converged
    assert res.evaluations <= 300
    assert res.distance < 1e-12
    for key in target.hazards:
        ts, fs = target.hazard(*key), res.model.hazard(*key)
        assert abs(fs.gamma - ts.gamma) < 1e-8 * ts.gamma
        assert abs(fs.alpha - ts.alpha) < 1e-8 * ts.alpha


@pytest.mark.parametrize("budget", [1, 2, 5, 12, 13, 30])
def test_recovery_budget_caps_every_grid_evaluation(benchmark_pair, budget,
                                                    monkeypatch):
    _, target = benchmark_pair
    grid = default_probe_grid(target)
    tensor = target_tensor(target, grid)
    seen = []
    real_grid = md.joint_sub_distribution_grid
    # a Jacobian is no F grid, but costs one evaluation per parameter
    jacobians = []
    real_tangents = md._grid_tangents

    def counting_grid(m, *args):
        fit = real_grid(m, *args)
        r = (fit - tensor).ravel()
        seen.append((m, float(r @ r)))
        return fit

    def counting_tangents(m, *args):
        jacobians.append(_Parametrization(m).size)
        return real_tangents(m, *args)

    monkeypatch.setattr(md, "joint_sub_distribution_grid", counting_grid)
    monkeypatch.setattr(md, "_grid_tangents", counting_tangents)
    res = recover_parameters(tensor, grid, _recovery_start(0), budget=budget)
    assert res.evaluations == len(seen) + sum(jacobians) <= budget
    assert not res.converged
    # the result is the best point evaluated, reported without a new grid
    best_model, best_value = min(seen, key=lambda item: item[1])
    assert res.objective == best_value
    assert md.model_to_dict(res.model) == md.model_to_dict(best_model)


@pytest.mark.contract
@pytest.mark.parametrize("failure", ["raise", "nan", "quadrature"])
def test_recovery_survives_points_where_the_grid_fails(benchmark_pair,
                                                       failure, monkeypatch):
    _, target = benchmark_pair
    grid = default_probe_grid(target)
    tensor = target_tensor(target, grid)
    start = _recovery_start(1)
    start_objective = float(np.sum((target_tensor(start, grid) - tensor) ** 2))
    calls = []
    real_grid = md.joint_sub_distribution_grid

    def failing_grid(m, *args):
        calls.append(None)
        if len(calls) % 3:
            return real_grid(m, *args)
        if failure == "raise":
            raise FloatingPointError("overflow in a table")
        if failure == "quadrature":
            raise QuadratureError("worst error estimate nan")
        return np.full(tensor.shape, np.nan)

    monkeypatch.setattr(md, "joint_sub_distribution_grid", failing_grid)
    res = recover_parameters(tensor, grid, start, budget=60)
    # points whose log-atoms overflow never reach the grid but still count
    assert len(calls) <= res.evaluations <= 60
    assert np.isfinite(res.objective)
    assert res.objective < start_objective


@pytest.mark.parametrize("budget", [True, 2.5, 30.0, np.nan, "5"])
def test_recovery_and_mle_reject_a_budget_that_is_not_an_integer(
        benchmark_pair, budget):
    _, target = benchmark_pair
    grid = default_probe_grid(target)
    with pytest.raises(ValueError, match="budget"):
        recover_parameters(target_tensor(target, grid), grid, target,
                           budget=budget)
    m = shared([1.0], [1.0], [E(0.7), E(0.3)])
    data = simulate_dataset(m, SimConfig(n_pairs=20, seed=3))
    with pytest.raises(ValueError, match="budget"):
        fit_mle(data, m.structure, 1, m, budget=budget)
    res = recover_parameters(target_tensor(target, grid), grid, target,
                             budget=np.int64(1))
    assert res.evaluations == 1


def _grid_jacobian_pair(m, enforce_unit_mean, step=1e-4):
    """The exact Jacobian of vec F at m's own parameters, and central
    differences of the tightly converged adaptive F grid."""
    grid = default_probe_grid(m)
    par = _Parametrization(m, enforce_unit_mean)
    theta = par.pack(m)
    zero = np.zeros(target_tensor(m, grid).shape)
    jac = _Residuals(par, grid, zero, budget=10 ** 6).jacobian(theta)
    tight = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-16)
    ref = np.empty_like(jac)
    for i in range(theta.size):
        e = np.zeros(theta.size)
        e[i] = step
        ends = [md.joint_sub_distribution_grid(par.unpack(theta + s),
                                               grid.t1_points,
                                               grid.t2_points, tight)
                for s in (e, -e)]
        ref[:, i] = (ends[0] - ends[1]).ravel() / (2.0 * step)
    return jac, ref


def test_exact_jacobian_matches_central_differences():
    rng = np.random.default_rng(17)
    families = set()
    for i in range(8):
        m = random_model(ALL_KINDS[i % 4], rng, gamma_range=(0.5, 3.0))
        families |= {spec.family for spec in m.hazards.values()}
        jac, ref = _grid_jacobian_pair(m, enforce_unit_mean=i < 4)
        assert np.max(np.abs(jac - ref)) <= 1e-6 * np.max(np.abs(ref))
    assert families == set(ALL_FAMILIES)


def test_jacobian_runs_one_tangent_pass_and_is_free_when_repeated(
        benchmark_pair, monkeypatch):
    _, target = benchmark_pair
    grid = default_probe_grid(target)
    start = _recovery_start(2)
    par = _Parametrization(start)
    residuals = _Residuals(par, grid, target_tensor(target, grid), 100)
    theta = par.pack(start)
    calls = []

    def counting(name):
        real = getattr(md, name)

        def wrapped(*args):
            calls.append(name)
            return real(*args)
        return wrapped

    for name in ("_segment_points", "sub_distribution_table"):
        monkeypatch.setattr(md, name, counting(name))
    jac = residuals.jacobian(theta)
    # one breakpoint solve per tangent table, no adaptive column
    assert calls == ["_segment_points"] * 2
    assert residuals.evaluations == theta.size
    assert residuals.jacobian(theta.copy()) is jac
    assert residuals.evaluations == theta.size
    residuals.jacobian(theta + 1e-3)
    assert residuals.evaluations == 2 * theta.size


def test_a_jacobian_integrates_two_tables_and_no_f_grid(benchmark_pair,
                                                        monkeypatch):
    _, target = benchmark_pair
    grid = default_probe_grid(target)
    start = _recovery_start(2)
    par = _Parametrization(start)
    residuals = _Residuals(par, grid, target_tensor(target, grid), 100)
    calls = []

    def counting(name):
        real = getattr(md, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    for name in ("_cause_curves", "integrate", "sub_distribution_table",
                 "joint_sub_distribution_grid"):
        monkeypatch.setattr(md, name, counting(name))
    residuals.jacobian(par.pack(start))
    # the tables and quadratures the bench trace counts cover a Jacobian
    assert calls == ["_cause_curves", "integrate"] * 2


def _one_atom_and_small_gamma_models():
    st = FrailtyStructure(FrailtyKind.SHARED, 2, 2)
    specs = [HazardSpec(Family.GAMMA, 0.7, 1.2), W(1.5, 0.5)]
    one = ModelSpec.from_lists(st, specs, specs[::-1],
                               DiscreteFrailty(st, [[1.0]], [1.0]))
    specs = [W(0.5, 1.0), HazardSpec(Family.LOGLOGISTIC, 0.8, 0.7)]
    small = ModelSpec.from_lists(st, specs, specs[::-1],
                                 DiscreteFrailty(st, [[0.6], [1.4]],
                                                 [0.5, 0.5]))
    return [one, small]


@pytest.mark.contract
def test_exact_jacobian_matches_tight_central_differences():
    rng = np.random.default_rng(23)
    models = [random_model(kind, rng, gamma_range=(0.5, 3.0))
              for kind in ALL_KINDS] + _one_atom_and_small_gamma_models()
    families = set()
    for m in models:
        families |= {spec.family for spec in m.hazards.values()}
        for enforce_unit_mean in (True, False):
            jac, ref = _grid_jacobian_pair(m, enforce_unit_mean, step=1e-5)
            par = _Parametrization(m, enforce_unit_mean)
            assert jac.shape == (ref.shape[0], par.size)
            assert np.max(np.abs(jac - ref)) <= 1e-7 * np.max(np.abs(ref))
    assert families == set(ALL_FAMILIES)
    assert min(spec.gamma for spec in models[-1].hazards.values()) < 1.0
    assert models[-2].frailty.num_atoms == 1


def test_a_jacobian_that_does_not_fit_the_budget_is_not_started(
        benchmark_pair, monkeypatch):
    _, target = benchmark_pair
    grid = default_probe_grid(target)
    tensor = target_tensor(target, grid)
    start = _recovery_start(3)
    size = _Parametrization(start).size
    tangents = []
    real_tangents = md._grid_tangents

    def counting_tangents(*args):
        tangents.append(None)
        return real_tangents(*args)

    monkeypatch.setattr(md, "_grid_tangents", counting_tangents)
    # the start takes 1 evaluation and leaves size - 1
    res = recover_parameters(tensor, grid, start, budget=size)
    assert (res.evaluations, res.converged, tangents) == (1, False, [])
    res = recover_parameters(tensor, grid, start, budget=size + 1)
    assert (res.evaluations, len(tangents)) == (size + 1, 1)


@pytest.mark.contract
@pytest.mark.parametrize("failure", ["raise", "nan", "quadrature"])
def test_a_jacobian_that_fails_ends_the_recovery_unconverged(
        benchmark_pair, failure, monkeypatch):
    _, target = benchmark_pair
    grid = default_probe_grid(target)
    tensor = target_tensor(target, grid)
    start = _recovery_start(1)

    def failing_tangents(m, points):
        if failure == "raise":
            raise FloatingPointError("overflow in a tangent")
        if failure == "quadrature":
            raise QuadratureError("worst error estimate nan")
        d_hazards, d_eps, d_weights = real_tangents(m, points)
        return d_hazards * np.nan, d_eps, d_weights

    real_tangents = md._grid_tangents
    monkeypatch.setattr(md, "_grid_tangents", failing_tangents)
    res = recover_parameters(tensor, grid, start, budget=300)
    assert not res.converged
    assert res.evaluations == 1 + _Parametrization(start).size
    assert md.model_to_dict(res.model) == md.model_to_dict(
        _Parametrization(start).unpack(_Parametrization(start).pack(start)))


@pytest.mark.parametrize("seed", [0, 4])
def test_recovery_stops_at_its_first_solved_point(benchmark_pair, seed,
                                                  monkeypatch):
    _, target = benchmark_pair
    grid = default_probe_grid(target)
    tensor = target_tensor(target, grid)
    events = []
    real_grid, real_tangents = md.joint_sub_distribution_grid, md._grid_tangents

    def counting_grid(m, *args):
        fit = real_grid(m, *args)
        r = (fit - tensor).ravel()
        events.append((m, float(r @ r)))
        return fit

    def counting_tangents(m, *args):
        events.append((m, None))
        return real_tangents(m, *args)

    monkeypatch.setattr(md, "joint_sub_distribution_grid", counting_grid)
    monkeypatch.setattr(md, "_grid_tangents", counting_tangents)
    res = recover_parameters(tensor, grid, _recovery_start(seed), budget=300)
    values = [value for _, value in events]
    solved = [i for i, v in enumerate(values) if v is not None and v <= 1e-24]
    # nothing, residual or Jacobian, follows the first solved point
    assert solved == [len(events) - 1]
    assert res.converged
    assert res.objective == values[-1] and res.distance <= 1e-12
    assert md.model_to_dict(res.model) == md.model_to_dict(events[-1][0])


def test_recovery_rejects_more_parameters_than_residuals():
    st = FrailtyStructure(FrailtyKind.SHARED, 1, 1)
    atoms = np.linspace(0.5, 1.5, 13).reshape(-1, 1)
    g = DiscreteFrailty(st, atoms, np.full(13, 1.0 / 13))
    m = ModelSpec.from_lists(st, [W(1.5, 0.5)], [W(0.8, 1.0)], g)
    grid = ProbeGrid((0.2, 0.5, 1.0, 1.5, 2.2), (0.2, 0.5, 1.0, 1.5, 2.2))
    with pytest.raises(ValueError, match="25 residuals for 29 parameters"):
        recover_parameters(target_tensor(m, grid), grid, m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_recovery_rejects_a_non_finite_target(benchmark_pair, bad):
    _, target = benchmark_pair
    grid = default_probe_grid(target)
    tensor = target_tensor(target, grid)
    tensor[0, 1, 2, 3] = bad
    with pytest.raises(ValueError, match="target"):
        recover_parameters(tensor, grid, target)


def test_recovery_rejects_a_wrong_target_shape_and_an_empty_budget(
        benchmark_pair):
    _, target = benchmark_pair
    grid = default_probe_grid(target)
    tensor = target_tensor(target, grid)
    with pytest.raises(ValueError, match="shape"):
        recover_parameters(tensor[:, :, :-1], grid, target)
    with pytest.raises(ValueError, match="budget"):
        recover_parameters(tensor, grid, target, budget=0)


def test_mle_exponential_oracle():
    m = shared([1.0], [1.0], [E(0.7), E(0.3)])
    data = simulate_dataset(m, SimConfig(n_pairs=2000, seed=11))
    init = shared([1.0], [1.0], [E(0.5), E(0.5)])
    fit = fit_mle(data, m.structure, 1, init, budget=4000, seed=1)
    times = np.array([o.t1 for o in data] + [o.t2 for o in data])
    causes = np.array([o.j1 for o in data] + [o.j2 for o in data])
    total_time = times.sum()
    for j in (1, 2):
        n_j = int(np.sum(causes == j))
        closed_form = n_j / total_time
        se = np.sqrt(n_j) / total_time
        assert abs(fit.model.hazard(1, j).alpha - closed_form) < 3.0 * se


def test_mle_nested_models_and_label_symmetry():
    truth = shared([0.5, 1.5], [0.5, 0.5], [E(0.6), E(0.4)])
    data = simulate_dataset(truth, SimConfig(n_pairs=600, seed=21))

    init1 = shared([1.0], [1.0], [E(0.5), E(0.5)])
    fit1 = fit_mle(data, truth.structure, 1, init1, budget=2000, seed=0)

    init2 = shared([0.7, 1.3], [0.5, 0.5], [E(0.5), E(0.5)])
    fit2 = fit_mle(data, truth.structure, 2, init2, budget=8000, seed=0)
    # the one-atom model is nested in the two-atom model
    assert fit1.log_likelihood <= fit2.log_likelihood + 1e-6

    init2p = shared([1.3, 0.7], [0.5, 0.5], [E(0.5), E(0.5)])
    fit2p = fit_mle(data, truth.structure, 2, init2p, budget=8000, seed=0)
    assert abs(fit2.log_likelihood - fit2p.log_likelihood) < 1e-6
    assert frailty_close(canonicalize(fit2.model.frailty),
                         canonicalize(fit2p.model.frailty), tol=1e-3)


@pytest.mark.parametrize("budget", [0, -5])
def test_mle_rejects_a_budget_below_one(budget):
    m = shared([1.0], [1.0], [E(0.7), E(0.3)])
    data = simulate_dataset(m, SimConfig(n_pairs=20, seed=3))
    with pytest.raises(ValueError, match="budget"):
        fit_mle(data, m.structure, 1, m, budget=budget)
    assert fit_mle(data, m.structure, 1, m, budget=1).evaluations == 1


@pytest.mark.parametrize("budget", [1, 25])
def test_mle_counts_every_likelihood_evaluation(budget, monkeypatch):
    # the start is evaluated once, and that evaluation counts
    truth = shared([0.5, 1.5], [0.5, 0.5], [E(0.6), E(0.4)])
    data = simulate_dataset(truth, SimConfig(n_pairs=50, seed=5))
    init = shared([0.7, 1.3], [0.5, 0.5], [E(0.5), E(0.5)])
    calls = []
    real_log_likelihood = ident._log_likelihood

    def counting(*args):
        calls.append(1)
        return real_log_likelihood(*args)

    monkeypatch.setattr(ident, "_log_likelihood", counting)
    res = fit_mle(data, truth.structure, 2, init, budget=budget)
    assert res.evaluations == len(calls) == budget


def test_mle_runs_where_the_log_likelihood_is_positive():
    # rates of 50 and 30 put the densities far above 1, so the minimized
    # -log L / n is negative from the start; the fit must still search
    m = shared([1.0], [1.0], [E(50.0), E(30.0)])
    data = simulate_dataset(m, SimConfig(n_pairs=500, seed=1))
    init = shared([1.0], [1.0], [E(20.0), E(80.0)])
    fit = fit_mle(data, m.structure, 1, init, budget=2000, seed=0)
    assert fit.log_likelihood > 0.0
    times = np.array([o.t1 for o in data] + [o.t2 for o in data])
    causes = np.array([o.j1 for o in data] + [o.j2 for o in data])
    for j in (1, 2):
        n_j = int(np.sum(causes == j))
        closed_form = n_j / times.sum()
        se = np.sqrt(n_j) / times.sum()
        assert abs(fit.model.hazard(1, j).alpha - closed_form) < 3.0 * se


@pytest.mark.parametrize("seed", [2.7, -1, None, True, 2 ** 64])
def test_mle_rejects_a_seed_that_is_not_a_nonnegative_integer(seed,
                                                              monkeypatch):
    m = shared([1.0], [1.0], [E(0.7), E(0.3)])
    data = simulate_dataset(m, SimConfig(n_pairs=20, seed=3))
    calls = []
    monkeypatch.setattr(ident, "_dataset_arrays",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="seed"):
        fit_mle(data, m.structure, 1, m, budget=5, seed=seed)
    assert calls == []


def test_mle_rejects_an_empty_dataset():
    m = shared([1.0], [1.0], [E(0.7), E(0.3)])
    with pytest.raises(ValueError, match="at least one pair"):
        fit_mle([], m.structure, 1, m)


def test_mle_log_likelihood_is_the_summed_log_joint_sub_density():
    # the vectorized kernel against the public density, pair by pair, on
    # random models of every structure that between them use every family
    rng = np.random.default_rng(909)
    families = set()
    for kind in ALL_KINDS:
        m = random_model(kind, rng)
        families |= {spec.family for spec in m.hazards.values()}
        table = simulate_table(m, SimConfig(n_pairs=200, seed=7))
        rows = list(zip(table["t1"], table["j1"], table["t2"], table["j2"]))
        data = [BivariateObservation(t1, j1, True, t2, j2, True)
                for t1, j1, t2, j2 in rows]
        res = fit_mle(data, m.structure, m.frailty.num_atoms, m, budget=1)
        ref = math.fsum(
            math.log(joint_sub_density(res.model, int(j1), int(j2), t1, t2))
            for t1, j1, t2, j2 in rows)
        assert abs(res.log_likelihood - ref) <= 1e-10 * abs(ref), kind
    assert families == set(Family)


@pytest.mark.contract
def test_likelihood_reuses_unchanged_hazard_slots_bit_for_bit(monkeypatch):
    # one fit's reuse state through a change of one slot, of the atoms only,
    # of the weights only, and back to earlier specs: each value equals a
    # fresh evaluation, and only the specs not in the last call are computed
    st = FrailtyStructure(FrailtyKind.CORRELATED_CAUSE_SPECIFIC, 2, 2)
    first = {(1, 1): HazardSpec(Family.GAMMA, 1.6, 0.8),
             (1, 2): HazardSpec(Family.LOGLOGISTIC, 2.2, 0.5),
             (2, 1): W(1.4, 0.6), (2, 2): E(0.4)}
    moved = dict(first)
    moved[1, 1] = HazardSpec(Family.GAMMA, 1.7, 0.8)
    atoms = np.array([[0.5, 0.7, 0.6, 0.8], [1.6, 1.3, 1.7, 1.2]])

    def model(hazards, shift=1.0, weights=(0.4, 0.6)):
        g = DiscreteFrailty(st, atoms * shift, weights)
        return ModelSpec(st, hazards, g, require_unit_mean=False)

    truth = model(first)
    arrays = _dataset_arrays(simulate_dataset(truth, SimConfig(300, 11)), st)
    computed = []
    real = ident._stacked_log_rates

    def counting(specs, t):
        computed.extend(specs)
        return real(specs, t)

    reuse = {}
    steps = [(truth, list(first.values())),
             (model(moved), [moved[1, 1]]),
             (model(moved, shift=1.1), []),
             (model(moved, 1.1, (0.3, 0.7)), []),
             (model(first, 1.1, (0.3, 0.7)), [first[1, 1]]),
             (truth, [])]
    for m, fresh_specs in steps:
        computed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ident, "_stacked_log_rates", counting)
            value = _log_likelihood(m, *arrays, reuse)
        assert computed == fresh_specs
        assert value == _log_likelihood(m, *arrays)


def test_log_likelihood_is_minus_inf_where_every_atom_term_is():
    # H = alpha t**2 overflows at t = 1e200, so every atom term of the first
    # pair is -inf; the log-sum-exp must give -inf, not -inf - -inf = nan
    # (the overflow also raises the invalid flag inside the BLAS matmul)
    m = shared([0.5, 1.5], [0.5, 0.5], [W(2.0, 0.5), E(0.3)])
    data = [BivariateObservation(1e200, 1, True, 1.0, 2, True),
            BivariateObservation(1.0, 2, True, 1.0, 1, True)]
    arrays = _dataset_arrays(data, m.structure)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _log_likelihood(m, *arrays) == -np.inf


@pytest.mark.contract
def test_gamma_hazards_past_the_double_range_take_their_limits():
    # alpha t = inf, where the continued fraction of Q has no terms: Q = 0,
    # H = inf and h = alpha, its limit as t grows; the pair's density is 0
    spec = HazardSpec(Family.GAMMA, 1.5, 2.0)
    m = shared([0.6, 1.4], [0.5, 0.5], [spec])
    pair = BivariateObservation(1.7e308, 1, True, 1.0, 1, True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cumulative_hazard(spec, 1.7e308) == np.inf
        assert hazard_rate(spec, 1.7e308) == 2.0
        assert np.array_equal(hazard_rate(spec, np.array([1.7e308, 1.0])),
                              [2.0, hazard_rate(spec, 1.0)])
        assert log_gammainc_upper(1.5, np.inf) == -np.inf
        assert _log_likelihood(
            m, *_dataset_arrays([pair], m.structure)) == -np.inf


@pytest.mark.contract
@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_log_likelihood_raises_no_invalid_flag_at_extreme_times(family):
    # pairs from 1e-300 to 1.7e308, where H and h saturate: each pair's
    # value is finite or -inf, and only overflow is ignored on the way
    g = 1.0 if family is Family.EXPONENTIAL else 0.7
    m = shared([0.6, 1.4], [0.5, 0.5], [HazardSpec(family, g, 2.0),
                                        W(1.3, 0.5)])
    t = np.geomspace(1e-300, 1.7e308, 12)
    with np.errstate(invalid="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, (t1, t2) in enumerate(zip(t, t[::-1])):
            pair = BivariateObservation(t1, 1 + i % 2, True, t2, 2 - i % 2,
                                        True)
            value = _log_likelihood(m, *_dataset_arrays([pair], m.structure))
            assert value < np.inf and not np.isnan(value), (t1, t2)


def test_log_likelihood_is_minus_inf_at_a_saturating_time_without_a_warning():
    # at t = 1e200 h and H of Weibull(3) overflow: log h = inf meets a
    # log-sum-exp of -inf, and the pair's density is 0, not nan
    m = shared([0.6, 1.4], [0.5, 0.5], [W(3.0, 0.5)])
    pair = BivariateObservation(1.0, 1, True, 2.0, 1, True)
    saturated = BivariateObservation(1e200, 1, True, 1.0, 1, True)
    two_causes = shared([0.5, 1.5], [0.5, 0.5], [W(2.0, 0.5), E(0.3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = _log_likelihood(m, *_dataset_arrays([pair], m.structure))
        both = _log_likelihood(
            m, *_dataset_arrays([saturated, pair], m.structure))
        mixed = _log_likelihood(two_causes, *_dataset_arrays(
            [BivariateObservation(1e200, 1, True, 1.0, 2, True)],
            two_causes.structure))
    assert both == mixed == -np.inf
    assert alone == -2.078888584414571


def test_mle_rejects_censored_rows():
    m = shared([1.0], [1.0], [E(0.7), E(0.3)])
    data = simulate_dataset(m, SimConfig(n_pairs=50, seed=3,
                                         censoring_rate=0.8))
    init = shared([1.0], [1.0], [E(0.5), E(0.5)])
    with pytest.raises(ValueError):
        fit_mle(data, m.structure, 1, init)


@pytest.mark.parametrize("levels", [
    (0.0, 0.25, 0.5, 0.75, 0.9),
    (0.1, 0.25, 0.5, 0.75, 1.0),
    (0.1, 0.25, 0.5, 0.75, 1.5),
    (0.1, 0.25, float("nan"), 0.75, 0.9),
    (-0.1, 0.25, 0.5, 0.75, 0.9),
])
def test_default_grid_rejects_levels_outside_the_unit_interval(
        benchmark_pair, levels):
    with pytest.raises(ValueError, match="levels"):
        default_probe_grid(benchmark_pair[1], levels)


@pytest.mark.contract
@pytest.mark.parametrize("levels", [
    [],
    (0.1, 0.25, 0.5, 0.75),
    [[0.1, 0.25, 0.5, 0.75, 0.9]],
    (0.1, 0.5, 0.25, 0.75, 0.9),
    (0.1, 0.25, 0.25, 0.75, 0.9),
])
def test_default_grid_names_levels_that_cannot_make_a_grid(
        benchmark_pair, levels):
    with pytest.raises(ValueError) as err:
        default_probe_grid(benchmark_pair[1], levels)
    assert str(err.value) == (
        "quantile levels must be a strictly increasing sequence of at "
        f"least 5, got {np.asarray(levels).tolist()}")


def _mixed_family_model():
    st = FrailtyStructure(FrailtyKind.CORRELATED_CAUSE_SPECIFIC, 2, 2)
    atoms = np.array([[0.5, 0.7, 0.6, 0.8],
                      [1.0, 1.2, 0.9, 1.1],
                      [1.6, 1.3, 1.7, 1.2]])
    g = normalize_to_unit_mean(DiscreteFrailty(st, atoms, [0.3, 0.45, 0.25]))
    return ModelSpec.from_lists(
        st,
        [HazardSpec(Family.GAMMA, 1.6, 0.8),
         HazardSpec(Family.LOGLOGISTIC, 2.2, 0.5)],
        [W(1.4, 0.6), E(0.4)], g)


def test_default_grid_quantiles_are_exact(benchmark_pair):
    rng = np.random.default_rng(41)
    models = [benchmark_pair[1], _mixed_family_model()]
    models += [random_model(kind, rng) for kind in ALL_KINDS for _ in range(2)]
    levels = (1e-6, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
    for m in models:
        grid = default_probe_grid(m, levels)
        for t, q in zip(grid.t1_points, levels):
            assert abs(1.0 - joint_survival(m, t, t) - q) <= 1e-14, (t, q)


def test_default_grid_below_the_double_range_names_the_model_and_levels():
    structure = FrailtyStructure(FrailtyKind.SHARED, 2, 2)
    g = DiscreteFrailty(structure, [[0.6], [1.4]], [0.5, 0.5])
    specs = [HazardSpec(Family.WEIBULL, 0.01, 1e6),
             HazardSpec(Family.WEIBULL, 0.8, 1.0)]
    m = ModelSpec.from_lists(structure, specs, specs, g)
    with pytest.raises(ValueError) as err:
        default_probe_grid(m)
    assert str(err.value) == (
        "first-failure quantiles at levels [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] "
        "of the shared model with hazards {1: ['weibull(0.01, 1e+06)', "
        "'weibull(0.8, 1)'], 2: ['weibull(0.01, 1e+06)', 'weibull(0.8, 1)']} "
        "lie below the smallest normal double; pass an explicit probe grid")
