"""Model evaluation: conditional and mixed survival quantities.

Oracle strategy: every factorized quantity is checked against an
independent scipy quadrature of the defining integral, never against
another code path of the package itself.
"""

import importlib.util
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from frailtykit import (
    DiscreteFrailty,
    Family,
    FrailtyKind,
    FrailtyStructure,
    HazardSpec,
    ModelSpec,
    QuadratureConfig,
    conditional_hazard,
    conditional_sub_distribution,
    conditional_survival,
    cumulative_hazard,
    hazard_rate,
    joint_sub_density,
    joint_sub_distribution,
    joint_sub_density_grid,
    joint_sub_distribution_grid,
    joint_survival,
    lst,
    marginal_sub_density,
    marginal_sub_distribution,
    marginal_survival,
    model_from_dict,
    model_to_dict,
    survival_load_vector,
    time_horizon,
    tilted_mean,
)
from frailtykit import _quad, hazards
from frailtykit import model as md
from frailtykit.frailty import frailty_from_dict, structure_from_dict
from frailtykit.hazards import hazard_spec_from_dict
from frailtykit.identifiability import default_probe_grid
from frailtykit.model import (
    DEFAULT_QUADRATURE,
    _cause_curves,
    _mix,
    _segment_points,
    _tangent_integrand,
    _total_level_time,
    sub_distribution_table,
)

from helpers import ALL_FAMILIES, ALL_KINDS, random_model

W = lambda g, a: HazardSpec(Family.WEIBULL, g, a)
E = lambda a: HazardSpec(Family.EXPONENTIAL, 1.0, a)


@pytest.fixture
def shared_two_atom():
    structure = FrailtyStructure(FrailtyKind.SHARED, 2, 2)
    g = DiscreteFrailty(structure, [[0.6], [1.4]], [0.5, 0.5])
    return ModelSpec.from_lists(
        structure,
        [W(1.5, 0.5), W(0.8, 1.0)],
        [W(1.5, 0.5), W(0.8, 1.0)],
        g)


@pytest.fixture
def degenerate_exponential():
    structure = FrailtyStructure(FrailtyKind.SHARED, 2, 2)
    g = DiscreteFrailty(structure, [[1.0]], [1.0])
    return ModelSpec.from_lists(
        structure, [E(0.3), E(0.7)], [E(0.3), E(0.7)], g)


def test_conditional_hazard_values(degenerate_exponential, shared_two_atom):
    m = shared_two_atom
    pair = ([2.0, 2.0], [2.0, 2.0])
    # frailty 2 doubles the baseline weibull hazard at t=1
    structure = FrailtyStructure(FrailtyKind.SHARED, 1, 1)
    g = DiscreteFrailty(structure, [[1.0]], [1.0])
    m1 = ModelSpec.from_lists(structure, [W(2.0, 1.0)], [W(2.0, 1.0)], g)
    assert abs(conditional_hazard(m1, 1, 1, 1.0, ([2.0], [2.0]))
               - 4.0) < 1e-14

    structure = FrailtyStructure(FrailtyKind.CORRELATED_CAUSE_SPECIFIC, 2, 2)
    g = DiscreteFrailty(structure, [[1.0, 1.0, 1.0, 1.0]], [1.0])
    m2 = ModelSpec.from_lists(
        structure, [E(0.4), E(0.4)], [E(0.4), E(0.4)], g)
    assert abs(conditional_hazard(m2, 2, 1, 3.7, ([1.0, 1.0], [0.5, 1.0]))
               - 0.2) < 1e-15

    # frailty identically 1 reduces to the baseline hazard
    m = degenerate_exponential
    assert abs(conditional_hazard(m, 1, 2, 1.3, ([1.0, 1.0], [1.0, 1.0]))
               - 0.7) < 1e-15


def test_conditional_survival_values(degenerate_exponential):
    m = degenerate_exponential
    ones = ([1.0, 1.0], [1.0, 1.0])
    twos = ([2.0, 2.0], [2.0, 2.0])
    assert conditional_survival(m, 1, 0.0, ones) == 1.0
    assert abs(conditional_survival(m, 1, 2.0, ones) - np.exp(-2.0)) < 1e-15
    assert abs(conditional_survival(m, 1, 2.0, twos) - np.exp(-4.0)) < 1e-15


def test_conditional_sub_distribution_values(degenerate_exponential):
    m = degenerate_exponential
    ones = ([1.0, 1.0], [1.0, 1.0])
    assert conditional_sub_distribution(m, 1, 1, 0.0, ones) == 0.0
    # all-exponential closed form: (alpha_j / alpha_0) (1 - e^{-alpha_0 t})
    val = conditional_sub_distribution(m, 1, 1, 60.0, ones)
    assert abs(val - 0.3) < 1e-9

    structure = FrailtyStructure(FrailtyKind.SHARED, 1, 1)
    g = DiscreteFrailty(structure, [[1.0]], [1.0])
    single = ModelSpec.from_lists(structure, [W(1.7, 0.9)], [W(1.7, 0.9)], g)
    t = 1.3
    ref = 1.0 - np.exp(-cumulative_hazard(single.hazard(1, 1), t))
    got = conditional_sub_distribution(single, 1, 1, t, ([1.0], [1.0]))
    assert abs(got - ref) < 1e-10


def test_conditional_sub_distribution_against_scipy(shared_two_atom):
    m = shared_two_atom
    eps_pair = ([1.4, 1.4], [1.4, 1.4])
    for (j, t) in ((1, 0.7), (2, 1.9)):
        def integrand(u):
            h = hazard_rate(m.hazard(1, j), u) * 1.4
            load = sum(1.4 * cumulative_hazard(m.hazard(1, jj), u)
                       for jj in (1, 2))
            return h * np.exp(-load)
        ref, _ = sp_integrate.quad(integrand, 0.0, t, epsabs=1e-12,
                                   epsrel=1e-12, limit=300)
        got = conditional_sub_distribution(m, 1, j, t, eps_pair)
        assert abs(got - ref) < 1e-9


def test_marginal_sub_density_values(shared_two_atom):
    structure = FrailtyStructure(FrailtyKind.SHARED, 1, 1)
    point = DiscreteFrailty(structure, [[1.0]], [1.0])
    m1 = ModelSpec.from_lists(structure, [E(1.0)], [E(1.0)], point)
    assert abs(marginal_sub_density(m1, 1, 1, 1.0) - np.exp(-1.0)) < 1e-15

    two = DiscreteFrailty(structure, [[0.5], [1.5]], [0.5, 0.5])
    m2 = ModelSpec.from_lists(structure, [E(1.0)], [E(1.0)], two)
    ref = 0.5 * (0.5 * np.exp(-0.5) + 1.5 * np.exp(-1.5))
    assert abs(marginal_sub_density(m2, 1, 1, 1.0) - ref) < 1e-15

    # density integrates to the saturated sub-distribution value
    m = shared_two_atom
    t_big = time_horizon(m)
    val, _ = sp_integrate.quad(
        lambda u: marginal_sub_density(m, 1, 1, u), 0.0, 20.0, limit=400)
    target = marginal_sub_distribution(m, 1, 1, t_big)
    tail = marginal_sub_distribution(m, 1, 1, t_big) - \
        marginal_sub_distribution(m, 1, 1, 20.0)
    assert abs(val - (target - tail)) < 1e-7


def test_marginal_sub_distribution_normalizes(shared_two_atom):
    m = shared_two_atom
    t_big = time_horizon(m)
    total = sum(marginal_sub_distribution(m, 1, j, t_big) for j in (1, 2))
    assert abs(total - 1.0) < 1e-6
    assert marginal_sub_distribution(m, 1, 1, 0.0) == 0.0


def test_degenerate_frailty_reduces_to_conditional(degenerate_exponential):
    m = degenerate_exponential
    ones = ([1.0, 1.0], [1.0, 1.0])
    for t in (0.5, 2.0):
        a = marginal_sub_distribution(m, 2, 1, t)
        b = conditional_sub_distribution(m, 2, 1, t, ones)
        assert abs(a - b) < 1e-12


def test_joint_survival_identities(shared_two_atom):
    m = shared_two_atom
    assert joint_survival(m, 0.0, 0.0) == 1.0
    t1, t2 = 0.8, 1.7
    # shared structure: transform of the summed baseline loads
    load = survival_load_vector(m, t1, t2)
    h_sum = sum(cumulative_hazard(m.hazard(1, j), t1) for j in (1, 2)) + \
        sum(cumulative_hazard(m.hazard(2, j), t2) for j in (1, 2))
    assert abs(load[0] - h_sum) < 1e-12
    assert abs(joint_survival(m, t1, t2) - lst(m.frailty, [h_sum])) < 1e-15

    # correlated structure: one coordinate per individual
    structure = FrailtyStructure(FrailtyKind.CORRELATED, 2, 2)
    g = DiscreteFrailty(structure, [[0.7, 1.3], [1.3, 0.7]], [0.5, 0.5])
    mc = ModelSpec.from_lists(
        structure, [E(0.3), E(0.7)], [E(0.5), E(0.5)], g)
    s1 = cumulative_hazard(mc.hazard(1, 1), t1) + cumulative_hazard(
        mc.hazard(1, 2), t1)
    s2 = cumulative_hazard(mc.hazard(2, 1), t2) + cumulative_hazard(
        mc.hazard(2, 2), t2)
    assert abs(joint_survival(mc, t1, t2) - lst(g, [s1, s2])) < 1e-15


def test_marginal_survival_is_tilting_free(shared_two_atom):
    m = shared_two_atom
    t = 1.1
    s = survival_load_vector(m, t, 0.0)
    assert abs(marginal_survival(m, 1, t) - lst(m.frailty, s)) < 1e-15


def test_joint_sub_distribution_edges(shared_two_atom):
    m = shared_two_atom
    assert joint_sub_distribution(m, 1, 1, 0.0, 1.3) == 0.0
    assert joint_sub_distribution(m, 1, 1, 1.3, 0.0) == 0.0


def test_joint_factorizes_for_point_mass_frailty():
    structure = FrailtyStructure(FrailtyKind.SHARED, 2, 2)
    g = DiscreteFrailty(structure, [[1.0]], [1.0])
    m = ModelSpec.from_lists(
        structure, [W(1.5, 0.5), W(2.0, 0.8)], [E(0.4), E(0.6)], g)
    t1, t2 = 0.9, 1.6
    for j1 in (1, 2):
        for j2 in (1, 2):
            joint = joint_sub_distribution(m, j1, j2, t1, t2)
            prod = marginal_sub_distribution(m, 1, j1, t1) * \
                marginal_sub_distribution(m, 2, j2, t2)
            assert abs(joint - prod) < 1e-10


def test_joint_sub_distribution_against_dblquad(shared_two_atom):
    m = shared_two_atom
    g = m.frailty
    t1, t2 = 0.8, 1.4

    def density(u, v, j1, j2):
        out = 0.0
        for w, atom in zip(g.weights, g.atoms):
            e = atom[0]
            h1 = e * hazard_rate(m.hazard(1, j1), u)
            h2 = e * hazard_rate(m.hazard(2, j2), v)
            load = sum(e * cumulative_hazard(m.hazard(1, j), u)
                       for j in (1, 2))
            load += sum(e * cumulative_hazard(m.hazard(2, j), v)
                        for j in (1, 2))
            out += w * h1 * h2 * np.exp(-load)
        return out

    for j1, j2 in ((1, 1), (2, 1)):
        ref, err = sp_integrate.dblquad(
            density, 0.0, t2, 0.0, t1, args=(j1, j2),
            epsabs=1e-10, epsrel=1e-10)
        got = joint_sub_distribution(m, j1, j2, t1, t2)
        assert abs(got - ref) < 1e-7


def test_joint_sub_density_identities(shared_two_atom):
    structure = FrailtyStructure(FrailtyKind.SHARED, 2, 2)
    point = DiscreteFrailty(structure, [[1.0]], [1.0])
    m0 = ModelSpec.from_lists(
        structure, [W(1.5, 0.5), W(2.0, 0.8)], [E(0.4), E(0.6)], point)
    u, v = 0.9, 1.2
    got = joint_sub_density(m0, 1, 2, u, v)
    prod = marginal_sub_density(m0, 1, 1, u) * marginal_sub_density(
        m0, 2, 2, v)
    assert abs(got - prod) < 1e-14

    # symmetric model: swapping individuals and causes is invisible
    m = shared_two_atom
    assert abs(joint_sub_density(m, 1, 2, u, v)
               - joint_sub_density(m, 2, 1, v, u)) < 1e-14

    # mixed second difference of the distribution recovers the density
    d = 1e-3
    f00 = joint_sub_distribution(m, 1, 1, u, v)
    f10 = joint_sub_distribution(m, 1, 1, u + d, v)
    f01 = joint_sub_distribution(m, 1, 1, u, v + d)
    f11 = joint_sub_distribution(m, 1, 1, u + d, v + d)
    approx = (f11 - f10 - f01 + f00) / d ** 2
    dens = joint_sub_density(m, 1, 1, u + d / 2, v + d / 2)
    assert abs(approx - dens) < 0.02 * dens


def test_inclusion_exclusion(shared_two_atom):
    m = shared_two_atom
    t1, t2 = 0.9, 1.3
    total = sum(joint_sub_distribution(m, j1, j2, t1, t2)
                for j1 in (1, 2) for j2 in (1, 2))
    ref = 1.0 - marginal_survival(m, 1, t1) - marginal_survival(m, 2, t2) \
        + joint_survival(m, t1, t2)
    assert abs(total - ref) < 1e-9


def test_normalization_across_structures():
    rng = np.random.default_rng(77)
    for kind in ALL_KINDS:
        m = random_model(kind, rng, num_atoms=2)
        t_big = time_horizon(m)
        total = sum(joint_sub_distribution(m, j1, j2, t_big, t_big)
                    for j1 in (1, 2) for j2 in (1, 2))
        assert abs(total - 1.0) < 1e-6, kind


def test_grid_evaluation_matches_pointwise(shared_two_atom):
    m = shared_two_atom
    t1 = [0.3, 0.9, 1.8]
    t2 = [0.5, 1.1]
    grid = joint_sub_distribution_grid(m, t1, t2)
    assert grid.shape == (2, 2, 3, 2)
    for a, x in enumerate(t1):
        for b, y in enumerate(t2):
            for j1 in (1, 2):
                for j2 in (1, 2):
                    ref = joint_sub_distribution(m, j1, j2, x, y)
                    assert abs(grid[j1 - 1, j2 - 1, a, b] - ref) < 1e-10


def test_monotone_in_both_time_arguments(shared_two_atom):
    m = shared_two_atom
    ts = [0.2, 0.6, 1.1, 2.0]
    vals = [joint_sub_distribution(m, 1, 1, t, 0.9) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    vals = [joint_sub_distribution(m, 1, 1, 0.9, t) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_time_horizon_saturates(shared_two_atom):
    m = shared_two_atom
    t_big = time_horizon(m)
    assert joint_survival(m, t_big, t_big) < 1e-6


def test_quadrature_config_is_honored(shared_two_atom):
    m = shared_two_atom
    q = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-13)
    loose = joint_sub_distribution(m, 1, 1, 0.9, 1.3)
    tight = joint_sub_distribution(m, 1, 1, 0.9, 1.3, q)
    assert abs(loose - tight) < 1e-8
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1.0)


@pytest.mark.parametrize("field, value", [
    ("rel_tol", np.nan), ("rel_tol", np.inf), ("abs_tol", np.inf),
    ("abs_tol", -np.inf), ("abs_tol", 0.0),
    ("max_subdivisions", 2.5), ("max_subdivisions", 200.0),
    ("max_subdivisions", True), ("max_subdivisions", 0),
])
def test_quadrature_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field.split("_")[-1]):
        QuadratureConfig(**{field: value})
    assert QuadratureConfig(max_subdivisions=np.int64(7)).max_subdivisions == 7


def _tangent_pass_gap(m, t1s, t2s):
    """max |F mixed from the value blocks of the tangent pass - adaptive F|,
    in units of 2**-52."""
    values = [_cause_curves(m.hazards_for(k), m.eps_matrix(k), ts,
                            DEFAULT_QUADRATURE, _tangent_integrand)[0]
              for k, ts in ((1, t1s), (2, t2s))]
    adaptive = joint_sub_distribution_grid(m, t1s, t2s)
    return float(np.max(np.abs(_mix(m, *values) - adaptive))) / 2.0 ** -52


@pytest.mark.contract
def test_tangent_pass_values_reproduce_the_adaptive_grid():
    rng = np.random.default_rng(29)
    families = set()
    for i in range(16):
        m = random_model(ALL_KINDS[i % 4], rng, gamma_range=(0.5, 3.0))
        families |= {spec.family for spec in m.hazards.values()}
        grid = default_probe_grid(m)
        assert _tangent_pass_gap(m, grid.t1_points, grid.t2_points) <= 4.0
    assert families == set(ALL_FAMILIES)


@pytest.mark.contract
def test_tangent_pass_skips_zero_width_segments():
    st = FrailtyStructure(FrailtyKind.SHARED, 2, 2)
    g = DiscreteFrailty(st, [[0.6], [1.4]], [0.5, 0.5])
    specs = [HazardSpec(Family.WEIBULL, 0.5, 1.0),
             HazardSpec(Family.GAMMA, 0.8, 0.7)]
    m = ModelSpec.from_lists(st, specs, specs[::-1], g)
    # 1e300 and the next double share one log, so one segment has zero width
    t1s = np.array([0.3, 1.5, 1e300, np.nextafter(1e300, np.inf)])
    assert np.log(t1s[2]) == np.log(t1s[3])
    wide = _segment_points(specs, t1s, DEFAULT_QUADRATURE)[-1]
    assert not wide.all()
    assert _tangent_pass_gap(m, t1s, [0.2, 0.9, 2.0]) <= 4.0


def test_model_dict_round_trip(shared_two_atom):
    m = shared_two_atom
    d = model_to_dict(m)
    again = model_from_dict(d)
    assert again.structure == m.structure
    assert again.hazards == m.hazards
    np.testing.assert_allclose(again.frailty.atoms, m.frailty.atoms)

    with pytest.raises(ValueError):
        model_from_dict({"structure": d["structure"],
                         "hazards": d["hazards"]})
    bad = {**d, "hazards": {"1": d["hazards"]["1"]}}
    with pytest.raises(ValueError):
        model_from_dict(bad)


_SPEC = {"family": "weibull", "gamma": 1.5, "alpha": 0.5}


@pytest.mark.contract
@pytest.mark.parametrize("load, block, message", [
    (model_from_dict, [1, 2], "model must be an object, got list"),
    (structure_from_dict, [1], "structure must be an object, got list"),
    (frailty_from_dict, [1], "frailty must be an object, got list"),
    (hazard_spec_from_dict, 1, "hazard spec must be an object, got int"),
    (hazard_spec_from_dict, {**_SPEC, "gamma": None},
     "hazard spec gamma and alpha must be numbers, got None and 0.5"),
    (model_from_dict,
     {"structure": {"kind": "shared", "l1": 1, "l2": 1},
      "hazards": {"1": _SPEC, "2": [_SPEC]},
      "frailty": {"atoms": [[1.0]], "weights": [1.0]}},
     "model hazards of individual 1 must be a list of hazard specs, "
     "got dict"),
])
def test_dict_loaders_name_the_malformed_block(load, block, message):
    with pytest.raises(ValueError) as err:
        load(block)
    assert str(err.value) == message


def test_model_requires_matching_hazard_keys(shared_two_atom):
    m = shared_two_atom
    bad = {k: v for k, v in m.hazards.items() if k != (2, 2)}
    with pytest.raises(ValueError):
        ModelSpec(m.structure, bad, m.frailty)
    with pytest.raises(ValueError):
        ModelSpec(m.structure, m.hazards,
                  DiscreteFrailty(FrailtyStructure(FrailtyKind.CORRELATED,
                                                   2, 2),
                                  [[1.0, 1.0]], [1.0]))


G = lambda g, a: HazardSpec(Family.GAMMA, g, a)
LL = lambda g, a: HazardSpec(Family.LOGLOGISTIC, g, a)

LEVEL_SPEC_SETS = [
    [W(1.5, 0.5), W(0.8, 1.0)],
    [E(0.4), W(0.3, 1.2)],
    [LL(0.3, 1.0), E(0.5)],
    [G(0.3, 0.8), LL(2.5, 0.7)],
    [G(2.5, 1.3)],
]


def _total(specs, t):
    return sum(cumulative_hazard(sp, t) for sp in specs)


@pytest.mark.contract
@pytest.mark.parametrize("specs", LEVEL_SPEC_SETS)
def test_level_times_land_near_their_levels(specs):
    # the breakpoints only guide the adaptive rule, so they need to sit
    # near the levels, not on them
    hi = 1.0
    while _total(specs, hi) < 50.0:
        hi *= 2.0
    levels = np.ldexp(1.0, np.arange(-40, 6))
    got = _total_level_time(specs, levels, hi)
    assert np.all(got < hi)
    totals = np.array([_total(specs, t) for t in got])
    assert np.max(np.abs(np.log2(totals / levels))) <= 0.01


@pytest.mark.contract
def test_level_ladder_spans_the_absolute_tolerance_to_t_max():
    specs = [W(1.5, 0.5), W(0.8, 1.0)]
    points = _segment_points(specs, np.array([5.0]),
                             QuadratureConfig(abs_tol=1e-12))[0]
    assert points[-1] == 5.0
    totals = np.array([_total(specs, t) for t in points])
    # 2**-40 is the largest power of two not above 1e-12; 2**3 is the last
    # level below the total at t_max
    np.testing.assert_allclose(np.log2(totals[:-1]), np.arange(-40, 4),
                               rtol=0.0, atol=0.01)
    assert 8.0 < totals[-1] < 16.0


def _bench_mixed_model():
    """The mixed-family model of the benchmark's ``simulate_fit`` and
    ``surface`` workloads, read from bench/inputs.py as it is."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    import frailtykit

    return inputs.mixed_model(frailtykit)


def _probe_tables(m):
    """(specs, eps, times) of each individual's table on the default grid."""
    grid = default_probe_grid(m)
    return [(m.hazards_for(k), m.eps_matrix(k), ts)
            for k, ts in ((1, grid.t1_points), (2, grid.t2_points))]


@pytest.mark.contract
@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_tables_sum_to_the_conditional_failure_probability(kind, family):
    # quadrature-free oracle: per atom, sum_j F_j(t) = 1 - exp(-eps . H(t))
    rng = np.random.default_rng(71)
    m = random_model(kind, rng, families=(family,), gamma_range=(0.2, 3.0))
    ts = np.geomspace(1e-4, time_horizon(m), 15)
    for k in (1, 2):
        table = sub_distribution_table(m, k, ts)
        cums = np.array([cumulative_hazard(sp, ts) for sp in m.hazards_for(k)])
        exact = -np.expm1(-(m.eps_matrix(k) @ cums))
        assert np.max(np.abs(table.sum(axis=1) - exact)) <= 1e-12


@pytest.mark.contract
@pytest.mark.parametrize("gamma", [0.3, 1.0, 2.5])
def test_common_shape_power_tables_match_their_closed_form(gamma):
    # with one shape, h_j / sum_j' eps_j' h_j' is constant in t, so each
    # table is (eps_j alpha_j / Lambda) (1 - exp(-Lambda t**gamma))
    fam = Family.EXPONENTIAL if gamma == 1.0 else Family.WEIBULL
    specs = [HazardSpec(fam, gamma, a) for a in (0.4, 1.3, 0.7)]
    eps = np.array([[0.5, 0.8, 1.1], [1.5, 1.2, 0.9]])
    ts = np.geomspace(1e-3, 20.0, 12)
    table = _cause_curves(specs, eps, ts, DEFAULT_QUADRATURE)
    rates = eps * np.array([sp.alpha for sp in specs])
    lam = rates.sum(axis=1)
    exact = (rates / lam[:, None])[:, :, None] * -np.expm1(
        -lam[:, None, None] * ts ** gamma)
    assert np.max(np.abs(table - exact)) <= 1e-12


EXTREME_SHAPES = [W(0.05, 1.0), W(40.0, 1.0), G(0.2, 1.0), G(8.0, 1.0),
                  LL(0.2, 1.0), LL(12.0, 1.0)]


@pytest.mark.contract
@pytest.mark.parametrize("spec", EXTREME_SHAPES)
def test_extreme_shape_tables_match_a_tight_reference(spec):
    specs = [spec, W(0.8, 1.0)]
    eps = np.array([[0.6, 0.6], [1.4, 1.4]])
    ts = np.geomspace(1e-8, 1e3, 12)
    tight = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _cause_curves(specs, eps, ts, DEFAULT_QUADRATURE)
        ref = _cause_curves(specs, eps, ts, tight)
    assert np.max(np.abs(got - ref)) <= 1e-12


@pytest.mark.contract
@pytest.mark.parametrize("ts", [[1e-320], [1e-320, 1.0, 1e200]])
@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_extreme_t_max_gives_a_finite_table_without_a_warning(family, ts):
    # at 1e200 a Weibull(3) total overflows on every point of a grid that
    # ends there, and below the smallest normal double grid points collide;
    # either way the table stays exact and quiet
    gamma = 1.0 if family is Family.EXPONENTIAL else 3.0
    specs = [HazardSpec(family, gamma, 0.5), W(0.8, 1.0)]
    eps = np.array([[0.5, 0.5], [1.5, 1.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = _cause_curves(specs, eps, ts, DEFAULT_QUADRATURE)
        cums = np.array([cumulative_hazard(sp, ts) for sp in specs])
    assert np.all(np.isfinite(table))
    np.testing.assert_allclose(table.sum(axis=1), -np.expm1(-(eps @ cums)),
                               rtol=0.0, atol=1e-12)


@pytest.mark.contract
def test_saturating_times_give_exact_values_without_a_warning(
        shared_two_atom):
    # every load overflows to inf at these times; BLAS flagged inf loads
    # invalid when the multiplier matrix was a Fortran-ordered gather
    m = shared_two_atom
    causes = (1, 2)

    def cause_sums(k, t):
        # per atom, sum_j F_j(t) = -expm1(-eps . H(t)), without BLAS
        cums = np.array([cumulative_hazard(sp, t) for sp in m.hazards_for(k)])
        return -np.expm1(-(m.eps_matrix(k) * cums).sum(axis=1))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        joint = [[joint_sub_distribution(m, j1, j2, 1e300, 1e300)
                  for j2 in causes] for j1 in causes]
        marginal = [marginal_sub_distribution(m, 1, j, 1e300) for j in causes]
        table = sub_distribution_table(m, 1, [1e220])
        exact = {t: (cause_sums(1, t), cause_sums(2, t))
                 for t in (1e300, 1e220)}
    weights, tol = m.frailty.weights, np.finfo(float).eps
    assert abs(np.sum(joint) - weights @ np.prod(exact[1e300], axis=0)) <= tol
    assert abs(np.sum(marginal) - weights @ exact[1e300][0]) <= tol
    assert np.all(np.abs(table.sum(axis=1)[:, 0] - exact[1e220][0]) <= tol)


@pytest.mark.contract
def test_criterion_7_tables_converge_in_one_gauss_kronrod_round(
        shared_two_atom, monkeypatch):
    calls = []
    real = _quad.gk15

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(_quad, "gk15", counting)
    for specs, eps, ts in _probe_tables(shared_two_atom):
        for integrand in (md._integrand, _tangent_integrand):
            calls.clear()
            _cause_curves(specs, eps, ts, DEFAULT_QUADRATURE, integrand)
            assert len(calls) == 1


@pytest.mark.contract
def test_breakpoints_cost_one_hazard_call_per_table(shared_two_atom,
                                                    monkeypatch):
    calls = []
    real = md._stacked_log_rates

    def counting(specs, t):
        calls.append(1)
        return real(specs, t)

    monkeypatch.setattr(md, "_stacked_log_rates", counting)
    for m in (shared_two_atom, _bench_mixed_model()):
        for specs, _, ts in _probe_tables(m):
            calls.clear()
            _segment_points(specs, ts, DEFAULT_QUADRATURE)
            assert len(calls) == 1


@pytest.mark.contract
def test_breakpoints_index_the_requested_times_and_the_head_end(
        shared_two_atom):
    # the head ends at the time of the first level, the largest power of two
    # not above abs_tol, kept to [smallest normal double, last time]
    first = np.array([2.0 ** (np.frexp(DEFAULT_QUADRATURE.abs_tol)[1] - 1)])
    for m in (shared_two_atom, _bench_mixed_model()):
        for specs, _, ts in _probe_tables(m):
            points, at, lo = _segment_points(specs, ts, DEFAULT_QUADRATURE)[:3]
            assert np.all(np.diff(points) > 0.0)
            assert np.array_equal(points[at], ts)
            t_lo = _total_level_time(specs, first, ts[-1])[0]
            assert points[lo] == min(max(t_lo, np.finfo(float).tiny), ts[-1])


SMALL_SHAPE_CAUSES = [W(0.01, 1e6), W(0.02, 1.0), W(0.05, 1e-6),
                      G(0.01, 1e-6), G(0.02, 1.0), G(0.05, 1e6),
                      LL(0.05, 1e6)]


@pytest.mark.contract
@pytest.mark.parametrize("spec", SMALL_SHAPE_CAUSES)
def test_small_shape_tables_keep_the_mass_below_the_smallest_normal_double(
        spec):
    # quadrature-free oracle: per atom, sum_j F_j(t) = 1 - exp(-eps . H(t));
    # at these shapes eps . H(2.2e-308) is far above the tolerance
    structure = FrailtyStructure(FrailtyKind.SHARED, 2, 2)
    g = DiscreteFrailty(structure, [[0.6], [1.4]], [0.5, 0.5])
    specs = [spec, W(0.8, 1.0)]
    m = ModelSpec.from_lists(structure, specs, specs, g)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ts = np.geomspace(1e-300, time_horizon(m), 25)
        table = sub_distribution_table(m, 1, ts)
        cums = np.array([cumulative_hazard(sp, ts) for sp in specs])
    exact = -np.expm1(-(m.eps_matrix(1) @ cums))
    assert np.max(np.abs(table.sum(axis=1) - exact)) <= 1e-12


@pytest.mark.contract
@pytest.mark.parametrize("spec", SMALL_SHAPE_CAUSES)
def test_tangent_integrand_is_finite_where_the_hazard_overflows(spec):
    # h of W(0.01, 1e6) overflows near the smallest normal double, where
    # log h, the values and their derivatives are finite
    specs, eps = [spec, W(0.8, 1.0)], np.array([[0.6, 0.6], [1.4, 1.4]])
    x = np.log([1.07 * np.finfo(float).tiny])
    got = _tangent_integrand(specs, eps)[0](x)
    assert np.all(np.isfinite(got))
    values = md._integrand(specs, eps)[0](x)
    assert np.array_equal(got[:, :values.shape[1]], values)


@pytest.mark.contract
@pytest.mark.parametrize("specs", [[W(1.5, 0.5), W(0.8, 1.0)],
                                   [E(0.5), W(1.3, 0.7), LL(0.6, 1.2)]])
def test_tangent_integrand_makes_one_kernel_call_per_cause(specs,
                                                           monkeypatch):
    # values and derivatives from one kernel call per cause; a gamma cause
    # would add the two shifted-shape calls of its central difference
    calls = []
    real = hazards._log_hazard_and_cumulative

    def counting(spec, t):
        calls.append(spec)
        return real(spec, t)

    monkeypatch.setattr(hazards, "_log_hazard_and_cumulative", counting)
    eps = np.array([[0.6] * len(specs), [1.4] * len(specs)])
    _tangent_integrand(specs, eps)[0](np.linspace(-3.0, 2.0, 15))
    assert calls == specs


SMALL_GAMMA_MODELS = [
    ([LL(0.3, 1.0), G(0.3, 0.8)], [W(0.3, 1.2), E(0.5)]),
    ([W(0.1, 0.9), W(2.0, 0.4)], [G(0.5, 1.5), LL(0.2, 0.6)]),
]


@pytest.mark.parametrize("hz1, hz2", SMALL_GAMMA_MODELS)
def test_small_gamma_tables_emit_no_runtime_warning(hz1, hz2):
    structure = FrailtyStructure(FrailtyKind.SHARED, 2, 2)
    g = DiscreteFrailty(structure, [[0.6], [1.4]], [0.5, 0.5])
    m = ModelSpec.from_lists(structure, hz1, hz2, g)
    t_big = time_horizon(m)
    ts = np.geomspace(1e-6 * t_big, t_big, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for k in (1, 2):
            table = sub_distribution_table(m, k, ts)
            assert np.all(np.isfinite(table))
            assert np.all(np.diff(table, axis=2) >= 0.0)
            total = m.frailty.weights @ table[:, :, -1].sum(axis=1)
            assert abs(total - 1.0) < 1e-6


def _looped_joint_density(m, j1, j2, t1, t2):
    """Closed form of f_{j1 j2}(t1, t2), one point and one atom at a time."""
    out = 0.0
    for w, e1, e2 in zip(m.frailty.weights, m.eps_matrix(1), m.eps_matrix(2)):
        load1 = sum(e * cumulative_hazard(m.hazard(1, j), t1)
                    for j, e in enumerate(e1, start=1))
        load2 = sum(e * cumulative_hazard(m.hazard(2, j), t2)
                    for j, e in enumerate(e2, start=1))
        out += (w * e1[j1 - 1] * hazard_rate(m.hazard(1, j1), t1)
                * e2[j2 - 1] * hazard_rate(m.hazard(2, j2), t2)
                * np.exp(-load1 - load2))
    return out


def test_density_grid_matches_the_looped_closed_form():
    rng = np.random.default_rng(11)
    for kind in ALL_KINDS:
        m = random_model(kind, rng)
        t1 = [0.2, 0.7, 1.5]
        t2 = [0.4, 1.1]
        grid = joint_sub_density_grid(m, t1, t2)
        assert grid.shape == (2, 2, 3, 2)
        for a, x in enumerate(t1):
            for b, y in enumerate(t2):
                for j1 in (1, 2):
                    for j2 in (1, 2):
                        ref = _looped_joint_density(m, j1, j2, x, y)
                        got = grid[j1 - 1, j2 - 1, a, b]
                        assert abs(got - ref) <= 1e-13 * ref
                        scalar = joint_sub_density(m, j1, j2, x, y)
                        assert abs(scalar - got) <= 1e-15 * got


def _product_form_density(m, t1, t2):
    """f as h_1a h_2b sum_w p_w d_1wa d_2wb with d = eps exp(-eps . H): the
    hazards factored out of the mixture."""
    factors = []
    for k, ts in ((1, t1), (2, t2)):
        hs = np.array([hazard_rate(sp, ts) for sp in m.hazards_for(k)])
        cums = np.array([cumulative_hazard(sp, ts) for sp in m.hazards_for(k)])
        eps = m.eps_matrix(k)
        factors.append(
            (hs, eps[:, :, None] * np.exp(-(eps @ cums))[:, None, :]))
    (h1, d1), (h2, d2) = factors
    mixed = np.einsum("w,wai,wbl->abil", m.frailty.weights, d1, d2)
    marginal = h1 * (m.frailty.weights @ d1.swapaxes(0, 1))
    return h1[:, None, :, None] * h2[None, :, None, :] * mixed, marginal


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_densities_are_within_4_ulp_of_the_product_form(kind, family):
    m = random_model(kind, np.random.default_rng(17), families=(family,))
    t1, t2 = np.geomspace(0.02, 6.0, 9), np.geomspace(0.05, 4.0, 7)
    ref, ref_marginal = _product_form_density(m, t1, t2)
    tol = 4 * np.finfo(float).eps
    got = joint_sub_density_grid(m, t1, t2)
    assert np.all(np.abs(got - ref) <= tol * ref)
    marginal = np.array([marginal_sub_density(m, 1, j, t1) for j in (1, 2)])
    assert np.all(np.abs(marginal - ref_marginal) <= tol * ref_marginal)


def test_densities_are_zero_where_the_exponent_saturates():
    structure = FrailtyStructure(FrailtyKind.SHARED, 1, 1)
    g = DiscreteFrailty(structure, [[0.5], [1.5]], [0.5, 0.5])
    m = ModelSpec.from_lists(structure, [W(3.0, 0.5)], [W(3.0, 0.5)], g)
    # h and H overflow at t = 1e200; the density there is exp(-inf) = 0
    with np.errstate(over="ignore"):
        assert joint_sub_density_grid(m, [1e200], [1.0])[0, 0, 0, 0] == 0.0
        assert joint_sub_density_grid(m, [1.0], [1e200])[0, 0, 0, 0] == 0.0
        assert marginal_sub_density(m, 1, 1, 1e200) == 0.0
        assert joint_sub_density(m, 1, 1, 1e200, 1.0) == 0.0


def test_saturating_times_give_their_limits_without_a_warning():
    structure = FrailtyStructure(FrailtyKind.SHARED, 1, 1)
    g = DiscreteFrailty(structure, [[0.5], [1.5]], [0.5, 0.5])
    m = ModelSpec.from_lists(structure, [W(3.0, 0.5)], [W(3.0, 0.5)], g)
    # h and H pass the double range at t = 1e200: f and S are 0 there,
    # and F at t = 1e200 is the whole cause-1 mass of individual 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert joint_sub_density_grid(m, [1e200], [1.0])[0, 0, 0, 0] == 0.0
        assert joint_survival(m, 1e200, 1.0) == 0.0
        big_f = joint_sub_distribution_grid(m, [1.0, 1e200], [1.0])
        tangents = _cause_curves(m.hazards_for(1), m.eps_matrix(1),
                                 [1.0, 1e200], DEFAULT_QUADRATURE,
                                 _tangent_integrand)
        assert hazard_rate(W(3.0, 0.5), 1e200) == np.inf
        assert cumulative_hazard(W(3.0, 0.5), 1e200) == np.inf
    assert big_f[0, 0, 1, 0] == pytest.approx(
        1.0 - marginal_survival(m, 2, 1.0), rel=1e-8)
    assert big_f[0, 0, 0, 0] < big_f[0, 0, 1, 0]
    # each atom's table holds its whole mass at 1e200, which no parameter
    # moves
    assert np.all(np.abs(tangents[1:, :, :, 1]) < 1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_survival_load_vector_broadcasts_like_stacked_scalar_calls(kind):
    m = random_model(kind, np.random.default_rng(31))
    t1 = np.array([[0.0], [0.3], [1.7]])
    t2 = np.array([0.0, 0.5, 2.4, 9.0])
    got = survival_load_vector(m, t1, t2)
    assert got.shape == (3, 4, m.structure.dimension)
    ref = [[survival_load_vector(m, float(a), float(b)) for b in t2]
           for a in t1[:, 0]]
    assert np.array_equal(got, np.array(ref))
    assert survival_load_vector(m, 0.3, 0.5).shape == (m.structure.dimension,)


def _cause_indexed_calls(m, j):
    pair = ([1.0, 1.0], [1.0, 1.0])
    return [
        lambda: conditional_hazard(m, 1, j, 1.0, pair),
        lambda: conditional_sub_distribution(m, 2, j, 1.0, pair),
        lambda: marginal_sub_distribution(m, 1, j, 1.0),
        lambda: marginal_sub_density(m, 2, j, 1.0),
        lambda: joint_sub_density(m, j, 1, 1.0, 1.0),
        lambda: joint_sub_density(m, 1, j, 1.0, 1.0),
        lambda: joint_sub_distribution(m, j, 1, 1.0, 1.0),
        lambda: joint_sub_distribution(m, 1, j, 1.0, 1.0),
    ]


@pytest.mark.parametrize("j", [0, 3, -1, 1.0])
def test_cause_index_outside_range_raises(shared_two_atom, j):
    for call in _cause_indexed_calls(shared_two_atom, j):
        with pytest.raises(ValueError, match="cause"):
            call()


def _timed_calls(m, t):
    pair = ([1.0, 1.0], [1.0, 1.0])
    return [
        lambda: conditional_hazard(m, 1, 1, t, pair),
        lambda: conditional_sub_distribution(m, 1, 1, t, pair),
        lambda: marginal_sub_distribution(m, 1, 1, t),
        lambda: marginal_sub_density(m, 1, 1, t),
        lambda: joint_sub_density(m, 1, 1, t, 1.0),
        lambda: joint_sub_density(m, 1, 1, 1.0, t),
        lambda: joint_sub_distribution(m, 1, 1, t, 1.0),
        lambda: joint_sub_distribution(m, 1, 1, 1.0, t),
        lambda: joint_survival(m, t, 1.0),
        lambda: joint_survival(m, 1.0, t),
        lambda: marginal_survival(m, 1, t),
        lambda: marginal_survival(m, 2, t),
        lambda: joint_sub_distribution_grid(m, [0.5, t], [1.0]),
    ]


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_non_finite_times_raise(shared_two_atom, t):
    for call in _timed_calls(shared_two_atom, t):
        with pytest.raises(ValueError, match="finite"):
            call()


@pytest.mark.contract
@pytest.mark.parametrize("call", [
    lambda m, t: joint_sub_density(m, 1, 1, t, t),
    lambda m, t: joint_sub_distribution(m, 1, 1, t, t),
    lambda m, t: marginal_sub_distribution(m, 1, 1, t),
    lambda m, t: conditional_sub_distribution(m, 1, 1, t,
                                              ([1.0, 1.0], [1.0, 1.0])),
], ids=["joint_sub_density", "joint_sub_distribution",
        "marginal_sub_distribution", "conditional_sub_distribution"])
def test_scalar_entry_points_reject_array_times(shared_two_atom, call):
    for t in ([0.5, 1.0], np.array([0.5]), [[0.5]]):
        with pytest.raises(ValueError, match="times must be scalars"):
            call(shared_two_atom, t)
    value = call(shared_two_atom, 0.5)
    assert call(shared_two_atom, np.float64(0.5)) == value
    assert call(shared_two_atom, np.array(0.5)) == value


def test_infinite_time_raises_at_once(shared_two_atom):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        joint_sub_distribution(shared_two_atom, 1, 1, np.inf, 1.0)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("k", [0, 3, -1, 1.5, True])
def test_individual_outside_range_raises(shared_two_atom, k):
    pair = ([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="individual"):
        marginal_survival(shared_two_atom, k, 1.0)
    with pytest.raises(ValueError, match="individual"):
        conditional_survival(shared_two_atom, k, 1.0, pair)


@pytest.mark.parametrize("t, match", [(np.nan, "finite"), (np.inf, "finite"),
                                      (-np.inf, "finite"),
                                      (-0.5, "nonnegative")])
def test_conditional_survival_rejects_bad_times(shared_two_atom, t, match):
    pair = ([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match=match):
        conditional_survival(shared_two_atom, 1, t, pair)
    with pytest.raises(ValueError, match=match):
        conditional_survival(shared_two_atom, 2, np.array([0.5, t]), pair)


_PAIR = ([0.8, 1.2], [1.1, 0.9])

# every model entry point that takes times, and whether it needs them
# strictly positive (rates, densities and the grid tables)
_TIME_TAKERS = {
    "joint_survival": (lambda m, t: joint_survival(m, 1.0, t), False),
    "marginal_survival": (lambda m, t: marginal_survival(m, 2, t), False),
    "conditional_hazard": (
        lambda m, t: conditional_hazard(m, 2, 1, t, _PAIR), True),
    "conditional_survival": (
        lambda m, t: conditional_survival(m, 1, t, _PAIR), False),
    "conditional_sub_distribution": (
        lambda m, t: conditional_sub_distribution(m, 2, 2, t, _PAIR), False),
    "marginal_sub_distribution": (
        lambda m, t: marginal_sub_distribution(m, 1, 2, t), False),
    "marginal_sub_density": (
        lambda m, t: marginal_sub_density(m, 2, 1, t), True),
    "joint_sub_distribution": (
        lambda m, t: joint_sub_distribution(m, 2, 1, t, 1.0), False),
    "joint_sub_density": (
        lambda m, t: joint_sub_density(m, 1, 2, 1.0, t), True),
    "joint_sub_distribution_grid": (
        lambda m, t: joint_sub_distribution_grid(m, [t], [0.5, 1.0]), True),
    "joint_sub_density_grid": (
        lambda m, t: joint_sub_density_grid(m, [0.5, 1.0], [t]), True),
}


@pytest.mark.parametrize("name", sorted(_TIME_TAKERS))
@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, -0.5, 0.0])
def test_one_time_check_for_every_entry_point(shared_two_atom, name, t):
    call, positive = _TIME_TAKERS[name]
    if not np.isfinite(t):
        message = "times must be finite"
    elif positive:
        message = "times must be strictly positive"
    elif t < 0.0:
        message = "times must be nonnegative"
    else:
        assert np.all(np.isfinite(call(shared_two_atom, t)))
        return
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(shared_two_atom, t)


@pytest.mark.parametrize("min_load", [0.0, -1.0, np.inf, np.nan])
def test_time_horizon_rejects_bad_min_load(shared_two_atom, min_load):
    with pytest.raises(ValueError, match="min_load"):
        time_horizon(shared_two_atom, min_load)


def test_time_horizon_is_exact_where_the_smallest_atom_binds():
    # the atom 0.05 needs a far later time than any raw hazard to carry a
    # load of 40; the horizon is that root, not a step past it
    structure = FrailtyStructure(FrailtyKind.SHARED, 2, 2)
    g = DiscreteFrailty(structure, [[0.05], [1.95]], [0.5, 0.5])
    specs = [W(1.5, 0.5), W(0.8, 1.0)]
    m = ModelSpec.from_lists(structure, specs, specs, g)
    t = time_horizon(m)
    raw = np.array([cumulative_hazard(sp, t) for sp in specs])
    loads = m.eps_matrix(1) @ raw
    assert abs(loads.min() - 40.0) <= 1e-12 * 40.0
    assert np.all(raw >= 40.0 * (1.0 - 1e-12))
