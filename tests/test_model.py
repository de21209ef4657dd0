"""Model evaluation: conditional and mixed survival quantities.

Oracle strategy: every factorized quantity is checked against an
independent scipy quadrature of the defining integral, never against
another code path of the package itself.
"""

import time
import warnings

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy.optimize import brentq

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
from frailtykit.identifiability import default_probe_grid
from frailtykit.model import (
    DEFAULT_QUADRATURE,
    _frozen_rule,
    _segment_points,
    _table_segments,
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


def _frozen_rule_gap(m, t1s, t2s):
    """max |F on the rule of m - adaptive F| at m itself, in units of
    2**-52."""
    _, on_rule = _frozen_rule(m, t1s, t2s)
    adaptive = joint_sub_distribution_grid(m, t1s, t2s)
    return float(np.max(np.abs(on_rule - adaptive))) / 2.0 ** -52


def test_frozen_rule_reproduces_the_adaptive_grid_at_its_own_model():
    rng = np.random.default_rng(29)
    families = set()
    for i in range(16):
        m = random_model(ALL_KINDS[i % 4], rng, gamma_range=(0.5, 3.0))
        families |= {spec.family for spec in m.hazards.values()}
        grid = default_probe_grid(m)
        assert _frozen_rule_gap(m, grid.t1_points, grid.t2_points) <= 4.0
    assert families == set(ALL_FAMILIES)


def test_frozen_rule_keeps_the_power_and_skips_zero_width_segments():
    st = FrailtyStructure(FrailtyKind.SHARED, 2, 2)
    g = DiscreteFrailty(st, [[0.6], [1.4]], [0.5, 0.5])
    specs = [HazardSpec(Family.WEIBULL, 0.5, 1.0),
             HazardSpec(Family.GAMMA, 0.8, 0.7)]
    m = ModelSpec.from_lists(st, specs, specs[::-1], g)
    # 0.7 and the next double share one transformed point under u = v**2
    t1s = np.array([0.3, 0.7, np.nextafter(0.7, 1.0), 1.5])
    _, _, power, _, _, wide = _table_segments(specs, t1s, DEFAULT_QUADRATURE)
    assert power == 2.0 and not wide.all()
    assert _frozen_rule_gap(m, t1s, [0.2, 0.9, 2.0]) <= 4.0


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


@pytest.mark.parametrize("specs", LEVEL_SPEC_SETS)
def test_level_times_match_per_level_brentq(specs):
    def total(t):
        return sum(cumulative_hazard(sp, t) for sp in specs)

    hi = 1.0
    while total(hi) < 50.0:
        hi *= 2.0
    levels = np.ldexp(1.0, np.arange(-40, 6))
    got = _total_level_time(specs, levels, hi)
    for level, t in zip(levels, got):
        # H underflows to 0 at the bottom of the bracket: log gives -inf
        with np.errstate(divide="ignore"):
            ref = np.exp(brentq(
                lambda x: np.log(total(np.exp(x))) - np.log(level),
                np.log(1e-290), np.log(hi), xtol=1e-15,
                rtol=4.0 * np.finfo(float).eps, maxiter=400))
        assert abs(t - ref) <= 1e-12 * ref, (level, t, ref)


def test_level_ladder_starts_at_the_absolute_tolerance():
    specs = [W(1.5, 0.5), W(0.8, 1.0)]
    points = _segment_points(specs, np.array([5.0]), 1e-12)
    first = _total_level_time(specs, np.array([2.0 ** -40]), 5.0)[0]
    assert points[0] == first
    assert points[-1] == 5.0
    total = [sum(cumulative_hazard(sp, t) for sp in specs)
             for t in points[:-1]]
    np.testing.assert_allclose(total, np.ldexp(1.0, np.arange(-40, 4)),
                               rtol=1e-12)


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
