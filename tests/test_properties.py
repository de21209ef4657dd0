"""Model-class invariants on random models of every structure.

Seeded property checks over ``helpers.random_model`` (all four families and
all four frailty structures): the sub-distribution invariants on each
model's default probe grid, the density as the mixed partial of F, the
joint survival as a per-atom product, the scalar F as its grid entry,
normalization at the saturation horizon, and the gamma inverse cumulative
hazard.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frailtykit import (
    Family,
    cumulative_hazard,
    default_probe_grid,
    inverse_cumulative_hazard,
    joint_sub_density_grid,
    joint_sub_distribution,
    joint_sub_distribution_grid,
    joint_survival,
    marginal_sub_distribution,
    time_horizon,
)

from helpers import ALL_KINDS, random_model


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(ALL_KINDS), st.integers(0, 2 ** 32 - 1))
def test_sub_distribution_invariants_on_the_probe_grid(kind, seed):
    m = random_model(kind, np.random.default_rng(seed))
    levels = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
    pts = np.array(default_probe_grid(m, levels).t1_points)
    f = joint_sub_distribution_grid(m, pts, pts)

    # monotone in both times, nonnegative
    assert np.all(np.diff(f, axis=2) >= -1e-15)
    assert np.all(np.diff(f, axis=3) >= -1e-15)
    assert np.all(f >= 0.0)

    # bounded by the marginal sub-distributions of either individual
    for j1 in range(m.num_causes(1)):
        marg = [marginal_sub_distribution(m, 1, j1 + 1, t) for t in pts]
        assert np.all(f[j1] <= np.asarray(marg)[None, :, None] + 1e-12)
    for j2 in range(m.num_causes(2)):
        marg = [marginal_sub_distribution(m, 2, j2 + 1, t) for t in pts]
        assert np.all(f[:, j2] <= np.asarray(marg)[None, None, :] + 1e-12)

    # inclusion-exclusion: P(T1 <= t1, T2 <= t2) from F and from survival
    for a, t1 in enumerate(pts):
        for b, t2 in enumerate(pts):
            both = (1.0 - joint_survival(m, t1, 0.0)
                    - joint_survival(m, 0.0, t2) + joint_survival(m, t1, t2))
            assert abs(f[:, :, a, b].sum() - both) <= 1e-9, (t1, t2)

    # the grid points are quantiles of the first failure time
    for t, q in zip(pts, levels):
        assert abs(joint_survival(m, t, t) - (1.0 - q)) <= 1e-12, (t, q)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(ALL_KINDS), st.integers(0, 2 ** 32 - 1))
def test_total_mass_is_one_at_the_time_horizon(kind, seed):
    # past the horizon every conditional survival is below exp(-40), so
    # what is left is the quadrature error (default rel_tol 1e-9)
    m = random_model(kind, np.random.default_rng(seed))
    tb = time_horizon(m)
    total = float(joint_sub_distribution_grid(m, [tb], [tb]).sum())
    assert abs(total - 1.0) <= 1e-8, total


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(ALL_KINDS), st.integers(0, 2 ** 32 - 1),
       st.floats(1e-12, 800.0))
def test_gamma_inverse_round_trips_through_the_cumulative_hazard(kind, seed,
                                                                 v):
    m = random_model(kind, np.random.default_rng(seed),
                     families=(Family.GAMMA,), gamma_range=(0.3, 6.0))
    # scipy's gammaincinv / gammainccinv roots hold H to a few 1e-14
    for spec in m.hazards.values():
        t = inverse_cumulative_hazard(spec, v)
        assert abs(cumulative_hazard(spec, t) - v) <= 1e-13 * v, (spec, v)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(ALL_KINDS), st.integers(0, 2 ** 32 - 1))
def test_density_is_the_mixed_partial_of_the_sub_distribution(kind, seed):
    # central differences with steps h = 1e-4 t at the 0.1, 0.5 and 0.9
    # quantiles; the truncation error is O(h**2) and the worst of 400 seeds
    # read 1.0e-7 relative
    m = random_model(kind, np.random.default_rng(seed))
    pts = np.array(default_probe_grid(m).t1_points)[[0, 2, 4]]
    h = 1e-4 * pts
    side = np.ravel(np.column_stack([pts - h, pts + h]))
    f_grid = joint_sub_distribution_grid(m, side, side)
    mixed = (f_grid[:, :, 1::2, 1::2] - f_grid[:, :, 1::2, ::2]
             - f_grid[:, :, ::2, 1::2] + f_grid[:, :, ::2, ::2])
    density = joint_sub_density_grid(m, pts, pts)
    fd = mixed / (4.0 * np.outer(h, h))
    assert np.all(np.abs(fd - density) <= 1e-6 * density)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(ALL_KINDS), st.integers(0, 2 ** 32 - 1))
def test_joint_survival_is_the_mixed_per_atom_product(kind, seed):
    # given the atom the individuals are independent: S = sum_w p_w
    # prod_k exp(-eps_k[w] . H_k(t_k)); the worst of 400 seeds read 6.9e-16
    m = random_model(kind, np.random.default_rng(seed))
    pts = (0.0,) + default_probe_grid(m).t1_points[::2]
    for t1 in pts:
        for t2 in pts:
            prod = m.frailty.weights.copy()
            for k, t in ((1, t1), (2, t2)):
                loads = [cumulative_hazard(sp, t) for sp in m.hazards_for(k)]
                prod *= np.exp(-(m.eps_matrix(k) @ loads))
            expected = prod.sum()
            assert abs(joint_survival(m, t1, t2) - expected) <= 1e-14 * expected


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(ALL_KINDS), st.integers(0, 2 ** 32 - 1))
def test_scalar_sub_distribution_is_its_grid_entry(kind, seed):
    rng = np.random.default_rng(seed)
    m = random_model(kind, rng)
    pts = default_probe_grid(m).t1_points
    t1, t2 = (pts[i] for i in rng.integers(len(pts), size=2))
    j1, j2 = rng.integers(1, 3, size=2)
    grid = joint_sub_distribution_grid(m, [t1], [t2])
    assert joint_sub_distribution(m, j1, j2, t1, t2) == grid[j1 - 1, j2 - 1, 0, 0]
