"""Vectorized adaptive Gauss-Kronrod integrator."""

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from frailtykit._quad import (
    NODES,
    WEIGHTS_G,
    WEIGHTS_K,
    QuadratureError,
    gk15,
    integrate,
    integrate_power_substituted,
)


def test_rule_is_exact_on_polynomials():
    # Kronrod extension of G7 integrates degree 22 exactly on [-1, 1]
    for deg in range(23):
        coeffs = np.zeros(deg + 1)
        coeffs[deg] = 1.0
        val, _ = gk15(lambda x: np.polyval(coeffs[::-1], x)[:, None], -1.0, 1.0)
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert abs(val[0] - exact) < 1e-13 * max(1.0, abs(exact))


def test_gauss_subset_exact_to_degree_13():
    nodes = NODES[1::2]
    for deg in range(14):
        approx = np.sum(WEIGHTS_G * nodes ** deg)
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert abs(approx - exact) < 1e-14 * max(1.0, abs(exact))
    assert abs(np.sum(WEIGHTS_K) - 2.0) < 1e-15


def test_adaptive_matches_scipy_on_oscillatory_integrand():
    f = lambda x: np.stack([np.sin(40.0 * x), np.exp(-x) * x ** 2], axis=-1)
    val, err = integrate(f, 0.0, 3.0, rel_tol=1e-11, abs_tol=1e-13)
    ref0, _ = sp_integrate.quad(lambda x: np.sin(40.0 * x), 0, 3,
                                limit=200)
    ref1, _ = sp_integrate.quad(lambda x: np.exp(-x) * x ** 2, 0, 3)
    assert abs(val[0] - ref0) < 1e-10
    assert abs(val[1] - ref1) < 1e-10


def test_components_share_the_subdivision_tree():
    # a needle in one component must not degrade the other component
    f = lambda x: np.stack(
        [1.0 / np.sqrt(np.abs(x - 0.7) + 1e-8), np.ones_like(x)], axis=-1)
    val, _ = integrate(f, 0.0, 1.0, rel_tol=1e-9, max_subdivisions=2000)
    assert abs(val[1] - 1.0) < 1e-12


def test_budget_exhaustion_raises():
    f = lambda x: np.sin(1.0 / (x + 1e-12))[:, None]
    with pytest.raises(QuadratureError):
        integrate(f, 0.0, 1.0, rel_tol=1e-13, abs_tol=0.0,
                  max_subdivisions=3)


def test_power_substitution_handles_endpoint_singularity():
    # integral of u^{-1/2} over [0, 4] = 2 * sqrt(4) = 4
    f = lambda u: (u ** -0.5)[:, None]
    val, _ = integrate_power_substituted(f, 4.0, power=2.0, rel_tol=1e-12)
    assert abs(val[0] - 4.0) < 1e-10

    # weibull-like singular density integrates to 1 - exp(-H)
    gamma, alpha, t = 0.4, 1.3, 2.0
    f = lambda u: (alpha * gamma * u ** (gamma - 1.0)
                   * np.exp(-alpha * u ** gamma))[:, None]
    val, _ = integrate_power_substituted(f, t, power=1.0 / gamma, rel_tol=1e-12)
    assert abs(val[0] - (1.0 - np.exp(-alpha * t ** gamma))) < 1e-11


def test_degenerate_interval_rejected():
    f = lambda x: np.ones_like(x)[:, None]
    with pytest.raises(ValueError):
        integrate(f, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate(f, 2.0, 1.0)


def _vector_integrand(x):
    return np.stack([np.sin(40.0 * x), np.exp(-x) * x ** 2], axis=-1)


def test_batched_panels_equal_single_panels():
    a = np.array([0.0, 0.4, 1.1])
    b = np.array([0.4, 1.1, 3.0])
    val, err = gk15(_vector_integrand, a, b)
    assert val.shape == err.shape == (3, 2)
    for s in range(3):
        v1, e1 = gk15(_vector_integrand, a[s], b[s])
        np.testing.assert_allclose(val[s], v1, rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(err[s], e1, rtol=1e-12, atol=1e-16)


def test_batched_segments_equal_scalar_calls():
    rel_tol, abs_tol = 1e-10, 1e-13
    a = np.array([0.0, 0.5, 1.3, 3.0])
    b = np.array([0.5, 1.3, 3.0, 3.2])
    val, err = integrate(_vector_integrand, a, b, rel_tol, abs_tol)
    assert val.shape == err.shape == (4, 2)
    for s in range(4):
        v1, _ = integrate(_vector_integrand, a[s], b[s], rel_tol, abs_tol)
        assert np.all(np.abs(val[s] - v1)
                      <= np.maximum(abs_tol, rel_tol * np.abs(v1)))
        assert np.all(err[s] <= np.maximum(abs_tol, rel_tol * np.abs(val[s])))
    total, _ = integrate(_vector_integrand, 0.0, 3.2, rel_tol, abs_tol)
    np.testing.assert_allclose(val.sum(axis=0), total, rtol=1e-9, atol=1e-12)


def test_batched_budget_exhaustion_raises():
    f = lambda x: np.sin(1.0 / (x + 1e-12))[:, None]
    with pytest.raises(QuadratureError) as info:
        integrate(f, np.array([0.0, 1.0]), np.array([1.0, 2.0]),
                  rel_tol=1e-13, abs_tol=0.0, max_subdivisions=3)
    assert info.value.value.shape == (2, 1)


def test_nan_integrand_exhausts_the_budget():
    f = lambda x: np.where(x > 0.5, np.nan, 1.0)[:, None]
    with pytest.raises(QuadratureError):
        integrate(f, 0.0, 1.0, max_subdivisions=20)


def test_batched_endpoints_must_increase():
    f = lambda x: np.ones_like(x)[:, None]
    with pytest.raises(ValueError):
        integrate(f, np.array([0.0, 1.0]), np.array([1.0, 1.0]))
