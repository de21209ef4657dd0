"""Upper regularized incomplete gamma against the scipy and mpmath oracles."""

import mpmath
import numpy as np
import pytest
from scipy import special

from frailtykit._incgamma import (
    IncompleteGammaError,
    gammainc_upper,
    log_gammainc_upper,
)


def test_matches_scipy_over_wide_grid():
    rng = np.random.default_rng(101)
    s = rng.uniform(0.05, 50.0, size=4000)
    x = rng.uniform(0.0, 200.0, size=4000)
    mine = gammainc_upper(s, x)
    ref = special.gammaincc(s, x)
    assert np.max(np.abs(mine - ref) / np.maximum(ref, 1e-280)) < 1e-12


def test_both_branches_accurate_at_the_seam():
    # series (x < s+1) and continued fraction (x >= s+1) both stay tight
    # right where they hand over
    from scipy.special import gammaincc
    for s in (0.3, 1.0, 2.5, 7.0, 40.0):
        for x in ((s + 1.0) * (1 - 1e-9), (s + 1.0) * (1 + 1e-9)):
            ref = gammaincc(s, x)
            assert abs(gammainc_upper(s, x) - ref) < 1e-13 * ref


def test_log_variant_in_deep_tail():
    # the plain value underflows long before the log does
    s, x = 2.0, 800.0
    lq = log_gammainc_upper(s, x)
    assert np.isfinite(lq)
    # Q(2, x) = (1 + x) e^{-x}
    assert abs(lq - (np.log1p(x) - x)) < 1e-12 * abs(lq)


def test_edge_values():
    assert gammainc_upper(1.5, 0.0) == 1.0
    assert log_gammainc_upper(1.5, 0.0) == 0.0
    # Q(1, x) = e^{-x}
    x = np.array([0.5, 1.0, 5.0])
    np.testing.assert_allclose(gammainc_upper(1.0, x), np.exp(-x), rtol=1e-14)


def test_scalar_in_scalar_out():
    v = gammainc_upper(2.0, 1.0)
    assert isinstance(v, float)
    assert abs(v - 2.0 * np.exp(-1.0)) < 1e-15


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gammainc_upper(-1.0, 1.0)
    with pytest.raises(ValueError):
        gammainc_upper(1.0, -0.5)


def test_error_type_is_exported():
    assert issubclass(IncompleteGammaError, ArithmeticError)


# Points on both sides of the x = s + 1 seam, of the hazard's continued-
# fraction handover at x = 40 and of the log tail at x = 600, plus a
# log-spaced sweep from 1e-10 (where Q is within 1e-10 of 1) to 900 (where Q
# underflows and only log Q is finite).
def _kernel_points(s):
    seams = [s + 1.0, 40.0, 600.0]
    near = [c * f for c in seams for f in (1 - 1e-12, 1.0, 1 + 1e-12)]
    return np.concatenate([np.geomspace(1e-10, 900.0, 41), near])


def _mp_q_and_log_q(s, x):
    """Q and log Q at 50 digits; below the seam through P, so that log Q
    keeps its relative accuracy where Q is within rounding of 1."""
    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        if x < s + 1.0:
            p = mpmath.gammainc(s, 0, xm, regularized=True)
            return 1 - p, mpmath.log1p(-p)
        q = mpmath.gammainc(s, xm, mpmath.inf, regularized=True)
        return q, mpmath.log(q)


@pytest.mark.parametrize("s", [0.3, 1.0, 2.5, 6.0])
def test_q_and_log_q_match_mpmath(s):
    x = _kernel_points(s)
    q = gammainc_upper(s, x)
    log_q = log_gammainc_upper(s, x)
    for xi, qi, li in zip(x, q, log_q):
        q_ref, log_q_ref = _mp_q_and_log_q(s, float(xi))
        assert np.isfinite(li)
        assert abs(li - float(log_q_ref)) <= 5e-14 * abs(float(log_q_ref))
        if xi < 650.0:
            # exp(-x) in the prefactor costs about x ulp
            assert abs(qi - float(q_ref)) <= (1e-14 + 2e-16 * xi) * float(q_ref)


def test_log_q_is_relatively_accurate_at_tiny_x():
    # log Q = log1p(-P) ~ -P; forming 1 - P first would return 0 here
    for s in (0.3, 1.0, 2.5):
        x = 1e-10
        _, ref = _mp_q_and_log_q(s, x)
        got = log_gammainc_upper(s, x)
        assert got < 0.0
        assert abs(got - float(ref)) <= 5e-14 * abs(float(ref))


def test_scalar_and_zero_dimensional_inputs():
    assert isinstance(log_gammainc_upper(2.0, 1.0), float)
    assert isinstance(log_gammainc_upper(2.0, 800.0), float)
    assert isinstance(gammainc_upper(np.float64(2.0), np.asarray(3.0)), float)
    assert log_gammainc_upper(np.asarray([1.5, 1.5]), 0.0).tolist() == [0.0, 0.0]
