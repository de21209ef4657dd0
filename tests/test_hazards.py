"""Hazard families: closed-form values, inverses, decomposition, validation."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.optimize import brentq

from frailtykit import (
    Family,
    HazardSpec,
    cumulative_hazard,
    decomposition,
    hazard_rate,
    hazard_spec_from_dict,
    hazard_spec_to_dict,
    inverse_cumulative_hazard,
    validate_family,
)
from frailtykit._quad import integrate_power_substituted
from frailtykit.hazards import (_hazard_and_cumulative, _hazard_tangents,
                                _rates_and_loads, _solve_total_load)

from helpers import ALL_FAMILIES, random_hazard


def test_hazard_rate_known_values():
    assert hazard_rate(HazardSpec(Family.EXPONENTIAL, 1.0, 0.5), 2.0) == 0.5
    assert abs(hazard_rate(HazardSpec(Family.WEIBULL, 2.0, 1.0), 1.5)
               - 3.0) < 1e-15
    assert abs(hazard_rate(HazardSpec(Family.LOGLOGISTIC, 1.0, 1.0), 1.0)
               - 0.5) < 1e-15
    # density over survival at t=1 for the unit-scale shape-2 gamma
    # distribution: e^{-1} / (2 e^{-1}) = 1/2
    assert abs(hazard_rate(HazardSpec(Family.GAMMA, 2.0, 1.0), 1.0)
               - 0.5) < 1e-14


def test_cumulative_hazard_known_values():
    assert abs(cumulative_hazard(HazardSpec(Family.WEIBULL, 2.0, 1.0), 1.5)
               - 2.25) < 1e-15
    assert abs(cumulative_hazard(HazardSpec(Family.LOGLOGISTIC, 1.0, 2.0), 3.0)
               - np.log(7.0)) < 1e-15
    # at t = 0 the kernel's h is 0 * inf or 1 / 0 for some of these shapes,
    # and RuntimeWarning is an error here
    for family in ALL_FAMILIES:
        for g in [1.0] if family is Family.EXPONENTIAL else [0.5, 1.0, 2.0]:
            spec = HazardSpec(family, g, 0.7)
            assert cumulative_hazard(spec, 0.0) == 0.0
            assert decomposition(spec).b_at(0.0) == 1.0


def test_gamma_hazard_matches_density_over_survival():
    rng = np.random.default_rng(7)
    for _ in range(60):
        g = rng.uniform(0.3, 6.0)
        a = rng.uniform(0.2, 3.0)
        t = rng.uniform(0.01, 30.0)
        ref = stats.gamma.pdf(t, g, scale=1.0 / a) / stats.gamma.sf(
            t, g, scale=1.0 / a)
        mine = hazard_rate(HazardSpec(Family.GAMMA, g, a), t)
        assert abs(mine - ref) < 1e-11 * ref


def test_gamma_hazard_stable_deep_in_the_tail():
    # naive density / survival is 0/0 here; the factored form is not
    spec = HazardSpec(Family.GAMMA, 2.0, 1.0)
    h = hazard_rate(spec, 800.0)
    # h -> alpha from below, gap ~ (gamma - 1)/t
    assert abs(h - (1.0 - 1.0 / 801.0)) < 1e-12


def test_inverse_round_trip_all_families():
    rng = np.random.default_rng(21)
    for _ in range(200):
        spec = random_hazard(rng, gamma_range=(0.5, 3.0),
                             alpha_range=(0.2, 2.0))
        t = float(rng.uniform(0.05, 20.0))
        v = cumulative_hazard(spec, t)
        back = inverse_cumulative_hazard(spec, v)
        assert abs(back - t) < 1e-9 * t


def test_inverse_known_values():
    assert abs(inverse_cumulative_hazard(HazardSpec(Family.WEIBULL, 2.0, 1.0),
                                         2.25) - 1.5) < 1e-12
    for family in ALL_FAMILIES:
        assert inverse_cumulative_hazard(HazardSpec(family, 1.0, 0.8),
                                         0.0) == 0.0
    # shape-2 unit-scale gamma: root of -log survival = 1
    spec = HazardSpec(Family.GAMMA, 2.0, 1.0)
    ref = brentq(lambda t: -np.log(special.gammaincc(2.0, t)) - 1.0,
                 0.1, 10.0, rtol=1e-14)
    assert abs(inverse_cumulative_hazard(spec, 1.0) - ref) < 1e-10 * ref


def test_quadrature_recovers_cumulative_hazard():
    rng = np.random.default_rng(33)
    for _ in range(80):
        spec = random_hazard(rng, gamma_range=(0.5, 3.0),
                             alpha_range=(0.2, 2.0))
        t = float(rng.uniform(0.1, 10.0))
        ref = cumulative_hazard(spec, t)
        power = 1.0 / spec.gamma if spec.gamma < 1.0 else 1.0
        val, _ = integrate_power_substituted(
            lambda u: np.asarray(
                [hazard_rate(spec, float(x)) for x in np.atleast_1d(u)])[:, None],
            t, power, rel_tol=1e-11)
        assert abs(val[0] - ref) < 1e-8 * max(ref, 1e-12)


def test_positivity_and_monotonicity_sweep():
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 15.0, 100)
    for family in ALL_FAMILIES:
        for _ in range(10):
            gamma = 1.0 if family is Family.EXPONENTIAL else float(
                rng.uniform(0.2, 5.0))
            alpha = float(rng.uniform(0.2, 5.0))
            spec = HazardSpec(family, gamma, alpha)
            hs = [hazard_rate(spec, float(t)) for t in grid[1:]]
            assert min(hs) >= 0.0
            cums = np.array([cumulative_hazard(spec, float(t)) for t in grid])
            assert cums[0] == 0.0
            assert np.all(np.diff(cums) >= 0.0)


def test_decomposition_reassembles_hazard():
    rng = np.random.default_rng(13)
    for _ in range(40):
        spec = random_hazard(rng, gamma_range=(0.4, 4.0))
        dec = decomposition(spec)
        for t in rng.uniform(0.05, 8.0, size=5):
            rebuilt = dec.a_value * t ** (spec.gamma - 1.0) * float(
                dec.b_at(t))
            assert abs(rebuilt - hazard_rate(spec, float(t))) < 1e-10 * max(
                rebuilt, 1e-12)


def test_b_factor_tends_to_one():
    for spec in (HazardSpec(Family.WEIBULL, 2.0, 1.0),
                 HazardSpec(Family.EXPONENTIAL, 1.0, 3.0),
                 HazardSpec(Family.GAMMA, 3.0, 0.1),
                 HazardSpec(Family.LOGLOGISTIC, 1.5, 3.0)):
        b = float(decomposition(spec).b_at(1e-8))
        assert abs(b - 1.0) < 1e-6


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_b_factor_checks_its_time_and_returns_floats_for_scalars(family):
    b_at = decomposition(HazardSpec(
        family, 1.0 if family is Family.EXPONENTIAL else 1.5, 0.7)).b_at
    for bad in (float("nan"), -1.0):
        with pytest.raises(ValueError):
            b_at(bad)
    assert type(b_at(0.5)) is float
    assert b_at(np.array([0.5, 1.0])).shape == (2,)


def test_validate_family_reports():
    for spec in (HazardSpec(Family.WEIBULL, 2.0, 1.0),
                 HazardSpec(Family.GAMMA, 3.0, 0.1),
                 HazardSpec(Family.LOGLOGISTIC, 1.5, 3.0),
                 HazardSpec(Family.EXPONENTIAL, 1.0, 0.5)):
        report = validate_family(spec)
        assert report.passed, (spec, report)
    # a very flat loglogistic honestly fails the small-time limit check:
    # b(1e-8) = 1/(1 + 3e-4)
    report = validate_family(HazardSpec(Family.LOGLOGISTIC, 0.5, 3.0))
    assert not report.b_limit_ok
    assert report.a_monotone_ok


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        HazardSpec(Family.WEIBULL, -1.0, 1.0)
    with pytest.raises(ValueError):
        HazardSpec(Family.WEIBULL, 1.0, 0.0)
    with pytest.raises(ValueError):
        HazardSpec(Family.EXPONENTIAL, 2.0, 1.0)
    with pytest.raises(ValueError):
        hazard_rate(HazardSpec(Family.WEIBULL, 2.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        cumulative_hazard(HazardSpec(Family.WEIBULL, 2.0, 1.0), -1.0)
    with pytest.raises(ValueError):
        inverse_cumulative_hazard(HazardSpec(Family.WEIBULL, 2.0, 1.0), -0.1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "fn", [hazard_rate, cumulative_hazard, inverse_cumulative_hazard])
@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_public_hazard_functions_reject_non_finite_input(family, fn, bad):
    spec = HazardSpec(family, 1.0 if family is Family.EXPONENTIAL else 1.7,
                      0.8)
    with pytest.raises(ValueError, match="must be finite"):
        fn(spec, bad)


def test_dict_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        spec = random_hazard(rng)
        again = hazard_spec_from_dict(hazard_spec_to_dict(spec))
        assert again == spec
    with pytest.raises(ValueError):
        hazard_spec_from_dict({"family": "weibull", "gamma": 2.0})
    with pytest.raises(ValueError):
        hazard_spec_from_dict({"family": "cauchy", "gamma": 1.0,
                               "alpha": 1.0})


def _mp_gamma_h_and_cum(g, a, x):
    """Gamma hazard and cumulative hazard at x = a t, to 50 digits."""
    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        if x < g + 1.0:
            p = mpmath.gammainc(g, 0, xm, regularized=True)
            q, cum = 1 - p, -mpmath.log1p(-p)
        else:
            q = mpmath.gammainc(g, xm, mpmath.inf, regularized=True)
            cum = -mpmath.log(q)
        h = a * mpmath.exp((g - 1) * mpmath.log(xm) - xm - mpmath.loggamma(g)) / q
        return float(h), float(cum)


@pytest.mark.parametrize("g", [0.3, 0.8, 1.6, 3.0, 6.0])
def test_gamma_hazard_and_cumulative_match_mpmath(g):
    # both sides of the x = g + 1 seam, of the continued-fraction handovers
    # at x = 40 (hazard) and x = 600 (cumulative), from x = 1e-10 to 900
    a = 0.7
    edges = [c * f for c in (g + 1.0, 40.0, 600.0)
             for f in (1 - 1e-12, 1.0, 1 + 1e-12)]
    x = np.concatenate([np.geomspace(1e-10, 900.0, 60), edges])
    t = x / a
    h = hazard_rate(HazardSpec(Family.GAMMA, g, a), t)
    cum = cumulative_hazard(HazardSpec(Family.GAMMA, g, a), t)
    for xi, hi, ci in zip(a * t, h, cum):
        h_ref, cum_ref = _mp_gamma_h_and_cum(g, a, float(xi))
        # x**(g-1) and P ~ x**g carry |g log x| ulp of rounding at tiny x
        tol = 5e-14 if xi < 1e-3 else 1.5e-14
        assert abs(hi - h_ref) <= tol * h_ref, xi
        assert abs(ci - cum_ref) <= tol * cum_ref, xi


@pytest.mark.parametrize("g", [0.3, 0.8, 1.6, 3.0, 6.0])
def test_shared_gamma_kernel_matches_mpmath(g):
    # the same seam points and tolerances as the public functions above
    a = 0.7
    edges = [c * f for c in (g + 1.0, 40.0, 600.0)
             for f in (1 - 1e-12, 1.0, 1 + 1e-12)]
    x = np.concatenate([np.geomspace(1e-10, 900.0, 60), edges])
    t = x / a
    h, cum = _hazard_and_cumulative(HazardSpec(Family.GAMMA, g, a), t)
    for xi, hi, ci in zip(a * t, h, cum):
        h_ref, cum_ref = _mp_gamma_h_and_cum(g, a, float(xi))
        tol = 5e-14 if xi < 1e-3 else 1.5e-14
        assert abs(hi - h_ref) <= tol * h_ref, xi
        assert abs(ci - cum_ref) <= tol * cum_ref, xi


def _mp_h_and_cum(family, log_g, log_a, t):
    """h(t) and H(t) at the current mpmath precision, as functions of
    log gamma and log alpha."""
    g, a, t = mpmath.exp(log_g), mpmath.exp(log_a), mpmath.mpf(t)
    if family is Family.GAMMA:
        x = a * t
        if x < g + 1:
            p = mpmath.gammainc(g, 0, x, regularized=True)
            q, cum = 1 - p, -mpmath.log1p(-p)
        else:
            q = mpmath.gammainc(g, x, mpmath.inf, regularized=True)
            cum = -mpmath.log(q)
        return a * mpmath.exp((g - 1) * mpmath.log(x) - x
                              - mpmath.loggamma(g)) / q, cum
    power = a * t ** g
    if family is Family.LOGLOGISTIC:
        return a * g * t ** (g - 1) / (1 + power), mpmath.log1p(power)
    return a * g * t ** (g - 1), power


# (family, gamma): gamma < 1 and > 1 for the shaped families
_TANGENT_SPECS = [(Family.EXPONENTIAL, 1.0), (Family.WEIBULL, 0.5),
                  (Family.WEIBULL, 2.5), (Family.LOGLOGISTIC, 0.6),
                  (Family.LOGLOGISTIC, 2.5), (Family.GAMMA, 0.5),
                  (Family.GAMMA, 2.5), (Family.GAMMA, 7.0)]


@pytest.mark.parametrize("family, g", _TANGENT_SPECS)
def test_hazard_tangents_match_mpmath(family, g):
    # t from 1e-300 to 1e3, and for gamma both sides of the seams at
    # x = g + 1, 40 and 600; entries that underflow out of the normal range
    # on both sides are skipped
    a = 0.7
    t = np.geomspace(1e-300, 1e3, 23)
    if family is Family.GAMMA:
        t = np.concatenate([t, [c * f / a for c in (g + 1.0, 40.0, 600.0)
                                for f in (1 - 1e-12, 1.0, 1 + 1e-12)]])
    spec = HazardSpec(family, g, a)
    h, cum, dh, dcum = _hazard_tangents(spec, t)
    assert np.array_equal(h, _hazard_and_cumulative(spec, t)[0])
    assert np.array_equal(cum, _hazard_and_cumulative(spec, t)[1])
    slots = ["alpha"] if family is Family.EXPONENTIAL else ["gamma", "alpha"]
    assert dh.shape == dcum.shape == (len(slots), t.size)
    # closed forms: a few ulp times |g log t|; gamma's log alpha slot
    # cancels gamma - a t + t h ~ 1 out of terms ~ x; its log gamma slot is
    # a central difference of step 2e-5
    tols = {"gamma": 3e-8 if family is Family.GAMMA else 2e-13,
            "alpha": 1e-12 if family is Family.GAMMA else 2e-13}
    with mpmath.workdps(60):
        logs = {"gamma": mpmath.log(g), "alpha": mpmath.log(a)}
        for i, ti in enumerate(t):
            for row, name in enumerate(slots):
                def at(x, part):
                    args = dict(logs, **{name: x})
                    return _mp_h_and_cum(family, args["gamma"], args["alpha"],
                                         ti)[part]
                for part, got in ((0, dh[row, i]), (1, dcum[row, i])):
                    ref = float(mpmath.diff(lambda x: at(x, part), logs[name]))
                    if max(abs(ref), abs(got)) < 1e-290:
                        continue
                    assert abs(got - ref) <= tols[name] * abs(ref), (
                        name, part, ti)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_shared_kernel_equals_the_public_functions_bit_for_bit(family):
    # gamma = 700 puts the gamma family's x = g + 1 seam past x = 600
    gammas = {Family.EXPONENTIAL: [1.0],
              Family.GAMMA: [0.3, 1.0, 2.5, 700.0]}.get(family, [0.3, 1.0, 2.5])
    t = np.concatenate([np.geomspace(1e-9, 2000.0, 400), [40.0, 600.0]])
    for g in gammas:
        spec = HazardSpec(family, g, 0.9)
        h, cum = _hazard_and_cumulative(spec, t)
        assert np.array_equal(h, hazard_rate(spec, t))
        assert np.array_equal(cum, cumulative_hazard(spec, t))
        (h_row,), (cum_row,) = _rates_and_loads([spec], t)
        assert np.array_equal(h_row, h) and np.array_equal(cum_row, cum)


def test_shared_kernel_is_warning_free_at_time_zero():
    # power hazards with a finite h(0): H is not formed from h (t h / g
    # would be 0 * inf at gamma < 1), and RuntimeWarning is an error here
    t = np.array([0.0, 1.0])
    for spec in (HazardSpec(Family.EXPONENTIAL, 1.0, 0.4),
                 HazardSpec(Family.WEIBULL, 1.0, 0.6),
                 HazardSpec(Family.WEIBULL, 2.0, 0.6)):
        h, cum = _hazard_and_cumulative(spec, t)
        assert cum[0] == 0.0
        assert h[0] == (spec.alpha if spec.gamma == 1.0 else 0.0)


@pytest.mark.parametrize("g", [0.3, 0.8, 1.0, 2.5, 6.0])
@pytest.mark.parametrize("a", [0.2, 1.0, 3.0])
def test_gamma_inverse_round_trips_where_exp_minus_v_underflows(g, a):
    # v = 700 is where the inverse leaves Q = exp(-v) for the load solver,
    # and exp(-v) leaves the normal range soon after
    spec = HazardSpec(Family.GAMMA, g, a)
    v = np.concatenate([np.geomspace(1e-12, 800.0, 120),
                        [np.log(2.0), 699.999, 700.0, 700.001, 710.0, 745.0]])
    t = inverse_cumulative_hazard(spec, v)
    assert np.all(np.isfinite(t) & (t > 0.0))
    back = cumulative_hazard(spec, t)
    assert np.max(np.abs(back - v) / v) < 2e-14
    again = inverse_cumulative_hazard(spec, back)
    # dt / t = (dH / H) / (d log H / d log t), and that slope is about g
    assert np.max(np.abs(again - t) / t) < 2e-14 / min(g, 1.0)


def test_gamma_inverse_is_vectorized_and_keeps_shapes():
    spec = HazardSpec(Family.GAMMA, 1.7, 0.9)
    v = np.array([[0.0, 0.5], [3.0, 750.0]])
    t = inverse_cumulative_hazard(spec, v)
    assert t.shape == (2, 2)
    assert t[0, 0] == 0.0
    for vi, ti in zip(v.ravel(), t.ravel()):
        assert inverse_cumulative_hazard(spec, float(vi)) == ti
    assert isinstance(inverse_cumulative_hazard(spec, 2.0), float)


@st.composite
def _load_problems(draw):
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        family = draw(st.sampled_from(ALL_FAMILIES))
        gamma = (1.0 if family is Family.EXPONENTIAL
                 else draw(st.floats(0.3, 3.0)))
        specs.append(HazardSpec(family, gamma, draw(st.floats(0.1, 10.0))))
    n = draw(st.integers(1, 6))
    eps = np.array([[draw(st.floats(0.2, 5.0)) for _ in specs]
                    for _ in range(n)])
    target = np.array([draw(st.floats(1e-6, 20.0)) for _ in range(n)])
    return specs, eps, target


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_load_problems())
def test_total_load_roots_reach_their_targets(problem):
    specs, eps, target = problem
    t = _solve_total_load(specs, eps, target)
    load = sum(eps[:, j] * cumulative_hazard(sp, t)
               for j, sp in enumerate(specs))
    assert np.all(np.abs(load - target) <= 1e-12 * target)
