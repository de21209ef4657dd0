"""Parametric cause-specific hazard families.

Every family factors as h(t) = a * t**(gamma - 1) * b(t) where the scale
factor ``a`` is strictly monotone in alpha at fixed gamma and the correction
``b`` tends to 1 as t -> 0+.  That shared shape is what the identifiability
probes in :mod:`frailtykit.identifiability` lean on, so the decomposition is
exposed directly alongside the usual rate / cumulative / inverse operations.

Families:

* ``exponential``: h = alpha (gamma pinned to 1)
* ``weibull``: h = alpha * gamma * t**(gamma-1)
* ``gamma``: hazard of the Gamma(shape=gamma, rate=alpha) distribution
* ``loglogistic``: h = alpha * gamma * t**(gamma-1) / (1 + alpha * t**gamma)

All operations accept scalar or ndarray time arguments and return matching
shapes; scalars come back as plain floats.  Every h, H and b comes from
``_hazard_and_cumulative``, the one place each family's h and H are
written; (L, n) arrays of several causes come from ``_stacked_rates``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from ._incgamma import _log_upper_and_upper, cf_upper_sum

__all__ = [
    "Family",
    "HazardSpec",
    "HazardDecomposition",
    "FamilyValidation",
    "hazard_rate",
    "cumulative_hazard",
    "inverse_cumulative_hazard",
    "decomposition",
    "validate_family",
    "hazard_spec_from_dict",
    "hazard_spec_to_dict",
]

# Past this x the gamma hazard is taken from the continued fraction alone.
_HAZARD_CF_X = 40.0


class Family(str, Enum):
    EXPONENTIAL = "exponential"
    WEIBULL = "weibull"
    GAMMA = "gamma"
    LOGLOGISTIC = "loglogistic"


@dataclass(frozen=True)
class HazardSpec:
    """One cause-specific hazard: a family tag plus (gamma, alpha) > 0."""

    family: Family
    gamma: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "alpha", float(self.alpha))
        if not (np.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError("gamma must be a positive finite real")
        if not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("alpha must be a positive finite real")
        if self.family is Family.EXPONENTIAL and self.gamma != 1.0:
            raise ValueError("exponential hazards require gamma = 1")


@dataclass(frozen=True)
class HazardDecomposition:
    """The factorization h(t) = a_value * t**(gamma-1) * b_at(t)."""

    a_value: float
    b_at: Callable


def _as_time_array(t, *, allow_zero, name="time"):
    arr = np.asarray(t, dtype=float)
    # one test for the common case (NaN fails every comparison); the public
    # hazard functions take scalars in loops, where each ufunc call counts
    in_range = (arr >= 0.0) if allow_zero else (arr > 0.0)
    if not (in_range & (arr < np.inf)).all():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")
        raise ValueError(f"{name} must be nonnegative" if allow_zero
                         else f"{name} must be strictly positive")
    return arr


def _unwrap(value, arr):
    return float(value) if arr.ndim == 0 else value


# The kernel stays bare because it sits in every quadrature and root-finder
# loop.  Its h and H overflow to inf past the double range, and at t = 0 its
# h is 0 * inf or 1 / 0 (log-logistic and gamma at gamma <= 1, Weibull at
# gamma < 1); numpy warns on both.  The callers that reach such times (the
# public h, H and b, ``_stacked_rates``, ``_solve_time``) ignore those
# warnings once around their kernel calls.


def _hazard_and_cumulative(spec, t):
    """(h(t), H(t)) on a time array: the one place each family's h and H
    are written.  The power families take their closed forms.  The
    log-logistic family shares one log t: H = log(1 + alpha t**gamma) and
    h = alpha gamma t**(gamma - 1) exp(-H).  The gamma family takes
    H = -log Q and h = f / Q from one incomplete-gamma call."""
    g, a = spec.gamma, spec.alpha
    if spec.family in (Family.WEIBULL, Family.EXPONENTIAL):
        return a * g * t ** (g - 1.0), a * t ** g
    if spec.family is Family.LOGLOGISTIC:
        lt = np.log(t)
        cum = np.logaddexp(0.0, np.log(a) + g * lt)
        return np.exp(np.log(a * g) + (g - 1.0) * lt - cum), cum
    # From x = 40 on (and past the continued fraction's x = s + 1 seam) the
    # exponential prefactors of f and Q cancel algebraically, leaving
    # h = 1 / (t * F_cf); forming f and Q there would cost a relative error
    # of about x ulp.
    from scipy.special import gammaln

    x = a * t
    log_q, q = _log_upper_and_upper(*np.broadcast_arrays(g, x))
    tail = x >= max(_HAZARD_CF_X, g + 1.0)
    body = ~tail
    xb = x[body]
    h = np.empty(x.shape)
    h[body] = a * np.exp((g - 1.0) * np.log(xb) - xb - gammaln(g)) / q[body]
    if np.any(tail):
        h[tail] = 1.0 / (t[tail] * cf_upper_sum(g, x[tail]))
    return h, -log_q


# Selections from the kernel.  They stay as functions because
# ``hazard_rate``, ``cumulative_hazard`` and ``b_at`` call them and the
# benchmark's tracer (bench/spans.py) wraps them by name.
def _hazard_array(spec, t):
    return _hazard_and_cumulative(spec, t)[0]


def _cumulative_array(spec, t):
    return _hazard_and_cumulative(spec, t)[1]


# Step in log gamma of the gamma family's central difference: about
# (ulp / third derivative)**(1/3) for the log-ratios it differences.
_LOG_SHAPE_STEP = 2e-5


def _log_ratio(num, den):
    """log(num / den), and 0 where either has underflowed to 0."""
    both = (num > 0.0) & (den > 0.0)
    return np.log(np.where(both, num, 1.0) / np.where(both, den, 1.0))


def _packed_size(family):
    """The number of packed parameters of a hazard of the family: log gamma
    unless the family is exponential, then log alpha."""
    return 1 if family is Family.EXPONENTIAL else 2


def _hazard_tangents(spec, t):
    """(h, H, dh, dH) on a time array of positive times: the values of
    ``_hazard_and_cumulative`` and their derivatives in the packed
    parameters of the spec (``_packed_size``), two (P, n) arrays.

    Exponential, Weibull and log-logistic hazards use closed forms; the
    log-logistic ones go through sigma(z) = 1 - exp(-H) and exp(-H), with
    z = log alpha + gamma log t, so nothing overflows.  The gamma family
    takes dH/dlog alpha = t h and dh/dlog alpha = h (gamma - alpha t + t h),
    and its log gamma slot by a central difference of log h and log H, so
    the step error stays relative where x**gamma spans hundreds of decades.
    """
    h, cum = _hazard_and_cumulative(spec, t)
    g, a = spec.gamma, spec.alpha
    fam = spec.family
    if fam is Family.EXPONENTIAL:
        return h, cum, h[None], cum[None]
    if fam is Family.GAMMA:
        lo, hi = (_hazard_and_cumulative(HazardSpec(fam, g * np.exp(s), a), t)
                  for s in (-_LOG_SHAPE_STEP, _LOG_SHAPE_STEP))
        scale = 0.5 / _LOG_SHAPE_STEP
        d_h = (h * _log_ratio(hi[0], lo[0]) * scale, h * (g - a * t + t * h))
        d_cum = (cum * _log_ratio(hi[1], lo[1]) * scale, t * h)
        return h, cum, np.stack(d_h), np.stack(d_cum)
    glt = g * np.log(t)
    if fam is Family.WEIBULL:
        return (h, cum, np.stack([h * (1.0 + glt), h]),
                np.stack([glt * cum, cum]))
    sig, rest = -np.expm1(-cum), np.exp(-cum)
    return (h, cum, np.stack([h * (1.0 + glt * rest), h * rest]),
            np.stack([glt * sig, sig]))


def _rates_and_loads(specs, t):
    """Per-cause lists [h_1(t), ..., h_L(t)] and [H_1(t), ..., H_L(t)]."""
    rates, loads = [], []
    for sp in specs:
        h, cum = _hazard_and_cumulative(sp, t)
        rates.append(h)
        loads.append(cum)
    return rates, loads


def _stacked_rates(specs, t):
    """(L, n) arrays of h_j(t) and H_j(t), inf where t saturates them."""
    with np.errstate(over="ignore"):
        hs, cums = _rates_and_loads(specs, t)
    return np.stack(hs), np.stack(cums)


def hazard_rate(spec, t):
    """Instantaneous rate h(t); strictly positive on t > 0, and inf where
    it passes the double range."""
    arr = _as_time_array(t, allow_zero=False)
    with np.errstate(over="ignore"):
        return _unwrap(_hazard_array(spec, arr), arr)


def cumulative_hazard(spec, t):
    """Integrated rate H(t) = int_0^t h; H(0) = 0, increasing to infinity,
    and inf where it passes the double range."""
    arr = _as_time_array(t, allow_zero=True)
    # at t = 0 the kernel's h, dropped here, can be 0 * inf or 1 / 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _unwrap(_cumulative_array(spec, arr), arr)


# The gamma inverse goes through Q = exp(-v) up to here; beyond it Q is
# about to leave the normal range and the load solver takes over.
_INVERSE_TAIL_V = 700.0

# Default bracket of the time solver: the smallest normal double and 1e300.
_TIME_FLOOR = np.finfo(float).tiny
_TIME_CEILING = 1e300
# A Newton step this small ends the iteration: with quadratic convergence
# the error left after it is far below rounding.
_NEWTON_STEP_TOL = 1e-9
_NEWTON_MAX_ITER = 200


def _solve_time(fun, target, ceiling=_TIME_CEILING):
    """Times t with G(t) = target, elementwise, for an increasing G > 0.

    ``fun(t, idx)`` returns G(t) and dG/dt for the elements ``idx`` (indices
    into ``target``) that are still open; ``target`` is one-dimensional.
    Safeguarded Newton on log G against log t from t = min(1, ceiling),
    with log-log slope t G' / G.  Steps are taken as t * exp(step), so the
    root keeps full relative precision at any magnitude.  Every evaluation
    narrows a bracket [lo, up], which starts at the smallest normal double
    and at ``ceiling``; a step that lands strictly outside the bracket, or
    is not finite, bisects it geometrically instead.  An element stops once
    a Newton step moves log t by at most 1e-9, or once its bracket closes
    to a few ulp.  A root below the smallest normal double comes back as
    that double; a root at the ceiling raises RuntimeError.
    """
    target = np.asarray(target, dtype=float)
    t = np.full(target.shape, min(1.0, ceiling))
    lo = np.full(t.shape, _TIME_FLOOR)
    up = np.full(t.shape, ceiling)
    out = np.empty(t.shape)
    idx = np.arange(t.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_ITER):
            value, slope = fun(t, idx)
            ratio = value / target
            above = ratio >= 1.0
            up = np.where(above, t, up)
            lo = np.where(above, lo, t)
            step = -np.log(ratio) * value / (t * slope)
            new = t * np.exp(step)
            done = np.abs(step) <= _NEWTON_STEP_TOL
            bisect = ~((new >= lo) & (new <= up))
            if bisect.any():
                new = np.where(bisect, np.sqrt(lo) * np.sqrt(up), new)
                done = np.where(
                    bisect, up - lo <= 4.0 * np.finfo(float).eps * up, done)
            if done.any():
                out[idx[done]] = new[done]
                keep = ~done
                idx, new, lo, up, target = (
                    idx[keep], new[keep], lo[keep], up[keep], target[keep])
            t = new
            if not idx.size:
                break
        else:
            raise RuntimeError("time solver did not converge")
    if np.any(out > (1.0 - 1e-6) * ceiling):
        raise RuntimeError("failed to bracket the root below the time ceiling")
    return out


def _solve_total_load(specs, eps, target):
    """Times t with sum_j eps[:, j] * H_j(t) = target, elementwise.

    The load and its derivative, the rate sum_j eps_j h_j, go through
    ``_solve_time``; a root above 1e300 raises RuntimeError.
    """
    eps = np.asarray(eps, dtype=float)

    def load(t, idx):
        e = eps[idx]
        hs, cums = _rates_and_loads(specs, t)
        return (sum(e[:, j] * c for j, c in enumerate(cums)),
                sum(e[:, j] * h for j, h in enumerate(hs)))

    return _solve_time(load, target)


def _inverse_gamma_array(spec, v):
    # P = 1 - exp(-v) while it is below 1/2, Q = exp(-v) from there on
    from scipy.special import gammainccinv, gammaincinv

    g, a = spec.gamma, spec.alpha
    out = np.empty(v.shape)
    low = v < np.log(2.0)
    out[low] = gammaincinv(g, -np.expm1(-v[low])) / a
    tail = v > _INVERSE_TAIL_V
    mid = ~low & ~tail
    out[mid] = gammainccinv(g, np.exp(-v[mid])) / a
    if np.any(tail):
        vt = v[tail]
        out[tail] = _solve_total_load([spec], np.ones((vt.size, 1)), vt)
    return out


def _inverse_gamma_scalar(spec, v):
    return float(_inverse_gamma_array(spec, np.asarray(v, dtype=float)))


def inverse_cumulative_hazard(spec, v):
    """Solve H(t) = v for t.  Closed form except for the gamma family."""
    arr = _as_time_array(v, allow_zero=True, name="cumulative hazard value")
    g, a = spec.gamma, spec.alpha
    fam = spec.family
    if fam in (Family.WEIBULL, Family.EXPONENTIAL):
        # inf where the root exceeds the double range, as for log-logistic
        with np.errstate(over="ignore"):
            out = (arr / a) ** (1.0 / g)
    elif fam is Family.LOGLOGISTIC:
        # H = log(1 + alpha t**gamma); for large v, expm1 overflows and
        # log(e^v - 1) = v to double precision.  The exact root can exceed
        # the double range for small gamma, in which case inf comes back.
        with np.errstate(divide="ignore", over="ignore"):
            lv = np.where(arr > 690.0, arr, np.log(np.expm1(np.minimum(arr, 690.0))))
            out = np.exp((lv - np.log(a)) / g)
    else:
        out = _inverse_gamma_array(spec, arr)
    return _unwrap(out, arr)


def decomposition(spec):
    """Expose the h(t) = a * t**(gamma-1) * b(t) factorization."""
    g, a = spec.gamma, spec.alpha
    fam = spec.family

    def b_at(t):
        # log b from H: 0 for the power families, -H for log-logistic,
        # H - alpha t for gamma
        arr = _as_time_array(t, allow_zero=True)
        cum = cumulative_hazard(spec, arr)
        log_b = (-cum if fam is Family.LOGLOGISTIC else
                 cum - a * arr if fam is Family.GAMMA else np.zeros(arr.shape))
        return _unwrap(np.exp(log_b), arr)

    if fam is not Family.GAMMA:
        a_value = a * g
    else:
        from scipy.special import gammaln

        a_value = float(np.exp(g * np.log(a) - gammaln(g)))
    return HazardDecomposition(a_value, b_at)


@dataclass(frozen=True)
class FamilyValidation:
    """Result of the structural checks every family must satisfy."""

    b_limit_residual: float
    b_limit_ok: bool
    a_monotone_ok: bool
    horizon: float
    cumulative_at_horizon: float
    divergence_ok: bool

    @property
    def passed(self):
        return self.b_limit_ok and self.a_monotone_ok and self.divergence_ok


def _divergence_horizon(spec):
    """A time at which H should comfortably exceed 50, scaled per family."""
    g, a = spec.gamma, spec.alpha
    if spec.family is Family.GAMMA:
        return (70.0 + 12.0 * g) / a
    # alpha t**gamma = 60 for the power families, e**60 for log-logistic;
    # inf for extreme gamma/alpha: the honest answer, caught downstream
    log_level = 60.0 if spec.family is Family.LOGLOGISTIC else np.log(60.0)
    with np.errstate(over="ignore"):
        return float(np.exp((log_level - np.log(a)) / g))


def validate_family(spec):
    """Check the class constraints: b -> 1 at 0+, a monotone in alpha, H -> inf."""
    dec = decomposition(spec)
    residual = abs(float(dec.b_at(1e-8)) - 1.0)
    b_ok = residual < 1e-6

    alphas = np.geomspace(0.1, 10.0, 20)
    a_vals = [
        decomposition(HazardSpec(spec.family, spec.gamma, float(al))).a_value
        for al in alphas
    ]
    mono_ok = bool(np.all(np.diff(a_vals) > 0.0))

    horizon = _divergence_horizon(spec)
    # H -> inf as t -> inf, and cumulative_hazard takes only finite times
    h_at = cumulative_hazard(spec, horizon) if np.isfinite(horizon) else np.inf
    div_ok = h_at > 50.0

    return FamilyValidation(
        b_limit_residual=residual,
        b_limit_ok=b_ok,
        a_monotone_ok=mono_ok,
        horizon=horizon,
        cumulative_at_horizon=h_at,
        divergence_ok=div_ok,
    )


def hazard_spec_to_dict(spec):
    return {"family": spec.family.value, "gamma": spec.gamma, "alpha": spec.alpha}


def hazard_spec_from_dict(d):
    try:
        family = d["family"]
        gamma = d["gamma"]
        alpha = d["alpha"]
    except KeyError as exc:
        raise ValueError(f"hazard spec missing key {exc}") from None
    try:
        fam = Family(family)
    except ValueError:
        raise ValueError(f"unknown hazard family {family!r}") from None
    return HazardSpec(fam, float(gamma), float(alpha))
