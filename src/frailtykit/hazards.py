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
shapes; scalars come back as plain floats.  Each family's log h and H are
written once, in ``_log_hazard_and_cumulative``, and every h, H and b comes
from it, h as exp(log h); log h, H and their parameter derivatives come
from ``_hazard_tangents``, and (L, n) arrays of several causes from
``_stacked_log_rates``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from ._incgamma import _log_upper, cf_upper_sum
from .frailty import _check_block

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
_MAX_DOUBLE = np.finfo(float).max


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
# loop.  H and exp(log h) overflow to inf past the double range, and at
# t = 0 log h is +-inf, or 0 * -inf for the exponential; numpy warns on
# each.  The callers that reach such times ignore those warnings once.


def _log_hazard_and_cumulative(spec, t):
    """(log h(t), H(t)) at positive times: the one place each family's h and
    H are written, with log h in closed form, finite where h overflows.  The
    log-logistic family shares one log t: H = log(1 + alpha t**gamma).  The
    gamma family takes H = -log Q and log h = log f - log Q from one
    incomplete-gamma call; at x = alpha t = inf, H = inf and h = alpha."""
    g, a = spec.gamma, spec.alpha
    if spec.family in (Family.WEIBULL, Family.EXPONENTIAL):
        return np.log(a * g) + (g - 1.0) * np.log(t), a * t ** g
    if spec.family is Family.LOGLOGISTIC:
        lt = np.log(t)
        # log(1 + e**z) in vectorized exp and log1p; np.logaddexp runs a
        # scalar loop
        z = np.log(a) + g * lt
        cum = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        return np.log(a * g) + (g - 1.0) * lt - cum, cum
    # From x = 40 on (and past the continued fraction's x = s + 1 seam) the
    # exponential prefactors of f and Q cancel algebraically, leaving
    # h = 1 / (t * F_cf); forming f and Q there would cost a relative error
    # of about x ulp.
    from scipy.special import gammaln

    x = a * t
    log_q = _log_upper(g, x)
    # log x from log t: x = alpha t can be subnormal, with few digits left
    log_x = np.log(a) + np.log(t)
    # x capped at the largest double: at x = inf this log h is inf, not nan
    log_h = (np.log(a) + (g - 1.0) * log_x - np.minimum(x, _MAX_DOUBLE)
             - gammaln(g) - log_q)
    tail = x >= max(_HAZARD_CF_X, g + 1.0)
    if tail.any():
        # a 0-d time gives a scalar log h; h tends to alpha as x -> inf
        log_h = np.asarray(log_h)
        cf = tail & (x < np.inf)
        log_h[cf] = -np.log(t[cf] * cf_upper_sum(g, x[cf]))
        log_h[tail & ~cf] = np.log(a)
    return log_h, -log_q


# Selections from the kernel.  They stay as functions because
# ``hazard_rate``, ``cumulative_hazard`` and ``b_at`` call them and the
# benchmark's tracer (bench/spans.py) wraps them by name.
def _hazard_array(spec, t):
    return np.exp(_log_hazard_and_cumulative(spec, t)[0])


def _cumulative_array(spec, t):
    return _log_hazard_and_cumulative(spec, t)[1]


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
    """(log h, H, d log h, dH) on a time array of positive times: the values
    of ``_log_hazard_and_cumulative``, from one call of it (three for the
    gamma family), and their derivatives in the packed parameters of the
    spec (``_packed_size``), two (P, n) arrays.

    The other families use closed forms; the log-logistic ones go through
    exp(-H) and 1 - exp(-H), so nothing overflows.  The gamma family takes
    d log h/dlog alpha = gamma - alpha t + t h and dH/dlog alpha = t h, with
    t h = exp(log t + log h), and its log gamma slot by a central difference
    of log h and log H, so the step error stays relative where x**gamma
    spans hundreds of decades."""
    log_h, cum = _log_hazard_and_cumulative(spec, t)
    g, a = spec.gamma, spec.alpha
    fam = spec.family
    if fam is Family.EXPONENTIAL:
        return log_h, cum, np.ones((1,) + t.shape), cum[None]
    if fam is Family.GAMMA:
        lo, hi = (_log_hazard_and_cumulative(HazardSpec(fam, g * e, a), t)
                  for e in np.exp([-_LOG_SHAPE_STEP, _LOG_SHAPE_STEP]))
        scale = 0.5 / _LOG_SHAPE_STEP
        t_h = np.exp(np.log(t) + log_h)
        d_log_h = ((hi[0] - lo[0]) * scale, g - a * t + t_h)
        d_cum = (cum * _log_ratio(hi[1], lo[1]) * scale, t_h)
        return log_h, cum, np.array(d_log_h), np.array(d_cum)
    glt = g * np.log(t)
    if fam is Family.WEIBULL:
        return (log_h, cum, np.array([1.0 + glt, np.ones(t.shape)]),
                np.array([glt * cum, cum]))
    sig, rest = -np.expm1(-cum), np.exp(-cum)
    return (log_h, cum, np.array([1.0 + glt * rest, rest]),
            np.array([glt * sig, sig]))


def _stacked_log_rates(specs, t):
    """(L, n) arrays of log h_j(t) and H_j(t), H inf where t saturates it."""
    with np.errstate(over="ignore"):
        parts = [_log_hazard_and_cumulative(sp, t) for sp in specs]
    return tuple(np.array(p) for p in zip(*parts))


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
    # at t = 0 the kernel's log h, dropped here, is log 0 or 0 * -inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _unwrap(_cumulative_array(spec, arr), arr)


# The gamma inverse goes through Q = exp(-v) up to here; beyond it Q is
# about to leave the normal range and the load solver takes over.
_INVERSE_TAIL_V = 700.0

# Bracket of the time solver: the smallest normal double and 1e300.
_TIME_FLOOR = np.finfo(float).tiny
_TIME_CEILING = 1e300
# A Newton step this small ends the iteration: with quadratic convergence
# the error left after it is far below rounding.
_NEWTON_STEP_TOL = 1e-9
_NEWTON_MAX_ITER = 200


def _solve_time(fun, target):
    """Times t with G(t) = target, elementwise, for an increasing G > 0.

    ``fun(t, idx)`` returns G(t) and its log-time slope t dG/dt for the
    elements ``idx`` (indices into ``target``) that are still open;
    ``target`` is one-dimensional.  Safeguarded Newton on log G against
    log t from t = 1, with log-log slope t G' / G.  Steps are taken as
    t * exp(step), so the root keeps full relative precision at any
    magnitude.  Every evaluation narrows a bracket [lo, up], which starts
    at the smallest normal double and at 1e300; a step that lands strictly
    outside the bracket, or is not finite, bisects it geometrically
    instead.  An element stops once a Newton step moves log t by at most
    1e-9, or once its bracket closes to a few ulp.  A root below the
    smallest normal double comes back a few ulp above that double, as
    2.225073858507202e-308 for instance; a root at 1e300 raises
    RuntimeError.
    """
    target = np.asarray(target, dtype=float)
    t = np.ones(target.shape)
    lo = np.full(t.shape, _TIME_FLOOR)
    up = np.full(t.shape, _TIME_CEILING)
    out = np.empty(t.shape)
    idx = np.arange(t.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_ITER):
            value, slope = fun(t, idx)
            ratio = value / target
            above = ratio >= 1.0
            up = np.where(above, t, up)
            lo = np.where(above, lo, t)
            step = -np.log(ratio) * value / slope
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
    if np.any(out > (1.0 - 1e-6) * _TIME_CEILING):
        raise RuntimeError("failed to bracket the root below the time ceiling")
    return out


def _solve_total_load(specs, eps, target):
    """Times t with sum_j eps[:, j] * H_j(t) = target, elementwise.

    The load and its log-time slope sum_j eps_j t h_j go through
    ``_solve_time``, with t h_j = exp(log t + log h_j), finite where h_j
    overflows; a root above 1e300 raises RuntimeError.
    """
    eps = np.asarray(eps, dtype=float)

    def load(t, idx):
        e = eps[idx].T
        log_hs, cums = _stacked_log_rates(specs, t)
        return ((e * cums).sum(axis=0),
                (e * np.exp(np.log(t) + log_hs)).sum(axis=0))

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
    _check_block(d, "hazard spec")
    try:
        family, gamma, alpha = d["family"], d["gamma"], d["alpha"]
    except KeyError as exc:
        raise ValueError(f"hazard spec missing key {exc}") from None
    try:
        fam = Family(family)
    except ValueError:
        raise ValueError(f"unknown hazard family {family!r}") from None
    try:
        return HazardSpec(fam, float(gamma), float(alpha))
    except TypeError:
        raise ValueError("hazard spec gamma and alpha must be numbers, got "
                         f"{gamma!r} and {alpha!r}") from None
