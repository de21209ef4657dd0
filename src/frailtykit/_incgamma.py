"""Regularized upper incomplete gamma function.

``_log_upper`` forms log Q(s, x), and only log Q, from one call of scipy's
``gammainc`` or ``gammaincc`` (DiDonato & Morris, ACM TOMS 12(4), 1986).
Below x = s + 1 it comes from P as ``log1p(-P)``, accurate where Q is close
to 1.  Above it it is the log of ``gammaincc``; from x = 600 on, where Q
nears underflow, log Q is assembled in log space from Lentz's continued
fraction, whose factor callers forming ratios (hazards) use to cancel the
exponential prefactor algebraically; at x = inf it is -inf.
``gammainc_upper`` returns Q itself.

``scipy.special`` is imported inside the functions that call it, so it
loads on the first gamma-family evaluation, not with the package.
"""

from __future__ import annotations

import numpy as np

MAX_ITER = 1000

# Stopping tolerance sits just above the double-precision noise floor; the
# continued-fraction correction factor rattles at ~2 ulp once converged.
_REL_EPS = 4e-16
_TINY = 1e-300

# From here on log Q is taken from the continued fraction: Q(s, 600) is still
# a normal double (above 4e-267 for s >= 0.001), but not for much longer.
_LOG_TAIL_X = 600.0


class IncompleteGammaError(ArithmeticError):
    """Raised when the series or continued fraction fails to converge."""


def series_lower_sum(s, x):
    """Sum of the ascending series for the lower tail.

    Returns ``sum_{n>=0} x^n / (s (s+1) ... (s+n))``, so that the
    regularized lower tail is ``P(s, x) = sum * exp(s*log(x) - x) / Gamma(s)``.
    Converges quickly for x < s + 1; callers should respect that split.
    """
    s, x = np.broadcast_arrays(np.asarray(s, float), np.asarray(x, float))
    term = 1.0 / s.copy()
    total = term.copy()
    ap = s.copy()
    for _ in range(MAX_ITER):
        ap += 1.0
        term = term * (x / ap)
        total += term
        if np.all(np.abs(term) <= np.abs(total) * _REL_EPS):
            return total
    raise IncompleteGammaError("lower-tail series did not converge")


def cf_upper_sum(s, x):
    """Continued-fraction factor for the upper tail (modified Lentz).

    Returns the factor F such that ``Q(s, x) = exp(s*log(x) - x) / Gamma(s) * F``.
    Intended for x >= s + 1.
    """
    s, x = np.broadcast_arrays(np.asarray(s, float), np.asarray(x, float))
    b = x + 1.0 - s
    c = np.full(b.shape, 1.0 / _TINY)
    d = 1.0 / np.where(np.abs(b) < _TINY, _TINY, b)
    h = d.copy()
    for i in range(1, MAX_ITER + 1):
        an = -i * (i - s)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = b + an / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if np.all(np.abs(delta - 1.0) <= _REL_EPS):
            return h
    raise IncompleteGammaError("upper-tail continued fraction did not converge")


def _checked(s, x):
    s, x = np.broadcast_arrays(np.asarray(s, float), np.asarray(x, float))
    if np.any(s <= 0.0):
        raise ValueError("shape parameter must be positive")
    if np.any(x < 0.0):
        raise ValueError("argument must be nonnegative")
    return s, x


def gammainc_upper(s, x):
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s)."""
    from scipy.special import gammaincc

    s, x = _checked(s, x)
    out = gammaincc(s, x)
    return float(out) if out.ndim == 0 else out


def _log_upper(s, x):
    """log Q for a float array x and a scalar s or a float array of x's
    shape, unchecked; Q itself is not formed.  A branch that holds every x
    runs on the whole array, without gathers."""
    from scipy.special import gammainc, gammaincc, gammaln

    def below(s, x):
        return np.log1p(-gammainc(s, x))

    def above(s, x):
        return np.log(gammaincc(s, x))

    def far(s, x):
        return s * np.log(x) - x - gammaln(s) + np.log(cf_upper_sum(s, x))

    low = x < s + 1.0
    tail = ~low & (x >= _LOG_TAIL_X)
    # Q(s, inf) = 0, where the continued fraction has no terms
    top = x == np.inf
    branches = ((below, low), (above, ~low & ~tail), (far, tail & ~top),
                (lambda s, x: np.full(x.shape, -np.inf), top))
    for branch, mask in branches:
        if mask.all():
            return branch(s, x)
    log_q = np.empty(x.shape)
    for branch, mask in branches:
        if mask.any():
            part = s if np.ndim(s) == 0 else s[mask]
            log_q[mask] = branch(part, x[mask])
    return log_q


def log_gammainc_upper(s, x):
    """log Q(s, x), finite far into the right tail where Q underflows."""
    out = _log_upper(*_checked(s, x))
    return float(out) if out.ndim == 0 else out
