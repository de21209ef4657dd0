"""Adaptive Gauss-Kronrod quadrature for vector-valued integrands.

A 7/15 Gauss-Kronrod rule on bisected panels.  All components of a
vector-valued integrand share a single subdivision tree, so integrands that
evaluate many mixture components at once (atoms x causes) are handled in one
adaptive pass.  Nodes and weights are the classical QUADPACK dqk15 constants.
"""

from __future__ import annotations

import numpy as np

_XGK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full 15-point rule in ascending node order; the embedded 7-point Gauss
# nodes sit at the odd indices.
NODES = np.concatenate([-_XGK_HALF[:7], [0.0], _XGK_HALF[:7][::-1]])
WEIGHTS_K = np.concatenate([_WGK_HALF[:7], [_WGK_HALF[7]], _WGK_HALF[:7][::-1]])
WEIGHTS_G = np.concatenate([_WG_HALF[:3], [_WG_HALF[3]], _WG_HALF[:3][::-1]])


class QuadratureError(RuntimeError):
    """Adaptive subdivision hit its panel budget before reaching tolerance."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


def gk15(f, a, b):
    """Gauss-Kronrod panels on [a, b].

    Scalar endpoints give one panel and return (integral, error_estimate),
    each (m,).  Arrays of P endpoints give P panels, evaluated by one call of
    f on their stacked 15 * P nodes, and return two (P, m) arrays.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c[..., None] + h[..., None] * NODES
    y = np.asarray(f(x.reshape(-1)), float)
    if y.ndim == 1:
        y = y[:, None]
    y = y.reshape(x.shape + y.shape[-1:])
    val_k = h[..., None] * (WEIGHTS_K @ y)
    val_g = h[..., None] * (WEIGHTS_G @ y[..., 1::2, :])
    return val_k, np.abs(val_k - val_g)


def _segment_sums(panel_values, owner, n_segments):
    out = np.zeros((n_segments, panel_values.shape[1]))
    np.add.at(out, owner, panel_values)
    return out


def integrate(f, a, b, rel_tol=1e-9, abs_tol=1e-12, max_subdivisions=200):
    """Adaptively integrate a vector-valued f over [a, b].

    f maps an array of points (n,) to values (n, m).  Scalar a, b return
    (integral, error), each (m,).  Arrays of S endpoints integrate the S
    segments [a_s, b_s] together and return two (S, m) arrays.

    Refinement is breadth-first.  A segment is done when every component of
    its panel sum satisfies err <= max(abs_tol, rel_tol * |integral|).  Each
    round bisects, in every segment not yet done, each panel whose error
    exceeds its width's share of that tolerance, and evaluates all the new
    panels in one gk15 call.  A segment may be bisected at most
    max_subdivisions times; a round that would go beyond that raises
    QuadratureError.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(a, float)),
                                 np.atleast_1d(np.asarray(b, float)))
    if lo.ndim != 1:
        raise ValueError("integration endpoints must be scalars or 1-D arrays")
    if not np.all(hi > lo):
        raise ValueError("integration interval must have b > a")
    n_seg = lo.size
    seg_width = hi - lo
    owner = np.arange(n_seg)
    val, err = gk15(f, lo, hi)
    # one panel per segment: its sums are the panel's own
    total, tot_err = val, err
    splits = np.zeros(n_seg, dtype=int)
    while True:
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        open_seg = ~np.all(tot_err <= tol, axis=1)
        if not open_seg.any():
            break
        share = ((hi - lo) / seg_width[owner])[:, None]
        fails = open_seg[owner] & ~np.all(err <= share * tol[owner], axis=1)
        # rounding can leave a segment over its tolerance while every panel
        # meets its share; all of that segment's panels are bisected then
        stuck = open_seg & (np.bincount(owner[fails], minlength=n_seg) == 0)
        fails |= stuck[owner]
        splits += np.bincount(owner[fails], minlength=n_seg)
        if np.any(splits > max_subdivisions):
            worst = float(np.max(np.where(open_seg[:, None], tot_err, 0.0)))
            raise QuadratureError(
                f"quadrature did not converge after {max_subdivisions} "
                f"subdivisions; worst error estimate {worst:.3e}",
                value=total[0] if scalar else total,
                error=tot_err[0] if scalar else tot_err,
            )
        keep = ~fails
        mid = 0.5 * (lo[fails] + hi[fails])
        new_lo = np.concatenate([lo[fails], mid])
        new_hi = np.concatenate([mid, hi[fails]])
        new_val, new_err = gk15(f, new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        owner = np.concatenate([owner[keep], owner[fails], owner[fails]])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])
        total = _segment_sums(val, owner, n_seg)
        tot_err = _segment_sums(err, owner, n_seg)
    if scalar:
        return total[0], tot_err[0]
    return total, tot_err


def integrate_power_substituted(f, upper, power, rel_tol=1e-9, abs_tol=1e-12,
                                max_subdivisions=200):
    """Integrate f over [0, upper] with the substitution u = v**power.

    Regularizes integrable endpoint singularities u**(g-1) at the origin when
    power = 1/min(g): the transformed integrand is bounded on the new interval.
    Nodes where v**power underflows to 0 are moved to the smallest normal
    number, so f is never asked for its value at the origin.
    """
    def transformed(v):
        u = np.maximum(v ** power, np.finfo(float).tiny)
        vals = np.asarray(f(u), float)
        if vals.ndim == 1:
            vals = vals[:, None]
        return vals * (power * v ** (power - 1.0))[:, None]

    return integrate(transformed, 0.0, upper ** (1.0 / power),
                     rel_tol, abs_tol, max_subdivisions)
