"""Bivariate competing-risks model: hazards mixed over a discrete frailty.

Given the frailty atom, the two individuals are independent and each cause
acts through its own multiplied hazard.  Every joint quantity therefore
factorizes atom by atom into products of one-dimensional integrals, which is
how everything here is computed; a brute-force double quadrature exists only
in the test suite as an oracle.

The sub-density f is the frailty mixture of the conditional integrand
h_j eps_j exp(-sum_j' eps_j' H_j') that the tables behind F integrate.  The
tables integrate it in x = log t, where t h_j eps_j exp(...) is one
exponential of log h and H: bounded for every shape, so the origin needs no
substitution, and 0 where the exponent saturates.  Up to the time where the
load reaches about abs_tol a table takes a closed form; past it, segments
split near dyadic levels of the baseline cumulative hazard, placed from one
log-time grid evaluation, so mass many scales below the upper limit is
never missed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import frailty as fr
from ._quad import integrate
# _hazard_array is unused here but looked up on this module by bench/ tests
from .hazards import _hazard_array  # noqa: F401
from .hazards import (
    HazardSpec,
    _as_time_array,
    _hazard_tangents,
    _packed_size,
    _solve_total_load,
    _stacked_log_rates,
    cumulative_hazard,
    hazard_rate,
    hazard_spec_from_dict,
    hazard_spec_to_dict,
)

__all__ = [
    "QuadratureConfig",
    "ModelSpec",
    "conditional_hazard",
    "conditional_survival",
    "conditional_sub_distribution",
    "marginal_sub_density",
    "marginal_sub_distribution",
    "marginal_survival",
    "joint_survival",
    "joint_sub_density",
    "joint_sub_distribution",
    "joint_sub_distribution_grid",
    "joint_sub_density_grid",
    "survival_load_vector",
    "sub_distribution_table",
    "time_horizon",
    "model_to_dict",
    "model_from_dict",
]


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (0.0 < self.rel_tol < np.inf and 0.0 < self.abs_tol < np.inf):
            raise ValueError("tolerances must be positive and finite")
        fr._check_index(self.max_subdivisions, 1, np.inf, "max_subdivisions")


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Structure + one hazard per (individual, cause) + frailty mixture.

    The frailty must be unit-mean unless ``require_unit_mean=False`` is
    passed explicitly (used e.g. to exhibit the scale confounding that the
    unit-mean convention removes).
    """

    structure: fr.FrailtyStructure
    hazards: Mapping
    frailty: fr.DiscreteFrailty
    require_unit_mean: bool = True

    def __post_init__(self):
        hz = dict(self.hazards)
        if tuple(sorted(hz)) != self.structure.slots:
            raise ValueError(
                "hazards must contain exactly one spec per (individual, cause)")
        for key, spec in hz.items():
            if not isinstance(spec, HazardSpec):
                raise ValueError(f"hazards[{key}] is not a HazardSpec")
        if self.frailty.structure != self.structure:
            raise ValueError("frailty structure does not match model structure")
        if self.require_unit_mean:
            means = fr.coordinate_means(self.frailty)
            if np.any(np.abs(means - 1.0) > fr._MEAN_ONE_TOL):
                raise ValueError("frailty must have unit mean per coordinate")
        object.__setattr__(self, "hazards", hz)
        object.__setattr__(
            self, "_eps",
            {k: fr.expanded_matrix(self.frailty, k) for k in (1, 2)})

    @classmethod
    def from_lists(cls, structure, hazards_1, hazards_2, frailty,
                   require_unit_mean=True):
        hz = {(1, j + 1): h for j, h in enumerate(hazards_1)}
        hz.update({(2, j + 1): h for j, h in enumerate(hazards_2)})
        return cls(structure, hz, frailty, require_unit_mean)

    def hazard(self, k, j):
        return self.hazards[(k, j)]

    def hazards_for(self, k):
        return [self.hazards[(k, j)]
                for j in range(1, self.structure.num_causes(k) + 1)]

    def eps_matrix(self, k):
        """(num_atoms, L_k) per-cause frailty multipliers."""
        return self._eps[k]

    def num_causes(self, k):
        return self.structure.num_causes(k)


def _pair_eps(pair_frailty, k, n_causes):
    eps = np.asarray(pair_frailty[k - 1], dtype=float).reshape(-1)
    if eps.shape[0] != n_causes:
        raise ValueError("pair frailty has wrong number of causes")
    if np.any(eps <= 0.0) or not np.all(np.isfinite(eps)):
        raise ValueError("pair frailty multipliers must be positive")
    return eps


def _cause_index(m, k, j):
    """The 0-based position of cause j of individual k; ValueError unless
    j is an integer in 1..L_k."""
    return fr._check_index(j, 1, m.num_causes(k), f"cause of individual {k}") - 1


def _check_times(*times, positive=False):
    """ValueError unless every time is finite and nonnegative (positive)."""
    for t in times:
        _as_time_array(t, allow_zero=not positive, name="times")


def _check_scalar_times(*times, positive=False):
    """``_check_times``, and ValueError on an array time as well."""
    if any(np.ndim(t) for t in times):
        raise ValueError("times must be scalars; grid functions take arrays")
    _check_times(*times, positive=positive)


def conditional_hazard(m, k, j, t, pair_frailty):
    """Cause-j hazard of individual k given the frailty pair."""
    col = _cause_index(m, k, j)
    _check_times(t, positive=True)
    eps = _pair_eps(pair_frailty, k, m.num_causes(k))
    return eps[col] * hazard_rate(m.hazard(k, j), t)


def conditional_survival(m, k, t, pair_frailty):
    """exp(-sum_j eps_j H_j(t)) for individual k given the frailty pair."""
    _check_times(t)
    eps = _pair_eps(pair_frailty, k, m.num_causes(k))
    total = sum(e * cumulative_hazard(sp, t)
                for e, sp in zip(eps, m.hazards_for(k)))
    return np.exp(-total) if np.ndim(total) else float(np.exp(-total))


_TINY = np.finfo(float).tiny
# Dyadic levels of the total cumulative hazard stop at 2**54.
_TOP_LEVEL_EXPONENT = 54
# The grid of _total_level_time: points per binary decade of t, and decades.
_GRID_PER_OCTAVE = 4
_GRID_OCTAVES = 64


def _total_level_time(specs, levels, hi):
    """Times t below hi near sum_j H_j(t) = level, for every level at once.

    One hazard call on a log2-spaced grid ending at hi; log t is linear in
    log H between its points and, below it, keeps its lowest slope (H ~
    t**gamma_min near 0).  Levels not below 0.999 of the top total get hi.
    A grid with under two finite totals moves down by its span and retries.
    """
    t = hi * np.exp2(np.arange(-_GRID_OCTAVES * _GRID_PER_OCTAVE, 1)
                     / _GRID_PER_OCTAVE)
    while True:
        # at a grid point underflowed to 0 the exponential's log h is 0 * -inf
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            log_h = np.log(_stacked_log_rates(specs, t)[1].sum(axis=0))
        if log_h[1] != np.inf:
            break
        t = t * 2.0 ** -_GRID_OCTAVES
    ok = np.isfinite(log_h) & (t >= _TINY)
    if ok.sum() < 2:
        return np.full(levels.shape, hi)
    lh, lt = log_h[ok], np.log(t[ok])
    x = np.log(levels)
    slope = (lt[1] - lt[0]) / (lh[1] - lh[0])
    out = np.exp(np.where(x < lh[0], lt[0] + (x - lh[0]) * slope,
                          np.interp(x, lh, lt)))
    return np.where(x < log_h[-1] + np.log(0.999), out, hi)


def _segment_points(specs, t_points, abs_tol):
    """Integration breakpoints: the requested times plus times near the
    dyadic levels of the baseline total cumulative hazard, from one grid
    evaluation, so no scale of the integrand is skipped.

    The levels start at the largest power of two not above abs_tol; below
    the first of them a table takes its closed-form head (``_head``)."""
    t_max = t_points[-1]
    first = np.frexp(abs_tol)[1] - 1
    levels = np.ldexp(1.0, np.arange(first, _TOP_LEVEL_EXPONENT + 1))
    extras = _total_level_time(specs, levels, t_max)
    extras = extras[(extras > 0.0) & (extras < t_max)]
    return np.unique(np.concatenate([np.asarray(t_points, float), extras]))


def _head(eps, cums):
    """The closed-form head of a table at times t, from the (L, m) H_j(t):
    the (L, W, m) loads eps_j H_j, their (W, m) sum S and phi(S) =
    -expm1(-S) / S.  The head of cause j is eps_j H_j phi(S), the mass by t
    split in proportion to the loads: off by at most eps_j H_j S / 2, and
    exact when one cause carries the load."""
    loads = eps.T[:, :, None] * cums[:, None, :]
    s = loads.sum(axis=0)
    return loads, s, np.divide(-np.expm1(-s), s, out=np.ones_like(s),
                               where=s > 0.0)


def _log_time_values(x, log_hs, cums, eps):
    """t h_j eps_wj exp(-sum_j' eps_wj' H_j') at t = exp(x) as an (L, W, n)
    array, from the (L, n) log h and H: one exponential of its log, bounded
    for every shape, and exp(-inf) = 0 where the exponent saturates."""
    return np.exp((x + log_hs)[:, None, :] + np.log(eps).T[:, :, None]
                  - (eps @ cums)[None])


def _integrand(specs, eps):
    """The integrand of a conditional table in x = log t, x (n,) -> (n, L * W)
    values of ``_log_time_values`` in column j * W + w; its closed-form head
    t (m,) -> (m, L * W) (``_head``); and the column shape (L, W)."""
    n_l, n_w = len(specs), eps.shape[0]

    def f(x):
        vals = _log_time_values(x, *_stacked_log_rates(specs, np.exp(x)), eps)
        return vals.reshape(n_l * n_w, -1).T

    def head(t):
        loads, _, phi = _head(eps, _stacked_log_rates(specs, t)[1])
        return (loads * phi).reshape(n_l * n_w, -1).T

    return f, head, (n_l, n_w)


def _tangent_integrand(specs, eps):
    """The integrand and head of a conditional table and of its derivatives,
    as ``_integrand`` returns them, with column shape (1 + P + L, L, W): the
    values of ``_integrand``, then their derivatives in the P packed
    parameters of the specs in order (``_hazard_tangents``), then one block
    per cause c whose column j * W + w is the derivative of value
    j * W + w in eps[w, c].  A derivative is its value times d log h_j -
    d(eps . H) in a parameter of cause j and delta_jc / eps_c - H_c in
    eps_c, from one kernel pass; 0 where the exponent saturates.
    """
    n_l, n_w = len(specs), eps.shape[0]
    cause = np.repeat(np.arange(n_l), [_packed_size(sp.family) for sp in specs])
    n_p = cause.size
    e_c = eps[:, cause].T[:, :, None]

    def tangents(t):
        # H and its derivatives overflow to inf where t saturates them
        with np.errstate(over="ignore", invalid="ignore"):
            parts = [_hazard_tangents(sp, t) for sp in specs]
        return ([np.array([p[i] for p in parts]) for i in (0, 1)]
                + [np.concatenate([p[i] for p in parts]) for i in (2, 3)])

    def f(x):
        log_hs, cums, d_log_h, dcum = tangents(np.exp(x))
        vals = _log_time_values(x, log_hs, cums, eps)
        out = np.empty((1 + n_p + n_l,) + vals.shape)
        out[0] = vals
        d_haz, d_eps = out[1:1 + n_p], out[1 + n_p:]
        # 0 * inf where the exponent saturates; those columns are zeroed
        with np.errstate(invalid="ignore"):
            np.multiply(vals[None], (e_c * -dcum[:, None])[:, None],
                        out=d_haz)
            np.multiply(vals[None], -cums[:, None, None], out=d_eps)
        d_haz[np.arange(n_p), cause] += vals[cause] * d_log_h[:, None]
        d_eps[np.arange(n_l), np.arange(n_l)] += vals / eps.T[:, :, None]
        if not vals.all():
            out = np.where(vals == 0.0, 0.0, out)
        return out.reshape(-1, x.size).T

    def head(t):
        # value j moves by delta_jc phi + eps_j H_j phi'(S) per unit of the
        # load of cause c, which moves by eps_c dH_s in its parameter s and
        # by H_c in eps_c
        _, cums, _, dcum = tangents(t)
        loads, s, phi = _head(eps, cums)
        d_phi = np.divide(np.exp(-s) - phi, s, out=np.full_like(s, -0.5),
                          where=s > 0.0)
        d_load = np.eye(n_l)[:, :, None, None] * phi + loads * d_phi
        out = np.concatenate([(loads * phi)[None],
                              (e_c * dcum[:, None])[:, None] * d_load[cause],
                              cums[:, None, None, :] * d_load])
        return out.reshape(-1, t.size).T

    return f, head, (1 + n_p + n_l, n_l, n_w)


def _table_segments(specs, t_points, q):
    """The checked time grid of a table and the segments it integrates.

    The head of the table runs to t_lo, the first time of the level ladder
    of ``_segment_points`` (where the load is about abs_tol), but not below
    the smallest normal double nor above the last requested time.  Returns
    (ts, points, lo, starts, ends, wide): the requested times, the
    breakpoints with t_lo at index lo, the log-time segments between the
    breakpoints from t_lo on, and the mask of segments of nonzero width.
    """
    ts = np.asarray(t_points, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("need a one-dimensional nonempty time grid")
    _check_times(ts, positive=True)
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("time grid must be strictly increasing")
    ladder = _segment_points(specs, ts[-1:], q.abs_tol)
    t_lo = min(max(ladder[0], _TINY), ts[-1])
    points = np.unique(np.concatenate([ts, ladder, [t_lo]]))
    lo = int(np.searchsorted(points, t_lo))
    x = np.log(points[lo:])
    # distinct large breakpoints can share one log; such a segment has zero
    # width and contributes nothing
    return ts, points, lo, x[:-1], x[1:], x[1:] > x[:-1]


def _cause_curves(specs, eps, t_points, q, integrand=_integrand):
    """Cumulative conditional sub-distributions, vectorized over atoms.

    specs: the L hazard specs of one individual; eps: (W, L) multipliers.
    Returns a (W, L, len(t_points)) array of
    int_0^{t} h_j(u) eps_j exp(-sum_j' eps_j' H_j'(u)) du.  With
    ``_tangent_integrand`` it returns the (1 + P + L, W, L, n) stack of
    that table and its derivatives instead.

    Up to t_lo (``_table_segments``) the table is the integrand's closed
    form head.  Past it, all segments between breakpoints are integrated in
    x = log t in one batched call, and a cumulative sum over them, on top of
    the head at t_lo, gives the table.
    """
    eps = np.asarray(eps, dtype=float)
    ts, points, lo, starts, ends, wide = _table_segments(specs, t_points, q)
    f, head, shape = integrand(specs, eps)
    vals = np.zeros((points.size, int(np.prod(shape))))
    vals[:lo + 1] = head(points[:lo + 1])
    vals[lo + 1:][wide], _ = integrate(f, starts[wide], ends[wide], q.rel_tol,
                                       q.abs_tol, q.max_subdivisions)
    vals[lo:] = np.cumsum(vals[lo:], axis=0)
    table = vals[np.searchsorted(points, ts)]
    return table.T.reshape(shape + (-1,)).swapaxes(-3, -2)


def _grid_tangents(m, points):
    """The derivatives of the F grid of m on points = (t1_points,
    t2_points), each table's from one adaptive pass of
    ``_tangent_integrand`` at ``DEFAULT_QUADRATURE``, the config of
    ``joint_sub_distribution_grid``.

    Returns (d_hazards, d_eps, d_weights): in the packed parameters of the
    (k, j) hazards in slot order, (P, L1, L2, n1, n2); per individual k in
    the entries eps_matrix(k)[w, c], (W, L_k, L1, L2, n1, n2); and in the
    weights, (W, L1, L2, n1, n2).
    """
    tables = []
    for k, t_points in zip((1, 2), points):
        t = _cause_curves(m.hazards_for(k), m.eps_matrix(k), t_points,
                          DEFAULT_QUADRATURE, _tangent_integrand)
        n_l = m.num_causes(k)
        tables.append((t[0], t[1:-n_l], t[-n_l:]))
    (c1, dh1, de1), (c2, dh2, de2) = tables
    p = m.frailty.weights
    d_hazards = np.concatenate([np.einsum("w,swai,wbl->sabil", p, dh1, c2),
                                np.einsum("w,wai,swbl->sabil", p, c1, dh2)])
    d_eps = (np.einsum("w,cwai,wbl->wcabil", p, de1, c2),
             np.einsum("w,wai,cwbl->wcabil", p, c1, de2))
    return d_hazards, d_eps, np.einsum("wai,wbl->wabil", c1, c2)


def sub_distribution_table(m, k, t_points, q=None):
    """(num_atoms, L_k, n) conditional sub-distribution values per atom."""
    q = q or DEFAULT_QUADRATURE
    return _cause_curves(m.hazards_for(k), m.eps_matrix(k), t_points, q)


def conditional_sub_distribution(m, k, j, t, pair_frailty, q=None):
    """P(T_k <= t, J_k = j | frailty pair) by adaptive quadrature."""
    col = _cause_index(m, k, j)
    _check_scalar_times(t)
    if t == 0.0:
        return 0.0
    q = q or DEFAULT_QUADRATURE
    eps = _pair_eps(pair_frailty, k, m.num_causes(k))[None, :]
    table = _cause_curves(m.hazards_for(k), eps, np.array([t]), q)
    return float(table[0, col, 0])


def marginal_sub_distribution(m, k, j, t, q=None):
    """P(T_k <= t, J_k = j): the conditional value mixed over atoms."""
    col = _cause_index(m, k, j)
    _check_scalar_times(t)
    if t == 0.0:
        return 0.0
    q = q or DEFAULT_QUADRATURE
    table = sub_distribution_table(m, k, np.array([float(t)]), q)
    return float(m.frailty.weights @ table[:, col, 0])


def _sub_densities(m, k, ts):
    """(W, L_k, n) sub-densities h_j eps_wj exp(-sum_j' eps_wj' H_j') of
    individual k given each atom at the times ts (n,), in product form with
    h = exp(log h): a saturated exponent gives 0 where h has overflowed."""
    log_hs, cums = _stacked_log_rates(m.hazards_for(k), ts)
    eps = m.eps_matrix(k)
    damp = np.exp(-(eps @ cums))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.exp(log_hs)[:, None, :] * eps.T[:, :, None] * damp
    return np.where(damp == 0.0, 0.0, vals).swapaxes(0, 1)


def marginal_sub_density(m, k, j, t):
    """Marginal cause-j sub-density of individual k (exact finite sum): the
    frailty mixture of the conditional integrand h_j eps_j exp(-eps . H)."""
    col = _cause_index(m, k, j)
    _check_times(t, positive=True)
    ts = np.asarray(t, dtype=float)
    block = _sub_densities(m, k, ts.reshape(-1))
    out = (m.frailty.weights @ block[:, col]).reshape(ts.shape)
    return float(out) if out.ndim == 0 else out


def _coordinate_loads(structure, hazards, t1, t2):
    """``survival_load_vector`` from a structure and a (k, j) hazard map."""
    t1, t2 = np.broadcast_arrays(np.asarray(t1, dtype=float),
                                 np.asarray(t2, dtype=float))
    s = np.zeros(t1.shape + (structure.dimension,))
    for k, t in ((1, t1), (2, t2)):
        for j, c in enumerate(structure.coordinates(k), start=1):
            s[..., c] += cumulative_hazard(hazards[(k, j)], t)
    return s


def survival_load_vector(m, t1, t2):
    """Map (t1, t2) to the frailty-space vector s with
    joint_survival = lst(frailty, s): s accumulates each (k, j) cumulative
    hazard onto the coordinate that multiplies it.  Elementwise in t1 and
    t2, which broadcast together: the result has their broadcast shape plus
    a trailing axis of the structure's dimension."""
    return _coordinate_loads(m.structure, m.hazards, t1, t2)


def joint_survival(m, t1, t2):
    """P(T1 > t1, T2 > t2); exact finite sum via the frailty transform."""
    _check_times(t1, t2)
    return fr.lst(m.frailty, survival_load_vector(m, t1, t2))


def marginal_survival(m, k, t):
    """P(T_k > t)."""
    m.num_causes(k)  # ValueError unless k names individual 1 or 2
    return joint_survival(m, t, 0.0) if k == 1 else joint_survival(m, 0.0, t)


def joint_sub_density(m, j1, j2, t1, t2):
    """Joint sub-density f_{j1 j2}(t1, t2) (exact finite sum)."""
    a = _cause_index(m, 1, j1)
    b = _cause_index(m, 2, j2)
    _check_scalar_times(t1, t2, positive=True)
    grid = joint_sub_density_grid(m, [t1], [t2])
    return float(grid[a, b, 0, 0])


def joint_sub_distribution(m, j1, j2, t1, t2, q=None):
    """F_{j1 j2}(t1, t2) = P(T1 <= t1, J1 = j1, T2 <= t2, J2 = j2).

    One entry of ``joint_sub_distribution_grid``: atom by atom the product
    of two one-dimensional conditional integrals, then mixed.
    """
    a = _cause_index(m, 1, j1)
    b = _cause_index(m, 2, j2)
    _check_scalar_times(t1, t2)
    if t1 == 0.0 or t2 == 0.0:
        return 0.0
    return float(joint_sub_distribution_grid(m, [t1], [t2], q)[a, b, 0, 0])


def _mix(m, c1, c2):
    """F from the two conditional tables: the frailty mixture of their
    atom-by-atom products."""
    return np.einsum("w,wai,wbl->abil", m.frailty.weights, c1, c2)


def joint_sub_distribution_grid(m, t1_points, t2_points, q=None):
    """F_{j1 j2} on a product grid: (L1, L2, n1, n2) tensor.

    The per-axis conditional tables are built once and reused for every
    cause pair and grid point.
    """
    q = q or DEFAULT_QUADRATURE
    c1 = sub_distribution_table(m, 1, t1_points, q)
    c2 = sub_distribution_table(m, 2, t2_points, q)
    return _mix(m, c1, c2)


def joint_sub_density_grid(m, t1_points, t2_points):
    """f_{j1 j2} on a product grid: (L1, L2, n1, n2) tensor (finite sums).

    f is the frailty mixture of the conditional integrands of F's tables:
    f_{ab}(t1, t2) = sum_w p_w g_1wa(t1) g_2wb(t2), with g_kwj =
    h_kj eps_wj exp(-sum_j' eps_wj' H_kj'), and 0 where that saturates.
    """
    t1s = np.asarray(t1_points, dtype=float).reshape(-1)
    t2s = np.asarray(t2_points, dtype=float).reshape(-1)
    _check_times(t1s, t2s, positive=True)
    return _mix(m, _sub_densities(m, 1, t1s), _sub_densities(m, 2, t2s))


def time_horizon(m, min_load=40.0):
    """The first time by which every atom's total conditional load and every
    raw cumulative hazard reach min_load.

    Past this point each conditional survival is below exp(-min_load), so the
    sub-distributions have effectively saturated.  Per individual, one
    ``_solve_total_load`` call finds the roots of sum_j eps_j H_j(t) =
    min_load for unit rows eps (the raw H_j) stacked over the atom rows; the
    horizon is the largest root.  A horizon beyond 1e300 raises RuntimeError
    instead of returning inf.
    """
    min_load = float(min_load)
    if not (np.isfinite(min_load) and min_load > 0.0):
        raise ValueError("min_load must be positive and finite")
    t = 0.0
    for k in (1, 2):
        eps = m.eps_matrix(k)
        rows = np.vstack([np.eye(eps.shape[1]), eps])
        try:
            roots = _solve_total_load(m.hazards_for(k), rows,
                                      np.full(len(rows), min_load))
        except RuntimeError as exc:
            raise RuntimeError("saturation horizon exceeds the floating-point "
                               "range for this model") from exc
        t = max(t, float(roots.max()))
    return t


def model_to_dict(m):
    return {
        "structure": fr.structure_to_dict(m.structure),
        "hazards": {
            str(k): [hazard_spec_to_dict(spec) for spec in m.hazards_for(k)]
            for k in (1, 2)
        },
        "frailty": fr.frailty_to_dict(m.frailty),
    }


def model_from_dict(d):
    fr._check_block(d, "model")
    try:
        structure = fr.structure_from_dict(d["structure"])
    except KeyError:
        raise ValueError("model missing 'structure'") from None
    try:
        hz_block = d["hazards"]
        frailty_block = d["frailty"]
    except KeyError as exc:
        raise ValueError(f"model missing key {exc}") from None
    fr._check_block(hz_block, "model hazards")
    hazards = {}
    for k in (1, 2):
        key = str(k)
        if key not in hz_block:
            raise ValueError(f"model hazards missing individual {k}")
        specs = hz_block[key]
        if not isinstance(specs, (list, tuple)):
            raise ValueError(
                f"model hazards of individual {k} must be a list of hazard "
                f"specs, got {type(specs).__name__}")
        if len(specs) != structure.num_causes(k):
            raise ValueError(
                f"individual {k} needs {structure.num_causes(k)} hazard specs, "
                f"got {len(specs)}")
        for j, spec_dict in enumerate(specs, start=1):
            hazards[(k, j)] = hazard_spec_from_dict(spec_dict)
    g = fr.frailty_from_dict(frailty_block, structure=structure)
    return ModelSpec(structure, hazards, g)
