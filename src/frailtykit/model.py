"""Bivariate competing-risks model: hazards mixed over a discrete frailty.

Given the frailty atom, the two individuals are independent and each cause
acts through its own multiplied hazard.  Every joint quantity therefore
factorizes atom by atom into products of one-dimensional integrals, which is
how everything here is computed; a brute-force double quadrature exists only
in the test suite as an oracle.

Time integrals run over segments split at dyadic levels of the baseline
cumulative hazard, so mass concentrated many scales below the upper limit is
never missed, and an endpoint substitution u = v**(1/gamma_min) regularizes
the integrable singularity that gamma < 1 hazards put at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from . import frailty as fr
from ._quad import (
    WEIGHTS_K,
    _segment_sums,
    adaptive_panels,
    integrate,
    panel_nodes,
    power_nodes,
    substitute_power,
)
# _hazard_array is unused here but looked up on this module by bench/ tests
from .hazards import _hazard_array  # noqa: F401
from .hazards import (
    HazardSpec,
    _as_time_array,
    _hazard_tangents,
    _rates_and_loads,
    _solve_time,
    _solve_total_load,
    cumulative_hazard,
    hazard_rate,
    hazard_spec_from_dict,
    hazard_spec_to_dict,
    inverse_cumulative_hazard,
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


def _check_count(n, name):
    """n as an int; ValueError unless it is an integer (not bool) >= 1."""
    if isinstance(n, (bool, np.bool_)) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"{name} must be at least 1")
    return int(n)


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (0.0 < self.rel_tol < np.inf and 0.0 < self.abs_tol < np.inf):
            raise ValueError("tolerances must be positive and finite")
        _check_count(self.max_subdivisions, "max_subdivisions")


DEFAULT_QUADRATURE = QuadratureConfig()

_MEAN_ONE_TOL = 1e-9


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
        expected = [
            (k, j)
            for k in (1, 2)
            for j in range(1, self.structure.num_causes(k) + 1)
        ]
        if sorted(hz.keys()) != expected:
            raise ValueError(
                "hazards must contain exactly one spec per (individual, cause)")
        for key, spec in hz.items():
            if not isinstance(spec, HazardSpec):
                raise ValueError(f"hazards[{key}] is not a HazardSpec")
        if self.frailty.structure != self.structure:
            raise ValueError("frailty structure does not match model structure")
        if self.require_unit_mean:
            means = fr.coordinate_means(self.frailty)
            if np.any(np.abs(means - 1.0) > _MEAN_ONE_TOL):
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


def _check_individual(k):
    """ValueError unless k names individual 1 or 2."""
    if isinstance(k, (bool, np.bool_)) or k not in (1, 2):
        raise ValueError(f"individual must be 1 or 2, got {k!r}")


def _check_times(*times, positive=False):
    """ValueError unless every time is finite and nonnegative (positive)."""
    for t in times:
        _as_time_array(t, allow_zero=not positive, name="times")


def conditional_hazard(m, k, j, t, pair_frailty):
    """Cause-j hazard of individual k given the frailty pair."""
    col = _cause_index(m, k, j)
    _check_times(t, positive=True)
    eps = _pair_eps(pair_frailty, k, m.num_causes(k))
    return eps[col] * hazard_rate(m.hazard(k, j), t)


def conditional_survival(m, k, t, pair_frailty):
    """exp(-sum_j eps_j H_j(t)) for individual k given the frailty pair."""
    _check_individual(k)
    _check_times(t)
    eps = _pair_eps(pair_frailty, k, m.num_causes(k))
    total = sum(e * cumulative_hazard(sp, t)
                for e, sp in zip(eps, m.hazards_for(k)))
    return np.exp(-total) if np.ndim(total) else float(np.exp(-total))


# Dyadic levels of the total cumulative hazard stop at 2**54.
_TOP_LEVEL_EXPONENT = 54


def _total_level_time(specs, levels, hi):
    """Times t below hi with sum_j H_j(t) = level, for every level at once.

    One ``hazards._solve_time`` call on the total cumulative hazard, with
    the total rate as its derivative and hi as the ceiling.  A level that
    the total still reaches at the smallest normal double gets that double.
    """
    def total(t, idx):
        hs, cums = _rates_and_loads(specs, t)
        return sum(cums), sum(hs)

    return _solve_time(total, levels, ceiling=hi)


def _segment_points(specs, t_points, abs_tol):
    """Integration breakpoints: the requested times plus dyadic levels of the
    baseline total cumulative hazard, so no scale of the integrand is skipped.

    The levels start at the largest power of two not above abs_tol: below
    it, the first segment carries at most about that much mass."""
    t_max = t_points[-1]
    total_end = sum(_rates_and_loads(specs, t_max)[1])
    first = np.frexp(abs_tol)[1] - 1
    levels = np.ldexp(1.0, np.arange(first, _TOP_LEVEL_EXPONENT + 1))
    levels = levels[levels < total_end * 0.999]
    extras = _total_level_time(specs, levels, t_max)
    extras = extras[(extras > 0.0) & (extras < t_max)]
    return np.unique(np.concatenate([np.asarray(t_points, float), extras]))


def _integrand_values(hs, cums, eps):
    """h_j(u) eps_wj exp(-sum_j' eps_wj' H_j'(u)) as an (L, W, n) array,
    and the (W, n) exponentials, from the (L, n) hazards and cumulative
    hazards at the points u and the (W, L) multipliers."""
    damp = np.exp(-(eps @ cums))
    # a saturated exponent kills the integrand even where the hazard
    # itself has overflowed, so zero those points instead of inf * 0
    with np.errstate(invalid="ignore"):
        vals = hs[:, None, :] * eps.T[:, :, None] * damp[None, :, :]
    return np.where(damp[None, :, :] == 0.0, 0.0, vals), damp


def _integrand(specs, eps):
    """The integrand of a conditional table: u (n,) -> (n, L * W) values
    of ``_integrand_values``, column j * W + w."""
    n_l, n_w = len(specs), eps.shape[0]

    def f(u):
        hs, cums = map(np.stack, _rates_and_loads(specs, u))
        vals, _ = _integrand_values(hs, cums, eps)
        return vals.reshape(n_l * n_w, -1).T

    return f


def _table_segments(specs, t_points, q):
    """The checked time grid of a table and the segments it integrates.

    Returns (ts, points, power, starts, ends, wide): the breakpoints, the
    substitution power u = v**power (1/gamma_min when gamma_min < 1, else 1),
    the transformed segment ends, and the mask of segments of nonzero width.
    """
    ts = np.asarray(t_points, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("need a one-dimensional nonempty time grid")
    _check_times(ts, positive=True)
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("time grid must be strictly increasing")
    gamma_min = min(sp.gamma for sp in specs)
    power = 1.0 / gamma_min if gamma_min < 1.0 else 1.0
    points = _segment_points(specs, ts, q.abs_tol)
    ends = points ** (1.0 / power)
    starts = np.concatenate([[0.0], ends[:-1]])
    # distinct breakpoints can round to one transformed point; such a
    # segment has zero width and contributes nothing
    return ts, points, power, starts, ends, ends > starts


def _cause_curves(specs, eps, t_points, q):
    """Cumulative conditional sub-distributions, vectorized over atoms.

    specs: the L hazard specs of one individual; eps: (W, L) multipliers.
    Returns a (W, L, len(t_points)) array of
    int_0^{t} h_j(u) eps_j exp(-sum_j' eps_j' H_j'(u)) du.

    All segments between breakpoints are integrated in one batched call,
    under u = v**(1/gamma_min) when gamma_min < 1; a cumulative sum over
    the segments gives the table.
    """
    eps = np.asarray(eps, dtype=float)
    ts, points, power, starts, ends, wide = _table_segments(specs, t_points, q)
    vals = np.zeros((points.size, len(specs) * eps.shape[0]))
    vals[wide], _ = integrate(substitute_power(_integrand(specs, eps), power),
                              starts[wide], ends[wide], q.rel_tol, q.abs_tol,
                              q.max_subdivisions)
    return _table_from_segments(vals, np.searchsorted(points, ts),
                                (len(specs), eps.shape[0]))


def _table_from_segments(seg_vals, at, shape):
    """The (..., W, L, n) tables from the (S, prod(shape)) integrals over
    the segments between breakpoints, whose columns are laid out as
    ``shape`` = (..., L, W): column j * W + w of ``_integrand``, under any
    leading stack.  Their cumulative sum up to breakpoint ``at[i]`` is the
    table at the i-th grid time."""
    table = np.cumsum(seg_vals, axis=0)[at].T.reshape(shape + (-1,))
    return table.swapaxes(-3, -2)


class _TableRule(NamedTuple):
    """The P final panels of one table's adaptive pass, frozen: the t-space
    nodes (15 * P,), their (P, 15) weights (GK15 weight times panel
    half-width times substitution Jacobian), the segment between
    breakpoints that holds each panel, the number of segments, and the
    breakpoint of each grid time."""

    nodes: np.ndarray
    weights: np.ndarray
    segment: np.ndarray
    n_segments: int
    at: np.ndarray


class _GridRule(NamedTuple):
    """The frozen rules of an F grid's two tables."""

    tables: tuple


def _grid_rule(m, t1_points, t2_points):
    """Run the adaptive pass of each table of the F grid once at m and
    freeze its final panels into a rule.

    On the rule a table is one integrand pass and a sum per segment, with
    no breakpoint solve and no refinement, and it is a smooth function of
    the model parameters: the substitution power stays that of m.  The
    pass uses ``DEFAULT_QUADRATURE``, as the adaptive F grid of
    ``joint_sub_distribution_grid`` does, so at m itself the rule matches
    that grid to a few units in the last place.
    """
    q = DEFAULT_QUADRATURE
    tables = []
    for k, t_points in ((1, t1_points), (2, t2_points)):
        specs, eps = m.hazards_for(k), m.eps_matrix(k)
        ts, points, power, starts, ends, wide = _table_segments(
            specs, t_points, q)
        _, _, (lo, hi, owner) = adaptive_panels(
            substitute_power(_integrand(specs, eps), power), starts[wide],
            ends[wide], q.rel_tol, q.abs_tol, q.max_subdivisions)
        v, half = panel_nodes(lo, hi)
        u, jac = power_nodes(v, power)
        tables.append(_TableRule(
            u.reshape(-1), half[:, None] * WEIGHTS_K * jac,
            np.flatnonzero(wide)[owner], points.size,
            np.searchsorted(points, ts)))
    return _GridRule(tuple(tables))


def _frozen_rule(m, t1_points, t2_points):
    """The rule of ``_grid_rule`` at m and F of m on it."""
    rule = _grid_rule(m, t1_points, t2_points)
    return rule, _grid_on_rule(m, rule)


def _rule_sums(r, vals, shape):
    """Tables on a frozen table rule from values on its nodes,
    (prod(shape), 15 * P) laid out as in ``_table_from_segments``: the
    weighted sum per panel, the sum per segment, and the tables."""
    panels = np.einsum("pk,cpk->pc", r.weights,
                       vals.reshape((-1,) + r.weights.shape))
    return _table_from_segments(
        _segment_sums(panels, r.segment, r.n_segments), r.at, shape)


def _table_on_rule(specs, eps, r):
    """A conditional table on a frozen table rule: one integrand pass on
    its nodes and ``_rule_sums``."""
    return _rule_sums(r, _integrand(specs, eps)(r.nodes).T,
                      (len(specs), eps.shape[0]))


def _grid_on_rule(m, rule):
    """F of m on a frozen rule."""
    return _mix(m, *(_table_on_rule(m.hazards_for(k), m.eps_matrix(k), r)
                     for k, r in zip((1, 2), rule.tables)))


def _table_tangents(specs, eps, r):
    """A conditional table on a frozen table rule and its derivatives, from
    one pass over the rule's nodes.

    Returns (table, d_hazards, d_eps): the (W, L, n) table; its derivatives
    in the packed parameters of the specs in order (``_hazard_tangents``),
    (P, W, L, n); and d_eps[c, w], the derivative of atom w's rows in
    eps[w, c], (L, W, L, n).  Like ``_integrand_values``, every value is 0
    where the exponent has saturated.
    """
    parts = [_hazard_tangents(sp, r.nodes) for sp in specs]
    hs, cums = (np.stack([p[i] for p in parts]) for i in (0, 1))
    dh, dcum = (np.concatenate([p[i] for p in parts]) for i in (2, 3))
    cause = np.concatenate([np.full(len(p[2]), j) for j, p in enumerate(parts)])
    n_l, n_p = len(specs), cause.size
    vals, damp = _integrand_values(hs, cums, eps)
    out = np.empty((1 + n_p + n_l,) + vals.shape)
    out[0] = vals
    d_haz, d_eps = out[1:1 + n_p], out[1 + n_p:]
    with np.errstate(invalid="ignore"):
        # d(h_j eps_j damp) = dh_j eps_j damp - h_j eps_j damp d(eps . H)
        e_c = eps[:, cause].T[:, :, None]
        np.multiply(vals[None], (e_c * -dcum[:, None])[:, None], out=d_haz)
        for s, c in enumerate(cause):
            d_haz[s, c] += e_c[s] * dh[s] * damp
        np.multiply(vals[None], -cums[:, None, None], out=d_eps)
        for c in range(n_l):
            d_eps[c, c] += hs[c] * damp
    if not damp.all():
        out = np.where(damp == 0.0, 0.0, out)
    table = _rule_sums(r, out.reshape(-1, r.nodes.size), out.shape[:3])
    return table[0], table[1:1 + n_p], table[1 + n_p:]


def _grid_tangents(m, rule):
    """The derivatives of F of m on a frozen rule.

    Returns (d_hazards, d_eps, d_weights): in the packed parameters of the
    (k, j) hazards in slot order, (P, L1, L2, n1, n2); per individual k in
    the entries eps_matrix(k)[w, c], (W, L_k, L1, L2, n1, n2); and in the
    weights, (W, L1, L2, n1, n2).
    """
    (c1, dh1, de1), (c2, dh2, de2) = (
        _table_tangents(m.hazards_for(k), m.eps_matrix(k), r)
        for k, r in zip((1, 2), rule.tables))
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
    _check_times(t)
    if t == 0.0:
        return 0.0
    q = q or DEFAULT_QUADRATURE
    eps = _pair_eps(pair_frailty, k, m.num_causes(k))[None, :]
    table = _cause_curves(m.hazards_for(k), eps, np.array([t]), q)
    return float(table[0, col, 0])


def marginal_sub_distribution(m, k, j, t, q=None):
    """P(T_k <= t, J_k = j): the conditional value mixed over atoms."""
    col = _cause_index(m, k, j)
    _check_times(t)
    if t == 0.0:
        return 0.0
    q = q or DEFAULT_QUADRATURE
    table = sub_distribution_table(m, k, np.array([float(t)]), q)
    return float(m.frailty.weights @ table[:, col, 0])


def _density_factors(m, k, ts):
    """The (L_k, n) baseline hazards of individual k and the (W, L_k, n)
    array eps_j exp(-sum_j' eps_j' H_j'(t)) per atom and cause: the
    sub-density of individual k given the atom, divided by h_j(t)."""
    eps = m.eps_matrix(k)
    hs, cums = map(np.stack, _rates_and_loads(m.hazards_for(k), ts))
    return hs, eps[:, :, None] * np.exp(-(eps @ cums))[:, None, :]


def marginal_sub_density(m, k, j, t):
    """Marginal cause-j sub-density of individual k (exact finite sum)."""
    col = _cause_index(m, k, j)
    _check_times(t, positive=True)
    ts = np.asarray(t, dtype=float)
    flat = ts.reshape(-1)
    hs, factors = _density_factors(m, k, flat)
    out = (hs[col] * (m.frailty.weights @ factors[:, col])).reshape(ts.shape)
    return float(out) if out.ndim == 0 else out


def survival_load_vector(m, t1, t2):
    """Map (t1, t2) to the frailty-space vector s with
    joint_survival = lst(frailty, s): s accumulates each (k, j) cumulative
    hazard onto the coordinate that multiplies it."""
    s = np.zeros(m.structure.dimension)
    for k, t in ((1, t1), (2, t2)):
        for j in range(1, m.num_causes(k) + 1):
            s[m.structure.coordinate_of(k, j)] += cumulative_hazard(
                m.hazard(k, j), t)
    return s


def joint_survival(m, t1, t2):
    """P(T1 > t1, T2 > t2); exact finite sum via the frailty transform."""
    _check_times(t1, t2)
    return fr.lst(m.frailty, survival_load_vector(m, t1, t2))


def marginal_survival(m, k, t):
    """P(T_k > t)."""
    _check_individual(k)
    return joint_survival(m, t, 0.0) if k == 1 else joint_survival(m, 0.0, t)


def joint_sub_density(m, j1, j2, t1, t2):
    """Joint sub-density f_{j1 j2}(t1, t2) (exact finite sum)."""
    a = _cause_index(m, 1, j1)
    b = _cause_index(m, 2, j2)
    grid = joint_sub_density_grid(m, [t1], [t2])
    return float(grid[a, b, 0, 0])


def joint_sub_distribution(m, j1, j2, t1, t2, q=None):
    """F_{j1 j2}(t1, t2) = P(T1 <= t1, J1 = j1, T2 <= t2, J2 = j2).

    One entry of ``joint_sub_distribution_grid``: atom by atom the product
    of two one-dimensional conditional integrals, then mixed.
    """
    a = _cause_index(m, 1, j1)
    b = _cause_index(m, 2, j2)
    _check_times(t1, t2)
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

    f_{ab}(t1, t2) = h_1a(t1) h_2b(t2) sum_w p_w d_1wa(t1) d_2wb(t2), with
    d the conditional sub-densities divided by the hazards.
    """
    t1s = np.asarray(t1_points, dtype=float).reshape(-1)
    t2s = np.asarray(t2_points, dtype=float).reshape(-1)
    _check_times(t1s, t2s, positive=True)
    h1, d1 = _density_factors(m, 1, t1s)
    h2, d2 = _density_factors(m, 2, t2s)
    mix = np.einsum("w,wai,wbl->abil", m.frailty.weights, d1, d2)
    return h1[:, None, :, None] * h2[None, :, None, :] * mix


def time_horizon(m, min_load=40.0):
    """The first time by which every atom's total conditional load and every
    raw cumulative hazard reach min_load.

    Past this point each conditional survival is below exp(-min_load), so the
    sub-distributions have effectively saturated.  The horizon is the larger
    of the raw inverses H_j^{-1}(min_load) and, per individual, the largest
    per-atom root of sum_j eps_j H_j(t) = min_load.  A horizon beyond the
    double range raises RuntimeError instead of returning inf.
    """
    min_load = float(min_load)
    if not (np.isfinite(min_load) and min_load > 0.0):
        raise ValueError("min_load must be positive and finite")
    message = ("saturation horizon exceeds the floating-point range for "
               "this model")
    try:
        t = max(inverse_cumulative_hazard(m.hazard(k, j), min_load)
                for k in (1, 2) for j in range(1, m.num_causes(k) + 1))
        for k in (1, 2):
            roots = _solve_total_load(m.hazards_for(k), m.eps_matrix(k),
                                      np.full(m.frailty.num_atoms, min_load))
            t = max(t, float(roots.max()))
    except RuntimeError as exc:
        raise RuntimeError(message) from exc
    if not np.isfinite(t):
        raise RuntimeError(message)
    return t


def model_to_dict(m):
    return {
        "structure": fr.structure_to_dict(m.structure),
        "hazards": {
            str(k): [hazard_spec_to_dict(m.hazard(k, j))
                     for j in range(1, m.num_causes(k) + 1)]
            for k in (1, 2)
        },
        "frailty": fr.frailty_to_dict(m.frailty),
    }


def model_from_dict(d):
    try:
        structure = fr.structure_from_dict(d["structure"])
    except KeyError:
        raise ValueError("model missing 'structure'") from None
    try:
        hz_block = d["hazards"]
        frailty_block = d["frailty"]
    except KeyError as exc:
        raise ValueError(f"model missing key {exc}") from None
    hazards = {}
    for k in (1, 2):
        key = str(k)
        if key not in hz_block:
            raise ValueError(f"model hazards missing individual {k}")
        specs = hz_block[key]
        if len(specs) != structure.num_causes(k):
            raise ValueError(
                f"individual {k} needs {structure.num_causes(k)} hazard specs, "
                f"got {len(specs)}")
        for j, spec_dict in enumerate(specs, start=1):
            hazards[(k, j)] = hazard_spec_from_dict(spec_dict)
    g = fr.frailty_from_dict(frailty_block, structure=structure)
    return ModelSpec(structure, hazards, g)
