"""Bivariate competing-risks model: hazards mixed over a discrete frailty.

Given the frailty atom, the two individuals are independent and each cause
acts through its own multiplied hazard.  Every joint quantity therefore
factorizes atom by atom into products of one-dimensional integrals, which is
how everything here is computed; a brute-force double quadrature exists only
in the test suite as an oracle.

The sub-density f is the frailty mixture of the same conditional integrand,
h_j eps_j exp(-sum_j' eps_j' H_j'), that the tables behind F integrate, so
both share its guard: where the exponent saturates it is 0, not inf * 0.

Time integrals run over segments split near dyadic levels of the baseline
cumulative hazard, placed from one log-time grid evaluation, so mass
concentrated many scales below the upper limit is never missed, and an
endpoint substitution u = v**(1/gamma_min) regularizes the integrable
singularity that gamma < 1 hazards put at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import frailty as fr
from ._quad import integrate, substitute_power
# _hazard_array is unused here but looked up on this module by bench/ tests
from .hazards import _hazard_array  # noqa: F401
from .hazards import (
    HazardSpec,
    _as_time_array,
    _hazard_tangents,
    _packed_size,
    _rates_and_loads,
    _solve_total_load,
    _stacked_rates,
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
        with np.errstate(over="ignore", divide="ignore"):
            log_h = np.log(sum(_rates_and_loads(specs, t)[1]))
        if log_h[1] != np.inf:
            break
        t = t * 2.0 ** -_GRID_OCTAVES
    ok = np.isfinite(log_h) & (t >= np.finfo(float).tiny)
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

    The levels start at the largest power of two not above abs_tol: below
    it, the first segment carries at most about that much mass."""
    t_max = t_points[-1]
    first = np.frexp(abs_tol)[1] - 1
    levels = np.ldexp(1.0, np.arange(first, _TOP_LEVEL_EXPONENT + 1))
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
    of ``_integrand_values``, column j * W + w, and its column shape
    (L, W)."""
    n_l, n_w = len(specs), eps.shape[0]

    def f(u):
        vals, _ = _integrand_values(*_stacked_rates(specs, u), eps)
        return vals.reshape(n_l * n_w, -1).T

    return f, (n_l, n_w)


def _tangent_integrand(specs, eps):
    """The integrand of a conditional table and of its derivatives, with
    column shape (1 + P + L, L, W): the values of ``_integrand``, then their
    derivatives in the P packed parameters of the specs in order
    (``_hazard_tangents``), then one block per cause c whose column
    j * W + w is the derivative of value j * W + w in eps[w, c].  Like
    ``_integrand_values``, every value is 0 where the exponent has
    saturated.
    """
    n_l, n_w = len(specs), eps.shape[0]
    cause = np.repeat(np.arange(n_l), [_packed_size(sp.family) for sp in specs])
    n_p = cause.size
    e_c = eps[:, cause].T[:, :, None]

    def f(u):
        # h, H and their derivatives overflow to inf where u saturates them
        with np.errstate(over="ignore", invalid="ignore"):
            parts = [_hazard_tangents(sp, u) for sp in specs]
            hs, cums = (np.stack([p[i] for p in parts]) for i in (0, 1))
            dh, dcum = (np.concatenate([p[i] for p in parts]) for i in (2, 3))
            vals, damp = _integrand_values(hs, cums, eps)
            out = np.empty((1 + n_p + n_l,) + vals.shape)
            out[0] = vals
            d_haz, d_eps = out[1:1 + n_p], out[1 + n_p:]
            # d(h_j eps_j damp) = dh_j eps_j damp - h_j eps_j damp d(eps . H)
            np.multiply(vals[None], (e_c * -dcum[:, None])[:, None],
                        out=d_haz)
            for s, c in enumerate(cause):
                d_haz[s, c] += e_c[s] * dh[s] * damp
            np.multiply(vals[None], -cums[:, None, None], out=d_eps)
            for c in range(n_l):
                d_eps[c, c] += hs[c] * damp
        if not damp.all():
            out = np.where(damp == 0.0, 0.0, out)
        return out.reshape(-1, u.size).T

    return f, (1 + n_p + n_l, n_l, n_w)


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


def _cause_curves(specs, eps, t_points, q, integrand=_integrand):
    """Cumulative conditional sub-distributions, vectorized over atoms.

    specs: the L hazard specs of one individual; eps: (W, L) multipliers.
    Returns a (W, L, len(t_points)) array of
    int_0^{t} h_j(u) eps_j exp(-sum_j' eps_j' H_j'(u)) du.  With
    ``_tangent_integrand`` it returns the (1 + P + L, W, L, n) stack of
    that table and its derivatives instead.

    All segments between breakpoints are integrated in one batched call,
    under u = v**(1/gamma_min) when gamma_min < 1; a cumulative sum over
    the segments gives the table.
    """
    eps = np.asarray(eps, dtype=float)
    ts, points, power, starts, ends, wide = _table_segments(specs, t_points, q)
    f, shape = integrand(specs, eps)
    vals = np.zeros((points.size, int(np.prod(shape))))
    vals[wide], _ = integrate(substitute_power(f, power), starts[wide],
                              ends[wide], q.rel_tol, q.abs_tol,
                              q.max_subdivisions)
    table = np.cumsum(vals, axis=0)[np.searchsorted(points, ts)]
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


def _sub_densities(m, k, ts):
    """(W, L_k, n) sub-densities of individual k given each atom at the
    times ts (n,): the values of the table integrand, ``_integrand_values``."""
    hs, cums = _stacked_rates(m.hazards_for(k), ts)
    return _integrand_values(hs, cums, m.eps_matrix(k))[0].swapaxes(0, 1)


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
        for j in range(1, structure.num_causes(k) + 1):
            s[..., structure.coordinate_of(k, j)] += cumulative_hazard(
                hazards[(k, j)], t)
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
