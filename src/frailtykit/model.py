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
from typing import Mapping

import numpy as np

from . import frailty as fr
from ._quad import integrate, substitute_power
from .hazards import (
    HazardSpec,
    _cumulative_array,
    _hazard_array,
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


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


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
    n = m.num_causes(k)
    if (isinstance(j, (bool, np.bool_)) or not isinstance(j, (int, np.integer))
            or not 1 <= j <= n):
        raise ValueError(
            f"cause of individual {k} must be an integer in 1..{n}, got {j!r}")
    return int(j) - 1


def _check_times(*times, positive=False):
    """ValueError unless every time is finite and nonnegative (positive)."""
    for t in times:
        arr = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("times must be finite")
        if positive and np.any(arr <= 0.0):
            raise ValueError("density requires strictly positive times")
        if np.any(arr < 0.0):
            raise ValueError("times must be nonnegative")


def conditional_hazard(m, k, j, t, pair_frailty):
    """Cause-j hazard of individual k given the frailty pair."""
    col = _cause_index(m, k, j)
    _check_times(t)
    eps = _pair_eps(pair_frailty, k, m.num_causes(k))
    return eps[col] * hazard_rate(m.hazard(k, j), t)


def conditional_survival(m, k, t, pair_frailty):
    """exp(-sum_j eps_j H_j(t)) for individual k given the frailty pair."""
    eps = _pair_eps(pair_frailty, k, m.num_causes(k))
    total = 0.0
    for j in range(1, m.num_causes(k) + 1):
        total = total + eps[j - 1] * cumulative_hazard(m.hazard(k, j), t)
    return np.exp(-total) if np.ndim(total) else float(np.exp(-total))


# Dyadic levels of the total cumulative hazard stop at 2**54.
_TOP_LEVEL_EXPONENT = 54
# Level times are searched no lower than this; the bracket strides
# log(16) * (2**k - 1), k < _BRACKET_STRIDES, reach it from any double.
_LOG_TIME_FLOOR = np.log(1e-290)
_BRACKET_STRIDES = 10
_LEVEL_NEWTON_ITERATIONS = 100


def _total_cumulative(specs, t):
    return sum(_cumulative_array(sp, t) for sp in specs)


def _total_level_time(specs, levels, hi):
    """Times t below hi with sum_j H_j(t) = level, for every level at once.

    Safeguarded Newton on log H against log t.  One evaluation of the total
    on log times stepping down from hi in doubling strides gives each level
    a bracket [lo, up] with log H(lo) < log level <= log H(up), and the
    log-log interpolation between its ends is the starting point.  A Newton
    step that leaves the bracket, or is not finite, bisects it instead.  A
    level that the total still reaches at the time floor 1e-290 gets the
    floor.
    """
    log_level = np.log(np.asarray(levels, dtype=float))
    strides = np.log(16.0) * (2.0 ** np.arange(_BRACKET_STRIDES) - 1.0)
    ladder = np.maximum(np.log(hi) - strides, _LOG_TIME_FLOOR)[::-1]
    # non-finite logs and slopes (H underflowing to 0 far below the level,
    # hazards overflowing at the floor) only ever trigger bisection
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g_ladder = np.log(_total_cumulative(specs, np.exp(ladder)))
        i = np.searchsorted(g_ladder, log_level)
        up = ladder[i]
        lo = ladder[np.maximum(i - 1, 0)]
        g_lo = g_ladder[np.maximum(i - 1, 0)] - log_level
        g_up = g_ladder[i] - log_level
        x = lo - g_lo * (up - lo) / (g_up - g_lo)
        x = np.where((x > lo) & (x <= up), x, up)
        for _ in range(_LEVEL_NEWTON_ITERATIONS):
            t = np.exp(x)
            total = _total_cumulative(specs, t)
            g = np.log(total) - log_level
            slope = t * sum(_hazard_array(sp, t) for sp in specs) / total
            lo = np.where(g < 0.0, x, lo)
            up = np.where(g < 0.0, up, x)
            step = x - g / slope
            bisect = ~((step > lo) & (step <= up) & np.isfinite(slope))
            step = np.where(bisect, 0.5 * (lo + up), step)
            done = np.abs(step - x) <= 4.0 * np.finfo(float).eps * np.maximum(
                1.0, np.abs(x))
            x = step
            if done.all():
                break
    return np.exp(x)


def _segment_points(specs, t_points, abs_tol):
    """Integration breakpoints: the requested times plus dyadic levels of the
    baseline total cumulative hazard, so no scale of the integrand is skipped.

    The levels start at the largest power of two not above abs_tol: below
    it, the first segment carries at most about that much mass."""
    t_max = t_points[-1]
    total_end = _total_cumulative(specs, t_max)
    first = np.frexp(abs_tol)[1] - 1
    levels = np.ldexp(1.0, np.arange(first, _TOP_LEVEL_EXPONENT + 1))
    levels = levels[levels < total_end * 0.999]
    extras = _total_level_time(specs, levels, t_max)
    extras = extras[(extras > 0.0) & (extras < t_max)]
    return np.unique(np.concatenate([np.asarray(t_points, float), extras]))


def _cause_curves(specs, eps, t_points, q):
    """Cumulative conditional sub-distributions, vectorized over atoms.

    specs: the L hazard specs of one individual; eps: (W, L) multipliers.
    Returns a (W, L, len(t_points)) array of
    int_0^{t} h_j(u) eps_j exp(-sum_j' eps_j' H_j'(u)) du.

    All segments between breakpoints are integrated in one batched call,
    under u = v**(1/gamma_min) when gamma_min < 1; a cumulative sum over
    the segments gives the table.
    """
    ts = np.asarray(t_points, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("need a one-dimensional nonempty time grid")
    if not np.all(np.isfinite(ts)):
        raise ValueError("times must be finite")
    if np.any(ts <= 0.0) or np.any(np.diff(ts) <= 0.0):
        raise ValueError("time grid must be strictly increasing and positive")
    eps = np.asarray(eps, dtype=float)
    n_l = len(specs)
    n_w = eps.shape[0]

    def f(u):
        hs = np.stack([_hazard_array(sp, u) for sp in specs])
        cums = np.stack([_cumulative_array(sp, u) for sp in specs])
        damp = np.exp(-(eps @ cums))
        # a saturated exponent kills the integrand even where the hazard
        # itself has overflowed, so zero those points instead of inf * 0
        with np.errstate(invalid="ignore"):
            vals = hs[:, None, :] * eps.T[:, :, None] * damp[None, :, :]
        vals = np.where(damp[None, :, :] == 0.0, 0.0, vals)
        return vals.reshape(n_l * n_w, -1).T

    gamma_min = min(sp.gamma for sp in specs)
    power = 1.0 / gamma_min if gamma_min < 1.0 else 1.0
    points = _segment_points(specs, ts, q.abs_tol)
    ends = points ** (1.0 / power)
    starts = np.concatenate([[0.0], ends[:-1]])
    # distinct breakpoints can round to one transformed point; such a
    # segment has zero width and contributes nothing
    wide = ends > starts
    vals = np.zeros((points.size, n_l * n_w))
    vals[wide], _ = integrate(substitute_power(f, power), starts[wide],
                              ends[wide], q.rel_tol, q.abs_tol,
                              q.max_subdivisions)
    out = np.cumsum(vals, axis=0)[np.searchsorted(points, ts)]
    return out.reshape(ts.size, n_l, n_w).transpose(2, 1, 0)


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
    """(W, L_k, n) array eps_j exp(-sum_j' eps_j' H_j'(t)) per atom and cause:
    the sub-density of individual k given the atom, divided by h_j(t)."""
    eps = m.eps_matrix(k)
    cums = np.stack([_cumulative_array(sp, ts) for sp in m.hazards_for(k)])
    return eps[:, :, None] * np.exp(-(eps @ cums))[:, None, :]


def _hazard_rows(m, k, ts):
    """(L_k, n) baseline hazards of individual k."""
    return np.stack([_hazard_array(sp, ts) for sp in m.hazards_for(k)])


def marginal_sub_density(m, k, j, t):
    """Marginal cause-j sub-density of individual k (exact finite sum)."""
    col = _cause_index(m, k, j)
    _check_times(t, positive=True)
    ts = np.asarray(t, dtype=float)
    flat = ts.reshape(-1)
    mix = m.frailty.weights @ _density_factors(m, k, flat)[:, col]
    out = (_hazard_rows(m, k, flat)[col] * mix).reshape(ts.shape)
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


def joint_survival(m, t1, t2, q=None):
    """P(T1 > t1, T2 > t2); exact finite sum via the frailty transform."""
    _check_times(t1, t2)
    return fr.lst(m.frailty, survival_load_vector(m, t1, t2))


def marginal_survival(m, k, t):
    """P(T_k > t)."""
    return joint_survival(m, t, 0.0) if k == 1 else joint_survival(m, 0.0, t)


def joint_sub_density(m, j1, j2, t1, t2):
    """Joint sub-density f_{j1 j2}(t1, t2) (exact finite sum)."""
    a = _cause_index(m, 1, j1)
    b = _cause_index(m, 2, j2)
    grid = joint_sub_density_grid(m, [t1], [t2])
    return float(grid[a, b, 0, 0])


def joint_sub_distribution(m, j1, j2, t1, t2, q=None):
    """F_{j1 j2}(t1, t2) = P(T1 <= t1, J1 = j1, T2 <= t2, J2 = j2).

    Computed atom by atom as the product of two one-dimensional conditional
    integrals, then mixed.
    """
    a = _cause_index(m, 1, j1)
    b = _cause_index(m, 2, j2)
    _check_times(t1, t2)
    if t1 == 0.0 or t2 == 0.0:
        return 0.0
    q = q or DEFAULT_QUADRATURE
    c1 = sub_distribution_table(m, 1, np.array([float(t1)]), q)[:, a, 0]
    c2 = sub_distribution_table(m, 2, np.array([float(t2)]), q)[:, b, 0]
    return float(m.frailty.weights @ (c1 * c2))


def joint_sub_distribution_grid(m, t1_points, t2_points, q=None):
    """F_{j1 j2} on a product grid: (L1, L2, n1, n2) tensor.

    The per-axis conditional tables are built once and reused for every
    cause pair and grid point.
    """
    q = q or DEFAULT_QUADRATURE
    c1 = sub_distribution_table(m, 1, t1_points, q)
    c2 = sub_distribution_table(m, 2, t2_points, q)
    return np.einsum("w,wai,wbl->abil", m.frailty.weights, c1, c2)


def joint_sub_density_grid(m, t1_points, t2_points):
    """f_{j1 j2} on a product grid: (L1, L2, n1, n2) tensor (finite sums).

    f_{ab}(t1, t2) = h_1a(t1) h_2b(t2) sum_w p_w d_1wa(t1) d_2wb(t2), with
    d the conditional sub-densities divided by the hazards.
    """
    t1s = np.asarray(t1_points, dtype=float).reshape(-1)
    t2s = np.asarray(t2_points, dtype=float).reshape(-1)
    _check_times(t1s, t2s, positive=True)
    mix = np.einsum("w,wai,wbl->abil", m.frailty.weights,
                    _density_factors(m, 1, t1s), _density_factors(m, 2, t2s))
    h1 = _hazard_rows(m, 1, t1s)
    h2 = _hazard_rows(m, 2, t2s)
    return h1[:, None, :, None] * h2[None, :, None, :] * mix


def time_horizon(m, min_load=40.0):
    """A time by which every atom's total conditional load exceeds min_load.

    Past this point each conditional survival is below exp(-min_load), so the
    sub-distributions have effectively saturated.  Also guarantees every raw
    cumulative hazard exceeds min_load.  Expansion runs in log-time because
    log-logistic cumulative hazards grow only logarithmically; an unreachable
    horizon (beyond double range) raises instead of returning inf.
    """
    t = 0.0
    for k in (1, 2):
        for j in range(1, m.num_causes(k) + 1):
            t = max(t, inverse_cumulative_hazard(m.hazard(k, j), min_load))

    def worst_load(tt):
        loads = []
        for k in (1, 2):
            cums = np.array([cumulative_hazard(m.hazard(k, j), tt)
                             for j in range(1, m.num_causes(k) + 1)])
            loads.append(np.min(m.eps_matrix(k) @ cums))
        return min(loads)

    log_t = np.log(t)
    while log_t < 690.0:
        if worst_load(np.exp(log_t)) >= min_load:
            return float(np.exp(log_t))
        log_t += 20.0
    raise RuntimeError(
        "saturation horizon exceeds the floating-point range for this model")


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
