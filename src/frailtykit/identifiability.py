"""Numerical identifiability probes and parameter recovery.

The probes make the model class's identifiability story operational:

* ``sub_distribution_distance`` measures how far apart two models' joint
  sub-distribution functions are on a quantile grid; distinct parameter
  points separate, while the frailty-scale confounding (only removed by the
  unit-mean convention) provably does not.
* ``limit_identity_check`` evaluates the tilted frailty transform at the
  cumulative-hazard load of shrinking times; for unit-mean frailty the value
  tends to 1, and the rate at which it does pins the hazard scale factors.
* ``lst_sequence_test`` compares two frailty transforms along the argument
  sequences that the survival functions themselves generate: plain integer
  loads for shared / correlated structures, and loads obtained by pushing a
  bounded increasing sequence through H_other(H_first^{-1}(.)) for the
  cause-specific structures.  Agreement along the whole sequence forces the
  mixtures to coincide.
* ``recover_parameters`` fits a model back to its F grid by least squares
  (Levenberg-Marquardt on the residuals F(theta) - target), and ``fit_mle``
  maximizes the likelihood with a restarted simplex.  Both apply the
  unit-mean normalization inside the parametrization, so the confounded
  scale direction is quotiented out.

Recovery counts evaluations: one evaluation is one residual vector, an
adaptive F grid.  A Jacobian is exact: the grid times do not depend on the
parameters, so dF/dtheta is the integral of the integrand's derivative,
and one adaptive pass per table integrates the table and its derivatives
together (``model._grid_tangents``, chained through the parametrization).
It costs one evaluation per parameter.  The first residual vector with
r @ r <= 1e-24 ends a recovery.

``scipy.optimize`` is imported inside ``recover_parameters`` and the
simplex behind ``fit_mle``, so it loads on the first recovery or fit; the
probes run on numpy alone for the exponential, Weibull and log-logistic
families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import frailty as fr
from . import model as md
from .hazards import (
    Family,
    HazardSpec,
    _packed_size,
    _rates_and_loads,
    _solve_time,
    _stacked_rates,
    inverse_cumulative_hazard,
)

__all__ = [
    "Verdict",
    "ProbeGrid",
    "ProbeReport",
    "RecoveryResult",
    "FitResult",
    "SEPARATION_THRESHOLD",
    "default_probe_grid",
    "sub_distribution_distance",
    "per_pair_distances",
    "limit_identity_check",
    "lst_sequence_test",
    "scale_confounding_transform",
    "probe_models",
    "recover_parameters",
    "recover_from_model",
    "target_tensor",
    "fit_mle",
]

SEPARATION_THRESHOLD = 1e-6

DEFAULT_QUANTILE_LEVELS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


class Verdict(str, Enum):
    INDISTINGUISHABLE = "indistinguishable"
    SEPARATED = "separated"


@dataclass(frozen=True)
class ProbeGrid:
    """Strictly increasing evaluation times per axis (at least 5 each)."""

    t1_points: tuple
    t2_points: tuple

    def __post_init__(self):
        for name in ("t1_points", "t2_points"):
            pts = tuple(float(p) for p in getattr(self, name))
            if len(pts) < 5:
                raise ValueError("probe grids need at least 5 points per axis")
            arr = np.asarray(pts)
            if not (np.all((arr > 0.0) & (arr < np.inf))
                    and np.all(np.diff(arr) > 0.0)):
                raise ValueError(
                    "grid points must be positive, finite and increasing")
            object.__setattr__(self, name, pts)


@dataclass(frozen=True)
class ProbeReport:
    sup_distance: float
    per_pair: dict
    limit_residuals: dict
    lst_sequence_gap: float
    verdict: Verdict


def default_probe_grid(m, levels=DEFAULT_QUANTILE_LEVELS):
    """Model-implied grid: quantiles of the first-failure time on both axes.

    Every level q is solved in one ``hazards._solve_time`` call on
    G(t) = -log S(t) = -log1p(-q), with S(t) = P(T1 > t, T2 > t) =
    sum_w p_w exp(-Lambda_w(t)), where Lambda_w sums eps * H over both
    individuals' causes at atom w; the derivative is
    G' = sum_w p_w lambda_w exp(-Lambda_w) / S with lambda_w the matching
    sum of eps * h.  Levels must be finite and strictly inside (0, 1).
    """
    lv = np.asarray(levels, dtype=float).reshape(-1)
    if not np.all((lv > 0.0) & (lv < 1.0)):
        raise ValueError(
            "quantile levels must be finite and strictly inside (0, 1)")
    weights = m.frailty.weights
    specs = m.hazards_for(1) + m.hazards_for(2)
    cols = np.hstack([m.eps_matrix(1), m.eps_matrix(2)]).T[:, :, None]

    def neg_log_survival(t, idx):
        hs, cums = _rates_and_loads(specs, t)
        damp = np.exp(-sum(e * c for e, c in zip(cols, cums)))
        rate = sum(e * h for e, h in zip(cols, hs))
        surv = weights @ damp
        return -np.log(surv), (weights @ (rate * damp)) / surv

    pts = tuple(_solve_time(neg_log_survival, -np.log1p(-lv)))
    return ProbeGrid(pts, pts)


def _check_comparable(ma, mb):
    if ma.structure != mb.structure:
        raise ValueError("models must share the frailty structure")


def per_pair_distances(ma, mb, grid, q=None):
    """Max |F_a - F_b| over the grid, per cause pair (j1, j2)."""
    _check_comparable(ma, mb)
    fa = md.joint_sub_distribution_grid(ma, grid.t1_points, grid.t2_points, q)
    fb = md.joint_sub_distribution_grid(mb, grid.t1_points, grid.t2_points, q)
    gap = np.abs(fa - fb)
    return {
        (j1 + 1, j2 + 1): float(np.max(gap[j1, j2]))
        for j1 in range(gap.shape[0])
        for j2 in range(gap.shape[1])
    }


def sub_distribution_distance(ma, mb, grid, q=None):
    """Sup over cause pairs and grid points of |F_a - F_b|."""
    return max(per_pair_distances(ma, mb, grid, q).values())


def limit_identity_check(m, times=(1e-2, 1e-4, 1e-6)):
    """Residual |tilted_mean(load(t)) - 1| per (individual, cause) and time.

    The load vector places each cause's cumulative hazard at t on the
    coordinate that multiplies it.  For unit-mean frailty the residuals
    shrink monotonically to 0 along the given decreasing times; an off-mean
    mixture is flagged by residuals converging to |mean - 1| instead.
    """
    out = {}
    times = np.asarray(times, dtype=float).reshape(-1)
    for k in (1, 2):
        # individual k alone: the other individual's loads are H(0) = 0
        loads = (md.survival_load_vector(m, times, 0.0) if k == 1
                 else md.survival_load_vector(m, 0.0, times))
        for j in range(1, m.num_causes(k) + 1):
            coord = m.structure.coordinate_of(k, j)
            out[(k, j)] = tuple(
                abs(fr.tilted_mean(m.frailty, coord, s) - 1.0) for s in loads)
    return out


def _sequence_loads(structure, hazards, n):
    """Transform arguments generated by the survival equality at steps n.

    Elementwise in n: a scalar step gives a (dimension,) vector, an array
    of steps an (len(n), dimension) array.  Cause-specific structures push
    m = n/(n+1) through each individual's first-cause inverse cumulative
    hazard and take the coordinate loads at the resulting times
    (``model._coordinate_loads``); shared and correlated structures use the
    plain integer load.
    """
    n = np.asarray(n, dtype=float)
    if structure.kind in (fr.FrailtyKind.SHARED, fr.FrailtyKind.CORRELATED):
        return np.stack([n] * structure.dimension, axis=-1)
    if hazards is None:
        raise ValueError(
            "cause-specific sequence construction needs the hazard map")
    m1 = n / (n + 1.0)
    t1, t2 = (inverse_cumulative_hazard(hazards[(k, 1)], m1) for k in (1, 2))
    return md._coordinate_loads(structure, hazards, t1, t2)


def lst_sequence_test(ga, gb, n_max=20, hazards=None):
    """Max transform gap along the structure's canonical argument sequence.

    Inputs are canonicalized first, so mixtures equal up to atom relabeling
    give a gap of exactly 0.
    """
    if ga.structure != gb.structure:
        raise ValueError("mixtures must share the frailty structure")
    n_max = fr._check_index(n_max, 1, math.inf, "n_max")
    s = _sequence_loads(ga.structure, hazards, np.arange(1, n_max + 1))
    gap = fr.lst(fr.canonicalize(ga), s) - fr.lst(fr.canonicalize(gb), s)
    return float(np.max(np.abs(gap)))


def scale_confounding_transform(m, c):
    """The transform that unit-mean normalization exists to rule out.

    Multiplies every frailty atom by c and divides every alpha by c; for
    Weibull and exponential hazards (b constant in alpha) the conditional
    hazards, and hence all observables, are unchanged.  The result is built
    without the unit-mean requirement.
    """
    if c <= 0.0:
        raise ValueError("scale must be positive")
    for spec in m.hazards.values():
        if spec.family not in (Family.WEIBULL, Family.EXPONENTIAL):
            raise ValueError(
                "exact scale confounding needs Weibull or exponential hazards")
    hazards = {
        key: HazardSpec(spec.family, spec.gamma, spec.alpha / c)
        for key, spec in m.hazards.items()
    }
    g = fr.DiscreteFrailty(m.structure, m.frailty.atoms * c, m.frailty.weights)
    return md.ModelSpec(m.structure, hazards, g, require_unit_mean=False)


def probe_models(ma, mb, grid=None):
    """Full distinguishability report for a model pair."""
    _check_comparable(ma, mb)
    if grid is None:
        grid = default_probe_grid(ma)
    pair_gaps = per_pair_distances(ma, mb, grid)
    sup = max(pair_gaps.values())
    residuals = {
        "a": tuple(abs(v - 1.0) for v in fr.coordinate_means(ma.frailty)),
        "b": tuple(abs(v - 1.0) for v in fr.coordinate_means(mb.frailty)),
    }
    gap = lst_sequence_test(ma.frailty, mb.frailty, hazards=ma.hazards)
    verdict = (Verdict.SEPARATED if sup > SEPARATION_THRESHOLD
               else Verdict.INDISTINGUISHABLE)
    return ProbeReport(
        sup_distance=float(sup),
        per_pair=pair_gaps,
        limit_residuals=residuals,
        lst_sequence_gap=float(gap),
        verdict=verdict,
    )


def probe_report_to_dict(report):
    return {
        "sup_distance": report.sup_distance,
        "per_pair": {f"{j1},{j2}": v for (j1, j2), v in report.per_pair.items()},
        "limit_residuals": {k: list(v) for k, v in report.limit_residuals.items()},
        "lst_gap": report.lst_sequence_gap,
        "verdict": report.verdict.value,
    }


# ---------------------------------------------------------------------------
# parameter search


class _Parametrization:
    """Pack/unpack a model as an unconstrained vector.

    Layout: per (k, j) slot a log-gamma (omitted for exponential hazards,
    where gamma is pinned) and a log-alpha, then atom log-coordinates, then
    num_atoms - 1 weight logits (the first logit is fixed at 0).  Unit-mean
    renormalization inside ``unpack`` makes the mean constraint invisible to
    the optimizer.
    """

    def __init__(self, template, enforce_unit_mean=True):
        self.structure = template.structure
        self.slots = [
            (k, j)
            for k in (1, 2)
            for j in range(1, template.num_causes(k) + 1)
        ]
        self.families = {key: template.hazard(*key).family for key in self.slots}
        self.num_atoms = template.frailty.num_atoms
        self.dimension = template.frailty.dimension
        self.enforce_unit_mean = enforce_unit_mean

    @property
    def size(self):
        n_hz = sum(_packed_size(self.families[s]) for s in self.slots)
        return n_hz + self.num_atoms * self.dimension + (self.num_atoms - 1)

    def pack(self, m):
        theta = []
        for key in self.slots:
            spec = m.hazard(*key)
            if spec.family is not self.families[key]:
                raise ValueError("model families do not match the template")
            if spec.family is not Family.EXPONENTIAL:
                theta.append(math.log(spec.gamma))
            theta.append(math.log(spec.alpha))
        theta.extend(np.log(m.frailty.atoms).ravel())
        logits = np.log(m.frailty.weights)
        theta.extend(logits[1:] - logits[0])
        return np.array(theta)

    def unpack(self, theta):
        theta = np.asarray(theta, dtype=float)
        hazards = {}
        pos = 0
        for key in self.slots:
            fam = self.families[key]
            if fam is Family.EXPONENTIAL:
                gamma = 1.0
            else:
                gamma = math.exp(theta[pos])
                pos += 1
            alpha = math.exp(theta[pos])
            pos += 1
            hazards[key] = HazardSpec(fam, gamma, alpha)
        n_coords = self.num_atoms * self.dimension
        atoms = np.exp(theta[pos:pos + n_coords]).reshape(
            self.num_atoms, self.dimension)
        pos += n_coords
        logits = np.concatenate([[0.0], theta[pos:]])
        logits -= logits.max()
        weights = np.exp(logits)
        weights /= weights.sum()
        g = fr.DiscreteFrailty(self.structure, atoms, weights)
        if self.enforce_unit_mean:
            g = fr.normalize_to_unit_mean(g)
        return md.ModelSpec(self.structure, hazards, g,
                            require_unit_mean=self.enforce_unit_mean)

    def jacobian(self, m, d_hazards, d_eps, d_weights):
        """The (R, size) Jacobian in theta at the model m = unpack(theta),
        from the derivatives of R quantities in m's packed hazard
        parameters, multipliers and weights (``model._grid_tangents``,
        flattened to R trailing entries).

        A multiplier eps_matrix(k)[w, c] is atom coordinate
        coordinate_of(k, c) of atom w.  Under unit mean the atoms are
        a = r / (p @ r) for the raw atoms r = exp(theta) and weights p, so
        da[w, d] / dlog r[v, d] = a[v, d] (delta_wv - p_v a[w, d]) and
        da[w, d] / dp_v = -a[w, d] a[v, d]; the weights are the softmax of
        the logits (0, theta[-(W - 1):]).
        """
        atoms, p = m.frailty.atoms, m.frailty.weights
        d_atoms = np.zeros(atoms.shape + d_weights.shape[1:])
        for k, de in zip((1, 2), d_eps):
            for c in range(de.shape[1]):
                d_atoms[:, self.structure.coordinate_of(k, c + 1)] += de[:, c]
        d_atoms = d_atoms.reshape(atoms.shape + (-1,))
        d_p = d_weights.reshape(p.size, -1)
        if self.enforce_unit_mean:
            spread = np.einsum("wd,wdr->dr", atoms, d_atoms)
            d_atoms = d_atoms - p[:, None, None] * spread
            d_p = d_p - atoms @ spread
        d_logits = p[1:, None] * (d_p[1:] - p @ d_p)
        return np.concatenate([d_hazards.reshape(d_hazards.shape[0], -1),
                               (atoms[:, :, None] * d_atoms).reshape(
                                   atoms.size, -1),
                               d_logits]).T


def _axis_simplex(x0, step):
    n = x0.size
    simplex = np.tile(x0, (n + 1, 1))
    for i in range(n):
        simplex[i + 1, i] += step
    return simplex


# Restarts of the simplex, and the edge of the first initial simplex.
_RESTARTS = 10
_FIRST_STEP = 0.3


def _restarted_simplex(objective, theta0, f0, budget, seed):
    """Nelder-Mead with polish restarts under a shared evaluation budget.

    ``f0`` is the objective at ``theta0``, already spent from the budget.
    Restart i shrinks the initial simplex around the incumbent; every third
    restart jitters the start point to escape shallow basins.  Returns
    (theta, value, evaluations, converged); converged is False when the
    budget ran out before any restart terminated on its own tolerances.
    """
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    evals = 1

    def counted(x):
        nonlocal evals
        evals += 1
        try:
            v = objective(x)
        except (ValueError, FloatingPointError, OverflowError):
            return 1e50
        return v if np.isfinite(v) else 1e50

    best_x, best_f = np.array(theta0, dtype=float), f0
    converged = False
    step = _FIRST_STEP
    for i in range(_RESTARTS):
        remaining = budget - evals
        if remaining < 2 * (best_x.size + 1):
            break
        start = best_x
        if i > 0 and i % 3 == 0:
            start = best_x + rng.normal(0.0, step, size=best_x.size)
        res = minimize(
            counted, start, method="Nelder-Mead",
            options={
                "initial_simplex": _axis_simplex(start, step),
                "maxfev": remaining,
                "maxiter": 10 ** 9,
                "xatol": 1e-11,
                "fatol": 1e-16,
                "adaptive": best_x.size > 6,
            })
        evals = min(evals, budget)
        if res.fun < best_f:
            best_f = float(res.fun)
            best_x = np.array(res.x)
        if res.success:
            converged = True
        step = max(step * 0.35, 1e-6)
    return best_x, best_f, evals, converged


@dataclass(frozen=True)
class RecoveryResult:
    """A recovery's best point.

    ``evaluations`` counts residual vectors, each an adaptive F grid, plus
    one per parameter for every Jacobian.  ``converged`` is True when a
    point with ``objective`` <= 1e-24 was reached, or when MINPACK's own
    tests stopped the run.
    """

    model: md.ModelSpec
    distance: float
    objective: float
    evaluations: int
    converged: bool


def target_tensor(m, grid):
    """The (L1, L2, n1, n2) sub-distribution tensor a recovery run matches."""
    return md.joint_sub_distribution_grid(m, grid.t1_points, grid.t2_points)


class _Stop(Exception):
    """The recovery ends here: its budget is spent, or a point is solved."""

    def __init__(self, converged):
        super().__init__()
        self.converged = converged


# Residual returned at a point where the model cannot be built or the grid
# is not finite; F lies in [0, 1], so every feasible residual is below 1.
_INFEASIBLE_RESIDUAL = 1e25

# A residual vector with r @ r at most this solves the recovery.
_SOLVED = 1e-24


class _Residuals:
    """The residuals F(theta) - target of a recovery and their Jacobian,
    counted against the budget as ``recover_parameters`` describes.

    Every residual vector is an adaptive F grid and a candidate for the best
    point; the first one with r @ r <= 1e-24 ends the run, converged.  A
    Jacobian that does not fit the remaining budget ends it unconverged
    before it starts.  A Jacobian asked for again at the last Jacobian's
    theta is returned again, and neither costs nor counts.
    """

    def __init__(self, par, grid, target, budget):
        self.par, self.grid, self.budget = par, grid, budget
        self.target = target.ravel()
        self.evaluations = 0
        self.best_theta = self.best_r = None
        self._last_jacobian = (None, None)

    def _spend(self, n):
        if self.evaluations + n > self.budget:
            raise _Stop(converged=False)
        self.evaluations += n

    def _at(self, theta, evaluate):
        """evaluate(model, t1_points, t2_points) for the model at theta, or
        None where the model cannot be built or the evaluation fails."""
        try:
            # a long step can overflow exp() of a log-atom
            with np.errstate(over="raise"):
                model = self.par.unpack(theta)
            return evaluate(model, self.grid.t1_points, self.grid.t2_points)
        except (ValueError, FloatingPointError, OverflowError):
            return None

    def __call__(self, theta):
        self._spend(1)
        fit = self._at(theta, md.joint_sub_distribution_grid)
        if fit is None or not np.all(np.isfinite(fit)):
            r = np.full(self.target.size, _INFEASIBLE_RESIDUAL)
        else:
            r = fit.ravel() - self.target
        if self.best_r is None or r @ r < self.best_r @ self.best_r:
            self.best_theta, self.best_r = np.array(theta, dtype=float), r
        if r @ r <= _SOLVED:
            raise _Stop(converged=True)
        return r

    def jacobian(self, theta):
        theta = np.asarray(theta, dtype=float)
        key = theta.tobytes()
        if key == self._last_jacobian[0]:
            return self._last_jacobian[1]
        self._spend(theta.size)
        jac = self._at(theta, lambda m, *points: self.par.jacobian(
            m, *md._grid_tangents(m, points)))
        if jac is None or not np.all(np.isfinite(jac)):
            raise _Stop(converged=False)
        self._last_jacobian = (key, jac)
        return jac


def recover_parameters(target, grid, init, budget=20000, seed=0,
                       enforce_unit_mean=True):
    """Fit a model to target sub-distribution values on a grid.

    Least squares on the residuals F(theta) - target over hazard parameters
    and frailty atoms/weights (all free in log scale), solved by
    Levenberg-Marquardt (MINPACK through ``scipy.optimize.least_squares``).
    ``target`` is the tensor produced by :func:`target_tensor`; ``init``
    fixes families, structure, and atom count and supplies the starting
    point.  The solver is deterministic and ignores ``seed``.

    The run ends at the first evaluated point whose residuals have
    r @ r <= 1e-24 (so max |F - target| <= 1e-12), with ``converged=True``;
    otherwise where MINPACK's own tests stop it.

    ``budget`` caps the evaluations.  One evaluation is one residual vector,
    an adaptive F grid.  A Jacobian costs one evaluation per parameter and
    is not started when fewer remain; it is exact, one adaptive pass per
    table that integrates the table together with its derivatives.  A run
    the cap cuts returns the best point evaluated with ``converged=False``.
    """
    from scipy.optimize import least_squares

    target = np.asarray(target, dtype=float)
    par = _Parametrization(init, enforce_unit_mean)
    shape = (init.num_causes(1), init.num_causes(2),
             len(grid.t1_points), len(grid.t2_points))
    if target.shape != shape:
        raise ValueError(f"target has shape {target.shape}, the grid and "
                         f"init give {shape}")
    if not np.all(np.isfinite(target)):
        raise ValueError("target has non-finite entries")
    if target.size < par.size:
        raise ValueError(
            f"the grid gives {target.size} residuals for {par.size} "
            "parameters; recovery needs at least as many residuals")
    budget = fr._check_index(budget, 1, math.inf, "budget")
    residuals = _Residuals(par, grid, target, budget)
    theta0 = par.pack(init)
    try:
        r0 = residuals(theta0)
        # least_squares evaluates the start again before MINPACK runs
        res = least_squares(
            lambda th: r0 if np.array_equal(th, theta0) else residuals(th),
            theta0, jac=residuals.jacobian, method="lm", xtol=1e-14,
            ftol=1e-15, gtol=1e-15, max_nfev=budget)
        converged = res.status > 0
    except _Stop as stop:
        converged = stop.converged
    best_r = residuals.best_r
    return RecoveryResult(
        model=par.unpack(residuals.best_theta),
        distance=float(np.max(np.abs(best_r))),
        objective=float(best_r @ best_r),
        evaluations=int(residuals.evaluations),
        converged=bool(converged),
    )


def recover_from_model(target_model, init, budget=20000, seed=0):
    """Convenience wrapper: build the default grid and target from a model."""
    grid = default_probe_grid(target_model)
    result = recover_parameters(target_tensor(target_model, grid), grid, init,
                                budget=budget, seed=seed)
    return result, grid


@dataclass(frozen=True)
class FitResult:
    model: md.ModelSpec
    log_likelihood: float
    evaluations: int
    converged: bool


def _dataset_arrays(dataset, structure):
    """Per individual k, built once per fit: the times, the 0-based causes,
    and each pair's flat index into a C-ordered (causes, n) array."""
    cols = np.array([(o.t1, o.t2, o.j1, o.j2) for o in dataset], float).T.copy()
    if not cols.size:
        raise ValueError("maximum-likelihood fitting needs at least one pair")
    if np.any(cols[2:] == 0):
        raise ValueError("maximum-likelihood fitting needs complete data")
    n = cols.shape[1]
    causes = {k: cols[k + 1].astype(np.int64) - 1 for k in (1, 2)}
    if any(np.any(causes[k] >= structure.num_causes(k)) for k in (1, 2)):
        raise ValueError("dataset contains cause labels beyond the model")
    return ({k: cols[k - 1] for k in (1, 2)}, causes,
            {k: c * n + np.arange(n) for k, c in causes.items()})


def _log_likelihood(m, times, causes, observed):
    """Sum over pairs of log joint sub-density, vectorized over the data.

    The (atoms, n) log-mixture terms are kept C-ordered: ``np.take`` and
    ``@`` give C order, while fancy indexing the Fortran-ordered
    ``eps_matrix`` gives a Fortran-ordered gather that is slow to build and
    to combine, and whose reductions over atoms run n short loops.  A pair
    whose terms are all -inf gets -inf, even where a saturated time makes
    its log h inf.
    """
    terms = log_h = 0.0
    # a saturated time overflows h and H, and BLAS flags its inf load invalid
    with np.errstate(over="ignore", invalid="ignore"):
        for k in (1, 2):
            hs, cums = _stacked_rates(m.hazards_for(k), times[k])
            eps = m.eps_matrix(k)
            log_h = log_h + np.log(np.take(hs, observed[k]))
            terms = terms + (np.take(np.log(eps), causes[k], axis=1)
                             - eps @ cums)
    terms = terms + np.log(m.frailty.weights)[:, None]
    top = terms.max(axis=0)
    shift = np.where(top > -np.inf, top, 0.0)
    with np.errstate(divide="ignore"):
        lse = np.log(np.exp(terms - shift).sum(axis=0)) + shift
    return float(np.sum(lse + np.where(lse > -np.inf, log_h, 0.0)))


def fit_mle(dataset, structure, num_atoms, init, budget=20000, seed=0):
    """Maximize the joint sub-density likelihood on complete data.

    ``init`` supplies families and the starting point; its structure and atom
    count must match the requested ones.  Returns the fitted model with the
    attained log-likelihood.
    """
    if init.structure != structure:
        raise ValueError("init structure does not match requested structure")
    if init.frailty.num_atoms != num_atoms:
        raise ValueError("init atom count does not match num_atoms")
    budget = fr._check_index(budget, 1, math.inf, "budget")
    times, causes, observed = _dataset_arrays(dataset, structure)
    n = times[1].size
    par = _Parametrization(init, enforce_unit_mean=True)

    def objective(theta):
        model = par.unpack(theta)
        return -_log_likelihood(model, times, causes, observed) / n

    theta0 = par.pack(init)
    f0 = objective(theta0)
    if not np.isfinite(f0):
        raise ValueError("log-likelihood is not finite at the init")
    theta, value, evals, converged = _restarted_simplex(
        objective, theta0, f0, budget, seed)
    return FitResult(
        model=par.unpack(theta),
        log_likelihood=float(-value * n),
        evaluations=int(evals),
        converged=bool(converged),
    )
