"""Independent references and the benchmark's correctness checks.

Nothing here calls a frailtykit routine.  A model is read once into plain
parameters by ``describe`` (family, gamma and alpha per hazard, atoms,
weights, structure kind), and every reference value is recomputed from
``scipy.special`` hazards, ``scipy.integrate.quad`` and numpy:

* the conditional sub-distribution of cause j given an atom is
  ``quad`` of ``eps_j h_j(u) exp(-sum_j' eps_j' H_j'(u))``, integrated piece
  by piece between consecutive grid times and summed;
* the joint sub-density and the log-likelihood are the closed-form finite
  sums over atoms.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaincc, gammaln, logsumexp

QUAD_OPTS = {"epsabs": 1e-14, "epsrel": 1e-12, "limit": 200}


# -- models as plain parameters ----------------------------------------------


def describe(m):
    """Plain-parameter copy of a frailtykit model."""
    st = m.structure
    return {
        "kind": st.kind.value,
        "L": {1: st.num_causes_1, 2: st.num_causes_2},
        "hazards": {key: (spec.family.value, float(spec.gamma),
                          float(spec.alpha))
                    for key, spec in m.hazards.items()},
        "atoms": np.array(m.frailty.atoms, dtype=float),
        "weights": np.array(m.frailty.weights, dtype=float),
    }


def coordinate(kind, l1, k, j):
    """Frailty coordinate multiplying cause j of individual k."""
    if kind == "shared":
        return 0
    if kind == "correlated":
        return k - 1
    if kind == "shared_cause_specific":
        return j - 1
    if kind == "correlated_cause_specific":
        return (k - 1) * l1 + (j - 1)
    raise ValueError(f"unknown structure kind {kind!r}")


def eps_matrix(desc, k):
    """(atoms, L_k) per-cause frailty multipliers of individual k."""
    cols = [coordinate(desc["kind"], desc["L"][1], k, j)
            for j in range(1, desc["L"][k] + 1)]
    return desc["atoms"][:, cols]


# -- hazards from scipy.special ------------------------------------------------


def log_hazard(spec, t):
    family, g, a = spec
    t = np.asarray(t, dtype=float)
    if family == "exponential":
        return np.full(t.shape, math.log(a))
    if family == "weibull":
        return math.log(a * g) + (g - 1.0) * np.log(t)
    if family == "gamma":
        return (g * math.log(a) + (g - 1.0) * np.log(t) - a * t - gammaln(g)
                - np.log(gammaincc(g, a * t)))
    if family == "loglogistic":
        return math.log(a * g) + (g - 1.0) * np.log(t) - np.log1p(a * t ** g)
    raise ValueError(f"unknown family {family!r}")


def cumulative_hazard(spec, t):
    family, g, a = spec
    t = np.asarray(t, dtype=float)
    if family == "exponential":
        return a * t
    if family == "weibull":
        return a * t ** g
    if family == "gamma":
        return -np.log(gammaincc(g, a * t))
    if family == "loglogistic":
        return np.log1p(a * t ** g)
    raise ValueError(f"unknown family {family!r}")


def _specs(desc, k):
    return [desc["hazards"][(k, j)] for j in range(1, desc["L"][k] + 1)]


# -- sub-distributions by scipy.integrate.quad ---------------------------------


def cause_curves(desc, k, t_points):
    """(atoms, L_k, n) conditional sub-distributions at increasing times."""
    ts = np.asarray(t_points, dtype=float)
    specs = _specs(desc, k)
    eps = eps_matrix(desc, k)
    out = np.empty((eps.shape[0], len(specs), ts.size))
    edges = np.concatenate([[0.0], ts])
    for w, row in enumerate(eps):
        for j in range(len(specs)):
            def integrand(u, row=row, j=j):
                load = sum(e * float(cumulative_hazard(sp, u))
                           for e, sp in zip(row, specs))
                return row[j] * math.exp(float(log_hazard(specs[j], u)) - load)

            pieces = [quad(integrand, lo, hi, **QUAD_OPTS)[0]
                      for lo, hi in zip(edges[:-1], edges[1:])]
            out[w, j] = np.cumsum(pieces)
    return out


def marginal_sub_distribution(desc, k, t_points):
    """(L_k, n) marginal sub-distributions P(T_k <= t, J_k = j)."""
    return np.einsum("w,wjn->jn", desc["weights"],
                     cause_curves(desc, k, t_points))


def joint_sub_distribution(desc, t1_points, t2_points):
    """(L1, L2, n1, n2) joint sub-distributions on a product grid."""
    c1 = cause_curves(desc, 1, t1_points)
    c2 = cause_curves(desc, 2, t2_points)
    return np.einsum("w,wai,wbl->abil", desc["weights"], c1, c2)


# -- closed-form finite sums ----------------------------------------------------


def _log_conditional_density(desc, k, t, cause):
    """(atoms, n) log of eps_j h_j(t) exp(-eps . H(t)) given each atom."""
    specs = _specs(desc, k)
    eps = eps_matrix(desc, k)
    cums = np.stack([cumulative_hazard(sp, t) for sp in specs])
    logh = np.choose(cause - 1, [log_hazard(sp, t) for sp in specs])
    return np.log(eps[:, cause - 1]) + logh[None, :] - eps @ cums


def _log_joint_sub_density(desc, t1, j1, t2, j2):
    """log f_{j1 j2}(t1, t2) for arrays of rows."""
    total = (np.log(desc["weights"])[:, None]
             + _log_conditional_density(desc, 1, np.asarray(t1, float),
                                        np.asarray(j1, np.int64))
             + _log_conditional_density(desc, 2, np.asarray(t2, float),
                                        np.asarray(j2, np.int64)))
    return logsumexp(total, axis=0)


def joint_sub_density(desc, t1, j1, t2, j2):
    """f_{j1 j2}(t1, t2) for arrays of rows."""
    return np.exp(_log_joint_sub_density(desc, t1, j1, t2, j2))


def log_likelihood(desc, t1, j1, t2, j2):
    """Complete-data log-likelihood: sum of log joint sub-densities."""
    return float(np.sum(_log_joint_sub_density(desc, t1, j1, t2, j2)))


# -- checks ------------------------------------------------------------------------


def read_pairs_csv(path):
    """The dataset CSV as columns, parsed with numpy."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {"pair_id": data[:, 0], "t1": data[:, 1], "j1": data[:, 2],
            "d1": data[:, 3], "t2": data[:, 4], "j2": data[:, 5],
            "d2": data[:, 6]}


def dkw_band(n, delta):
    """Dvoretzky-Kiefer-Wolfowitz: P(sup |F_n - F| > band) <= delta."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def hoeffding_band(n, delta, points):
    """Hoeffding with a union bound over a fixed set of points."""
    return math.sqrt(math.log(2.0 * points / delta) / (2.0 * n))


def check_simulated(cols, desc, n_pairs, joint_grid, delta=1e-6):
    """A complete dataset against the model it was drawn from.

    Marginal sub-distributions: DKW band at 20 quantiles of the data (the
    band is uniform in t).  Joint sub-distributions: Hoeffding plus a union
    bound at the fixed points of ``joint_grid``.  Each test has false-alarm
    probability at most ``delta``.
    """
    problems = []
    n = cols["t1"].size
    if n != n_pairs:
        return [f"dataset has {n} rows, expected {n_pairs}"]
    if not np.array_equal(cols["pair_id"], np.arange(n)):
        problems.append("pair ids are not 0..n-1 in order")
    for k in (1, 2):
        t, j, d = cols[f"t{k}"], cols[f"j{k}"], cols[f"d{k}"]
        if not (np.all(np.isfinite(t)) and np.all(t > 0.0)):
            problems.append(f"t{k} has non-positive or non-finite times")
        if not np.all(d == 1.0):
            problems.append(f"d{k} marks censored rows in a complete draw")
        if not np.all(np.isin(j, np.arange(1, desc["L"][k] + 1))):
            problems.append(f"j{k} has labels outside 1..{desc['L'][k]}")
    if problems:
        return problems

    band = dkw_band(n, delta)
    for k in (1, 2):
        t, j = cols[f"t{k}"], cols[f"j{k}"]
        grid = np.quantile(t, np.linspace(0.04, 0.96, 20))
        ref = marginal_sub_distribution(desc, k, grid)
        for c in range(desc["L"][k]):
            emp = np.array([np.count_nonzero((t <= x) & (j == c + 1))
                            for x in grid]) / n
            gap = float(np.max(np.abs(emp - ref[c])))
            if gap > band:
                problems.append(
                    f"marginal ({k},{c + 1}) outside DKW band: "
                    f"{gap:.4g} > {band:.4g}")

    g1, g2 = joint_grid
    ref = joint_sub_distribution(desc, g1, g2)
    jband = hoeffding_band(n, delta, ref.size)
    for a in range(desc["L"][1]):
        for b in range(desc["L"][2]):
            sel = (cols["j1"] == a + 1) & (cols["j2"] == b + 1)
            emp = np.array([[np.count_nonzero(sel & (cols["t1"] <= x)
                                              & (cols["t2"] <= y))
                             for y in g2] for x in g1]) / n
            gap = float(np.max(np.abs(emp - ref[a, b])))
            if gap > jband:
                problems.append(
                    f"joint ({a + 1},{b + 1}) outside band: "
                    f"{gap:.4g} > {jband:.4g}")
    return problems


def check_fit(log_likelihood_returned, fitted, start, cols, tol_per_pair=1e-8):
    """The returned log-likelihood equals a recomputation at the returned
    model, and that recomputation is no lower than at the start point."""
    args = (cols["t1"], cols["j1"].astype(np.int64),
            cols["t2"], cols["j2"].astype(np.int64))
    tol = tol_per_pair * cols["t1"].size
    at_fit = log_likelihood(fitted, *args)
    at_start = log_likelihood(start, *args)
    problems = []
    if not abs(log_likelihood_returned - at_fit) <= tol:
        problems.append(
            f"returned log-likelihood {log_likelihood_returned!r} differs "
            f"from the recomputation {at_fit!r} by more than {tol:.3g}")
    if not at_fit >= at_start - tol:
        problems.append(
            f"fitted log-likelihood {at_fit!r} is below the start "
            f"{at_start!r}")
    return problems


def check_probe(verdict, sup_distance, confounded):
    """Perturbed pairs separate; the scale-confounded pair does not."""
    if confounded:
        if not sup_distance < 1e-9:
            return [f"scale-confounded pair has sup distance "
                    f"{sup_distance!r} >= 1e-9"]
        return []
    if verdict != "separated":
        return [f"perturbed pair reported {verdict!r} "
                f"(sup distance {sup_distance!r})"]
    return []


def read_eval_csv(path, n1, n2, l1, l2):
    """The eval CSV as (n1, n2, l1, l2) arrays of t1, t2, j1, j2, F, f."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (n1 * n2 * l1 * l2, 6):
        raise ValueError(f"eval CSV has shape {data.shape}")
    cube = data.reshape(n1, n2, l1, l2, 6)
    return {name: cube[..., i]
            for i, name in enumerate(("t1", "t2", "j1", "j2", "F", "f"))}


def check_eval(table, desc, grid, subset, f_rel_tol=1e-12, big_f_tol=1e-10):
    """F against quad on a subset of the grid, f against the closed form on
    every row, and F nondecreasing in both times."""
    t1s = np.asarray(grid["t1_points"], float)
    t2s = np.asarray(grid["t2_points"], float)
    problems = []
    if not (np.array_equal(table["t1"][:, 0, 0, 0], t1s)
            and np.array_equal(table["t2"][0, :, 0, 0], t2s)):
        return ["eval CSV times do not match the grid"]

    f_ref = joint_sub_density(desc, table["t1"].ravel(), table["j1"].ravel(),
                              table["t2"].ravel(), table["j2"].ravel())
    f_out = table["f"].ravel()
    rel = np.abs(f_out - f_ref) / np.maximum(np.abs(f_ref), 1e-300)
    if not np.all(rel <= f_rel_tol):
        problems.append(f"f differs from the closed form by "
                        f"{float(np.max(rel)):.3g} relative")

    idx = np.asarray(subset)
    ref = joint_sub_distribution(desc, t1s[idx], t2s[idx])
    got = table["F"][np.ix_(idx, idx)].transpose(2, 3, 0, 1)
    gap = float(np.max(np.abs(got - ref)))
    if not gap <= big_f_tol:
        problems.append(f"F differs from the quad reference by {gap:.3g}")

    big_f = table["F"]
    if not (np.all(np.diff(big_f, axis=0) >= 0.0)
            and np.all(np.diff(big_f, axis=1) >= 0.0)):
        problems.append("F decreases along a time axis")
    return problems


def check_recovered(recovered, truth, rel_tol=1e-2):
    """Recovered hazards and (sorted) atoms within rel_tol of the truth."""
    problems = []
    for key, (_, g, a) in truth["hazards"].items():
        _, rg, ra = recovered["hazards"][key]
        if not (abs(rg - g) <= rel_tol * g and abs(ra - a) <= rel_tol * a):
            problems.append(f"hazard {key} recovered as ({rg:.6g}, {ra:.6g}),"
                            f" truth ({g:.6g}, {a:.6g})")
    if recovered["atoms"].shape != truth["atoms"].shape:
        return problems + ["recovered atom count differs from the truth"]
    order_r = np.lexsort(recovered["atoms"].T[::-1])
    order_t = np.lexsort(truth["atoms"].T[::-1])
    ra, ta = recovered["atoms"][order_r], truth["atoms"][order_t]
    if not np.all(np.abs(ra - ta) <= rel_tol * ta):
        problems.append(f"atoms recovered as {ra.ravel().tolist()}, "
                        f"truth {ta.ravel().tolist()}")
    return problems
