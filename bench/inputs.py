"""The benchmark's inputs: models, probe pairs, grids and start points.

Everything here is a pure function of the workload seed and the sizes, so
the same seed gives the same inputs.  ``fk`` is the imported ``frailtykit``
package; the README lists the make-up of every model and grid.
"""

from __future__ import annotations

import numpy as np

FAMILIES = ("exponential", "weibull", "gamma", "loglogistic")
KINDS = ("shared", "correlated", "shared_cause_specific",
         "correlated_cause_specific")
SLOTS = ((1, 1), (1, 2), (2, 1), (2, 2))

# independent random streams drawn from one workload seed
_PROBE_STREAM = 1
_RECOVER_STREAM = 2


def _stream(seed, key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def mixed_model(fk):
    """The mixed-family model of ``simulate_fit`` and the ``surface`` eval.

    Correlated cause-specific frailty, two causes, three atoms; gamma and
    log-logistic hazards for individual 1, Weibull and exponential for
    individual 2.
    """
    st = fk.FrailtyStructure("correlated_cause_specific", 2, 2)
    atoms = np.array([[0.5, 0.7, 0.6, 0.8],
                      [1.0, 1.2, 0.9, 1.1],
                      [1.6, 1.3, 1.7, 1.2]])
    g = fk.normalize_to_unit_mean(
        fk.DiscreteFrailty(st, atoms, [0.3, 0.45, 0.25]))
    return fk.ModelSpec.from_lists(
        st,
        [fk.HazardSpec("gamma", 1.6, 0.8), fk.HazardSpec("loglogistic", 2.2, 0.5)],
        [fk.HazardSpec("weibull", 1.4, 0.6), fk.HazardSpec("exponential", 1.0, 0.4)],
        g)


def fit_start(fk, truth):
    """Fixed perturbation of the truth: every hazard parameter and atom
    coordinate moved by 10%, alternately up and down."""
    hazards = {}
    for i, key in enumerate(SLOTS):
        spec = truth.hazard(*key)
        up, down = (1.1, 0.9) if i % 2 == 0 else (0.9, 1.1)
        gamma = 1.0 if spec.family is fk.Family.EXPONENTIAL else spec.gamma * up
        hazards[key] = fk.HazardSpec(spec.family, gamma, spec.alpha * down)
    atoms = np.array(truth.frailty.atoms)
    signs = np.where(np.arange(atoms.size).reshape(atoms.shape) % 2 == 0,
                     1.1, 0.9)
    g = fk.normalize_to_unit_mean(
        fk.DiscreteFrailty(truth.structure, atoms * signs,
                           truth.frailty.weights))
    return fk.ModelSpec(truth.structure, hazards, g)


def eval_grid(n):
    """The ``surface`` eval grid: n log-spaced points per axis."""
    pts = [float(x) for x in np.geomspace(0.05, 4.0, n)]
    return {"t1_points": pts, "t2_points": pts}


def _random_model(fk, rng, kind, families):
    st = fk.FrailtyStructure(kind, 2, 2)
    hazards = {}
    for key, family in zip(SLOTS, families):
        gamma = 1.0 if family == "exponential" else float(rng.uniform(0.9, 3.0))
        hazards[key] = fk.HazardSpec(family, gamma, float(rng.uniform(0.3, 1.8)))
    atoms = rng.uniform(0.4, 2.0, size=(3, st.dimension))
    weights = rng.uniform(0.2, 1.0, size=3)
    g = fk.normalize_to_unit_mean(
        fk.DiscreteFrailty(st, atoms, weights / weights.sum()))
    return fk.ModelSpec(st, hazards, g)


def _perturb_hazard(fk, m, rng):
    """One hazard parameter moved by +15% or -7.5%, frailty unchanged."""
    key = SLOTS[rng.integers(len(SLOTS))]
    spec = m.hazard(*key)
    bump = 1.0 + 0.15 * (1.0 if rng.random() < 0.5 else -0.5)
    if spec.family is not fk.Family.EXPONENTIAL and rng.random() < 0.5:
        new = fk.HazardSpec(spec.family, spec.gamma * bump, spec.alpha)
    else:
        new = fk.HazardSpec(spec.family, spec.gamma, spec.alpha * bump)
    hazards = dict(m.hazards)
    hazards[key] = new
    return fk.ModelSpec(m.structure, hazards, m.frailty)


def _perturb_frailty(fk, m, rng):
    """One atom coordinate moved by 15%, then renormalized to unit mean."""
    atoms = np.array(m.frailty.atoms)
    atoms[0, int(rng.integers(atoms.shape[1]))] *= 1.15
    g = fk.normalize_to_unit_mean(
        fk.DiscreteFrailty(m.structure, atoms, m.frailty.weights))
    return fk.ModelSpec(m.structure, dict(m.hazards), g)


def probe_pairs(fk, seed, rotations):
    """Seeded (model, perturbed model) pairs over all structures and families.

    For each structure, ``rotations`` models; model r gives slot i the family
    ``FAMILIES[(r + i) % 4]``, so each model mixes all four families and the
    cost per pair does not hinge on which families the seed picks.  Even r
    perturbs a hazard parameter, odd r a frailty coordinate.
    """
    rng = _stream(seed, _PROBE_STREAM)
    pairs = []
    for kind in KINDS:
        for r in range(rotations):
            families = [FAMILIES[(r + i) % 4] for i in range(4)]
            m = _random_model(fk, rng, kind, families)
            mp = (_perturb_hazard(fk, m, rng) if r % 2 == 0
                  else _perturb_frailty(fk, m, rng))
            pairs.append((m, mp))
    return pairs


def recovery_target(fk):
    """The shared two-atom Weibull model of acceptance criterion 7."""
    return _shared_weibull(fk, [0.6, 1.4], [(1.5, 0.5), (0.8, 1.0)])


def scale_pair(fk):
    """Criterion-5 pair: the target and its c = 2 scale-confounded copy."""
    m = recovery_target(fk)
    return m, fk.scale_confounding_transform(m, 2.0)


def recovery_start(fk, seed):
    """Every parameter of the target times 1.3 * (1 + u), |u| <= 0.05."""
    f = 1.3 * (1.0 + 0.05 * _stream(seed, _RECOVER_STREAM).uniform(-1, 1, 6))
    return _shared_weibull(fk, [0.6 * f[0], 1.4 * f[1]],
                           [(1.5 * f[2], 0.5 * f[3]), (0.8 * f[4], 1.0 * f[5])],
                           require_unit_mean=False)


def _shared_weibull(fk, atoms, params, require_unit_mean=True):
    st = fk.FrailtyStructure("shared", 2, 2)
    specs = [fk.HazardSpec("weibull", g, a) for g, a in params]
    g = fk.DiscreteFrailty(st, np.reshape(atoms, (-1, 1)), [0.5, 0.5])
    return fk.ModelSpec.from_lists(st, specs, specs, g,
                                   require_unit_mean=require_unit_mean)
