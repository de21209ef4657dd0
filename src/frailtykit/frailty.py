"""Discrete frailty distributions over pairs of individuals.

A frailty structure fixes how many latent coordinates a model carries and
which coordinate multiplies each (individual, cause) hazard:

* ``shared``: one coordinate for everything (d = 1)
* ``correlated``: one coordinate per individual (d = 2)
* ``shared_cause_specific``: one per cause, shared across individuals
  (d = L, requires L1 = L2)
* ``correlated_cause_specific``: one per (individual, cause) (d = 2L,
  requires L1 = L2), laid out as (eps1_1..eps1_L, eps2_1..eps2_L)

The distribution itself is a finite mixture of positive atoms.  Finite
mixtures are dense enough for every probe in this package, and they make the
transform, tilt, and mixture operations exact finite sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "FrailtyKind",
    "FrailtyStructure",
    "DiscreteFrailty",
    "normalize_to_unit_mean",
    "coordinate_means",
    "lst",
    "tilted_mean",
    "marginal",
    "expand_to_pair",
    "sample",
    "canonicalize",
    "frailty_close",
    "frailty_to_dict",
    "frailty_from_dict",
    "structure_to_dict",
    "structure_from_dict",
]

_WEIGHT_SUM_TOL = 1e-12
_MERGE_TOL = 1e-12
_MEAN_ONE_TOL = 1e-9


class FrailtyKind(str, Enum):
    SHARED = "shared"
    CORRELATED = "correlated"
    SHARED_CAUSE_SPECIFIC = "shared_cause_specific"
    CORRELATED_CAUSE_SPECIFIC = "correlated_cause_specific"


@dataclass(frozen=True)
class FrailtyStructure:
    kind: FrailtyKind
    num_causes_1: int
    num_causes_2: int

    def __post_init__(self):
        object.__setattr__(self, "kind", FrailtyKind(self.kind))
        object.__setattr__(self, "num_causes_1", int(self.num_causes_1))
        object.__setattr__(self, "num_causes_2", int(self.num_causes_2))
        if self.num_causes_1 < 1 or self.num_causes_2 < 1:
            raise ValueError("each individual needs at least one cause")
        if self.kind in (FrailtyKind.SHARED_CAUSE_SPECIFIC,
                         FrailtyKind.CORRELATED_CAUSE_SPECIFIC):
            if self.num_causes_1 != self.num_causes_2:
                raise ValueError(
                    "cause-specific structures require equal cause counts")

    @property
    def dimension(self):
        if self.kind is FrailtyKind.SHARED:
            return 1
        if self.kind is FrailtyKind.CORRELATED:
            return 2
        if self.kind is FrailtyKind.SHARED_CAUSE_SPECIFIC:
            return self.num_causes_1
        return 2 * self.num_causes_1

    def num_causes(self, k):
        if k == 1:
            return self.num_causes_1
        if k == 2:
            return self.num_causes_2
        raise ValueError("individual index must be 1 or 2")

    def coordinate_of(self, k, j):
        """Atom coordinate multiplying the hazard of cause j, individual k."""
        if not 1 <= j <= self.num_causes(k):
            raise ValueError(f"cause index {j} out of range for individual {k}")
        if self.kind is FrailtyKind.SHARED:
            return 0
        if self.kind is FrailtyKind.CORRELATED:
            return k - 1
        if self.kind is FrailtyKind.SHARED_CAUSE_SPECIFIC:
            return j - 1
        return (k - 1) * self.num_causes_1 + (j - 1)


@dataclass(frozen=True, eq=False)
class DiscreteFrailty:
    """Finite mixture of positive atoms under a given structure.

    ``atoms`` has shape (num_atoms, structure.dimension); ``weights`` is a
    probability vector.  Arrays are copied and frozen at construction.
    """

    structure: FrailtyStructure
    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.array(self.atoms, dtype=float, ndmin=2, copy=True)
        weights = np.array(self.weights, dtype=float, copy=True).reshape(-1)
        if atoms.ndim != 2 or atoms.shape[0] < 1:
            raise ValueError("atoms must form a (num_atoms, dimension) array")
        if atoms.shape[1] != self.structure.dimension:
            raise ValueError(
                f"atom dimension {atoms.shape[1]} does not match structure "
                f"dimension {self.structure.dimension}")
        if atoms.shape[0] != weights.shape[0]:
            raise ValueError("one weight per atom required")
        if not np.all(np.isfinite(atoms)) or np.any(atoms <= 0.0):
            raise ValueError("atoms must be strictly positive and finite")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise ValueError("weights must be strictly positive and finite")
        if abs(float(weights.sum()) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1")
        atoms.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def num_atoms(self):
        return self.atoms.shape[0]

    @property
    def dimension(self):
        return self.atoms.shape[1]


def coordinate_means(g):
    """Mean of each atom coordinate under the mixture weights."""
    return g.weights @ g.atoms


def normalize_to_unit_mean(g):
    """Rescale every coordinate so its mixture mean is exactly 1."""
    means = coordinate_means(g)
    return DiscreteFrailty(g.structure, g.atoms / means, g.weights)


def _check_index(i, lo, hi, name):
    """i as an int; ValueError unless it is an integer (not bool) in lo..hi."""
    if (isinstance(i, (bool, np.bool_)) or not isinstance(i, (int, np.integer))
            or not lo <= i <= hi):
        raise ValueError(f"{name} must be an integer in {lo}..{hi}, got {i!r}")
    return int(i)


def _transform_argument(g, s):
    """s as a float point (dimension,) or batch (n, dimension); a scalar
    stands for a point when the dimension is 1."""
    s_arr = np.asarray(s, dtype=float)
    if s_arr.ndim == 0 and g.dimension == 1:
        s_arr = s_arr.reshape(1)
    if s_arr.ndim == 0 or s_arr.shape[-1] != g.dimension:
        raise ValueError("transform argument dimension mismatch")
    if not (s_arr >= 0.0).all():
        raise ValueError("transform argument must be nonnegative, not NaN")
    return s_arr


def lst(g, s):
    """Laplace transform E[exp(-<s, eps>)] of the mixture.

    ``s`` may be a single point of shape (dimension,) or a batch (n, dimension);
    batches return an (n,) array.  Negative and NaN arguments are rejected.
    """
    vals = np.exp(-(_transform_argument(g, s) @ g.atoms.T)) @ g.weights
    return float(vals) if vals.ndim == 0 else vals


def tilted_mean(g, coordinate, s):
    """E[eps_i exp(-<s, eps>)]: the transform tilted by one coordinate.

    Equals the coordinate mean at s = 0, so it tends to 1 for normalized
    mixtures as the argument vanishes.
    """
    coordinate = _check_index(coordinate, 0, g.dimension - 1, "coordinate")
    vals = (np.exp(-(_transform_argument(g, s) @ g.atoms.T))
            @ (g.weights * g.atoms[:, coordinate]))
    return float(vals) if vals.ndim == 0 else vals


def _merge_sorted(atoms, weights):
    kept_atoms = [atoms[0]]
    kept_weights = [weights[0]]
    for row, w in zip(atoms[1:], weights[1:]):
        if np.all(np.abs(row - kept_atoms[-1]) <= _MERGE_TOL):
            kept_weights[-1] += w
        else:
            kept_atoms.append(row)
            kept_weights.append(w)
    return np.array(kept_atoms), np.array(kept_weights)


def _infer_marginal_structure(g, n_coords):
    structure = g.structure
    if n_coords == 1:
        return FrailtyStructure(FrailtyKind.SHARED, structure.num_causes_1,
                                structure.num_causes_2)
    if n_coords == 2:
        return FrailtyStructure(FrailtyKind.CORRELATED, structure.num_causes_1,
                                structure.num_causes_2)
    if (structure.kind is FrailtyKind.CORRELATED_CAUSE_SPECIFIC
            and n_coords == structure.num_causes_1):
        return FrailtyStructure(FrailtyKind.SHARED_CAUSE_SPECIFIC,
                                structure.num_causes_1, structure.num_causes_2)
    raise ValueError(
        f"no structure kind represents a {n_coords}-coordinate marginal")


def marginal(g, coordinates):
    """Project the mixture onto a subset of coordinates.

    Duplicate projected atoms are merged (``canonicalize``).  The result's
    structure follows from the projected dimension: 1 -> shared,
    2 -> correlated, per-individual block of a correlated cause-specific law
    -> shared cause-specific.
    """
    coords = [_check_index(c, 0, g.dimension - 1, "coordinate")
              for c in coordinates]
    if len(coords) == 0:
        raise ValueError("need at least one coordinate")
    if len(set(coords)) != len(coords):
        raise ValueError("duplicate coordinates in marginal")
    structure = _infer_marginal_structure(g, len(coords))
    return canonicalize(DiscreteFrailty(structure, g.atoms[:, coords], g.weights))


def expand_to_pair(g, atom_index):
    """Per-cause multipliers ((eps_1^1..), (eps_2^1..)) for one atom: its
    rows of ``expanded_matrix``."""
    i = _check_index(atom_index, 0, g.num_atoms - 1, "atom index")
    return tuple(tuple(expanded_matrix(g, k)[i]) for k in (1, 2))


def expanded_matrix(g, k):
    """(num_atoms, L_k) matrix of per-cause multipliers for individual k."""
    s = g.structure
    cols = [s.coordinate_of(k, j) for j in range(1, s.num_causes(k) + 1)]
    return g.atoms[:, cols]


def sample(g, rng, n):
    """Draw n atom indices; accepts a Generator or a seed."""
    n = _check_index(n, 0, np.inf, "n")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    edges = np.cumsum(g.weights)
    idx = np.searchsorted(edges, gen.random(n), side="right")
    return np.minimum(idx, g.num_atoms - 1)


def canonicalize(g):
    """Sort atoms lexicographically and merge duplicates (within 1e-12)."""
    order = np.lexsort(g.atoms.T[::-1])
    atoms, weights = _merge_sorted(g.atoms[order], g.weights[order])
    return DiscreteFrailty(g.structure, atoms, weights)


def frailty_close(ga, gb, tol=1e-9):
    """Equality of mixtures up to atom relabeling, within tol."""
    if ga.structure != gb.structure:
        return False
    ca, cb = canonicalize(ga), canonicalize(gb)
    if ca.num_atoms != cb.num_atoms:
        return False
    return bool(
        np.all(np.abs(ca.atoms - cb.atoms) <= tol)
        and np.all(np.abs(ca.weights - cb.weights) <= tol))


def structure_to_dict(s):
    return {"kind": s.kind.value, "l1": s.num_causes_1, "l2": s.num_causes_2}


def structure_from_dict(d):
    try:
        kind = FrailtyKind(d["kind"])
    except KeyError:
        raise ValueError("structure missing 'kind'") from None
    except ValueError:
        raise ValueError(f"unknown frailty structure kind {d.get('kind')!r}") from None
    try:
        l1, l2 = d["l1"], d["l2"]
    except KeyError as exc:
        raise ValueError(f"structure missing key {exc}") from None
    return FrailtyStructure(kind, int(l1), int(l2))


def frailty_to_dict(g):
    """JSON-ready dict.  Sets the assert flag when the mixture is unit-mean."""
    out = {
        "structure": structure_to_dict(g.structure),
        "atoms": [[float(v) for v in row] for row in g.atoms],
        "weights": [float(w) for w in g.weights],
    }
    if np.all(np.abs(coordinate_means(g) - 1.0) <= _MEAN_ONE_TOL):
        out["assert_mean_one"] = True
    return out


def frailty_from_dict(d, structure=None):
    """Load a mixture; normalizes to unit mean unless the dict asserts it.

    With ``"assert_mean_one": true`` an off-mean input is rejected instead of
    silently rescaled.  A structure given both in the dict and as an argument
    must agree; either alone suffices.
    """
    if "structure" in d:
        parsed = structure_from_dict(d["structure"])
        if structure is not None and parsed != structure:
            raise ValueError("frailty structure conflicts with enclosing model")
        structure = parsed
    if structure is None:
        raise ValueError("frailty dict needs a 'structure'")
    try:
        atoms = d["atoms"]
        weights = d["weights"]
    except KeyError as exc:
        raise ValueError(f"frailty missing key {exc}") from None
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0 or np.any(w <= 0.0):
        raise ValueError("weights must be a nonempty positive vector")
    g = DiscreteFrailty(structure, np.asarray(atoms, dtype=float), w / w.sum())
    if d.get("assert_mean_one", False):
        if np.any(np.abs(coordinate_means(g) - 1.0) > _MEAN_ONE_TOL):
            raise ValueError("frailty declared unit-mean but is not")
        return g
    return normalize_to_unit_mean(g)
