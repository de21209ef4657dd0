"""Exact simulation from a bivariate competing-risks frailty model.

Each pair draws one frailty atom; given the atom the two individuals are
independent.  An individual's failure time solves
``sum_j eps_j H_j(T) = E`` with E standard exponential (inverse total
conditional cumulative hazard), and the failing cause is drawn with
probability proportional to ``eps_j h_j(T)``.  Optional independent
exponential censoring truncates each individual separately.

Datasets are generated in fixed-size shards with RNG streams derived from
(seed, shard index), so output is reproducible bit for bit regardless of how
many worker threads execute the shards.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import frailty as fr
from .hazards import _solve_total_load, _stacked_log_rates

__all__ = [
    "SimConfig",
    "BivariateObservation",
    "ObservationColumns",
    "simulate_pair",
    "simulate_dataset",
    "simulate_table",
    "write_dataset_csv",
    "read_dataset_csv",
    "dkw_bandwidth",
]

SHARD_SIZE = 4096

_CSV_COLUMNS = ("pair_id", "t1", "j1", "d1", "t2", "j2", "d2")
_CSV_FLAGS = {"0": False, "1": True}


@dataclass(frozen=True)
class SimConfig:
    """Sampling plan: pair count, base seed, exponential censoring rate."""

    n_pairs: int
    seed: int
    censoring_rate: float = 0.0

    def __post_init__(self):
        fr._check_index(self.n_pairs, 0, math.inf, "n_pairs")
        fr._check_index(self.seed, 0, 2 ** 64 - 1, "seed")
        if not 0.0 <= self.censoring_rate < math.inf:
            raise ValueError("censoring rate must be nonnegative and finite")


@dataclass(frozen=True)
class BivariateObservation:
    """One observed pair; j = 0 with d = False marks a censored individual."""

    t1: float
    j1: int
    d1: bool
    t2: float
    j2: int
    d2: bool

    def __post_init__(self):
        if not (0.0 < self.t1 < math.inf and 0.0 < self.t2 < math.inf):
            raise ValueError(
                "observed times must be finite and strictly positive")
        for j, d in ((self.j1, self.d1), (self.j2, self.d2)):
            if isinstance(j, bool) or not isinstance(j, (int, np.integer)):
                raise ValueError(f"cause labels must be integers, got {j!r}")
            if (j == 0) == d:
                raise ValueError("cause 0 must pair with a censoring flag")
            if j < 0:
                raise ValueError("cause labels are nonnegative")


def _invert_total_load(specs, eps, target):
    """Vectorized solve of sum_j eps[:, j] * H_j(t) = target per element.

    Bracket-safeguarded Newton in log t with the total rate as the
    derivative (``hazards._solve_total_load``); the root of the computed
    load comes back to a few ulp.  Targets are floored at 1e-300.
    """
    return _solve_total_load(specs, eps, np.maximum(target, 1e-300))


def _simulate_shard(m, seed, shard_index, count, censoring_rate,
                    record_atoms=False):
    """One shard of pairs; the draw order below is part of the format."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(shard_index,)))
    atom_idx = fr.sample(m.frailty, rng, count)
    exp_draws = {k: rng.exponential(size=count) for k in (1, 2)}
    cause_draws = {k: rng.random(count) for k in (1, 2)}
    censor = None
    if censoring_rate > 0.0:
        censor = {k: rng.exponential(scale=1.0 / censoring_rate, size=count)
                  for k in (1, 2)}

    out = {}
    for k in (1, 2):
        specs = m.hazards_for(k)
        eps = m.eps_matrix(k)[atom_idx]
        times = _invert_total_load(specs, eps, exp_draws[k])
        # (L, n) eps_j h_j over each pair's largest, finite where h overflows
        log_rates = (np.log(m.eps_matrix(k)).T[:, atom_idx]
                     + _stacked_log_rates(specs, times)[0])
        rates = np.exp(log_rates - log_rates.max(axis=0))
        total = rates.sum(axis=0)
        if not np.all(np.isfinite(total) & (total > 0.0)):
            raise RuntimeError("cause assignment rates degenerated")
        cum = np.cumsum(rates, axis=0)
        causes = 1 + np.sum(cause_draws[k] * total >= cum,
                            axis=0).astype(np.int64)
        causes = np.minimum(causes, len(specs))
        if censor is not None:
            observed = np.minimum(times, censor[k])
            event = times <= censor[k]
            causes = np.where(event, causes, 0)
            times = observed
        else:
            event = np.ones(count, dtype=bool)
        out[f"t{k}"] = times
        out[f"j{k}"] = causes
        out[f"d{k}"] = event
    if record_atoms:
        out["atom_id"] = atom_idx
    return out


def _shard_plan(cfg):
    n = cfg.n_pairs
    return [(i, min(SHARD_SIZE, n - i * SHARD_SIZE))
            for i in range((n + SHARD_SIZE - 1) // SHARD_SIZE)]


def simulate_table(m, cfg, record_atoms=False, threads=1):
    """Column arrays for a whole dataset (pair_id, t/j/d per individual).

    Shards are computed independently (optionally on a thread pool) and
    concatenated in shard order, so the result depends only on cfg.
    """
    threads = fr._check_index(threads, 1, math.inf, "threads")
    plan = _shard_plan(cfg)

    def run(item):
        idx, count = item
        return _simulate_shard(m, cfg.seed, idx, count, cfg.censoring_rate,
                               record_atoms)

    if threads > 1 and len(plan) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            shards = list(pool.map(run, plan))
    else:
        # an empty dataset is one empty shard
        shards = [run(item) for item in plan or [(0, 0)]]
    table = {"pair_id": np.arange(cfg.n_pairs, dtype=np.int64)}
    for key in shards[0]:
        table[key] = np.concatenate([sh[key] for sh in shards])
    return table


def _observations(table):
    """The rows of a table's t/j/d columns as BivariateObservations."""
    columns = [table[f.name].tolist() for f in fields(BivariateObservation)]
    return list(map(BivariateObservation, *columns))


def simulate_pair(m, rng, censoring_rate=0.0):
    """Draw a single pair; accepts a Generator or a seed.  The seed and the
    censoring rate are checked as ``SimConfig`` checks them."""
    if isinstance(rng, np.random.Generator):
        rng = int(rng.integers(0, 2 ** 63))
    return simulate_dataset(m, SimConfig(1, rng, censoring_rate))[0]


def simulate_dataset(m, cfg, threads=1):
    """The dataset as a list of observations (see simulate_table for bulk)."""
    return _observations(simulate_table(m, cfg, threads=threads))


def _format_rows(table, start, stop, with_atoms):
    # %.17g round-trips every double; %d writes the censoring flags as 0/1
    keys = _CSV_COLUMNS + (("atom_id",) if with_atoms else ())
    template = "%d,%.17g,%d,%d,%.17g,%d,%d" + (",%d" if with_atoms else "")
    columns = [table[key][start:stop].tolist() for key in keys]
    return "\n".join(map(template.__mod__, zip(*columns)))


def write_dataset_csv(m, cfg, path, record_atoms=False, threads=1):
    """Simulate and stream the dataset to CSV; returns the row count.

    Times are written with 17 significant digits so values round-trip
    exactly; a fixed seed therefore yields a byte-identical file.
    """
    table = simulate_table(m, cfg, record_atoms=record_atoms, threads=threads)
    header = ",".join(_CSV_COLUMNS + (("atom_id",) if record_atoms else ()))
    own = not hasattr(path, "write")
    handle = open(path, "w", encoding="utf-8") if own else path
    try:
        handle.write(header + "\n")
        for start in range(0, cfg.n_pairs, SHARD_SIZE):
            stop = min(start + SHARD_SIZE, cfg.n_pairs)
            handle.write(_format_rows(table, start, stop, record_atoms) + "\n")
    finally:
        if own:
            handle.close()
    return cfg.n_pairs


# The column dtypes of ObservationColumns, in BivariateObservation's order.
_COLUMN_TYPES = {"t1": float, "j1": np.int64, "d1": bool,
                 "t2": float, "j2": np.int64, "d2": bool}


class ObservationColumns(Sequence):
    """A dataset held as t/j/d column arrays, read-only: a sequence of the
    ``BivariateObservation``s of its rows, built on access, equal to a list
    of the same observations.  ``columns`` maps each field name of
    ``BivariateObservation`` to its array: float times, int64 causes and
    bool censoring flags."""

    def __init__(self, columns):
        self.columns = {key: np.asarray(columns[key], dtype=dtype)
                        for key, dtype in _COLUMN_TYPES.items()}
        for col in self.columns.values():
            col.flags.writeable = False

    def __len__(self):
        return len(self.columns["t1"])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ObservationColumns(
                {key: col[index] for key, col in self.columns.items()})
        return BivariateObservation(
            **{key: col[index].item() for key, col in self.columns.items()})

    def __iter__(self):
        return iter(_observations(self.columns))

    def __repr__(self):
        return f"ObservationColumns(<{len(self)} pairs>)"

    def __eq__(self, other):
        if isinstance(other, (list, ObservationColumns)):
            return list(self) == list(other)
        return NotImplemented


def _observation_columns(dataset):
    """The t/j/d columns of a dataset: its own for ``ObservationColumns``,
    gathered from the observations of any other sequence."""
    if not isinstance(dataset, ObservationColumns):
        dataset = ObservationColumns(
            {key: [getattr(o, key) for o in dataset] for key in _COLUMN_TYPES})
    return dataset.columns


def _checked_columns(rows):
    """The columns of split data rows, or None where a row fails a check
    of ``_checked_row``: parsed and checked a column at a time."""
    if not rows:
        return dict.fromkeys(_COLUMN_TYPES, [])
    if min(map(len, rows)) < 7:
        return None
    _, t1, j1, d1, t2, j2, d2 = list(zip(*rows))[:7]
    if not set(d1 + d2) <= _CSV_FLAGS.keys():
        return None
    try:
        t1, t2 = (np.array(list(map(float, col))) for col in (t1, t2))
        j1, j2 = (np.array(list(map(int, col)), dtype=np.int64)
                  for col in (j1, j2))
    except (ValueError, OverflowError):
        return None
    d1, d2 = np.array(d1) == "1", np.array(d2) == "1"
    times_ok = (t1 > 0.0) & (t1 < math.inf) & (t2 > 0.0) & (t2 < math.inf)
    causes_ok = ((j1 == 0) != d1) & ((j2 == 0) != d2) & (j1 >= 0) & (j2 >= 0)
    if not (times_ok & causes_ok).all():
        return None
    return dict(zip(_COLUMN_TYPES, (t1, j1, d1, t2, j2, d2)))


def _checked_row(parts):
    """One data row as an observation; ValueError if it is malformed."""
    if len(parts) < 7:
        raise ValueError("expected at least 7 fields")
    d1, d2 = _CSV_FLAGS.get(parts[3]), _CSV_FLAGS.get(parts[6])
    if d1 is None or d2 is None:
        raise ValueError("censoring flags must be 0 or 1")
    obs = BivariateObservation(
        t1=float(parts[1]), j1=int(parts[2]), d1=d1,
        t2=float(parts[4]), j2=int(parts[5]), d2=d2)
    if max(obs.j1, obs.j2) >= 2 ** 63:
        raise ValueError("cause labels must be below 2**63")
    return obs


def _chunk_columns(lines, first_lineno):
    """The columns of a run of data lines, the first at line first_lineno;
    ValueError naming the line of the first malformed row."""
    columns = _checked_columns(
        [line.split(",") for line in lines if line.strip()])
    if columns is not None:
        return columns
    # some row is malformed: check row by row, in line order, for its message
    rows = []
    for lineno, line in enumerate(lines, start=first_lineno):
        if line.strip():
            try:
                rows.append(_checked_row(line.split(",")))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return _observation_columns(rows)


def read_dataset_csv(path):
    """Parse a dataset CSV into an ``ObservationColumns``.

    Raises ValueError with the 1-based line number of the first malformed
    row.  Rows are split and parsed SHARD_SIZE lines at a time, which bounds
    the memory their fields take.
    """
    own = isinstance(path, (str, bytes)) or hasattr(path, "__fspath__")
    handle = open(path, "r", encoding="utf-8") if own else path
    try:
        lines = handle.read().splitlines()
    finally:
        if own:
            handle.close()
    if not lines:
        raise ValueError("line 1: empty dataset file")
    header = lines[0].split(",")
    if tuple(header[:7]) != _CSV_COLUMNS:
        raise ValueError(
            f"line 1: expected header {','.join(_CSV_COLUMNS)}")
    # lines[0] is line 1, so lines[i] is line i + 1
    chunks = [_chunk_columns(lines[i:i + SHARD_SIZE], i + 1)
              for i in range(1, max(len(lines), 2), SHARD_SIZE)]
    return ObservationColumns({key: np.concatenate([c[key] for c in chunks])
                               for key in _COLUMN_TYPES})


def dkw_bandwidth(n, delta):
    """Two-sided uniform empirical-CDF band width sqrt(log(2/delta) / (2n))."""
    fr._check_index(n, 1, math.inf, "n")
    if not 0.0 < delta < 1.0:
        raise ValueError("need 0 < delta < 1")
    return float(np.sqrt(np.log(2.0 / delta) / (2.0 * n)))
