"""One benchmark workload, run in its own process by ``bench/run.py``.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            --workdir DIR [--setup-only] [--smoke]

The process imports frailtykit from the checkout's ``src/``, builds the
workload's inputs from the seed (the set-up), then runs whole rounds of the
same operations until ``--seconds`` have passed.  Outputs are kept and
checked against ``reference.py`` after the timed rounds.  The last line of
standard output is one JSON object for ``run.py``.

With ``--trace 1`` the first round runs untraced and the later ones under
``spans.Tracer``; the result carries the per-layer metrics of one traced
round and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import frailtykit as fk  # noqa: E402
from frailtykit import cli, identifiability, model, simulate  # noqa: E402

import inputs  # noqa: E402

if not Path(fk.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"frailtykit was imported from {fk.__file__}, not from {SRC}")

SIZES = {
    "full": {"n_pairs": 20000, "fit_budget": 150, "rotations": 4,
             "eval_n": 32, "recover_budget": 1500, "recover_from_truth": False},
    # seconds-long run of every operation, for the benchmark's own tests
    "smoke": {"n_pairs": 2000, "fit_budget": 20, "rotations": 1,
              "eval_n": 6, "recover_budget": 50, "recover_from_truth": True},
}

JOINT_GRID = ([0.3, 0.6, 1.0, 1.5, 2.2], [0.3, 0.6, 1.0, 1.5, 2.2])

# The checks import ``reference`` (and with it scipy.integrate) when they run,
# after the timed rounds, so it stays out of set-up time and peak memory.


def _write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cli(argv):
    rc = cli.run(argv)
    if rc != 0:
        raise RuntimeError(f"frailtykit {argv[0]} exited with {rc}")


class Op:
    """One timed operation: ``run()`` returns an output, ``check(output)``
    returns a list of problems.  ``key(output)`` names outputs that must get
    the same verdict, so identical rounds are checked once."""

    def __init__(self, name, run, check, key=repr):
        self.name, self.run, self.check, self.key = name, run, check, key


class SimulateFit:
    """Simulate pairs through the CLI, read them back, fit them."""

    def __init__(self, seed, workdir, sizes):
        self.workdir = workdir
        self.seed = seed
        self.n = sizes["n_pairs"]
        self.budget = sizes["fit_budget"]
        self.truth = inputs.mixed_model(fk)
        self.start = inputs.fit_start(fk, self.truth)
        self.model_path = workdir / "model.json"
        _write_json(model.model_to_dict(self.truth), self.model_path)

    def ops(self, index):
        csv = self.workdir / f"pairs-{index}.csv"

        def simulate_pairs():
            _cli(["simulate", "--model", str(self.model_path),
                  "--n", str(self.n), "--seed", str(self.seed),
                  "--out", str(csv)])
            return csv

        def fit():
            data = simulate.read_dataset_csv(csv)
            return csv, identifiability.fit_mle(
                data, self.truth.structure, self.truth.frailty.num_atoms,
                self.start, budget=self.budget, seed=0)

        return [Op("simulate", simulate_pairs, self._check_pairs,
                   key=_file_digest),
                Op("fit", fit, self._check_fit,
                   key=lambda out: repr((_file_digest(out[0]),
                                         out[1].log_likelihood,
                                         model.model_to_dict(out[1].model))))]

    def _check_pairs(self, path):
        import reference as ref
        return ref.check_simulated(ref.read_pairs_csv(path),
                                   ref.describe(self.truth), self.n,
                                   JOINT_GRID)

    def _check_fit(self, output):
        import reference as ref
        csv, res = output
        return ref.check_fit(res.log_likelihood, ref.describe(res.model),
                             ref.describe(self.start), ref.read_pairs_csv(csv))

    def metrics(self, rounds):
        return {"throughput_per_s": self.n / op_seconds(rounds, "simulate"),
                "task_s": op_seconds(rounds, "fit")}

    def extra_per_layer(self):
        """Threads=1 over threads=nproc time for the workload's draw."""
        threads = len(os.sched_getaffinity(0))
        cfg = simulate.SimConfig(n_pairs=self.n, seed=self.seed)
        times = {1: [], threads: []}
        for _ in range(3):
            for t in times:
                t0 = time.perf_counter()
                simulate.simulate_table(self.truth, cfg, threads=t)
                times[t].append(time.perf_counter() - t0)
        return {"simulate.thread_speedup": statistics.median(times[1])
                / statistics.median(times[threads])}


class Surface:
    """Identifiability probes over seeded model pairs, plus a CLI eval."""

    def __init__(self, seed, workdir, sizes):
        self.workdir = workdir
        self.pairs = inputs.probe_pairs(fk, seed, sizes["rotations"])
        self.scale_pair = inputs.scale_pair(fk)
        self.model = inputs.mixed_model(fk)
        self.grid = inputs.eval_grid(sizes["eval_n"])
        self.subset = sorted({0, sizes["eval_n"] // 4, sizes["eval_n"] // 2,
                              (3 * sizes["eval_n"]) // 4, sizes["eval_n"] - 1})
        self.model_path = workdir / "model.json"
        self.grid_path = workdir / "grid.json"
        _write_json(model.model_to_dict(self.model), self.model_path)
        _write_json(self.grid, self.grid_path)

    def ops(self, index):
        out = self.workdir / f"eval-{index}.csv"

        def probe(ma, mb):
            report = identifiability.probe_models(ma, mb)
            return report.verdict.value, report.sup_distance

        def evaluate():
            _cli(["eval", "--model", str(self.model_path),
                  "--grid", str(self.grid_path), "--out", str(out)])
            return out

        ops = [Op("probe", lambda p=p: probe(*p), _check_separated)
               for p in self.pairs]
        ops.append(Op("probe", lambda: probe(*self.scale_pair),
                      _check_confounded))
        ops.append(Op("eval", evaluate, self._check_eval, key=_file_digest))
        return ops

    def _check_eval(self, path):
        import reference as ref
        n = len(self.grid["t1_points"])
        table = ref.read_eval_csv(path, n, n, 2, 2)
        return ref.check_eval(table, ref.describe(self.model), self.grid,
                              self.subset)

    def metrics(self, rounds):
        probes = len(self.pairs) + 1
        return {"throughput_per_s": probes / op_seconds(rounds, "probe"),
                "task_s": op_seconds(rounds, "eval")}


def _check_separated(output):
    import reference as ref
    return ref.check_probe(*output, confounded=False)


def _check_confounded(output):
    import reference as ref
    return ref.check_probe(*output, confounded=True)


class Recover:
    """Recover the criterion-7 model from its own sub-distribution surface."""

    def __init__(self, seed, workdir, sizes):
        self.budget = sizes["recover_budget"]
        self.target = inputs.recovery_target(fk)
        self.start = (self.target if sizes["recover_from_truth"]
                      else inputs.recovery_start(fk, seed))
        self.evaluations = []

    def ops(self, index):
        def recover():
            result, _ = identifiability.recover_from_model(
                self.target, self.start, budget=self.budget, seed=0)
            self.evaluations.append(result.evaluations)
            return result

        return [Op("recover", recover, self._check,
                   key=lambda res: repr(model.model_to_dict(res.model)))]

    def _check(self, result):
        import reference as ref
        return ref.check_recovered(ref.describe(result.model),
                                   ref.describe(self.target))

    def metrics(self, rounds):
        secs = op_seconds(rounds, "recover")
        evals = statistics.median(self.evaluations) if self.evaluations else 0
        return {"throughput_per_s": evals / secs, "task_s": secs}


WORKLOADS = {"simulate_fit": SimulateFit, "surface": Surface,
             "recover": Recover}


def op_seconds(rounds, name):
    """Sum over the ops called ``name`` of each op's median over rounds."""
    return sum(statistics.median(r[i][1] for r in rounds)
               for i, (op, _) in enumerate(rounds[0]) if op == name)


def run_round(workload, index, records):
    """Time each operation of one round; returns [(op name, seconds)]."""
    seconds = []
    for op in workload.ops(index):
        t0 = time.perf_counter()
        try:
            output, error = op.run(), None
        except Exception as exc:  # a raising operation is counted as failed
            output, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        seconds.append((op.name, dt))
        records.append((op, output, error))
    return seconds


def check_records(records):
    """Returns (failed, raised, problems); identical outputs checked once."""
    verdicts = {}
    failed = raised = 0
    problems = []
    for op, output, error in records:
        if error is not None:
            failed += 1
            raised += 1
            problems.append(f"{op.name} raised {error}")
            continue
        key = (op.name, op.check, op.key(output))
        if key not in verdicts:
            verdicts[key] = op.check(output)
        if verdicts[key]:
            failed += 1
            problems.extend(f"{op.name}: {p}" for p in verdicts[key])
    return failed, raised, problems


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-out", default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    sizes = SIZES["smoke" if args.smoke else "full"]
    workload = WORKLOADS[args.workload](args.seed, workdir, sizes)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    records = []
    rounds = []
    traced = []
    start = time.perf_counter()
    if args.trace:
        import spans
        rounds.append(run_round(workload, 0, records))
        tracer = spans.Tracer()
        tracer.install("frailtykit")
        try:
            while not traced or time.perf_counter() - start < args.seconds:
                tracer.reset()
                seconds = run_round(workload, len(rounds) + len(traced),
                                    records)
                traced.append((seconds, tracer.snapshot()))
        finally:
            tracer.uninstall()
        metrics = per_layer_metrics(workload, rounds[0], traced,
                                    args.trace_out)
    else:
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(run_round(workload, len(rounds), records))
        metrics = {"peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics.update(workload.metrics(rounds))

    failed, raised, problems = check_records(records)
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)
    print(json.dumps({"ready": ready, "rounds": len(rounds) + len(traced),
                      "attempted": len(records), "failed": failed,
                      "correct": failed == raised, "metrics": metrics}))
    return 0


def per_layer_metrics(workload, untraced, traced, trace_out):
    """Counts of the first traced round, median self times over traced
    rounds, and the overhead of tracing against the untraced round."""
    import spans
    per_round = [spans.per_layer_values(snap) for _, snap in traced]
    counts = [{k: v for k, v in r.items() if isinstance(v, int)}
              for r in per_round]
    values = dict(counts[0])
    for name, value in per_round[0].items():
        if not isinstance(value, int):
            values[name] = statistics.median(r[name] for r in per_round)
    values["simulate.thread_speedup"] = 0.0
    values.update(getattr(workload, "extra_per_layer", dict)())
    base = sum(dt for _, dt in untraced)
    round_s = [sum(dt for _, dt in seconds) for seconds, _ in traced]
    values["trace.overhead_pct"] = (
        100.0 * (statistics.median(round_s) - base) / base)
    if trace_out:
        _write_json({"per_layer": values,
                     "counts_repeat": all(c == counts[0] for c in counts),
                     "untraced_round_s": base, "traced_round_s": round_s,
                     "spans": traced[0][1]}, trace_out)
    return values


if __name__ == "__main__":
    sys.exit(main())
