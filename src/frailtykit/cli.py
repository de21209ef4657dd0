"""Command-line interface.

Subcommands: simulate, eval, probe, recover, fit, validate.  Exit codes:
0 on success, 1 when a validation check fails, 2 on usage errors or
malformed input files (JSON and CSV problems are reported to stderr with a
line number).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import frailty as fr
from . import model as md
from . import identifiability as ident
from .hazards import Family, HazardSpec, validate_family
from .simulate import SimConfig, read_dataset_csv, write_dataset_csv


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}")
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}")


class _InputError(Exception):
    """Malformed input file or inconsistent options; maps to exit code 2."""


def _load_model(path):
    data = _load_json(path)
    try:
        return md.model_from_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise _InputError(f"{path}: bad model: {exc}")


def _load_grid(path):
    data = _load_json(path)
    try:
        return ident.ProbeGrid(tuple(data["t1_points"]),
                               tuple(data["t2_points"]))
    except KeyError as exc:
        raise _InputError(f"{path}: grid JSON needs key {exc}")
    except (ValueError, TypeError) as exc:
        raise _InputError(f"{path}: bad grid: {exc}")


def _dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_threads(args):
    n, source = args.threads, "--threads"
    if n is None:
        env = os.environ.get("FRAILTYKIT_THREADS")
        if not env:
            return 1
        try:
            n = int(env)
        except ValueError:
            raise _InputError(
                f"FRAILTYKIT_THREADS={env!r} is not an integer")
        source = "FRAILTYKIT_THREADS"
    if n < 1:
        raise _InputError(f"{source} must be at least 1")
    return n


def _cmd_simulate(args):
    m = _load_model(args.model)
    cfg = SimConfig(n_pairs=args.n, seed=args.seed,
                    censoring_rate=args.censoring_rate)
    n = write_dataset_csv(m, cfg, args.out, record_atoms=args.debug_atoms,
                          threads=_resolve_threads(args))
    print(f"wrote {n} pairs to {args.out}")
    return 0


def _cmd_eval(args):
    m = _load_model(args.model)
    grid = _load_grid(args.grid)
    t1, t2 = grid.t1_points, grid.t2_points
    big_f = md.joint_sub_distribution_grid(m, t1, t2)
    small_f = md.joint_sub_density_grid(m, t1, t2)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("t1,t2,j1,j2,F,f\n")
        for a, x in enumerate(t1):
            for b, y in enumerate(t2):
                for i in range(m.num_causes(1)):
                    for l in range(m.num_causes(2)):
                        fh.write(f"{x:.17g},{y:.17g},{i + 1},{l + 1},"
                                 f"{big_f[i, l, a, b]:.17g},"
                                 f"{small_f[i, l, a, b]:.17g}\n")
    print(f"wrote {len(t1) * len(t2) * m.num_causes(1) * m.num_causes(2)} "
          f"rows to {args.out}")
    return 0


def _cmd_probe(args):
    ma = _load_model(args.model_a)
    mb = _load_model(args.model_b)
    grid = _load_grid(args.grid) if args.grid else None
    try:
        report = ident.probe_models(ma, mb, grid)
    except ValueError as exc:
        raise _InputError(str(exc))
    _dump_json(ident.probe_report_to_dict(report), args.out)
    print(f"verdict: {report.verdict.value} "
          f"(sup distance {report.sup_distance:.6g})")
    return 0


def _cmd_recover(args):
    target = _load_model(args.target)
    init = _load_model(args.init)
    try:
        result, grid = ident.recover_from_model(
            target, init, budget=args.budget, seed=args.seed)
    except ValueError as exc:
        raise _InputError(str(exc))
    out = {
        "model": md.model_to_dict(result.model),
        "distance": result.distance,
        "objective": result.objective,
        "evaluations": result.evaluations,
        "converged": result.converged,
        "grid": {"t1_points": list(grid.t1_points),
                 "t2_points": list(grid.t2_points)},
    }
    _dump_json(out, args.out)
    print(f"recovered model written to {args.out} "
          f"(distance {result.distance:.3e}, {result.evaluations} evals)")
    return 0


def _default_fit_init(dataset, structure, num_atoms, family):
    """Moment-style starting point: per-cause exponential rates, a geometric
    atom spread around 1, equal weights."""
    times = {1: np.array([o.t1 for o in dataset]),
             2: np.array([o.t2 for o in dataset])}
    causes = {1: np.array([o.j1 for o in dataset]),
              2: np.array([o.j2 for o in dataset])}
    hazards = {}
    for k in (1, 2):
        total = times[k].sum()
        for j in range(1, structure.num_causes(k) + 1):
            rate = max(float((causes[k] == j).sum()) / total, 1e-6)
            hazards[(k, j)] = HazardSpec(family, 1.0, rate)
    d = structure.dimension
    if num_atoms == 1:
        atoms = np.ones((1, d))
    else:
        spread = np.geomspace(0.6, 1.0 / 0.6, num_atoms)
        atoms = np.tile(spread[:, None], (1, d))
    weights = np.full(num_atoms, 1.0 / num_atoms)
    g = fr.normalize_to_unit_mean(fr.DiscreteFrailty(structure, atoms, weights))
    return md.ModelSpec(structure, hazards, g)


def _infer_structure(kind_name, dataset):
    try:
        kind = fr.FrailtyKind(kind_name)
    except ValueError:
        raise _InputError(f"unknown structure {kind_name!r}")
    l1 = max((o.j1 for o in dataset), default=0)
    l2 = max((o.j2 for o in dataset), default=0)
    if l1 < 1 or l2 < 1:
        raise _InputError("dataset has no complete events to infer causes from")
    # the cause-specific layouts require equal cause counts; an unlucky
    # sample where one label never shows up should not block the fit
    if kind in (fr.FrailtyKind.SHARED_CAUSE_SPECIFIC,
                fr.FrailtyKind.CORRELATED_CAUSE_SPECIFIC):
        l1 = l2 = max(l1, l2)
    return fr.FrailtyStructure(kind, l1, l2)


def _cmd_fit(args):
    try:
        dataset = read_dataset_csv(args.data)
    except ValueError as exc:
        raise _InputError(f"{args.data}: {exc}")
    try:
        family = Family(args.family)
    except ValueError:
        raise _InputError(f"unknown family {args.family!r}")
    structure = _infer_structure(args.structure, dataset)
    init = _default_fit_init(dataset, structure, args.atoms, family)
    try:
        result = ident.fit_mle(dataset, structure, args.atoms, init,
                               budget=args.budget, seed=args.seed)
    except ValueError as exc:
        raise _InputError(str(exc))
    out = {
        "model": md.model_to_dict(result.model),
        "log_likelihood": result.log_likelihood,
        "evaluations": result.evaluations,
        "converged": result.converged,
        "n_pairs": len(dataset),
    }
    _dump_json(out, args.out)
    print(f"fitted model written to {args.out} "
          f"(log-likelihood {result.log_likelihood:.4f})")
    return 0


def _cmd_validate(args):
    m = _load_model(args.model)
    failures = []
    for (k, j), spec in sorted(m.hazards.items()):
        report = validate_family(spec)
        status = "ok" if report.passed else "FAIL"
        print(f"hazard ({k},{j}) {spec.family.value}: {status} "
              f"[b(0+) residual {report.b_limit_residual:.2e}, "
              f"H({report.horizon:.3g}) = {report.cumulative_at_horizon:.3g}]")
        if not report.passed:
            failures.append(f"hazard ({k},{j})")
    means = fr.coordinate_means(m.frailty)
    mean_gap = float(np.max(np.abs(np.asarray(means) - 1.0)))
    mean_ok = mean_gap <= 1e-9
    print(f"frailty mean-one: {'ok' if mean_ok else 'FAIL'} "
          f"[max deviation {mean_gap:.2e}]")
    if not mean_ok:
        failures.append("frailty mean")
    try:
        horizon = md.time_horizon(m)
        total = sum(
            md.marginal_sub_distribution(m, k, j, horizon)
            for k in (1, 2) for j in range(1, m.num_causes(k) + 1)) / 2.0
        norm_ok = abs(total - 1.0) <= 1e-6
        print(f"normalization at t={horizon:.4g}: "
              f"{'ok' if norm_ok else 'FAIL'} [total {total:.9f}]")
        if not norm_ok:
            failures.append("normalization")
    except RuntimeError as exc:
        print(f"normalization: FAIL [{exc}]")
        failures.append("normalization")
    if failures:
        print("validation failed: " + ", ".join(failures))
        return 1
    print("validation passed")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="frailtykit",
        description="Bivariate competing-risks models with discrete frailty")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw right-censored pair data")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--censoring-rate", type=float, default=0.0)
    p.add_argument("--debug-atoms", action="store_true")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("eval", help="tabulate joint sub-distributions")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("probe", help="compare two models for separation")
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", default=None)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("recover", help="refit a model to its own surface")
    p.add_argument("--target", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--budget", type=int, default=20000,
                   help="cap on evaluations: one per residual vector (an "
                        "adaptive F grid); an exact Jacobian costs one per "
                        "parameter and is not started when fewer remain; "
                        "the run also ends at the first point with "
                        "sum of squared residuals <= 1e-24")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for compatibility; recovery is "
                        "deterministic and ignores it")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("fit", help="maximum likelihood on complete data")
    p.add_argument("--data", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--family", default="weibull")
    p.add_argument("--budget", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("validate", help="run model sanity checks")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_validate)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (_InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
