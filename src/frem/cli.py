"""Command-line interface for simulation studies, rate studies, real-data
evaluation, and model fit/predict round trips.

Exit code 0 on success; on failure a machine-readable JSON error object is
printed to stderr and the exit code is nonzero. The worker count is taken
from the FREM_WORKERS environment variable (default 1); FREM_VERBOSE=1
enables progress lines on stderr. Neither affects any numeric result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .bench.config import SimulationConfig
from .bench.datasets import load_dataset, load_query_curves
from .bench.holdout import holdout_eval
from .bench.rates import recovery_rate_study, regression_rate_study
from .bench.report import write_report
from .bench.simulate import run_simulation, workers_from_env
from .errors import FremError, InvalidSettings
from .estimator import FremModel, _local_fit_values, fit as fit_model, predict as predict_query
from .funcspace import GridFunction
from .intrinsic_dim import DimSettings, estimate_dim_values
from .recovery import DiscreteObservations


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _cmd_simulate(args) -> int:
    config = SimulationConfig.from_dict(_load_json(args.config))
    t0 = time.time()
    workers = workers_from_env()
    report = run_simulation(config, workers=workers)
    basename = f"simulate_{config.setting}_n{config.n}"
    csv_path, meta_path = write_report(
        report, args.out, basename, wall_time=time.time() - t0, workers=workers
    )
    summary = {m: {"mean_rmse": report.results[m].mean_rmse,
                   "stderr_rmse": report.results[m].stderr_rmse}
               for m in report.methods}
    print(json.dumps({"csv": csv_path, "meta": meta_path, "summary": summary},
                     sort_keys=True))
    return 0


def _cmd_rate_study(args) -> int:
    spec = _load_json(args.config)
    if not isinstance(spec, dict) or "mode" not in spec:
        raise InvalidSettings("rate-study config needs a 'mode' key")
    mode = spec.pop("mode")
    if mode == "recovery":
        known = {"m_list", "replicates", "master_seed", "snr_x", "nu", "grid_size", "scale"}
        unknown = set(spec) - known
        if unknown:
            raise InvalidSettings(f"unknown rate-study keys: {sorted(unknown)}")
        report = recovery_rate_study(**spec)
    elif mode == "regression":
        if set(spec) - {"n_list", "config"}:
            raise InvalidSettings("regression rate-study takes 'n_list' and 'config'")
        base = SimulationConfig.from_dict(dict(spec["config"], n=spec["n_list"][0]))
        report = regression_rate_study(base, spec["n_list"], workers=workers_from_env())
    else:
        raise InvalidSettings("mode must be 'recovery' or 'regression'")
    out = {
        "mode": report.mode,
        "abscissae": report.abscissae.tolist(),
        "mean_rmse": {k: v.tolist() for k, v in report.mean_rmse.items()},
        "slopes": report.slopes,
        "bootstrap_se": report.bootstrap_se,
    }
    if args.out:
        import os

        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"rate_{report.mode}.json")
        with open(path, "w") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(json.dumps({"json": path, "slopes": report.slopes}, sort_keys=True))
    else:
        print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_real(args) -> int:
    preprocess = "difference_quotient" if args.preprocess == "difference-quotient" else "none"
    dataset = load_dataset(args.data, preprocess=preprocess, name=args.name)
    methods = tuple(args.methods.split(","))
    t0 = time.time()
    report = holdout_eval(
        dataset, split=args.split, repeats=args.repeats,
        methods=methods, master_seed=args.seed,
    )
    basename = "real_" + (args.name or "dataset")
    csv_path, meta_path = write_report(
        report, args.out, basename, wall_time=time.time() - t0,
        workers=workers_from_env(),
    )
    summary = {m: {"mean_rmse": report.results[m].mean_rmse,
                   "stderr_rmse": report.results[m].stderr_rmse,
                   "mean_model_size": report.results[m].mean_model_size}
               for m in report.methods}
    print(json.dumps({"csv": csv_path, "meta": meta_path, "summary": summary},
                     sort_keys=True))
    return 0


def _cmd_fit(args) -> int:
    preprocess = "difference_quotient" if args.preprocess == "difference-quotient" else "none"
    dataset = load_dataset(args.data, preprocess=preprocess)
    curves = [GridFunction(dataset.grid, row) for row in dataset.values]
    model = fit_model(curves, dataset.responses, cv_seed=args.seed)
    model.save(args.out)
    print(json.dumps({
        "model": args.out,
        "n": model.n,
        "dim_raw": model.dim.raw,
        "dim_rounded": model.dim.rounded,
        "h_pca": model.h_pca,
        "h_reg": model.h_reg,
    }, sort_keys=True))
    return 0


def _cmd_predict(args) -> int:
    model = FremModel.load(args.model)
    points, queries = load_query_curves(args.data)
    if np.array_equal(points, model.grid.points):
        preds = [_local_fit_values(model, row)[0] for row in queries]
    else:
        # off-grid queries are discrete records: recover, then evaluate
        preds = [predict_query(model, DiscreteObservations(points, row)) for row in queries]
    lines = ["prediction"] + [repr(float(p)) for p in preds]
    payload = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(payload)
        print(json.dumps({"predictions": args.out, "count": len(preds)}))
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_dim(args) -> int:
    preprocess = "difference_quotient" if args.preprocess == "difference-quotient" else "none"
    dataset = load_dataset(args.data, preprocess=preprocess)
    est = estimate_dim_values(
        dataset.values, dataset.grid.quad_weights,
        DimSettings(k1=args.k1, k2=args.k2),
    )
    print(json.dumps({
        "raw": est.raw,
        "rounded": est.rounded,
        "per_k": [float(v) for v in est.per_k],
    }))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frem",
        description="Functional regression on manifolds: benchmarks and models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a seeded Monte Carlo study")
    p.add_argument("--config", required=True, help="JSON simulation config")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("rate-study", help="convergence-rate study")
    p.add_argument("--config", required=True, help="JSON rate-study config")
    p.add_argument("--out", default=None, help="output directory (default: stdout)")
    p.set_defaults(func=_cmd_rate_study)

    p = sub.add_parser("real", help="holdout evaluation on a CSV dataset")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--preprocess", choices=["none", "difference-quotient"],
                   default="none")
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--split", type=float, default=0.75)
    p.add_argument("--methods", default="frem,fnw,flr")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default=None, help="label used in the report")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_real)

    p = sub.add_parser("fit", help="fit a model on a CSV dataset and save it")
    p.add_argument("--data", required=True)
    p.add_argument("--preprocess", choices=["none", "difference-quotient"],
                   default="none")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="path for the model JSON")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="predict responses for query curves")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="CSV of query curves")
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("dim", help="estimate the intrinsic dimension of a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--preprocess", choices=["none", "difference-quotient"],
                   default="none")
    p.add_argument("--k1", type=int, default=10)
    p.add_argument("--k2", type=int, default=20)
    p.set_defaults(func=_cmd_dim)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FremError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
