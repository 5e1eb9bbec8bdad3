"""The benchmark's workloads: set-up, one timed unit of work, and output checks.

Every workload is one process and a closed loop with one caller: the next
unit of work starts only after the previous one returned. Inputs come only
from the seed, so one seed gives the same inputs, and the same numbers, on
every run.

- ``sim-klein-1000`` and ``baselines-so3-4000`` repeat one seeded
  ``frem.bench.simulate.run_replicate`` call; one unit is one replicate.
- ``predict-klein-offgrid`` fits a model in set-up and then sends randomly
  designed query records one at a time through ``frem.estimator.predict``;
  one unit is one pass over the query set.

The checks need each method's test-set predictions and the noiseless test
signal, which ``run_replicate`` reduces to an rMSE before returning. A
``Capture`` therefore rebinds ``frem.bench.simulate._run_method`` and
``frem.datagen.response_signal`` to pass-through wrappers that keep their
arguments and results. These are called a handful of times per replicate, so
the capture costs nothing measurable and is on in every run.
"""

from __future__ import annotations

import math
import time

import numpy as np

from frem import datagen, estimator, recovery
from frem.bench import simulate
from frem.bench.config import SimulationConfig, mix_seed
from frem.errors import FremError
from frem.funcspace import GridFunction

from tracing import rebind, unbind

# flr with p = 0 predicts the training mean through a least-squares solve, so
# it may differ from the benchmark's own mean predictor in the last bits.
ROUNDING = 1e-9


def rmse(pred, truth) -> float:
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


class Capture:
    """Keeps what run_replicate computes but does not return."""

    def __init__(self):
        self.signal = None
        self.runs = {}
        run_method = simulate._run_method
        response_signal = datagen.response_signal

        def keep_signal(sample):
            self.signal = response_signal(sample)
            return self.signal

        def keep_run(method, config, grid, xhat_train, y_train, xhat_test, dists_test, rep_seed):
            preds, size = run_method(method, config, grid, xhat_train, y_train,
                                     xhat_test, dists_test, rep_seed)
            self.runs[method] = (np.array(y_train), np.array(preds))
            return preds, size

        self._undo = (rebind(datagen, "response_signal", keep_signal)
                      + rebind(simulate, "_run_method", keep_run))

    def close(self) -> None:
        unbind(self._undo)


class Outcome:
    """Result of one unit of work: its duration, attempts, failures and values."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.attempted = 0
        self.failures: list[str] = []
        self.rmse: dict[str, float] = {}
        self.latencies: list[float] = []
        self.predictions = None
        self.mean_rmse = math.nan


class Replicate:
    """A seeded run_replicate call, repeated; one unit is one replicate."""

    WARM_N, WARM_TEST = 60, 20

    def __init__(self, name, why, setting, n, test_size, m, methods):
        self.name, self.why = name, why
        self.setting, self.n, self.test_size, self.m = setting, n, test_size, m
        self.methods = tuple(methods)
        self.capture = None

    def params(self) -> dict:
        return {"setting": self.setting, "n": self.n, "test_size": self.test_size,
                "m": self.m, "methods": list(self.methods), "replicate": 0}

    def config(self, seed: int, n=None, test_size=None) -> SimulationConfig:
        return SimulationConfig(setting=self.setting, n=n or self.n, replicates=1,
                                test_size=test_size or self.test_size,
                                master_seed=seed, m=self.m, methods=self.methods)

    def start(self) -> None:
        self.capture = Capture()

    def stop(self) -> None:
        self.capture.close()

    def build(self, seed: int):
        """Nothing to build: run_replicate generates its own data from the seed."""
        return self.config(seed)

    def warm_up(self, state) -> None:
        simulate.run_replicate(
            self.config(state.master_seed, n=self.WARM_N, test_size=self.WARM_TEST), 0)

    def fingerprint(self, state):
        return state.to_dict()

    def run_unit(self, state) -> Outcome:
        cap = self.capture
        cap.runs.clear()
        t0 = time.perf_counter()
        out = simulate.run_replicate(state, 0)
        res = Outcome(time.perf_counter() - t0)
        res.attempted = len(self.methods)
        signal_test = cap.signal[self.n:]
        for method in self.methods:
            cell = out[method]
            if "error" in cell:
                res.failures.append(f"{method}: {cell['error']}")
                continue
            y_train, preds = cap.runs[method]
            res.mean_rmse = rmse(np.mean(y_train), signal_test)
            res.rmse[method] = cell["rmse"]
            problem = self._check(method, cell["rmse"], preds, signal_test, res.mean_rmse)
            if problem:
                res.failures.append(f"{method}: {problem}")
        return res

    def _check(self, method, reported, preds, signal_test, baseline):
        if preds.shape != (self.test_size,):
            return f"{preds.shape} predictions for {self.test_size} test curves"
        if not np.all(np.isfinite(preds)):
            return "non-finite prediction"
        if rmse(preds, signal_test) != reported:
            return "reported rMSE does not match the predictions"
        if method == "flr":
            if reported > baseline * (1.0 + ROUNDING):
                return f"rMSE {reported:.6g} worse than the training mean's {baseline:.6g}"
        elif not reported < baseline:
            return f"rMSE {reported:.6g} not below the training mean's {baseline:.6g}"
        return None


class OffGridPredict:
    """Fit once in set-up, then query one random-design record at a time.

    The training sample comes from a fixed seed and only the queries from the
    run's seed: the cost of a query follows the neighbourhood sizes of the
    fitted model's bandwidths, which cross-validation picks differently for
    each training sample, and a per-seed model made the per-query cost vary
    by a third between seeds. A fixed model serving seeded traffic is also
    the ``frem fit`` once, ``frem predict`` many times pattern.
    """

    N_TRAIN, N_QUERIES, M, SNR_X, SNR_Y = 500, 4000, 100, 4.0, 2.0
    TRAIN_SEED = 0
    WARM_QUERIES = 20

    def __init__(self, name, why):
        self.name, self.why = name, why
        self.methods = ("frem",)

    def params(self) -> dict:
        return {"setting": "klein", "n": self.N_TRAIN, "train_seed": self.TRAIN_SEED,
                "queries": self.N_QUERIES,
                "m": self.M, "train_design": "fixed", "query_design": "random",
                "snr_x": self.SNR_X, "snr_y": self.SNR_Y, "fit": "estimator.fit"}

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def build(self, seed: int):
        grid = datagen.default_grid()
        fixed = self.TRAIN_SEED
        train = datagen.unit_scale(datagen.gen_klein(self.N_TRAIN, mix_seed(fixed, 0), grid=grid))
        y_train = datagen.gen_response(train, self.SNR_Y, mix_seed(fixed, 1))
        obs = datagen.observe(train, self.M, self.SNR_X, mix_seed(fixed, 2))
        curves = [GridFunction(grid, row) for row in recovery.smooth_all(obs, grid)]
        model = estimator.fit(curves, y_train, cv_seed=mix_seed(fixed, 3))
        test = datagen.unit_scale(datagen.gen_klein(self.N_QUERIES, mix_seed(seed, 4), grid=grid))
        queries = datagen.observe(test, self.M, self.SNR_X, mix_seed(seed, 5), design="random")
        return {"model": model, "queries": queries, "y_train": y_train,
                "signal": datagen.response_signal(test)}

    def warm_up(self, state) -> None:
        for query in state["queries"][: self.WARM_QUERIES]:
            estimator.predict(state["model"], query)

    def fingerprint(self, state):
        model = state["model"]
        return (model.dim.raw, model.h_pca, model.h_reg)

    def run_unit(self, state) -> Outcome:
        model, queries = state["model"], state["queries"]
        preds = np.full(len(queries), np.nan)
        lat = []
        failed = {}
        clock = time.perf_counter
        t_pass = clock()
        for i, query in enumerate(queries):
            t0 = clock()
            try:
                preds[i] = estimator.predict(model, query)
            except FremError as exc:
                failed[i] = f"{type(exc).__name__}: {exc}"
            lat.append(clock() - t0)
        res = Outcome(clock() - t_pass)
        res.attempted = len(queries)
        res.latencies = lat
        res.predictions = preds
        for i in np.flatnonzero(~np.isfinite(preds)):
            failed.setdefault(int(i), "non-finite prediction")
        res.failures = [f"query {i}: {msg}" for i, msg in sorted(failed.items())]
        res.mean_rmse = rmse(np.mean(state["y_train"]), state["signal"])
        if not failed:
            res.rmse["frem"] = rmse(preds, state["signal"])
            if not res.rmse["frem"] < res.mean_rmse:
                res.failures.append(f"frem: rMSE {res.rmse['frem']:.6g} not below "
                                    f"the training mean's {res.mean_rmse:.6g}")
        return res


WORKLOADS = {
    w.name: w for w in (
        Replicate(
            "sim-klein-1000",
            "run_replicate on klein, n=1000, test 1000, m=100, frem/fnw/flr: joint (h_pca, h_reg) "
            "cross-validation is ~88% of it, so CV-engine work shows here",
            setting="klein", n=1000, test_size=1000, m=100, methods=("frem", "fnw", "flr"),
        ),
        OffGridPredict(
            "predict-klein-offgrid",
            "estimator.fit on 500 klein curves (fixed seed) in set-up, then 4000 seeded random-design "
            "m=100 queries one by one through estimator.predict: per-query recovery and local fit",
        ),
        Replicate(
            "baselines-so3-4000",
            "run_replicate on so3, n=4000, test 2000, m=400, fnw/flr: batched recovery, n x n "
            "distances and memory; no tangent or CV work, so a CV change must read no change",
            setting="so3", n=4000, test_size=2000, m=400, methods=("fnw", "flr"),
        ),
    )
}
