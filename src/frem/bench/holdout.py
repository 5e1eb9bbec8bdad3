"""Repeated random-holdout evaluation on real datasets.

Curves are taken as fully observed on the dataset grid (no recovery step);
each repeat draws a seeded random 75/25 partition and runs the requested
methods through the same pipelines as the simulation study
(``simulate.score_method``), scoring rMSE against the observed responses on
the held-out part. Model sizes (estimated dimension for frem, component count
for flr) are recorded per repeat, and a method failing on more than 10
percent of the repeats fails the run, as in ``simulate``.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidSettings
from ..funcspace import pairwise_l2
from .config import TuningConfig, mix_seed
from .datasets import Dataset
from .report import EvalReport
from .simulate import collect_results, score_method


def holdout_eval(dataset: Dataset, split: float = 0.75, repeats: int = 20,
                 methods=("frem", "fnw", "flr"), master_seed: int = 0,
                 tuning: TuningConfig | None = None) -> EvalReport:
    if not 0.0 < split < 1.0:
        raise InvalidSettings("split fraction must lie strictly between 0 and 1")
    if repeats < 1:
        raise InvalidSettings("need at least one repeat")
    if dataset.n < 10:
        raise InvalidSettings("dataset too small for holdout evaluation")
    tuning = tuning or TuningConfig()
    grid = dataset.grid
    w = grid.quad_weights
    n = dataset.n
    n_train = int(round(split * n))
    n_train = min(max(n_train, 1), n - 1)

    rep_results = []
    for r in range(repeats):
        rep_seed = mix_seed(master_seed, r)
        rng = np.random.default_rng(rep_seed)
        perm = rng.permutation(n)
        tr, te = perm[:n_train], perm[n_train:]
        x_tr, y_tr = dataset.values[tr], dataset.responses[tr]
        x_te, y_te = dataset.values[te], dataset.responses[te]
        dists_te = pairwise_l2(x_te, x_tr, w)
        # observed responses are the only target, so rmse and rmse_noisy agree
        rep_results.append({
            method: score_method(method, tuning, grid, x_tr, y_tr, x_te, dists_te,
                                 rep_seed, y_te, y_te)
            for method in methods
        })
    return EvalReport(
        label=dataset.name or "dataset",
        n=n,
        replicates=repeats,
        master_seed=master_seed,
        config={"split": split, "repeats": repeats, "methods": list(methods),
                "dataset": dataset.name, "n": n},
        results=collect_results(methods, rep_results),
    )

