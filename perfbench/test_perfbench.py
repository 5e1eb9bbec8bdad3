"""Self-tests of the benchmark's tracing and reporting, on a tiny replicate.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from frem import funcspace, tangent  # noqa: E402
from frem.bench import simulate  # noqa: E402

import run  # noqa: E402
from layers import PER_LAYER, instrument  # noqa: E402
from tracing import Tracer, _frem_modules  # noqa: E402
from workloads import WORKLOADS, Replicate  # noqa: E402

TINY = Replicate("tiny-klein", "tiny replicate for self-tests", setting="klein",
                 n=120, test_size=60, m=100, methods=("frem", "fnw", "flr"))
SEED = 3


@pytest.fixture
def tiny():
    TINY.start()
    yield TINY
    TINY.stop()


def _profiled_calls(fn, *args):
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn(*args)
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats
    calls = {}
    for func in (tangent.frame_at, funcspace.pairwise_l2):
        code = func.__code__
        calls[code.co_name] = stats[(code.co_filename, code.co_firstlineno, code.co_name)][1]
    return calls


def test_wrappers_cover_every_binding_and_match_cprofile():
    config = TINY.config(SEED)
    want = _profiled_calls(simulate.run_replicate, config, 0)
    originals = (tangent.frame_at, funcspace.pairwise_l2)
    tracer = Tracer()
    instrument(tracer)
    try:
        for mod in _frem_modules():
            for name, value in vars(mod).items():
                assert not any(value is f for f in originals), f"{mod.__name__}.{name} unwrapped"
        simulate.run_replicate(config, 0)
    finally:
        tracer.restore()
    got = tracer.summary()
    assert want["frame_at"] > 0 and want["pairwise_l2"] > 0
    assert got["tangent.frame_at"]["calls"] == want["frame_at"]
    assert got["funcspace.pairwise_l2"]["calls"] == want["pairwise_l2"]
    assert tangent.frame_at is originals[0] and funcspace.pairwise_l2 is originals[1]
    assert simulate.pairwise_l2 is originals[1]


def test_traced_run_matches_untraced_and_accounts_for_wall_time(tiny):
    args = Namespace(seed=SEED, seconds=0.0)
    plain, _, plain_units, plain_failures, _ = run.plain_run(tiny, args, 0.0)
    traced, report, traced_units, failures, extra = run.traced_run(tiny, args, 0.0)
    assert set(failures) == set(plain_failures)
    assert set(plain) == {name for name, _ in run.END_TO_END}
    assert set(traced) == {name for name, _, _ in PER_LAYER}
    assert all(o.rmse == plain_units[0].rmse for o in traced_units)
    assert set(plain_units[0].rmse) == {"frem", "fnw", "flr"}
    assert abs(traced["trace.coverage"][0] - 1.0) < 0.05
    assert traced["tangent.frame_at.calls"][0] > 0
    assert traced["estimator.h_pca_index"][0] >= 0
    assert traced["intrinsic_dim.dim_rounded"][0] >= 1
    assert (HERE.parent / extra["spans"]).is_file()


def test_failed_check_is_reported(monkeypatch):
    real = simulate._run_method

    def broken(method, *rest):
        preds, size = real(method, *rest)
        if method == "fnw":
            preds = preds.copy()
            preds[0] = float("nan")
        return preds, size

    monkeypatch.setattr(simulate, "_run_method", broken)
    TINY.start()
    try:
        outcome = TINY.run_unit(TINY.build(SEED))
    finally:
        TINY.stop()
    assert "fnw: non-finite prediction" in outcome.failures


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert ([(w["name"], w["why"]) for w in spec["workloads"]]
            == [(w.name, w.why) for w in WORKLOADS.values()])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
