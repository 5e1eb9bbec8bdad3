"""Run the benchmark over several seeds and report how steady each figure is.

    python3 perfbench/prove.py --seeds 1-10 [--workloads a,b] [--write perfbench/baseline.json]

For each workload and seed this runs ``run.py`` once untraced, in its own
process, one after another. For every end-to-end metric it prints the median
and the quartile spread (Q3 - Q1) / median, with the quartiles that
``statistics.quantiles(values, n=4)`` gives, next to the metric's bound from
BENCHMARK.json. With ``--write`` it also runs one traced run per workload on
the first seed and writes medians, quartiles, the report metrics, the
per-layer figures and the machine facts to a JSON baseline file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: no result (exit {proc.returncode})\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1]), proc.returncode


def stats(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None)
    p.add_argument("--write", default=None)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seeds = seed_list(args.seeds)
    ok = True
    baseline = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            report, result, code = run_once(name, seed, seconds, 0)
            runs.append((report, result))
            ok &= code == 0 and result["correct"]
            print(f"{name} seed {seed}: exit {code} correct {result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in report["metrics"].items()),
                  flush=True)
        entry = {"params": runs[0][0]["params"], "why": runs[0][0]["why"],
                 "end_to_end": {}, "report": {}}
        for metric in bounds:
            s = stats([r[1]["metrics"][metric]["value"] for r in runs])
            entry["end_to_end"][metric] = s
            steady = s["spread"] <= bounds[metric] / 3
            print(f"  {metric}: median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"bound {bounds[metric]} {'ok' if steady else 'WIDE'}", flush=True)
        for metric in runs[0][0]["metrics"]:
            values = [r[0]["metrics"][metric]["value"] for r in runs]
            entry["report"][metric] = {"median": statistics.median(values), "values": values}
        baseline["machine"] = runs[0][0]["machine"]
        if args.write:
            _, traced, _ = run_once(name, seeds[0], seconds, 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        baseline["workloads"][name] = entry
    if args.write:
        sys.path.insert(0, str(HERE))
        sys.path.insert(0, str(ROOT / "src"))
        from layers import MOVES

        baseline["moves"] = MOVES
        Path(args.write).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
