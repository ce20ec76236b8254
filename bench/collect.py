"""Run the benchmark over several seeds and write BENCH_<label>.json.

    python3 bench/collect.py --label baseline

For each workload of BENCHMARK.json: RUNS untraced runs of its
``run_seconds`` with seeds 1..RUNS, then one traced run with seed 1. The
file records, per workload and end-to-end metric, the median, the quartiles and the spread (Q3 - Q1) / median as
``statistics.quantiles(values, n=4)`` gives them; the raw (not
host-rescaled) medians; the traced run's per-layer metrics and the
diagrams size ladder; and the environment stamp. It goes to
bench/results/BENCH_<label>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
RAW = ("raw_ops_per_s", "raw_op_p50_ms", "raw_op_tail_ms", "raw_setup_s", "reference_s")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    out = {"label": args.label, "runs": RUNS, "seconds": seconds,
           "seeds": list(range(1, RUNS + 1)), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        units, failed, attempted = {}, 0, 0
        for seed in out["seeds"]:
            info, res = run(workload, seed, seconds, 0)
            out["stamp"] = info["stamp"]
            failed += res["failed"]
            attempted += res["attempted"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            for name in RAW:
                values.setdefault(name, []).append(info["detail"][name])
            tail = {k: info["detail"][k] for k in ("tail_pct", "tail_beyond")}
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        info, traced = run(workload, 1, seconds, 1)
        out["workloads"][workload] = {
            "end_to_end": {name: dict(spread(v), unit=units[name]) for name, v in values.items()
                           if name in units},
            "raw": {name: spread(values[name]) for name in RAW},
            "attempted": attempted, "failed": failed,
            "tail": tail,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "ladder_ms": info["detail"].get("ladder", {}),
        }
        for name, s in out["workloads"][workload]["end_to_end"].items():
            print(f"  {workload} {name}: median {s['median']:.5g} spread {s['spread']:.3f}",
                  flush=True)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", f"BENCH_{args.label}.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
