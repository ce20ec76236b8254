"""Benchmark entry point for contactsurg.

    python3 bench/run.py --workload census|diagrams|cli|lens --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run starts fresh interpreters:
a few bare ``python -c pass`` processes (the start-up floor), set-up
probes that import contactsurg and run one warm-up op, and one worker
that runs the workload (see worker.py). With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run. The line
before it holds the environment stamp and the details behind the
metrics. The same record is written under .bench_build/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("census", "diagrams", "cli", "lens")
SETUP_SAMPLES = 7   # fresh set-ups per run, the main worker's included
START_PAIRS = 9     # interleaved bare-interpreter and import probes per run
WORKER_TIMEOUT = 150

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "ok_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    """Environment of every child: the checkout's sources, cached bytecode.

    Bytecode caching is forced on so that set-up and CLI times are those
    of an installed program, whatever the calling shell sets.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONPATH")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict, timeout: float = 60) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)


def wall_ms(args: list[str], env: dict) -> float:
    t = time.perf_counter()
    proc = run_child(args, env)
    dt = time.perf_counter() - t
    if proc.returncode:
        raise RuntimeError(f"{args} exited {proc.returncode}: {proc.stderr[-500:]}")
    return dt * 1e3


def start_probes(env: dict) -> tuple[float, float]:
    """The bare interpreter's start-up and the cost of ``import contactsurg.cli``.

    Probes run in pairs, ``python -c pass`` next to ``python -c "import
    contactsurg.cli"`` in alternating order, so both halves of a pair see
    the same host speed. The import cost is the median of the pairs'
    differences; the start-up floor is the median of the bare probes.
    """
    probes = {"bare": ["-c", "pass"], "import": ["-c", "import contactsurg.cli"]}
    bare, diffs = [], []
    for i in range(START_PAIRS):
        order = ("bare", "import") if i % 2 == 0 else ("import", "bare")
        ms = {name: wall_ms(probes[name], env) for name in order}
        bare.append(ms["bare"])
        diffs.append(ms["import"] - ms["bare"])
    return statistics.median(bare), statistics.median(diffs)


def stamp(interp_ms: float) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "contactsurg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "commit": commit, "src_sha256": digest.hexdigest()[:16], "nproc": os.cpu_count(),
            "machine": platform.machine(), "interp_start_ms": interp_ms}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "contactsurg", "__init__.py")):
        print(f"error: no contactsurg sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        wall_ms(["-c", "import contactsurg.cli"], env)  # compile and cache bytecode once
        interp, import_ms = start_probes(env)
        worker = [os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
                  str(args.seconds), str(args.trace)]
        setups = [json.loads(run_child(worker + ["--setup-only"], env).stdout)
                  for _ in range(SETUP_SAMPLES - 1)]
        proc = run_child(worker, env, timeout=WORKER_TIMEOUT)
        if proc.returncode:
            print(proc.stderr[-2000:], file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append({k: res[k] for k in ("setup_s", "raw_setup_s")})
        for key in ("setup_s", "raw_setup_s"):
            res[key] = statistics.median(s[key] for s in setups)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        import tracing
        layer = dict(res.pop("layer"))
        layer["cli.import_ms"] = import_ms
        layer["cli.interp_start_ms"] = interp
        metrics = {name: {"value": layer[name], "unit": tracing.unit(name)}
                   for name in tracing.metric_names()}
    else:
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stamp": stamp(interp), "detail": res, "metrics": metrics}
    out_dir = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"stamp": record["stamp"], "detail": res}))
    failed = res["wrong"] + res["errors"]
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
