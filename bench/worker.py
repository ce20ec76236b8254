"""One benchmark worker: a fresh interpreter that sets up, runs and checks.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Set-up time runs from the first line of this file to the end of the
warm-up op and excludes the import of the benchmark's own modules. With
``--setup-only`` the worker prints it and exits. Otherwise it runs whole
cycles of the workload with tracing off until SECONDS of op time have
passed (SECONDS / 2 when TRACE is 1, followed by a traced replay of the
same cycles), checks every output, and prints one JSON object.

Host speed. The machines this runs on share their cores, and the speed
of the same Python code drifts by tens of percent within a minute. Every
time is therefore reported twice: as measured (``raw_*`` in the output)
and rescaled to a nominal host speed by a reference kernel timed next to
it (``reference_s``). The rescaled figures are the metrics.

The caller sets PYTHONPATH so that ``contactsurg`` and this directory
import.
"""

import sys
import time

T0 = time.perf_counter()

WORKLOAD, SEED, SECONDS, TRACE = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
SETUP_ONLY = "--setup-only" in sys.argv[5:]

if WORKLOAD == "cli":
    import contactsurg.cli  # noqa: F401  (what every CLI process imports)
else:
    import contactsurg  # noqa: F401
T_IMPORTED = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from array import array  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKDIR = os.path.join(".bench_build", "work", f"{WORKLOAD}-{SEED}-{os.getpid()}")

# Wall-clock guard: a run must end well inside the caller's timeout even if
# the program under test got much slower.
WALL_LIMIT = 100.0

# Reference kernel: fraction-free det of a fixed 20 x 20 integer matrix,
# big-integer arithmetic like the program's, no garbage-collected objects.
# It runs before every op (every len(cycle) / 24 ops for short ops) and
# once after the cycle. An op that took t seconds while the four nearest
# reference runs took r (median) is reported as t * REFERENCE_NOMINAL_S / r;
# REFERENCE_NOMINAL_S is the reference's median on a quiet 2-core x86-64
# host with CPython 3.11.
_rng = random.Random("reference")
REFERENCE_MATRIX = [[_rng.randint(-3, 3) for _ in range(20)] for _ in range(20)]
REFERENCE_NOMINAL_S = 0.0004
REFERENCES_PER_CYCLE = 24


def reference_s() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        oracle.det(REFERENCE_MATRIX)
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def speed_factor(samples: list[float]) -> float:
    return REFERENCE_NOMINAL_S / statistics.median(samples)


def pin_to_one_cpu():
    """Keep this worker and the CLI processes it starts on one CPU.

    The reference kernel measures the speed of the CPU it runs on; a CLI
    child that the scheduler put on another CPU would escape it.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def warm_up() -> float:
    wl = workloads.get(WORKLOAD, WORKDIR, in_process=True)
    t = time.perf_counter()
    wl.op(wl.warmup_input())
    return time.perf_counter() - t


class Samples:
    """Floats kept in a file under WORKDIR, a chunk at a time in memory.

    The benchmark's own bookkeeping then stays the same size however many
    ops a run does, and ``peak_rss_mb`` measures the program, not the
    latency lists: a faster program runs more ops but holds no more.
    """

    CHUNK = 4096

    def __init__(self, name: str):
        self.path = os.path.join(WORKDIR, name)
        self.buf = array("d")
        self.n = 0
        open(self.path, "wb").close()

    def extend(self, xs):
        self.buf.extend(xs)
        self.n += len(xs)
        if len(self.buf) >= self.CHUNK:
            self.flush()

    def flush(self):
        with open(self.path, "ab") as fh:
            self.buf.tofile(fh)
        del self.buf[:]

    def values(self) -> array:
        self.flush()
        out = array("d")
        with open(self.path, "rb") as fh:
            out.frombytes(fh.read())
        return out


class Phase:
    """What one pass over the cycles measured and what the checks found."""

    def __init__(self, name: str):
        self.raw = Samples(f"{name}.raw")        # op seconds as measured
        self.scaled = Samples(f"{name}.scaled")  # op seconds at nominal host speed
        self.references = Samples(f"{name}.ref")
        self.cycles = 0
        self.busy = self.scaled_busy = 0.0       # op seconds, raw and rescaled
        self.wrong = self.errors = 0
        self.notes: list[str] = []
        self.hostile = self.hostile_bad = 0

    @property
    def attempted(self) -> int:
        return self.raw.n

    @property
    def ok(self) -> int:
        return self.attempted - self.wrong - self.errors

    def judge(self, wl, inp, out, err):
        if err is not None:
            status, msg = workloads.ERROR, f"{type(err).__name__}: {err}"
        else:
            status, msg = wl.check(inp, out)
        self.wrong += status == workloads.WRONG
        self.errors += status == workloads.ERROR
        if status != workloads.OK and len(self.notes) < 5:
            self.notes.append(f"{status}: {msg}"[:300])


def call(wl, inp):
    try:
        return wl.op(inp), None
    except Exception as exc:  # counted as a failed op, never fatal
        return None, exc


def run_cycles(wl, seed, name, budget=None, cycles=None, tracer=None) -> Phase:
    """Run whole cycles; stop after ``cycles`` or once op time >= ``budget``.

    Each output is checked as soon as its timer has stopped and is then
    dropped, so the benchmark's bookkeeping does not grow the heap the
    program's garbage collector walks. Hostile probes run untraced only.
    """
    ph = Phase(name)
    start = time.perf_counter()
    while (ph.busy < budget) if cycles is None else (ph.cycles < cycles):
        ops, hostile = wl.cycle(seed, ph.cycles)
        every = max(1, len(ops) // REFERENCES_PER_CYCLE)
        refs, times = [], []
        for i, inp in enumerate(ops):
            if i % every == 0:
                refs.append(reference_s())
            if tracer:
                tracer.begin_op(len(inp[1]["ids"]) if WORKLOAD == "diagrams" else None)
            t = time.perf_counter()
            out, err = call(wl, inp)
            dt = time.perf_counter() - t
            if tracer:
                tracer.end_op()
            times.append(dt)
            ph.judge(wl, inp, out, err)
        for inp in hostile if tracer is None else ():
            out, err = call(wl, inp)
            ph.hostile += 1
            ph.hostile_bad += err is not None or wl.check(inp, out)[0] != workloads.OK
        refs.append(reference_s())
        scaled = [dt * speed_factor(refs[max(0, i // every - 1):i // every + 3])
                  for i, dt in enumerate(times)]
        ph.raw.extend(times)
        ph.scaled.extend(scaled)
        ph.references.extend(refs)
        ph.cycles += 1
        ph.busy += sum(times)
        ph.scaled_busy += sum(scaled)
        if cycles is None and time.perf_counter() - start > WALL_LIMIT:
            break
    return ph


def tail(latencies, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    xs = sorted(latencies)
    idx = max(1, -int(-len(xs) * pct // 100)) - 1
    return xs[idx], len(xs) - idx - 1


def summary(ph: Phase, pct: float) -> dict:
    out = {}
    for prefix, samples, busy in (("", ph.scaled, ph.scaled_busy), ("raw_", ph.raw, ph.busy)):
        lat = samples.values()
        tail_s, beyond = tail(lat, pct)
        out.update({f"{prefix}ops_per_s": ph.ok / busy,
                    f"{prefix}op_p50_ms": statistics.median(lat) * 1e3,
                    f"{prefix}op_tail_ms": tail_s * 1e3})
    out.update(tail_pct=pct, tail_beyond=beyond, reference_s=statistics.median(ph.references.values()))
    return out


def main():
    raw_setup = (T_IMPORTED - T0) + warm_up()
    factor = speed_factor([reference_s() for _ in range(9)])
    setup = {"setup_s": raw_setup * factor, "raw_setup_s": raw_setup}
    if SETUP_ONLY:
        print(json.dumps(setup))
        return
    # The traced run calls cli.main in-process in both phases, so the tracer
    # sees the layers below main and the overhead compares like with like.
    pin_to_one_cpu()
    wl = workloads.get(WORKLOAD, WORKDIR, in_process=TRACE)
    ph = run_cycles(wl, SEED, "timed", budget=SECONDS / 2 if TRACE else SECONDS)
    # Read before summary() loads the latencies back into memory.
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN if WORKLOAD == "cli" and not TRACE
                                else resource.RUSAGE_SELF).ru_maxrss
    result = dict(setup, **summary(ph, wl.tail_pct))
    result.update(
        cycles=ph.cycles, ok_frac=ph.ok / ph.attempted, peak_rss_mb=rss_kb / 1024,
        hostile=ph.hostile, hostile_tracebacks=ph.hostile_bad,
        attempted=ph.attempted, wrong=ph.wrong, errors=ph.errors, notes=ph.notes)
    if TRACE:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_cycles(wl, SEED, "traced", cycles=ph.cycles, tracer=tracer)
        finally:
            tracer.uninstall()
        os.makedirs(os.path.join(".bench_build", "traces"), exist_ok=True)
        tracer.write(os.path.join(".bench_build", "traces", f"{WORKLOAD}-seed{SEED}.tsv"))
        layer = tracer.metrics()
        layer["trace.overhead_frac"] = 1 - ph.scaled_busy / traced.scaled_busy
        layer["cli.hostile_traceback_frac"] = ph.hostile_bad / ph.hostile if ph.hostile else 0.0
        result.update(attempted=ph.attempted + traced.attempted,
                      wrong=ph.wrong + traced.wrong, errors=ph.errors + traced.errors,
                      notes=ph.notes + traced.notes, layer=layer, ladder=tracer.ladder(),
                      spans=len(tracer.spans))
    print(json.dumps(result))


if __name__ == "__main__":
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        main()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
