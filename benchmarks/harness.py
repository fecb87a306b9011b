"""One benchmark run: set up a workload several times, run timed passes
until the time is up, check and digest what each pass wrote, and summarise.

Times are given at a reference speed. Machines shared with other tenants
run the same code up to twice as slow for a fraction of a second to
minutes at a time, and process CPU time slows just as much, so a plain
timing of a whole pass varies by a quarter from run to run. So a stopwatch
cuts each set-up and untraced pass into stretches at the workload's stage
marks and at the entry and exit of a few decaypo functions
(``tracing.BOUNDARIES``), and after every 50 ms or so it runs a speed probe
between two stretches: a fixed loop of about 2 ms that does not call
decaypo (``probe``). A stretch's time is divided by the mean slowdown of
the probes around it, their time over the probe's time at full speed
(``PROBE_REF_S``). The probes are left out of every time; a change to
decaypo moves the scaled times just as it moves the raw ones. The report
line keeps the raw times and the slowdowns.

Untraced runs give the end-to-end metrics, each the median over the timed
passes. A traced run alternates untraced and traced passes, reports the
per-layer metrics of the traced ones and the difference between the two as
the tracing overhead.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import os
import platform
import resource
import shutil
import statistics
import time
import traceback

import numpy as np
import scipy

import tracing
from workloads import Checks

clock = time.perf_counter

SETUP_REPEATS = 3
MIN_PASSES = 2         # timed passes, after the warm-up pass
PROBE_ITERS = 75       # array operations in one speed probe
PROBE_PY_ITERS = 3000  # and dict and list operations
PROBE_REF_S = 0.002    # a probe's time at full speed on a 2.0 GHz Xeon VM
PROBE_EVERY_S = 0.05   # a probe after at least this long since the last

# end-to-end metric -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "primary_per_s": ("1/s", "higher"),
    "secondary_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def probe() -> float:
    """Time of a fixed piece of work that does not call decaypo: matrix
    products and tanh on 32 x 64 float64 arrays, the size of decaypo's
    default model, where numpy's dispatch overhead dominates, then plain
    interpreter work on small dicts and tuples. On a busy shared machine
    the first part slowed less than decaypo's MDP code and the second more;
    together they slowed about as much as all three workloads."""
    a, x = _PROBE_ARRAYS
    table: dict[int, float] = {}
    t = clock()
    for _ in range(PROBE_ITERS):
        x = np.tanh(x @ a) * 0.5
    for i in range(PROBE_PY_ITERS):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        sorted((i, i + 2, i + 1))
    return clock() - t


_rng = np.random.default_rng(0)
_PROBE_ARRAYS = _rng.standard_normal((64, 64)), _rng.standard_normal((32, 64))


def digests(directory: str) -> dict[str, str]:
    """sha256 of every file under ``directory``, by relative path."""
    out = {}
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, directory)] = hashlib.sha256(f.read()).hexdigest()
    return dict(sorted(out.items()))


def compare(checks: Checks, reference: dict, found: dict, what: str) -> None:
    """Each artifact must be byte-identical to the reference run's."""
    for name in sorted(reference.keys() | found.keys()):
        checks.expect(reference.get(name) == found.get(name),
                      f"{what}: {name} differs from the first pass")


def _fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded into this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return found
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine_facts() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def scaled_stretches(watch: tracing.Stopwatch) -> np.ndarray:
    """Each stretch's time at the probe's full speed: its time divided by
    the mean slowdown of the probes just before and just after it."""
    slowdown = np.array(watch.probe_s) / PROBE_REF_S
    k = np.searchsorted(watch.probe_at, np.arange(len(watch.names) - 1), side="right")
    return watch.stretches() * 2 / (slowdown[k - 1] + slowdown[k])


def stage_seconds(watch: tracing.Stopwatch, stretches: np.ndarray, stage: str) -> float:
    """Time of the stretches between ``<stage>`` and ``</stage>``."""
    names = watch.names
    return float(stretches[names.index(f"<{stage}>"):names.index(f"</{stage}>")].sum())


def run(workload, seed: int, seconds: float, trace: bool,
        import_s: float) -> tuple[dict, dict]:
    """Runs in the current directory; returns (result, report): the result
    line and what goes with it."""
    checks = Checks()
    inputs, out = "inputs", "out"
    setups, setup_inputs, reference = [], {}, None
    plain, traced, layers = [], [], []   # stopwatches of untraced and traced passes
    work = ()                            # ((count, stage), (count, stage)) of a pass
    setup_pretrain_s = 0.0

    def hooks(traced_now: bool):
        """(stopwatch, what wraps decaypo). The stopwatch of a traced pass or
        set-up has only the workload's stage marks, so that no probe runs
        inside a span."""
        watch = tracing.Stopwatch(probe, PROBE_EVERY_S)
        return watch, tracing.Tracer() if traced_now else watch

    try:
        for k in range(SETUP_REPEATS):
            _fresh_dir(inputs)
            # A traced run traces its last set-up too, for the pretraining
            # that generate does there.
            watch, wrapped = hooks(trace and k == SETUP_REPEATS - 1)
            with wrapped, watch.stage("setup", probe=True):
                workload.setup(seed, inputs)
            if isinstance(wrapped, tracing.Tracer):
                setup_pretrain_s = tracing.layer_metrics(wrapped.spans)["training.pretrain_s"]
            else:
                setups.append(watch)
            found = digests(inputs)
            if k:
                compare(checks, setup_inputs, found, f"setup {k}")
            else:
                setup_inputs = found

        start = clock()
        while True:
            done = len(plain) + len(traced) + (reference is not None)
            walls = [w.ends[-1] - w.starts[0] for w in plain + traced]
            if done > MIN_PASSES and clock() - start + _median(walls) > seconds:
                break
            _fresh_dir(out)
            gc.collect()  # each pass starts with no garbage left by the last
            tracing_pass = trace and done % 2
            watch, wrapped = hooks(tracing_pass)
            with wrapped, watch.stage("pass", probe=True):
                work = workload.run_pass(seed, inputs, out, checks, watch)
            found = digests(out)
            if reference is None:
                # the first pass warms caches and allocators up; it is not timed
                reference = found
                continue
            compare(checks, reference, found, f"{'traced ' if tracing_pass else ''}pass {done}")
            if tracing_pass:
                traced.append(watch)
                layers.append(tracing.layer_metrics(wrapped.spans))
            else:
                plain.append(watch)
    except Exception:  # report the failure with the run's result
        checks.expect(False, traceback.format_exc())

    def work_s(watches):
        return [float(w.stretches().sum()) for w in watches]

    scaled = [scaled_stretches(w) for w in plain]
    scaled_traced = [scaled_stretches(w) for w in traced]
    if trace:
        metrics = {name: _median([m[name] for m in layers]) for name in layers[0]} if layers else {}
        # pretraining in one pass and one set-up
        metrics["training.pretrain_s"] = metrics.get("training.pretrain_s", 0.0) + setup_pretrain_s
        metrics["trace.overhead_s"] = (_median([s.sum() for s in scaled_traced])
                                       - _median([s.sum() for s in scaled]))
        units = tracing.PER_LAYER
    else:
        metrics = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if setups:
            # the import, just before the set-ups, at their median slowdown
            slowdown = _median([p for w in setups for p in w.probe_s]) / PROBE_REF_S
            metrics["setup_s"] = (import_s / slowdown
                                  + _median([scaled_stretches(w).sum() for w in setups]))
        if plain:
            metrics["wall_s"] = _median([s.sum() for s in scaled])
            for name, (count, stage) in zip(("primary_per_s", "secondary_per_s"), work):
                metrics[name] = count / _median([stage_seconds(w, s, stage)
                                                 for w, s in zip(plain, scaled)])
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rates": dict(zip(("primary_per_s", "secondary_per_s"), workload.units)),
        "error_rate": checks.failed / max(1, checks.attempted),
        "failures": checks.notes[:5],
        "machine": machine_facts(),
        "import_s": import_s,
        "setup_s": work_s(setups),
        "pass_s": {"untraced": work_s(plain), "traced": work_s(traced),
                   "untraced_at_full_speed": [float(s.sum()) for s in scaled],
                   "traced_at_full_speed": [float(s.sum()) for s in scaled_traced]},
        "probe_slowdown": [float(np.median(w.probe_s)) / PROBE_REF_S for w in setups + plain],
        "input_digests": setup_inputs,
        "artifact_digests": reference or {},
    }
    return result, report
