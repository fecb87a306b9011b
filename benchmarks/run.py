"""decaypo benchmark entry point.

Run from the root of a decaypo checkout:

    python3 benchmarks/run.py --workload train --seed 1 --seconds 30 --trace 0

Workloads: train, generate, mdp (see workloads.py). It imports decaypo from
the checkout's ``src/``, builds the workload's inputs from ``--seed`` under
``.bench_work/``, measures passes for ``--seconds`` and removes its files
again. The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones); the line before it reports the machine, the error
rate and the digests of every input and artifact. Exits 0 when every check
held, 1 when one failed, 2 when it cannot run.
"""

import os
import sys
import time

START = time.perf_counter()

# One BLAS thread, set before numpy loads, so that timings do not depend on
# how many cores BLAS finds idle.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402

WORKLOADS = ("train", "generate", "mdp")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "decaypo", "__init__.py")):
        print(f"error: no src/decaypo under {root}; run from the root of a "
              "decaypo checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import harness  # noqa: PLC0415  (after the path and BLAS settings)
    import workloads  # noqa: PLC0415
    import decaypo  # noqa: PLC0415

    if os.path.dirname(os.path.abspath(decaypo.__file__)) != os.path.join(src, "decaypo"):
        print(f"error: imported decaypo from {decaypo.__file__}, not {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START

    # Run inside a private directory with relative paths, so that the resolved
    # config snapshots, and so the artifact digests, do not depend on it.
    work = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    os.chdir(work)
    try:
        result, report = harness.run(workloads.WORKLOADS[args.workload](), args.seed,
                                     args.seconds, bool(args.trace), import_s)
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it
    print(json.dumps(report))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
