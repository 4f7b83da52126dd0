"""Benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Prints one JSON object as the last
line of stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones, taken from wrappers installed around the program's
module-level names (see tracing.py). Times are in reference seconds: wall
seconds scaled by the host's speed, sampled while they pass (see
hostspeed.py); the wall figures go to stderr and to the traced metrics.
Exits non-zero without a result when the program's sources are missing or
a workload cannot run.
"""

import time

_T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread, set before NumPy loads: the measured spread is
# then the program's, not the thread pool's.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s/op", "peak_rss_mb": "MB",
                    "rank_mean": "count"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fddsim", "cli.py")):
        print(f"error: no program sources under {ROOT}/src/fddsim", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import hostspeed
    ref = hostspeed.Reference(tick=not args.trace)

    with ref.span(since=_T_START) as setup:
        import workloads

        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; choose from "
                  f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
            return 2

        workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, workdir)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        result = workload.run(ref)
    finally:
        if tracer is not None:
            tracer.uninstall()

    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    timed = result.timed
    samples = setup.samples + timed.samples
    wall = {"wall.op_s": timed.wall / result.n_ops, "wall.setup_s": setup.wall,
            "host.ref_s": statistics.median(samples)}
    print("wall seconds: " + ", ".join(f"{k} {v:.4f}" for k, v in wall.items())
          + f"; {len(samples)} reference samples", file=sys.stderr)
    if tracer is None:
        values = {
            "setup_s": setup.wall * setup.scale,
            "op_s": timed.wall * timed.scale / result.n_ops,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "rank_mean": sum(result.ranks) / max(len(result.ranks), 1),
        }
        units = END_TO_END_UNITS
    else:
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        measured = tracer.metrics(result.n_ops)
        measured.update(result.extra)
        measured.update(wall)
        values = {name: measured.get(name, 0) for name in units}
        dump = {"workload": args.workload, "seed": args.seed, "ops": result.n_ops,
                "traced_op_s": timed.wall * timed.scale / result.n_ops, "metrics": values,
                "reference_samples": samples,
                "absent": tracer.absent, "dykstra_cap_hits": tracer.cap_hits}
        with open(os.path.join(WORK, f"trace-{args.workload}-s{args.seed}.json"), "w") as fh:
            json.dump(dump, fh, indent=1)
        if tracer.absent:
            print(f"absent from the program: {', '.join(tracer.absent)}", file=sys.stderr)
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.n_ops,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
