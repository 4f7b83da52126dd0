"""Command-line interface.

Subcommands:
  simulate     run the Monte Carlo experiment from a config file
  extrapolate  run the single-user covariance pipeline and export CSVs
  sparsify     solve beam/user selection for a beam-power matrix
  validate     run the self-check suites

Exit codes: 0 success, 1 validation/solver failure, 2 bad configuration
or an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from contextlib import contextmanager

# One BLAS/OpenMP thread, set before NumPy loads: at these sizes more
# threads slow a trial down, and the `--threads` workers inherit the pool.
# A user who sets any one of the variables keeps the defaults of the rest.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

import numpy as np

from .config import ConfigError, parse_config
from .covariance import export_covariance_csv, export_spectrum_csv, extrapolate_dl
from .errors import FddsimError, InvalidArgumentError
from .evaluation import (estimate_user_pipeline, run_experiment, summarize,
                         trial_scenario, ul_source, write_records_csv,
                         write_summary_json)
from .sparsifier import (DEFAULT_TH_REL, build_beam_graph, formulate_milp,
                         solve_sparsification)
from .validate import run_suites, SUITES


@contextmanager
def _writing(path):
    """Report an output write that fails as bad input (exit 2), in one line."""
    try:
        yield
    except OSError as exc:
        raise InvalidArgumentError(
            f"cannot write {exc.filename or path}: {exc.strerror or exc}") from None


def _cmd_simulate(args) -> int:
    if args.threads < 1:
        raise InvalidArgumentError(f"--threads {args.threads} must be at least 1")
    cfg = parse_config(args.config)
    records = run_experiment(cfg, threads=args.threads)
    with _writing(args.output):
        write_records_csv(records, args.output)
    print(f"wrote {len(records)} records to {args.output}")
    summary = summarize(records)
    if args.summary:
        with _writing(args.summary):
            write_summary_json(summary, args.summary)
        print(f"wrote summary to {args.summary}")
    for row in summary["grid"]:
        print(f"  Tdl={row['tdl']:<4d} snr={row['snr_db']:<6g} "
              f"rate={row['sum_rate_mean']:.3f} +- {row['sum_rate_se']:.3f} "
              f"served={row['served_mean']:.2f}")
    failed = [r for r in records if r.failure]
    first = (f"; first: trial {failed[0].trial} Tdl={failed[0].tdl} "
             f"snr={failed[0].snr_db:g}: {failed[0].failure}") if failed else ""
    print(f"{len(failed)} of {len(records)} grid points failed (counted as zero rate)"
          f"{first}", file=sys.stderr)
    return 0


def _cmd_extrapolate(args) -> int:
    cfg = parse_config(args.config)
    if not 0 <= args.user < cfg.k:
        raise InvalidArgumentError(f"--user {args.user} is not a user index "
                                   f"of the experiment (K = {cfg.k})")
    users = trial_scenario(cfg, 0)
    z, c_dl, lam = estimate_user_pipeline(cfg, ul_source(cfg, users[args.user].asf), 0,
                                          args.user)
    c_ul = extrapolate_dl(z, cfg.m, 1.0)  # the fitted measure's UL covariance column

    with _writing(args.outdir):
        os.makedirs(args.outdir, exist_ok=True)
        export_covariance_csv(c_ul, os.path.join(args.outdir, "c_ul_hat.csv"))
        export_covariance_csv(c_dl, os.path.join(args.outdir, "c_dl_hat.csv"))
        export_spectrum_csv(lam, os.path.join(args.outdir, "spectrum.csv"))
    print(f"wrote c_ul_hat.csv, c_dl_hat.csv, spectrum.csv to {args.outdir}")
    return 0


def _cmd_sparsify(args) -> int:
    try:
        with warnings.catch_warnings():
            # loadtxt warns, rather than raises, on an input without data
            warnings.simplefilter("error", UserWarning)
            w = np.loadtxt(args.spectra, delimiter=",", ndmin=2)
    except (OSError, ValueError, UserWarning) as exc:
        raise ConfigError(f"could not read beam-power matrix {args.spectra!r}: {exc}")
    graph = build_beam_graph(w, th_rel=args.th_rel)
    if args.dump_milp:
        mip = formulate_milp(graph, args.tdl, args.p0)
        with _writing(args.dump_milp), open(args.dump_milp, "w") as fh:
            fh.write(mip.to_debug_text())
    plan = solve_sparsification(graph, args.tdl, p0=args.p0)
    text = plan.to_json()
    if args.output:
        with _writing(args.output), open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"selected {len(plan.beams)} beams, {len(plan.users)} users, "
          f"matching size {plan.matching_size}, {plan.n_classes} beam classes",
          file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    results = run_suites(args.suite or None)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fddsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the Monte Carlo experiment")
    p.add_argument("config", help="experiment config file (key = value lines)")
    p.add_argument("-o", "--output", default="results.csv", help="records CSV path")
    p.add_argument("--summary", default=None, help="also write a summary JSON")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes, at most one per trial; results are "
                   "identical for any count")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("extrapolate", help="single-user covariance pipeline")
    p.add_argument("config", help="experiment config file")
    p.add_argument("--user", type=int, default=0, help="user index in the scenario")
    p.add_argument("--outdir", default=".", help="directory for the output CSVs")
    p.set_defaults(func=_cmd_extrapolate)

    p = sub.add_parser("sparsify", help="beam/user selection from a power matrix")
    p.add_argument("spectra", help="CSV matrix, rows = beams, columns = users")
    p.add_argument("--tdl", type=int, required=True, help="per-user beam budget")
    p.add_argument("--p0", type=float, default=0.0, help="per-user power floor")
    p.add_argument("--th-rel", type=float, default=DEFAULT_TH_REL,
                   help="edge threshold relative to the largest power")
    p.add_argument("-o", "--output", default=None, help="plan JSON path (default stdout)")
    p.add_argument("--dump-milp", default=None,
                   help="write the MILP in debug text form, headed by its beam classes")
    p.set_defaults(func=_cmd_sparsify)

    p = sub.add_parser("validate", help="run self-check suites")
    p.add_argument("--suite", action="append", choices=sorted(SUITES),
                   help="run only this suite (repeatable; default: all)")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FddsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
