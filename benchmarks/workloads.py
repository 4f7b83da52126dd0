"""The workloads: inputs, the timed CLI calls, and the output checks.

Every workload runs a fixed corpus of operations: the first
``_rounds(seconds, ROUND_S)`` entries of its pool (trials or users), where
``ROUND_S`` is an operation's nominal length in reference seconds. The
corpus depends only on ``--seconds``; ``--seed`` sets the order in which
its operations run and, for ``extrapolate_m64``, which users' spectra are
stacked into the sparsification input. So every run, of every commit, does
the same work: one operation's cost depends on its input by up to 2x
(Dykstra needs 6 400-11 700 ``psd_project`` calls per trial), and inputs
drawn from the seed would put that into the run-to-run spread.

The host's speed is sampled while the operations run (hostspeed.py).
The timed work goes only through ``fddsim.cli.main``; its stdout/stderr
chatter is captured so that the benchmark's JSON stays the last line.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass

import numpy as np

import checks

ALPHA = 2140.0 / 1950.0      # the program's default DL/UL carrier ratio
TH_REL = 1e-3


def _cli(argv) -> None:
    from fddsim.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"fddsim {' '.join(map(str, argv))} exited with "
                           f"{code}: {err.getvalue().strip()}")


def _write_config(path, **keys) -> None:
    with open(path, "w") as fh:
        for key, val in keys.items():
            if isinstance(val, (list, tuple)):
                val = ", ".join(str(v) for v in val)
            fh.write(f"{key} = {val}\n")


def _rounds(seconds: int, round_s: float) -> int:
    return max(1, int(round(seconds / round_s)))


def _corpus(pool, n: int, seed: int) -> list:
    """The program's config seeds for one run: the first ``n`` entries of
    ``pool`` (wrapping round), in an order set by ``seed``.

    ``opt.nnls`` (Lawson-Hanson) never returns on some UL covariance
    estimates: its inner loop steps by alpha = 0 and repeats the same
    state. A config whose trials or users meet such an estimate hangs the
    program, so the pools hold only config seeds whose work runs to its
    end (README: "Seed pools").
    """
    first = [pool[i % len(pool)] for i in range(n)]
    return [first[i] for i in np.random.default_rng(seed).permutation(n)]


@dataclass
class Result:
    """What one workload run hands back to ``run.py``."""

    n_ops: int
    timed: object     # the timed work's hostspeed.Span
    ranks: list       # matching size of every plan made
    problems: list    # output checks that failed
    failed: int       # operations that failed
    extra: dict       # per-layer figures read off the outputs


# -- simulate_m64 ----------------------------------------------------------
class SimulateM64:
    """The acceptance Monte Carlo config through ``fddsim simulate``, one
    trial per call: trial 0 of each config seed of the corpus."""

    ROUND_S = 10.0   # one trial
    TDL = [8, 16, 24, 32, 48]
    SNR = [10, 20, 30]
    M, K = 64, 8
    # config seeds 1..13 less 2, whose trial 1 (user 5) stalls in opt.nnls;
    # trials 0-3 of each were checked. 8 comes second: its trial 0 (user 4)
    # meets the Dykstra iteration cap, the estimator's slowest path
    SEEDS = [1, 8, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13]

    def __init__(self, seed, seconds, workdir):
        self.seeds = _corpus(self.SEEDS, _rounds(seconds, self.ROUND_S), seed)
        self.cfgs, self.csvs = [], []
        for s in self.seeds:
            self.cfgs.append(os.path.join(workdir, f"simulate{s}.cfg"))
            self.csvs.append(os.path.join(workdir, f"simulate{s}.csv"))
            _write_config(self.cfgs[-1], M=self.M, K=self.K, T=64, tdl_list=self.TDL,
                          snr_db_list=self.SNR, n_trials=1, n_ul=500,
                          th_rel=TH_REL, seed=s)
        # warm-up: the same subcommand on a tiny config loads every lazily
        # imported module (scipy.linalg, scipy.optimize.milp) before timing
        warm = os.path.join(workdir, "warmup.cfg")
        _write_config(warm, M=8, K=2, T=16, tdl_list=[4], snr_db_list=[10],
                      n_trials=1, n_ul=50, seed=self.SEEDS[0])
        _cli(["simulate", warm, "-o", os.path.join(workdir, "warmup.csv")])

    def run(self, ref) -> Result:
        ops = [lambda c=c, o=o: _cli(["simulate", c, "-o", o, "--threads", 1])
               for c, o in zip(self.cfgs, self.csvs)]
        with ref.span() as timed:
            for op in ops:
                op()
        problems, failed, rows = [], 0, []
        for s, path in zip(self.seeds, self.csvs):
            trial = checks.read_records(path)
            p, f = checks.simulate_rows(trial, 1, self.TDL, self.SNR, self.M, self.K)
            problems += [f"config seed {s}: {x}" for x in p]
            failed += len(f)
            rows += trial
        ranks = [r["matching_size"] for r in rows if r["snr_db"] == self.SNR[0]]
        rates = [r["sum_rate_bits"] for r in rows
                 if r["tdl"] == 24 and r["snr_db"] == 20]
        extra = {"evaluation.failed_rows": sum(r["served"] == 0 for r in rows),
                 "evaluation.sum_rate_bits": float(np.mean(rates))}
        return Result(len(ops), timed, ranks, problems, failed, extra)


# -- extrapolate_m64 ---------------------------------------------------------
# config seeds whose user 0 (M=64, n_ul=500, 3 clusters of width 0.2)
# stalls in opt.nnls; see _corpus
STALLED_USER0 = {443}


class ExtrapolateM64:
    """``fddsim extrapolate`` for user 0 of one M=64 scenario per operation,
    then the DL spectra of ``K_PLAN`` of those users, chosen by the seed,
    stacked through ``fddsim sparsify``.

    Each user comes from its own scenario because the users of one scenario
    share its three clusters, and with them most of their estimator cost.
    """

    ROUND_S = 1.5    # one user
    TDL = [8, 16, 24]
    M, K_PLAN, N_CLUSTERS, WIDTH = 64, 8, 3, 0.2
    # config seeds 1..480 less those whose user 0 stalls in opt.nnls
    SEEDS = [c for c in range(1, 481) if c not in STALLED_USER0]

    def __init__(self, seed, seconds, workdir):
        self.seeds = _corpus(self.SEEDS, _rounds(seconds, self.ROUND_S), seed)
        self.plan_users = sorted(np.random.default_rng(seed).choice(
            len(self.seeds), min(self.K_PLAN, len(self.seeds)), replace=False))
        self.workdir = workdir
        self.cfgs, self.dirs = [], []
        for s in self.seeds:
            self.cfgs.append(os.path.join(workdir, f"extrapolate{s}.cfg"))
            self.dirs.append(os.path.join(workdir, f"user{s}"))
            _write_config(self.cfgs[-1], M=self.M, K=1, T=64, tdl_list=self.TDL,
                          snr_db_list=[20], n_trials=1, n_ul=500, seed=s,
                          n_clusters=self.N_CLUSTERS, cluster_width=self.WIDTH)
        warm = os.path.join(workdir, "warmup.cfg")
        _write_config(warm, M=8, K=1, T=16, tdl_list=[4], snr_db_list=[10],
                      n_trials=1, n_ul=50, seed=self.SEEDS[0])
        _cli(["extrapolate", warm, "--user", 0, "--outdir",
              os.path.join(workdir, "warmup")])

    def run(self, ref) -> Result:
        stacked = os.path.join(self.workdir, "dl_spectra.csv")
        plan_paths = {t: os.path.join(self.workdir, f"plan_tdl{t}.json") for t in self.TDL}
        lams = []

        def plan():
            lams.extend(checks.read_column_csv(os.path.join(d, "spectrum.csv"),
                                               ["lambda"])[:, 0] for d in self.dirs)
            np.savetxt(stacked, np.column_stack([lams[i] for i in self.plan_users]),
                       delimiter=",", fmt="%.17g")
            for t, path in plan_paths.items():
                _cli(["sparsify", stacked, "--tdl", t, "--th-rel", TH_REL, "-o", path])

        ops = [lambda c=c, d=d: _cli(["extrapolate", c, "--user", 0, "--outdir", d])
               for c, d in zip(self.cfgs, self.dirs)]
        with ref.span() as timed:
            for op in ops + [plan]:
                op()

        # each scenario's intervals, drawn exactly as the extrapolate command
        # draws them (scenario stream (seed, 0, 0))
        from fddsim.channel import make_scenario
        problems, errs = [], []
        for i, (s, d) in enumerate(zip(self.seeds, self.dirs)):
            _, users = make_scenario(self.N_CLUSTERS, self.WIDTH, 1, s, 0, 0)
            c_ul = checks.read_column_csv(os.path.join(d, "c_ul_hat.csv"), ["real", "imag"])
            c_dl = checks.read_column_csv(os.path.join(d, "c_dl_hat.csv"), ["real", "imag"])
            true_lam = checks.true_dl_spectrum(users[0].asf.intervals, self.M, ALPHA)
            p, err = checks.spectrum_outputs(lams[i], c_ul @ [1, 1j], c_dl @ [1, 1j],
                                             true_lam)
            problems += [f"user 0 of config seed {s}: {x}" for x in p]
            errs.append(err)
        w = np.loadtxt(stacked, delimiter=",", ndmin=2)
        made = {t: checks.read_plan(p) for t, p in plan_paths.items()}
        problems += checks.plans(w, TH_REL, made, np.random.default_rng(self.seeds[0]))
        ranks = [p["matching_size"] for p in made.values()]
        extra = {"covariance.spectrum_err": float(np.mean(errs))}
        return Result(len(ops), timed, ranks, problems, 0, extra)


WORKLOADS = {
    "simulate_m64": SimulateM64,
    "extrapolate_m64": ExtrapolateM64,
}
