"""Per-layer tracing installed from outside the program.

The program looks its collaborators up as module globals at call time
(``evaluation.project_toeplitz_psd``, ``sparsifier.milp_solve``, ...), so a
traced run replaces those bindings with wrappers that keep a span stack.
A span's self time is its duration minus the time its child spans cover.
Nothing here is imported by an untraced run.

A name that the program no longer defines is recorded as absent and its
metrics read 0; it is never an error, so the benchmark keeps working when a
later change removes a layer.
"""

from __future__ import annotations

import importlib
import sys
import time
import warnings
from collections import defaultdict

# (metric prefix, home module, attribute, wrap every fddsim binding?)
# With False only the home module's binding is wrapped, so that e.g.
# ``sparsifier.dft_matrix`` counts the precoder's rebuilds and not the
# covariance layer's calls.
SPANS = [
    ("channel.sample_channels", "fddsim.channel", "sample_channels", True),
    ("covariance.project_toeplitz_psd", "fddsim.covariance", "project_toeplitz_psd", True),
    ("covariance.estimate_asf", "fddsim.covariance", "estimate_asf", True),
    ("covariance.extrapolate_dl", "fddsim.covariance", "extrapolate_dl", True),
    ("covariance.circulant_eigenvalues", "fddsim.covariance", "circulant_eigenvalues", True),
    ("opt.nnls", "fddsim.covariance", "nnls", True),
    ("opt.milp_solve", "fddsim.sparsifier", "milp_solve", True),
    ("opt.max_matching", "fddsim.sparsifier", "max_matching", True),
    ("sparsifier.formulate_milp", "fddsim.sparsifier", "formulate_milp", True),
    ("sparsifier.solve_sparsification", "fddsim.sparsifier", "solve_sparsification", True),
    ("probing.make_pilot", "fddsim.probing", "make_pilot", True),
    ("probing.dl_observe", "fddsim.probing", "dl_observe", True),
    ("probing.mmse_effective", "fddsim.probing", "mmse_effective", True),
    ("evaluation.run_trial", "fddsim.evaluation", "run_trial", True),
    ("evaluation.greedy_user_selection", "fddsim.evaluation", "greedy_user_selection", True),
    ("evaluation.zf_precoder", "fddsim.evaluation", "zf_precoder", True),
    ("evaluation.effective_gains", "fddsim.evaluation", "effective_gains", True),
    ("numerics.hermitian_eig", "fddsim.numerics", "hermitian_eig", True),
    # the subcommand bodies: config parsing and CSV/JSON input and output
    ("cli", "fddsim.cli", "_cmd_simulate", False),
    ("cli", "fddsim.cli", "_cmd_extrapolate", False),
    ("cli", "fddsim.cli", "_cmd_sparsify", False),
]

# counter name -> (home module, attribute); only the home binding is wrapped
COUNTERS = {
    "covariance.dykstra_iters": ("fddsim.covariance", "psd_project"),
    "sparsifier.dft_matrix.calls": ("fddsim.sparsifier", "dft_matrix"),
}

S_OP, COUNT = "s/op", "count"
# (name, unit, better): every per-layer metric a traced run prints. Self
# times are per operation; counts are totals over the run's fixed work.
PER_LAYER = [
    ("channel.sample_channels.self_s", S_OP, "lower"),
    ("channel.sample_channels.calls", COUNT, "lower"),
    ("covariance.project_toeplitz_psd.self_s", S_OP, "lower"),
    ("covariance.project_toeplitz_psd.calls", COUNT, "lower"),
    ("covariance.dykstra_iters", COUNT, "lower"),
    ("covariance.dykstra_cap_hits", COUNT, "lower"),
    ("covariance.estimate_asf.self_s", S_OP, "lower"),
    ("covariance.extrapolate_dl.self_s", S_OP, "lower"),
    ("covariance.circulant_eigenvalues.self_s", S_OP, "lower"),
    ("covariance.spectrum_err", "ratio", "lower"),
    ("opt.nnls.self_s", S_OP, "lower"),
    ("opt.nnls.calls", COUNT, "lower"),
    ("opt.nnls.lstsq_calls", COUNT, "lower"),
    ("opt.milp_solve.self_s", S_OP, "lower"),
    ("opt.milp_solve.calls", COUNT, "lower"),
    ("opt.max_matching.self_s", S_OP, "lower"),
    ("sparsifier.formulate_milp.self_s", S_OP, "lower"),
    ("sparsifier.solve_sparsification.self_s", S_OP, "lower"),
    ("sparsifier.milp_dense_mb", "MB", "lower"),
    ("sparsifier.milp_nnz", COUNT, "lower"),
    ("sparsifier.dft_matrix.calls", COUNT, "lower"),
    ("probing.make_pilot.self_s", S_OP, "lower"),
    ("probing.dl_observe.self_s", S_OP, "lower"),
    ("probing.mmse_effective.self_s", S_OP, "lower"),
    ("probing.mmse_effective.calls", COUNT, "lower"),
    ("evaluation.run_trial.self_s", S_OP, "lower"),
    ("evaluation.greedy_user_selection.self_s", S_OP, "lower"),
    ("evaluation.zf_precoder.self_s", S_OP, "lower"),
    ("evaluation.zf_precoder.calls", COUNT, "lower"),
    ("evaluation.zf_precoder.failed", COUNT, "lower"),
    ("evaluation.effective_gains.self_s", S_OP, "lower"),
    ("evaluation.failed_rows", COUNT, "lower"),
    ("evaluation.sum_rate_bits", "bit/s/Hz", "higher"),
    ("numerics.hermitian_eig.self_s", S_OP, "lower"),
    ("numerics.hermitian_eig.calls", COUNT, "lower"),
    ("cli.self_s", S_OP, "lower"),
    ("trace.overhead_s", S_OP, "lower"),
    # the traced run's wall figures and its median host-speed sample
    # (hostspeed.py), which scale wall seconds to the reference seconds
    # of op_s and setup_s
    ("wall.op_s", S_OP, "lower"),
    ("wall.setup_s", "s", "lower"),
    ("host.ref_s", "s", "lower"),
]

CAP_WARNING = "project_toeplitz_psd: iteration cap"


class Tracer:
    """Span stack, per-span self time and call counts, plus counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.failed = defaultdict(int)
        self.counts = defaultdict(int)
        self.overhead_s = 0.0
        self.absent = []
        self.cap_hits = []       # (trial, user) of each Dykstra cap warning
        self.milp_nnz = 0
        self.milp_bytes = 0
        self._stack = []          # [span name, child seconds]
        self._patches = []        # (module, attribute, original)
        self._ul_context = None   # (trial, user) of the last UL channel draw
        self._saved_warnings = None

    # -- wrappers -------------------------------------------------------
    def _span(self, name, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            frame = [name, 0.0]
            stack.append(frame)
            t_call = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.failed[name] += 1
                raise
            finally:
                t_ret = time.perf_counter()
                stack.pop()
                self.self_s[name] += (t_ret - t_call) - frame[1]
                self.calls[name] += 1
                self._observe(name, args)
                t_out = time.perf_counter()
                self.overhead_s += (t_call - t_in) + (t_out - t_ret)
                if stack:
                    stack[-1][1] += t_out - t_in

        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _lstsq_counter(self, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == "opt.nnls":
                self.counts["opt.nnls.lstsq_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name, args):
        """Remember which (trial, user) the last UL channel draw served, so
        that a Dykstra cap warning can be traced back to it."""
        if name == "channel.sample_channels" and len(args) >= 7 and args[2] == "ul":
            self._ul_context = (int(args[5]), int(args[6]))

    # -- install / remove -----------------------------------------------
    def _bindings(self, home, attr, everywhere):
        try:
            module = importlib.import_module(home)
        except ImportError:
            return None, []
        orig = getattr(module, attr, None)
        if orig is None:
            return None, []
        if not everywhere:
            return orig, [module]
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "fddsim" or n.startswith("fddsim."))
                and getattr(m, attr, None) is orig]
        return orig, mods

    def _patch(self, modules, attr, orig, wrapper):
        for mod in modules:
            self._patches.append((mod, attr, orig))
            setattr(mod, attr, wrapper)

    def install(self):
        for name, home, attr, everywhere in SPANS:
            orig, mods = self._bindings(home, attr, everywhere)
            if orig is None:
                self.absent.append(f"{home}.{attr}")
                continue
            wrapper = self._span(name, orig)
            if name == "sparsifier.formulate_milp":
                wrapper = self._measure_milp(wrapper)
            self._patch(mods, attr, orig, wrapper)
        for name, (home, attr) in COUNTERS.items():
            orig, mods = self._bindings(home, attr, False)
            if orig is None:
                self.absent.append(f"{home}.{attr}")
                continue
            self._patch(mods, attr, orig, self._counter(name, orig))
        import numpy.linalg
        self._patch([numpy.linalg], "lstsq", numpy.linalg.lstsq,
                    self._lstsq_counter(numpy.linalg.lstsq))
        self._saved_warnings = (warnings.showwarning, list(warnings.filters))
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = self._showwarning

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches = []
        if self._saved_warnings is not None:
            warnings.showwarning, warnings.filters[:] = self._saved_warnings
            self._saved_warnings = None

    def _measure_milp(self, wrapper):
        def measured(*args, **kwargs):
            mip = wrapper(*args, **kwargs)
            a = getattr(getattr(mip, "lp", None), "a", None)
            if a is not None:
                t0 = time.perf_counter()
                if hasattr(a, "nnz"):  # a scipy.sparse matrix stores only its non-zeros
                    nbytes = sum(getattr(a, p).nbytes for p in ("data", "indices", "indptr")
                                 if hasattr(a, p))
                    nnz = a.nnz
                else:
                    nbytes, nnz = a.nbytes, int((a != 0).sum())
                self.milp_bytes = max(self.milp_bytes, int(nbytes))
                self.milp_nnz = max(self.milp_nnz, int(nnz))
                self.overhead_s += time.perf_counter() - t0
            return mip

        return measured

    def _showwarning(self, message, category, filename, lineno, file=None, line=None):
        if str(message).startswith(CAP_WARNING):
            self.counts["covariance.dykstra_cap_hits"] += 1
            self.cap_hits.append(self._ul_context)
        else:
            self._saved_warnings[0](message, category, filename, lineno, file, line)

    # -- results ----------------------------------------------------------
    def metrics(self, n_ops: int) -> dict:
        """Per-layer figures: self seconds per operation, counts per run."""
        per = {f"{n}.self_s": self.self_s[n] / n_ops for n, *_ in SPANS}
        out = {
            "channel.sample_channels.calls": self.calls["channel.sample_channels"],
            "covariance.project_toeplitz_psd.calls": self.calls["covariance.project_toeplitz_psd"],
            "covariance.dykstra_iters": self.counts["covariance.dykstra_iters"],
            "covariance.dykstra_cap_hits": self.counts["covariance.dykstra_cap_hits"],
            "opt.nnls.calls": self.calls["opt.nnls"],
            "opt.nnls.lstsq_calls": self.counts["opt.nnls.lstsq_calls"],
            "opt.milp_solve.calls": self.calls["opt.milp_solve"],
            "sparsifier.milp_dense_mb": self.milp_bytes / 1e6,
            "sparsifier.milp_nnz": self.milp_nnz,
            "sparsifier.dft_matrix.calls": self.counts["sparsifier.dft_matrix.calls"],
            "probing.mmse_effective.calls": self.calls["probing.mmse_effective"],
            "evaluation.zf_precoder.calls": self.calls["evaluation.zf_precoder"],
            "evaluation.zf_precoder.failed": self.failed["evaluation.zf_precoder"],
            "numerics.hermitian_eig.calls": self.calls["numerics.hermitian_eig"],
            "trace.overhead_s": self.overhead_s / n_ops,
        }
        out.update(per)
        return out
