"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fddsim
from fddsim.cli import build_parser, main

SMALL_CFG = """\
M = 16
K = 3
T = 32
tdl_list = 4, 8
snr_db_list = 10, 20
n_trials = 2
n_ul = 200
seed = 7
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


def test_simulate_writes_csv_and_summary(cfg_path, tmp_path, capsys):
    out = tmp_path / "records.csv"
    summ = tmp_path / "summary.json"
    rc = main(["simulate", cfg_path, "-o", str(out), "--summary", str(summ)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("trial,Tdl,snr_db")
    assert len(lines) == 1 + 2 * 2 * 2
    data = json.loads(summ.read_text())
    assert len(data["grid"]) == 4
    assert all("sum_rate_mean" in row for row in data["grid"])


def test_simulate_summary_is_strict_json(tmp_path, capsys):
    """At T_dl = T no row serves anyone, so that cell has no error to
    average: its err_norm_mean is null, and the summary parses with a
    parser that refuses NaN and Infinity."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CFG.replace("T = 32", "T = 8"))
    summ = tmp_path / "summary.json"
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "r.csv"),
                 "--summary", str(summ)]) == 0

    def refuse(name):
        raise ValueError(f"non-finite constant {name}")

    grid = {row["tdl"]: row for row in json.loads(summ.read_text(), parse_constant=refuse)["grid"]}
    assert grid[8]["err_norm_mean"] is None and grid[8]["served_mean"] == 0.0
    assert grid[4]["err_norm_mean"] > 0.0


def test_simulate_summarizes_once(cfg_path, tmp_path, capsys, monkeypatch):
    """simulate --summary summarizes the records once, for the JSON and the
    printed table alike."""
    import fddsim.cli as cli
    import fddsim.evaluation as ev

    calls = []
    summarize = ev.summarize
    for module in (cli, ev):
        monkeypatch.setattr(module, "summarize",
                            lambda records: calls.append(1) or summarize(records))
    summ = tmp_path / "summary.json"
    assert main(["simulate", cfg_path, "-o", str(tmp_path / "r.csv"),
                 "--summary", str(summ)]) == 0
    assert len(calls) == 1
    table = [line for line in capsys.readouterr().out.splitlines() if "Tdl=" in line]
    grid = json.loads(summ.read_text())["grid"]
    assert len(table) == len(grid) == 4
    for line, row in zip(table, grid):
        assert f"rate={row['sum_rate_mean']:.3f} +- {row['sum_rate_se']:.3f}" in line


def test_simulate_byte_identical_across_threads(cfg_path, tmp_path):
    out1 = tmp_path / "t1.csv"
    out4 = tmp_path / "t4.csv"
    assert main(["simulate", cfg_path, "-o", str(out1), "--threads", "1"]) == 0
    assert main(["simulate", cfg_path, "-o", str(out4), "--threads", "4"]) == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_simulate_missing_config_exits_2(capsys):
    assert main(["simulate", "/no/such/file.cfg"]) == 2
    assert "config error" in capsys.readouterr().err


def test_simulate_bad_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL_CFG + "bogus = 1\n")
    assert main(["simulate", str(path)]) == 2
    assert "bogus" in capsys.readouterr().err


# `extrapolate` outputs for SMALL_CFG, user 0, as written (12 significant
# digits): one row per index of c_ul_hat.csv, c_dl_hat.csv and spectrum.csv.
GOLDEN_EXTRAPOLATE = [  # (c_ul_hat, c_dl_hat, lambda)
    (0.971647319005+0j, 0.971647319005+0j, 0.0681357392726),
    (0.0343976599555-0.0153323755574j, -0.103827807631+0.0140398575084j, 0.069074942046),
    (-0.823456272622+0.335495611811j, -0.779376112368+0.353600778871j, 0.0966882139156),
    (-0.0811947425476+0.0490213220835j, 0.198010817836-0.155114105948j, 0.211193350163),
    (0.48812745138-0.485464726656j, 0.388350033175-0.437452705086j, 2.37349089395),
    (0.0729961999609-0.0707294071756j, -0.114476008368+0.256719771488j, 3.72867712681),
    (-0.158807901556+0.401398270225j, -0.0909196057284+0.249407271568j, 1.049477099),
    (-0.0431819368499+0.0397570644774j, -0.023286275442-0.186203123144j, 0.193719387206),
    (-0.021289655604-0.186213986024j, 0.0268863683362-0.018390789376j, 0.116399956513),
    (0.0462019181004+0.023579390969j, 0.0434846674136+0.00829489431261j, 0.106007871219),
    (0.0293541050565-0.00988365923385j, -0.0802539397345-0.0589198888045j, 0.160386093002),
    (-0.0804987358396-0.0561998307037j, 0.0684159879564+0.106018101706j, 0.655289041637),
    (0.0546519020953+0.10020423014j, 0.0630493127712+0.000299295367018j, 3.89230698422),
    (0.0963038503286+0.0312913120146j, -0.168824295823-0.0686009856644j, 2.50059868384),
    (-0.14267419963-0.0820246933018j, 0.0697304520367+0.0276221169088j, 0.231384518856),
    (-0.0475225821317+0.00957193293314j, 0.119032460461-0.0262667318266j, 0.093527202418),
]


def test_extrapolate_outputs(cfg_path, tmp_path):
    outdir = tmp_path / "extrap"
    rc = main(["extrapolate", cfg_path, "--outdir", str(outdir)])
    assert rc == 0

    def column(name):
        lines = (outdir / name).read_text().strip().split("\n")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert [r[0] for r in rows] == list(range(16))
        return np.array([r[1] + 1j * r[2] if len(r) == 3 else r[1] for r in rows])

    want = np.array(GOLDEN_EXTRAPOLATE).T
    got = [column(name) for name in ("c_ul_hat.csv", "c_dl_hat.csv", "spectrum.csv")]
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-9 * np.abs(w).max())
    assert np.all(got[2].real >= 0)


# Byte-exact `sparsify --tdl 2 --dump-milp` text of the 3 x 2 matrix below
# (epsilon = 0.5 / M): locks the class comments, the row layout and the
# number format. Beams 1 and 2 share an adjacency row, so the count of
# class 1 ranges over [0, 2].
GOLDEN_MILP_3X2 = """\
# class 0: beams 0
# class 1: beams 1 2
maximize 0.166667*x0 + 0.166667*x1 + 1*x4 + 1*x5 + 1*x6 + 1*x7
  -1*x0 + 1*x4 + 1*x5 <= 0
  -1*x1 + 1*x6 + 1*x7 <= 0
  -1*x2 + 1*x4 + 1*x6 <= 0
  -1*x3 + 1*x5 + 1*x7 <= 0
  1*x0 + 1*x1 + 1*x2 <= 3
  1*x1 <= 2
  -1*x0 + -0.6*x1 <= 0
  -0.7*x1 <= 0
  1*x0 + -1*x2 <= 0
  1*x1 + -2*x2 + -2*x3 <= 0
  x0 in [0.0, 1.0] (int)
  x1 in [0.0, 2.0] (int)
  x2 in [0.0, 1.0] (int)
  x3 in [0.0, 1.0] (int)
  x4 in [0.0, 1.0] (cont)
  x5 in [0.0, 0.0] (cont)
  x6 in [0.0, 1.0] (cont)
  x7 in [0.0, 1.0] (cont)"""


def test_sparsify_plan_and_milp_dump(tmp_path, capsys, monkeypatch):
    """The plan and the dumped program; the dump is formulated apart from
    the solver, and on this input (two classes, so HiGHS runs) it is the
    text of the program that HiGHS receives."""
    import fddsim.sparsifier as sp
    solved = []
    solve = sp.milp_solve
    monkeypatch.setattr(sp, "milp_solve", lambda mip: solved.append(mip) or solve(mip))
    spectra = tmp_path / "w.csv"
    np.savetxt(spectra, np.array([[1.0, 0.0], [0.8, 0.9], [0.6, 0.7]]),
               delimiter=",")
    plan_path = tmp_path / "plan.json"
    milp_path = tmp_path / "milp.txt"
    rc = main(["sparsify", str(spectra), "--tdl", "2",
               "-o", str(plan_path), "--dump-milp", str(milp_path)])
    assert rc == 0
    plan = json.loads(plan_path.read_text())
    assert plan["matching_size"] == 2 and plan["n_classes"] == 2
    # one beam of class 1 is beam 1, the stronger (0.8 + 0.9 against 0.6 + 0.7)
    assert plan["beams"] in ([0, 1], [1, 2])
    assert sorted(plan) == sorted(["beams", "users", "matching_size", "objective",
                                   "node_count", "gap", "n_classes", "approximate"])
    assert plan["approximate"] is False
    assert "2 beam classes" in capsys.readouterr().err
    assert len(solved) == 1
    assert solved[0].to_debug_text() == milp_path.read_text() == GOLDEN_MILP_3X2


@pytest.mark.parametrize("command", ["simulate", "extrapolate"])
@pytest.mark.parametrize("line", [
    "snr_db_list = nan", "snr_db_list = 10, inf", "snr_db_list = -inf",
    "p0 = inf", "th_rel = inf", "alpha = nan", "alpha = inf", "ul_sigma2 = inf",
    # repeated grid entries
    "tdl_list = 4, 4", "snr_db_list = 10, 10",
])
def test_non_finite_config_value_exits_2(tmp_path, capsys, command, line):
    key = line.split("=")[0].strip()
    kept = [ln for ln in SMALL_CFG.splitlines() if ln.split("=")[0].strip() != key]
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(kept + [line]) + "\n")
    out = tmp_path / "out"
    argv = ["simulate", str(path), "-o", str(out)] if command == "simulate" \
        else ["extrapolate", str(path), "--outdir", str(out)]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", [
    "alpha = 0.5", "n_clusters = 1", "cluster_width = 0", "cluster_width = -0.1",
    "p0 = -1", "th_rel = -0.1", "ul_sigma2 = -1", "tdl_list =", "snr_db_list =",
])
def test_scenario_config_value_exits_2_without_trials(tmp_path, capsys, line):
    """Values the array, the scenario or the grid would reject fail at parse
    time, naming the key, even when no trial runs."""
    key = line.split("=")[0].strip()
    kept = [ln for ln in SMALL_CFG.replace("n_trials = 2", "n_trials = 0").splitlines()
            if ln.split("=")[0].strip() != key]
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(kept + [line]) + "\n")
    out = tmp_path / "out.csv"
    assert main(["simulate", str(path), "-o", str(out)]) == 2
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not out.exists()


def test_snr_beyond_float_power_exits_2(tmp_path, capsys):
    """An SNR above 10 log10(2^53/M) dB (147.5 dB at M = 16), where rounding
    erases the unit noise of the MMSE system, fails at parse time in one
    line and writes no records: 4000 dB, whose power 10^(SNR/10) overflows a
    float, and 3000 dB alike."""
    path = tmp_path / "snr.cfg"
    out = tmp_path / "out.csv"
    for snr in ("4000", "3000"):
        path.write_text(SMALL_CFG.replace("snr_db_list = 10, 20", f"snr_db_list = 10, {snr}"))
        assert main(["simulate", str(path), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: snr_db_list: entry {snr} dB ")
        assert "147.5 dB" in err and err.count("\n") == 1
        assert not out.exists()


def test_sparsify_failed_certificate_exits_1(tmp_path, capsys, monkeypatch):
    """A plan whose matching certificate fails is a solver fault (exit 1),
    not bad input (exit 2), and writes no plan."""
    import fddsim.sparsifier as sp

    spectra = tmp_path / "w.csv"
    spectra.write_text("1,0.5\n0.5,1\n")
    out = tmp_path / "plan.json"
    monkeypatch.setattr(sp, "max_matching", lambda adjacency: 99)
    assert main(["sparsify", str(spectra), "--tdl", "2", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: matching certificate mismatch") and err.count("\n") == 1
    assert not out.exists()


def test_sparsify_isolated_beam_exits_1(tmp_path, capsys, monkeypatch):
    """A solution that selects a beam with no selected neighbor user is a
    solver fault (exit 1) and writes no plan; it is not repaired."""
    import fddsim.sparsifier as sp

    spectra = tmp_path / "w.csv"
    spectra.write_text("1,0\n0,1\n")
    out = tmp_path / "plan.json"
    monkeypatch.setattr(sp, "milp_solve",
                        lambda mip: (np.array([0, 1, 1, 0, 0, 0, 0, 0.0]), 0, 0.0))
    assert main(["sparsify", str(spectra), "--tdl", "1", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: plan contains isolated beam 1") and err.count("\n") == 1
    assert not out.exists()


def test_sparsify_bad_file_exits_2(capsys):
    assert main(["sparsify", "/no/such/w.csv", "--tdl", "2"]) == 2


@pytest.mark.parametrize("entry, flags", [
    (0.0, ["--tdl", "0"]),
    (0.0, ["--tdl", "-1"]),
    (0.0, ["--tdl", "2", "--p0", "-5"]),
    (0.0, ["--tdl", "2", "--th-rel", "-1"]),
    (float("nan"), ["--tdl", "2"]),
    # every beam reaches both users: one beam class, solved in closed form
    ("one class", ["--tdl", "0"]),
    ("one class", ["--tdl", "2", "--p0", "-5"]),
    ("one class", ["--tdl", "2", "--p0", "nan"]),
    # non-finite thresholds and budgets
    (0.0, ["--tdl", "2", "--th-rel", "inf"]),
    (0.0, ["--tdl", "2", "--p0", "inf"]),
    ("one class", ["--tdl", "2", "--p0", "inf"]),
    ("one class", ["--tdl", "2", "--th-rel", "inf"]),
])
def test_sparsify_out_of_range_input_exits_2(tmp_path, capsys, entry, flags):
    spectra = tmp_path / "w.csv"
    w = [[1.0, 1.0], [1.0, 1.0]] if entry == "one class" \
        else [[1.0, 0.0], [0.8, 0.9], [entry, 0.7]]
    np.savetxt(spectra, np.array(w), delimiter=",")
    plan_path = tmp_path / "plan.json"
    assert main(["sparsify", str(spectra), *flags, "-o", str(plan_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not plan_path.exists()


@pytest.mark.parametrize("content", ["", "\n\n", "# beams x users\n"],
                         ids=["empty", "blank-lines", "comment-only"])
def test_sparsify_empty_spectra_exits_2(tmp_path, capsys, content):
    """A spectra file without data is one config error, not a warning and
    an empty plan."""
    spectra = tmp_path / "w.csv"
    spectra.write_text(content)
    plan_path = tmp_path / "plan.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sparsify", str(spectra), "--tdl", "2", "-o", str(plan_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not plan_path.exists()


@pytest.mark.parametrize("command, flag", [
    ("simulate", "-o"), ("simulate", "--summary"), ("extrapolate", "--outdir"),
    ("sparsify", "-o"), ("sparsify", "--dump-milp"),
])
def test_unwritable_output_exits_2(cfg_path, tmp_path, capsys, command, flag):
    """An output path under a regular file fails in one line, exit 2."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = str(blocker / "out")
    if command == "sparsify":
        spectra = tmp_path / "w.csv"
        np.savetxt(spectra, np.array([[1.0, 0.0], [0.8, 0.9]]), delimiter=",")
        argv = ["sparsify", str(spectra), "--tdl", "2", flag, target]
    else:
        argv = [command, cfg_path, flag, target]
    if flag == "--summary":
        argv += ["-o", str(tmp_path / "records.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {target}: ")


def test_validate_single_suite(capsys):
    rc = main(["validate", "--suite", "nnls"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] nnls-enumeration" in out
    assert "1/1 suites passed" in out


def test_validate_injected_fault_fails(capsys, monkeypatch):
    import fddsim.validate as validate
    monkeypatch.setitem(validate.SUITES, "nnls",
                        lambda: validate.SuiteResult("nnls-enumeration", False, "injected"))
    rc = main(["validate", "--suite", "nnls"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] nnls-enumeration" in out and "injected" in out


def test_validate_fast_suites_pass(capsys):
    rc = main(["validate", "--suite", "stability", "--suite", "szego"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS] estimation-stability" in out
    assert "[PASS] szego-convergence" in out


@pytest.mark.parametrize("user", ["-1", "3"])
def test_extrapolate_user_out_of_range_exits_2(cfg_path, tmp_path, user, capsys):
    outdir = tmp_path / "extrap"
    assert main(["extrapolate", cfg_path, "--user", user, "--outdir", str(outdir)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_simulate_threads_below_one_exits_2(cfg_path, tmp_path, threads, capsys):
    out = tmp_path / "out.csv"
    assert main(["simulate", cfg_path, "-o", str(out), "--threads", threads]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --threads {threads} must be at least 1\n"
    assert not out.exists()


def test_extrapolate_former_nnls_hang_input():
    """User 0 of the M=64, n_ul=500 scenario of config seed 443 once made
    the in-repo active-set NNLS step by zero forever with single-threaded
    BLAS. Its UL Toeplitz column came from explicit pilot snapshots, which
    tests/snapshots.py rebuilds bit for bit; a child process with BLAS
    pinned to one thread rebuilds it and fits it under a time limit, on the
    grid of 2M = 128 angles."""
    script = (
        "from fddsim.channel import true_covariance\n"
        "from fddsim.config import ExperimentConfig\n"
        "from fddsim.covariance import estimate_asf\n"
        "from fddsim.evaluation import trial_scenario\n"
        "from fddsim.numerics import toeplitz_average\n"
        "from snapshots import snapshot_covariance\n"
        "cfg = ExperimentConfig(m=64, k=1, t=64, tdl_list=[8], snr_db_list=[20.0],\n"
        "                       n_trials=1, n_ul=500, seed=443)\n"
        "col = true_covariance(trial_scenario(cfg, 0)[0].asf, cfg.m, 1.0)\n"
        "s = snapshot_covariance(col, cfg.n_ul, cfg.ul_sigma2, cfg.seed, 0, 0)\n"
        "z = estimate_asf(toeplitz_average(s))\n"
        "print(z.size, bool((z >= 0).all()))\n")
    src = os.path.dirname(os.path.dirname(fddsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.path.dirname(__file__)]),
           **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}}
    proc = subprocess.run([sys.executable, "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(2 * 64), "True"]


# -------------------------------------------------- repeated calls in one process

def test_repeated_sparsify_forgets_dump_milp(tmp_path, capsys):
    spectra = tmp_path / "w.csv"
    np.savetxt(spectra, np.array([[1.0, 0.0], [0.8, 0.9], [0.6, 0.7]]), delimiter=",")
    dump = tmp_path / "milp.txt"
    plans = [tmp_path / "plan1.json", tmp_path / "plan2.json"]
    assert main(["sparsify", str(spectra), "--tdl", "2", "-o", str(plans[0]),
                 "--dump-milp", str(dump)]) == 0
    dump.unlink()
    assert main(["sparsify", str(spectra), "--tdl", "2", "-o", str(plans[1])]) == 0
    assert not dump.exists()
    assert plans[0].read_bytes() == plans[1].read_bytes()


def test_repeated_validate_forgets_suite(capsys):
    assert main(["validate", "--suite", "nnls"]) == 0
    assert build_parser().parse_args(["validate"]).suite is None


def test_repeated_extrapolate_is_byte_identical(cfg_path, tmp_path):
    """Config A, then B (another array and grid size), then A again: the
    cached estimator matrices carry nothing from one run into the next."""
    other = tmp_path / "other.cfg"
    other.write_text(SMALL_CFG.replace("M = 16", "M = 12").replace("seed = 7", "seed = 9"))
    outdirs = [tmp_path / f"run{i}" for i in range(3)]
    for config, outdir in zip([cfg_path, other, cfg_path], outdirs):
        assert main(["extrapolate", str(config), "--outdir", str(outdir)]) == 0
    for name in ("c_ul_hat.csv", "c_dl_hat.csv", "spectrum.csv"):
        first, between, third = ((d / name).read_bytes() for d in outdirs)
        assert third == first != between


# -------------------------------------------------- BLAS threads of a fresh process

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child(args, preset=()):
    """The stdout of ``python *args`` run in a child process whose
    environment holds none of the BLAS thread variables but those in
    ``preset``; the child must exit 0."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=os.path.dirname(os.path.dirname(fddsim.__file__)))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_import_loads_no_numpy():
    """`import fddsim` leaves NumPy unloaded, so the CLI module's own first
    lines run before it."""
    out = _child(["-c", "import sys, fddsim; print('numpy' in sys.modules)"])
    assert out.split() == ["False"]


@pytest.mark.parametrize("preset, want", [
    ({}, dict.fromkeys(BLAS_THREAD_VARS, "1")),
    # a per-variable default would hand OpenBLAS one thread here
    ({"OMP_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}),
])
def test_cli_import_pins_one_blas_thread_unless_one_is_set(preset, want):
    script = ("import json, os, fddsim.cli\n"
              f"print(json.dumps({{v: os.environ[v] for v in {BLAS_THREAD_VARS!r} "
              "if v in os.environ}))")
    assert json.loads(_child(["-c", script], preset)) == want


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="reads Linux /proc")
def test_cli_import_runs_blas_on_one_thread():
    script = ("import os, fddsim.cli, numpy as np\n"
              "a = np.ones((600, 600))\n"
              "a @ a\n"
              "print(len(os.listdir('/proc/self/task')))")
    assert _child(["-c", script]).split() == ["1"]


def test_module_entry_simulates_like_main(cfg_path, tmp_path):
    """The documented `python -m fddsim.cli` entry writes the records that
    `main` writes in this process."""
    child, own = tmp_path / "child.csv", tmp_path / "own.csv"
    _child(["-m", "fddsim.cli", "simulate", cfg_path, "-o", str(child)])
    assert main(["simulate", cfg_path, "-o", str(own)]) == 0
    assert child.read_bytes() == own.read_bytes()
