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
    (1.02007383724+0j, 1.02007383724+0j, 0.0608340094412),
    (0.0604409526067+0.0671114583508j, -0.0836855107789+0.097580602957j, 0.0585651564622),
    (-0.879377614687+0.376493231457j, -0.84817211425+0.378662026913j, 0.0743783031134),
    (-0.139998091122+0.010973636027j, 0.167779669188-0.211591289194j, 0.141867936255),
    (0.536881186324-0.567970657245j, 0.459686984524-0.515471703127j, 2.15748567456),
    (0.12951092548-0.101738459318j, -0.097405623356+0.29308043927j, 4.09575022361),
    (-0.176445697226+0.506929158717j, -0.113504071623+0.377831925545j, 0.786052136797),
    (-0.0530121852146+0.129947810012j, -0.0260992744254-0.221662720572j, 0.14763639209),
    (-0.0366232589335-0.275894417236j, -0.0325701386641-0.137611611419j, 0.0876429789433),
    (-0.0162735557929-0.0739459421763j, 0.0520596867424+0.041540416384j, 0.0876550942572),
    (0.0549823758244+0.0367711794834j, 0.0224051992397-0.0186683233812j, 0.144149570193),
    (0.0214825534649-0.0181280963376j, 0.0463200606722+0.0909879998246j, 0.644962833148),
    (0.0424390540432+0.08369812805j, 0.00502309751333+0.0497579988817j, 4.41222023354),
    (0.0279199457688+0.073738917589j, -0.145089322009-0.0826270999576j, 3.16095164582),
    (-0.127771430787-0.0669185775281j, 0.0162806404313-0.0393213550038j, 0.177266682035),
    (-0.0664718609708-0.0627559833184j, 0.112516266442+0.00226850075291j, 0.0837625256069),
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
])
def test_scenario_config_value_exits_2_without_trials(tmp_path, capsys, line):
    """Values the array or the scenario would reject fail at parse time,
    naming the key, even when no trial runs."""
    key = line.split("=")[0].strip()
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL_CFG.replace("n_trials = 2", "n_trials = 0") + line + "\n")
    out = tmp_path / "out.csv"
    assert main(["simulate", str(path), "-o", str(out)]) == 2
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not out.exists()


def test_snr_beyond_float_power_exits_2(tmp_path, capsys):
    """An SNR whose power 10^(SNR/10) overflows a float fails at parse time
    in one line, writing no records; 3000 dB (P_dl = 1e300) still runs."""
    path = tmp_path / "snr.cfg"
    out = tmp_path / "out.csv"
    path.write_text(SMALL_CFG.replace("snr_db_list = 10, 20", "snr_db_list = 4000"))
    assert main(["simulate", str(path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: snr_db_list: ") and err.count("\n") == 1
    assert not out.exists()
    path.write_text(SMALL_CFG.replace("snr_db_list = 10, 20", "snr_db_list = 3000"))
    assert main(["simulate", str(path), "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 2


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
    monkeypatch.setitem(validate.SUITES, "nnls", lambda: validate.suite_nnls(tol=-1.0))
    rc = main(["validate", "--suite", "nnls"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL]" in out


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


def test_extrapolate_former_nnls_hang_input(tmp_path):
    """User 0 of this M=64 scenario once made the in-repo active-set NNLS
    step by zero forever with single-threaded BLAS, so the command runs in
    a child process with BLAS pinned to one thread and a time limit."""
    path = tmp_path / "m64.cfg"
    path.write_text("M = 64\nK = 1\nT = 64\ntdl_list = 8\nsnr_db_list = 20\n"
                    "n_trials = 1\nn_ul = 500\nseed = 443\n")
    outdir = tmp_path / "extrap"
    src = os.path.dirname(os.path.dirname(fddsim.__file__))
    env = {**os.environ, "PYTHONPATH": src,
           **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}}
    proc = subprocess.run([sys.executable, "-m", "fddsim.cli", "extrapolate", str(path),
                           "--user", "0", "--outdir", str(outdir)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len((outdir / "spectrum.csv").read_text().strip().split("\n")) == 1 + 64


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
