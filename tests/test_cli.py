"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fddsim
from fddsim.cli import main

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


def test_extrapolate_outputs(cfg_path, tmp_path):
    outdir = tmp_path / "extrap"
    rc = main(["extrapolate", cfg_path, "--outdir", str(outdir)])
    assert rc == 0
    for name in ("c_ul_hat.csv", "c_dl_hat.csv", "spectrum.csv"):
        text = (outdir / name).read_text().strip().split("\n")
        assert len(text) == 1 + 16
    lam = [float(line.split(",")[1]) for line in
           (outdir / "spectrum.csv").read_text().strip().split("\n")[1:]]
    assert all(v >= 0 for v in lam)


# Byte-exact `sparsify --tdl 2 --dump-milp` text of the 3 x 2 matrix below
# (epsilon = 0.5 / M): locks the row layout and the number format.
GOLDEN_MILP_3X2 = """\
maximize 0.166667*x0 + 0.166667*x1 + 0.166667*x2 + 1*x5 + 1*x6 + 1*x7 + 1*x8 + 1*x9 + 1*x10
  -1*x0 + 1*x5 + 1*x6 <= 0
  -1*x1 + 1*x7 + 1*x8 <= 0
  -1*x2 + 1*x9 + 1*x10 <= 0
  -1*x3 + 1*x5 + 1*x7 + 1*x9 <= 0
  -1*x4 + 1*x6 + 1*x8 + 1*x10 <= 0
  1*x0 + 1*x1 + 1*x3 <= 3
  1*x1 + 1*x2 + 1*x4 <= 3
  -1*x0 + -0.8*x1 <= 0
  -0.9*x1 + -0.7*x2 <= 0
  1*x0 + -1*x3 <= 0
  1*x1 + -1*x3 + -1*x4 <= 0
  1*x2 + -1*x4 <= 0
  x0 in [0.0, 1.0] (int)
  x1 in [0.0, 1.0] (int)
  x2 in [0.0, 1.0] (int)
  x3 in [0.0, 1.0] (int)
  x4 in [0.0, 1.0] (int)
  x5 in [0.0, 1.0] (cont)
  x6 in [0.0, 0.0] (cont)
  x7 in [0.0, 1.0] (cont)
  x8 in [0.0, 1.0] (cont)
  x9 in [0.0, 0.0] (cont)
  x10 in [0.0, 1.0] (cont)"""


def test_sparsify_plan_and_milp_dump(tmp_path, capsys):
    spectra = tmp_path / "w.csv"
    np.savetxt(spectra, np.array([[1.0, 0.0], [0.8, 0.9], [0.0, 0.7]]),
               delimiter=",")
    plan_path = tmp_path / "plan.json"
    milp_path = tmp_path / "milp.txt"
    rc = main(["sparsify", str(spectra), "--tdl", "2",
               "-o", str(plan_path), "--dump-milp", str(milp_path)])
    assert rc == 0
    plan = json.loads(plan_path.read_text())
    assert plan["matching_size"] == 2
    assert sorted(plan) == sorted(["beams", "users", "matching_size", "objective",
                                   "node_count", "gap", "approximate"])
    assert plan["approximate"] is False
    assert milp_path.read_text() == GOLDEN_MILP_3X2


def test_sparsify_bad_file_exits_2(capsys):
    assert main(["sparsify", "/no/such/w.csv", "--tdl", "2"]) == 2


@pytest.mark.parametrize("entry, flags", [
    (0.0, ["--tdl", "0"]),
    (0.0, ["--tdl", "-1"]),
    (0.0, ["--tdl", "2", "--p0", "-5"]),
    (0.0, ["--tdl", "2", "--th-rel", "-1"]),
    (float("nan"), ["--tdl", "2"]),
])
def test_sparsify_out_of_range_input_exits_2(tmp_path, capsys, entry, flags):
    spectra = tmp_path / "w.csv"
    np.savetxt(spectra, np.array([[1.0, 0.0], [0.8, 0.9], [entry, 0.7]]), delimiter=",")
    plan_path = tmp_path / "plan.json"
    assert main(["sparsify", str(spectra), *flags, "-o", str(plan_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not plan_path.exists()


def test_validate_single_suite(capsys):
    rc = main(["validate", "--suite", "nnls"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] nnls-enumeration" in out
    assert "1/1 suites passed" in out


def test_validate_injected_fault_fails(capsys):
    rc = main(["validate", "--suite", "nnls", "--inject-fault"])
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
