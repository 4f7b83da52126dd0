"""Tests for the experiment config parser."""

import pytest

from fddsim.channel import DEFAULT_ALPHA
from fddsim.config import ConfigError, ExperimentConfig, parse_config

MINIMAL = """\
M = 16
K = 4
T = 32
tdl_list = 8
snr_db_list = 20
n_trials = 2
seed = 1
"""


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_minimal_with_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert cfg.m == 16 and cfg.k == 4 and cfg.t == 32
    assert cfg.tdl_list == [8] and cfg.snr_db_list == [20.0]
    assert cfg.theta_max_deg == 60.0
    assert cfg.alpha == DEFAULT_ALPHA
    assert cfg.grid_factor == 4
    assert cfg.th_rel == 0.01 and cfg.p0 == 0.0
    assert cfg.epsilon_factor == 0.5
    assert cfg.exact_covariance is False


def test_parse_lists_and_comments(tmp_path):
    text = MINIMAL.replace("tdl_list = 8", "tdl_list = 8, 16, 24  # sweep")
    cfg = parse_config(write(tmp_path, text))
    assert cfg.tdl_list == [8, 16, 24]


def test_parse_large_array_config(tmp_path):
    text = """\
M = 128
K = 13
T = 128
tdl_list = 16, 32
snr_db_list = 20
n_ul = 1000
n_trials = 1
seed = 3
"""
    cfg = parse_config(write(tmp_path, text))
    assert cfg.m == 128 and cfg.k == 13 and cfg.n_ul == 1000


def test_tdl_above_t_rejected_with_key(tmp_path):
    text = MINIMAL.replace("tdl_list = 8", "tdl_list = 64")
    with pytest.raises(ConfigError, match="tdl_list"):
        parse_config(write(tmp_path, text))


def test_unknown_key_reports_line(tmp_path):
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(write(tmp_path, MINIMAL + "bogus = 1\n"))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(write(tmp_path, MINIMAL + "M = 8\n"))


def test_missing_required_rejected(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        parse_config(write(tmp_path, MINIMAL.replace("seed = 1\n", "")))


def test_bad_value_reports_key(tmp_path):
    with pytest.raises(ConfigError, match="M"):
        parse_config(write(tmp_path, MINIMAL.replace("M = 16", "M = many")))


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        parse_config("/definitely/not/here.cfg")


def test_invariants_enforced():
    base = dict(m=16, k=4, t=32, tdl_list=[8], snr_db_list=[20.0],
                n_trials=1, seed=1)
    ExperimentConfig(**base)  # valid
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "m": 0})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "n_trials": -1})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "seed": -1})
    for key in ("p0", "th_rel", "ul_sigma2"):
        with pytest.raises(ConfigError):
            ExperimentConfig(**{**base, key: float("nan")})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "tdl_list": []})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "cluster_width": 1.0})  # 3 clusters > 2
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "epsilon_factor": 1.0})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "theta_max_deg": 120.0})
    ExperimentConfig(**{**base, "n_trials": 0})  # zero trials is allowed
