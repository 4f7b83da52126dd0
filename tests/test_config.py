"""Tests for the experiment config parser, and for the README sections that
must follow the code: the config table and the library layout."""

import math
import re
from pathlib import Path

import pytest

from fddsim.channel import DEFAULT_ALPHA
from fddsim.config import _REQUIRED, _SCHEMA, ConfigError, ExperimentConfig, parse_config
from fddsim.sparsifier import DEFAULT_TH_REL

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
    assert cfg.alpha == DEFAULT_ALPHA
    assert cfg.th_rel == DEFAULT_TH_REL == 0.01 and cfg.p0 == 0.0
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
    # theta_max_deg was a key once, the geometry is defined in xi alone;
    # output_path was one too, simulate -o sets the records path;
    # grid_factor and epsilon_factor were too, the angle grid (2M points)
    # and the beam reward (0.5/M) are constants of the solvers
    for key in ("bogus", "theta_max_deg", "output_path", "grid_factor", "epsilon_factor"):
        with pytest.raises(ConfigError, match=f":8: unknown key '{key}'"):
            parse_config(write(tmp_path, MINIMAL + f"{key} = 1\n"))


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
    for key in ("alpha", "cluster_width", "th_rel", "p0", "ul_sigma2"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match="must be finite"):
                ExperimentConfig(**{**base, key: bad})
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match="snr_db_list"):
            ExperimentConfig(**{**base, "snr_db_list": [20.0, bad]})
    # above 10 log10(2^53/M) dB (147.5 dB at M = 16) rounding erases the unit
    # noise of p G + I; 4000 dB would also overflow P_dl = 10^(SNR/10)
    with pytest.raises(ConfigError, match="^snr_db_list: entry 4000 dB"):
        ExperimentConfig(**{**base, "snr_db_list": [20.0, 4000.0]})
    bound = 10 * math.log10(2.0 ** 53 / 16)
    assert round(bound, 1) == 147.5
    ExperimentConfig(**{**base, "snr_db_list": [20.0, bound]})
    with pytest.raises(ConfigError, match=r"^snr_db_list: entry 147\.505 dB .* 147\.5 dB"):
        ExperimentConfig(**{**base, "snr_db_list": [bound + 1e-6]})
    for key in ("tdl_list", "snr_db_list"):
        with pytest.raises(ConfigError, match=f"^{key}: must be nonempty"):
            ExperimentConfig(**{**base, key: []})
    for key in ("p0", "th_rel", "ul_sigma2"):
        with pytest.raises(ConfigError, match=f"^{key}: must be nonnegative"):
            ExperimentConfig(**{**base, key: -0.1})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "cluster_width": 1.0})  # 3 clusters > 2
    # what make_scenario rejects, and alpha < 1 (a band is its carrier ratio,
    # 1 for the UL), named by key at parse time
    for key, bad in (("alpha", 0.99), ("n_clusters", 1), ("n_clusters", 0),
                     ("cluster_width", 0.0), ("cluster_width", -0.1)):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            ExperimentConfig(**{**base, key: bad})
    ExperimentConfig(**{**base, "alpha": 1.0, "n_clusters": 2})  # the edge values are valid
    # a repeated grid entry would write every (trial, T_dl, SNR) row twice
    with pytest.raises(ConfigError, match="tdl_list: entries must be distinct"):
        ExperimentConfig(**{**base, "tdl_list": [8, 16, 8]})
    with pytest.raises(ConfigError, match="snr_db_list: entries must be distinct"):
        ExperimentConfig(**{**base, "snr_db_list": [10.0, 10.0]})
    ExperimentConfig(**{**base, "n_trials": 0})  # zero trials is allowed


def test_readme_config_table_matches_schema():
    """The README's config table lists the parser's keys, in its order,
    with the same required/optional split."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config file", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (yes|no) \|", section, flags=re.MULTILINE)
    assert [key for key, _ in rows] == list(_SCHEMA)
    assert [key for key, req in rows if req == "yes"] == list(_REQUIRED)


def test_readme_layout_names_every_module():
    """The README's library layout names exactly the package's modules."""
    root = Path(__file__).resolve().parents[1]
    block = (root / "README.md").read_text().split("## Library layout", 1)[1]
    block = block.split("src/fddsim/\n", 1)[1].split("\ntests/", 1)[0]
    named = re.findall(r"^  (\w+\.py) ", block, flags=re.MULTILINE)
    modules = sorted(p.name for p in (root / "src" / "fddsim").glob("*.py")
                     if p.name != "__init__.py")
    assert sorted(named) == modules and len(named) == len(set(named))
