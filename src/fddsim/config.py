"""Experiment configuration: a flat key = value text format.

One experiment per file; every random quantity flows from the single
``seed`` key so a config file is complete provenance for its outputs.
List values are comma separated. Example::

    M = 64
    K = 8
    T = 64
    tdl_list = 8, 16, 24
    snr_db_list = 20
    n_trials = 50
    seed = 1
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .channel import DEFAULT_ALPHA
from .errors import InvalidArgumentError


class ConfigError(InvalidArgumentError):
    """Malformed or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    m: int
    k: int
    t: int
    tdl_list: list
    snr_db_list: list
    n_trials: int
    seed: int
    n_ul: int = 1000
    grid_factor: int = 4
    theta_max_deg: float = 60.0
    alpha: float = DEFAULT_ALPHA
    n_clusters: int = 3
    cluster_width: float = 0.2
    th_rel: float = 0.01
    p0: float = 0.0
    epsilon_factor: float = 0.5
    ul_sigma2: float = 0.01
    output_path: str | None = None
    exact_covariance: bool = False

    def __post_init__(self):
        for key in ("m", "k", "t", "n_ul", "grid_factor", "n_clusters"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{_KEY_NAMES[key]}: must be >= 1")
        if self.n_trials < 0:
            raise ConfigError("n_trials: must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        for tdl in self.tdl_list:
            if not (1 <= tdl <= self.t):
                raise ConfigError(f"tdl_list: entry {tdl} must lie in [1, T={self.t}]")
        if not self.tdl_list or not self.snr_db_list:
            raise ConfigError("tdl_list and snr_db_list must be nonempty")
        if self.cluster_width * self.n_clusters > 2.0:
            raise ConfigError("cluster_width: clusters do not fit in [-1, 1]")
        if not (0.0 < self.epsilon_factor < 1.0):
            raise ConfigError("epsilon_factor: must be in (0, 1)")
        if not (0.0 < self.theta_max_deg <= 90.0):
            raise ConfigError("theta_max_deg: must be in (0, 90]")
        if not (self.ul_sigma2 >= 0 and self.p0 >= 0 and self.th_rel >= 0):  # NaN fails too
            raise ConfigError("ul_sigma2, p0 and th_rel must be nonnegative")


# config-file key -> (dataclass field, parser)
def _bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _int_list(s: str) -> list:
    return [int(p) for p in s.replace("[", "").replace("]", "").split(",") if p.strip()]


def _float_list(s: str) -> list:
    return [float(p) for p in s.replace("[", "").replace("]", "").split(",") if p.strip()]


_SCHEMA = {
    "M": ("m", int),
    "K": ("k", int),
    "T": ("t", int),
    "tdl_list": ("tdl_list", _int_list),
    "snr_db_list": ("snr_db_list", _float_list),
    "n_ul": ("n_ul", int),
    "n_trials": ("n_trials", int),
    "grid_factor": ("grid_factor", int),
    "theta_max_deg": ("theta_max_deg", float),
    "alpha": ("alpha", float),
    "n_clusters": ("n_clusters", int),
    "cluster_width": ("cluster_width", float),
    "th_rel": ("th_rel", float),
    "p0": ("p0", float),
    "epsilon_factor": ("epsilon_factor", float),
    "ul_sigma2": ("ul_sigma2", float),
    "seed": ("seed", int),
    "output_path": ("output_path", str),
    "exact_covariance": ("exact_covariance", _bool),
}
_KEY_NAMES = {fld: key for key, (fld, _) in _SCHEMA.items()}
_REQUIRED = ("M", "K", "T", "tdl_list", "snr_db_list", "n_trials", "seed")


def parse_config(path) -> ExperimentConfig:
    """Read and validate a key = value config file."""
    values = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            fld, conv = _SCHEMA[key]
            if fld in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[fld] = conv(val.strip())
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    missing = [k for k in _REQUIRED if _SCHEMA[k][0] not in values]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")
    try:
        return ExperimentConfig(**values)
    except ConfigError:
        raise
    except TypeError as exc:  # pragma: no cover - schema and dataclass agree
        raise ConfigError(f"{path}: {exc}") from exc
