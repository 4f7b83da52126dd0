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

import math
from dataclasses import MISSING, dataclass, fields

from .channel import DEFAULT_ALPHA
from .errors import InvalidArgumentError
from .sparsifier import DEFAULT_TH_REL


class ConfigError(InvalidArgumentError):
    """Malformed or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    """One experiment. Each field is a config-file key of the same name
    (``m``, ``k`` and ``t`` are written ``M``, ``K`` and ``T``), parsed by
    its annotation; the fields without a default are the required keys."""

    m: int
    k: int
    t: int
    tdl_list: list[int]
    snr_db_list: list[float]
    n_trials: int
    seed: int
    n_ul: int = 1000
    alpha: float = DEFAULT_ALPHA
    n_clusters: int = 3
    cluster_width: float = 0.2
    th_rel: float = DEFAULT_TH_REL
    p0: float = 0.0
    ul_sigma2: float = 0.01
    exact_covariance: bool = False

    def __post_init__(self):
        for key in ("m", "k", "t", "n_ul"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{_KEY_NAMES[key]}: must be >= 1")
        for key in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{_KEY_NAMES[key]}: must be finite")
        # the carrier-ratio and scenario checks, reported by key before any
        # trial runs (alpha = 1 is the UL, so the DL ratio is at least 1)
        if self.alpha < 1.0:
            raise ConfigError("alpha: must be >= 1")
        if self.n_clusters < 2:
            raise ConfigError("n_clusters: must be >= 2 (each user takes two clusters)")
        if self.cluster_width <= 0:
            raise ConfigError("cluster_width: must be positive")
        if not all(math.isfinite(snr) for snr in self.snr_db_list):
            raise ConfigError("snr_db_list: entries must be finite")
        # every beam power of a unit-power channel is at most M, so below this
        # bound the unit noise term of the MMSE system p G + I survives rounding
        bound = 10.0 * math.log10(2.0 ** 53 / self.m)
        for snr in self.snr_db_list:
            if snr > bound:
                raise ConfigError(f"snr_db_list: entry {snr:g} dB is above {bound:.1f} dB "
                                  "= 10 log10(2^53/M), above which rounding erases the unit noise")
        if self.n_trials < 0:
            raise ConfigError("n_trials: must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        for tdl in self.tdl_list:
            if not (1 <= tdl <= self.t):
                raise ConfigError(f"tdl_list: entry {tdl} must lie in [1, T={self.t}]")
        for key in ("tdl_list", "snr_db_list"):
            if not getattr(self, key):
                raise ConfigError(f"{key}: must be nonempty")
            if len(set(getattr(self, key))) != len(getattr(self, key)):
                raise ConfigError(f"{key}: entries must be distinct")
        if self.cluster_width * self.n_clusters > 2.0:
            raise ConfigError("cluster_width: clusters do not fit in [-1, 1]")
        for key in ("ul_sigma2", "p0", "th_rel"):
            if getattr(self, key) < 0:  # NaN was rejected as not finite
                raise ConfigError(f"{key}: must be nonnegative")


def _bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _list(conv):
    """Parser of a comma-separated list (optionally bracketed) of conv values."""
    def parse(s: str) -> list:
        return [conv(p) for p in s.replace("[", "").replace("]", "").split(",") if p.strip()]
    return parse


# field annotation -> value parser
_PARSERS = {"int": int, "float": float, "bool": _bool,
            "list[int]": _list(int), "list[float]": _list(float)}
# config-file key -> (dataclass field, parser), in field order
_SCHEMA = {(f.name.upper() if f.name in ("m", "k", "t") else f.name): (f.name, _PARSERS[f.type])
           for f in fields(ExperimentConfig)}
_KEY_NAMES = {fld: key for key, (fld, _) in _SCHEMA.items()}
_FLOAT_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.type == "float")
_REQUIRED = tuple(_KEY_NAMES[f.name] for f in fields(ExperimentConfig) if f.default is MISSING)


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
    return ExperimentConfig(**values)
