"""FDD massive-MIMO downlink simulator: covariance extrapolation from
uplink pilots, active channel sparsification, effective-channel probing
and zero-forcing sum-rate evaluation."""

from .channel import (AngularScatteringFunction, UserGeometry, make_scenario,
                      psd_factor, sample_channels, sample_pilot_covariance,
                      true_covariance)
from .config import ConfigError, ExperimentConfig, parse_config
from .covariance import (asf_grid, circulant_eigenvalues, estimate_asf,
                         extrapolate_dl)
from .errors import FddsimError, InvalidArgumentError, NumericalError
from .evaluation import (ExperimentRecord, effective_gains,
                         greedy_user_selection, normalized_error,
                         run_experiment, run_trial, sum_rate, summarize,
                         write_records_csv, write_summary_json, zf_precoder)
from .probing import dl_observe, make_pilot, mmse_effective
from .sparsifier import (SparsificationPlan, beam_coefficients, build_beam_graph,
                         formulate_milp, solve_sparsification)

__version__ = "0.1.0"
