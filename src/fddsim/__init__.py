"""FDD massive-MIMO downlink simulator: covariance extrapolation from
uplink pilots, active channel sparsification, effective-channel probing
and zero-forcing sum-rate evaluation."""

__version__ = "0.1.0"
