"""Semantic spectral efficiency simulation and channel allocation."""

from .allocator import (
    Constraints,
    DropMatches,
    bit_pipe_weights,
    bit_se,
    build_pair_plans,
    match_drops,
)
from .channel import NetworkDrop, RadioParams, sample_drops
from .link_adaptation import SystemKind, builtin_table
from .metrics import TransformFactor
from .similarity import default_surrogate

__version__ = "0.1.0"
