"""Semantic spectral efficiency simulation and channel allocation."""

from .allocator import (
    Constraints,
    DropMatches,
    build_pair_plans,
    conventional_weights,
    hungarian_max,
    match_drops,
    semantic_weights,
)
from .channel import NetworkDrop, RadioParams, sample_drop, sample_drops
from .link_adaptation import SystemKind, builtin_table
from .metrics import TransformFactor
from .similarity import default_surrogate

__version__ = "0.1.0"
