"""Semantic information-rate metrics and the bit-domain transform.

The semantic rate of a link is the bandwidth times the semantic information
carried per symbol times the achieved similarity; dividing by bandwidth
gives the semantic spectral efficiency. Conventional bit-pipe systems are
made comparable by converting their bit rate through the average number of
bits a source coder spends per word.

Source text only ever enters through the ratio of semantic information per
sentence to words per sentence, carried as ``SourceStats.info_per_word``
(default 1.0, i.e. results are in units of that ratio).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


def require_finite_fields(obj) -> None:
    """Reject a dataclass whose numeric fields include NaN or +-inf.

    Raises ValueError naming the first such field.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class SourceStats:
    """Semantic content of the source: expected suts per word."""

    info_per_word: float = 1.0

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.info_per_word <= 0:
            raise ValueError(f"info_per_word must be > 0, got {self.info_per_word}")


@dataclass(frozen=True)
class TransformFactor:
    """Source-coder compression ability: average bits per word."""

    bits_per_word: float = 40.0

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.bits_per_word <= 0:
            raise ValueError(f"bits_per_word must be > 0, got {self.bits_per_word}")


def _check_link(similarity: float, k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 <= similarity <= 1.0:
        raise ValueError(f"similarity must be in [0, 1], got {similarity}")


def semantic_rate(
    bandwidth_hz: float, similarity: float, k: int, src: SourceStats
) -> float:
    """Semantic rate in suts/s: W * (I/L) * similarity / k.

    Computed as bandwidth times ``semantic_se`` so the rate/SE identity
    holds bit-exactly.
    """
    return bandwidth_hz * semantic_se(similarity, k, src)


def semantic_se(similarity: float, k: int, src: SourceStats) -> float:
    """Semantic spectral efficiency in suts/s/Hz: (I/L) * similarity / k."""
    _check_link(similarity, k)
    return src.info_per_word * similarity / k


def equivalent_semantic_rate(
    bit_rate: float, tf: TransformFactor, src: SourceStats, similarity: float = 1.0
) -> float:
    """Semantic rate equivalent of a bit pipe: bit_rate * (I/L) / mu * similarity.

    Error-free conventional links are evaluated with similarity = 1 (the
    default); the parameter stays for error-aware extensions.
    """
    if bit_rate < 0:
        raise ValueError(f"bit_rate must be >= 0, got {bit_rate}")
    return bit_rate * src.info_per_word / tf.bits_per_word * similarity


def equivalent_semantic_se(se_bits, tf: TransformFactor, src: SourceStats):
    """Semantic SE equivalent of a bit-domain SE: se_bits * (I/L) / mu.

    Accepts scalars or arrays.
    """
    se = np.asarray(se_bits, dtype=float)
    if np.any(se < 0):
        raise ValueError("bit-domain spectral efficiency must be >= 0")
    out = se * (src.info_per_word / tf.bits_per_word)
    return float(out) if out.ndim == 0 else out
