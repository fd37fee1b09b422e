"""Source statistics and the bit-domain transform.

The semantic spectral efficiency of a link is the semantic information
carried per symbol times the achieved similarity, (I/L) * similarity / k;
``allocator.build_pair_plans`` computes it per pair in units of I/L.
Conventional bit-pipe systems are made comparable by converting their bit
SE through the average number of bits a source coder spends per word
(``equivalent_semantic_se``).

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


def equivalent_semantic_se(se_bits, tf: TransformFactor, src: SourceStats):
    """Semantic SE equivalent of a bit-domain SE: se_bits / mu * (I/L).

    Accepts scalars or arrays. Raises ValueError if the result overflows.
    """
    se = np.asarray(se_bits, dtype=float)
    if np.any(se < 0):
        raise ValueError("bit-domain spectral efficiency must be >= 0")
    try:
        with np.errstate(over="raise"):
            out = se / tf.bits_per_word * src.info_per_word
    except FloatingPointError:
        raise ValueError(f"S-SE overflows at bits_per_word = {tf.bits_per_word}, "
                         f"info_per_word = {src.info_per_word}") from None
    return float(out) if out.ndim == 0 else out
