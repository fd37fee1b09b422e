"""Source statistics, the transform factor, the input file reader and the finite-field check.

The semantic spectral efficiency of a link is the semantic information
carried per symbol times the achieved similarity, (I/L) * similarity / k.
Conventional bit-pipe systems are made comparable through the average
number of bits a source coder spends per word, ``TransformFactor``. The
allocator computes every weight, semantic or bit-pipe, in units of I/L
(``allocator.build_pair_plans`` and ``allocator.bit_pipe_weights``).

Source text only ever enters through the ratio of semantic information per
sentence to words per sentence, carried as ``SourceStats.info_per_word``
(default 1.0). The reporting layer, ``harness._records``, is the one place
that scales by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


def read_lines(path, error: type) -> list[tuple[int, str]]:
    """(number, stripped text) of each non-blank line of a scenario, surface or CQI file.

    UTF-8, with or without a byte-order mark; numbers count blank lines too.
    A file that is not UTF-8 raises ``error`` naming ``path``.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return [(number, text) for number, line in enumerate(fh, start=1)
                    if (text := line.strip())]
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from None


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
