import math

import numpy as np
import pytest

from semse.metrics import (
    SourceStats,
    TransformFactor,
    equivalent_semantic_se,
)

SRC = SourceStats()
MU40 = TransformFactor(40.0)


def test_equivalent_se_top_lte_entry():
    assert equivalent_semantic_se(5.5547, MU40, SRC) == pytest.approx(0.13887, abs=1e-5)


def test_equivalent_se_zero():
    assert equivalent_semantic_se(0.0, MU40, SRC) == 0.0


def test_equivalent_se_of_shannon_link():
    snr_linear = 10 ** (14.666 / 10)
    se_bits = math.log2(1 + snr_linear)
    assert se_bits == pytest.approx(4.920, abs=1e-3)
    assert equivalent_semantic_se(se_bits, MU40, SRC) == pytest.approx(0.1229, abs=1e-3)


def test_equivalent_se_homogeneous_in_mu():
    rng = np.random.default_rng(15)
    for _ in range(100):
        se, mu, c = rng.uniform(0, 10), rng.uniform(1, 100), rng.uniform(0.1, 10)
        base = equivalent_semantic_se(se, TransformFactor(mu), SRC)
        scaled = equivalent_semantic_se(se, TransformFactor(c * mu), SRC)
        assert scaled == pytest.approx(base / c, rel=1e-12)


def test_equivalent_se_accepts_arrays():
    out = equivalent_semantic_se(np.array([0.0, 4.0, 8.0]), MU40, SRC)
    assert np.allclose(out, [0.0, 0.1, 0.2])


def test_validation():
    with pytest.raises(ValueError):
        SourceStats(0.0)
    with pytest.raises(ValueError):
        TransformFactor(-1.0)
    with pytest.raises(ValueError):
        equivalent_semantic_se(-0.1, MU40, SRC)
    with pytest.raises(ValueError, match="bits_per_word = 5e-324"):
        equivalent_semantic_se(np.array([0.0, 1.0]), TransformFactor(5e-324), SRC)
