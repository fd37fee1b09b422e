import pytest

from semse.metrics import SourceStats, TransformFactor


def test_validation():
    with pytest.raises(ValueError):
        SourceStats(0.0)
    with pytest.raises(ValueError):
        TransformFactor(-1.0)
