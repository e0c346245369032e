"""A failing ``save_algebra`` leaves the target file as it was."""

import pytest

from liealg.family import canonical_metric, truncated_algebra
from liealg.fields import PrimeField
from liealg.io import AlgebraFileError, save_algebra


@pytest.mark.parametrize("metric", [
    canonical_metric(6),
    canonical_metric(3, field=PrimeField(5)),
], ids=["other dimension", "other field"])
def test_mismatched_metric_keeps_the_existing_bytes(metric, tmp_path):
    path = tmp_path / "a3.json"
    save_algebra(path, truncated_algebra(3), canonical_metric(3))
    before = path.read_bytes()
    with pytest.raises(AlgebraFileError, match="metric does not match the algebra"):
        save_algebra(path, truncated_algebra(3), metric)
    assert path.read_bytes() == before


def test_mismatched_metric_creates_no_file(tmp_path):
    path = tmp_path / "new.json"
    with pytest.raises(AlgebraFileError):
        save_algebra(path, truncated_algebra(3), canonical_metric(6))
    assert not path.exists()
