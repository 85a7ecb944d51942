import pytest

from meskit import DimensionError, Dims
from meskit.lemmas import run_all


@pytest.mark.parametrize("m", [1, 2])
def test_run_all_refuses_a_single_block(m):
    # the suite's orthogonality and discriminant checks need an orthogonal pair
    with pytest.raises(DimensionError, match="k >= 2"):
        run_all(Dims.from_mk(m, 1), samples=1)
