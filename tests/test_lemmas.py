import tracemalloc

import numpy as np
import pytest

from meskit import DimensionError, Dims
from meskit.lemmas import run_all


@pytest.mark.parametrize("m", [1, 2])
def test_run_all_refuses_a_single_block(m):
    # the suite's orthogonality and discriminant checks need an orthogonal pair
    with pytest.raises(DimensionError, match="k >= 2"):
        run_all(Dims.from_mk(m, 1), samples=1)


def test_suite_peak_memory_below_one_dense_preserver():
    dims = Dims(3, 6)
    dense_nbytes = dims.mn**4 * np.dtype(complex).itemsize  # 1.68 MB at (3,2)
    tracemalloc.start()
    try:
        run_all(dims, samples=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_nbytes
