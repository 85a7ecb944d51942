import tracemalloc

import numpy as np
import pytest

from meskit import DimensionError, Dims, SigmaFlag, apply, extend, make_adjoint_preserver
from meskit.lemmas import _random_preserver, run_all
from meskit.tensor import complex_gaussian


@pytest.mark.parametrize("m", [1, 2])
def test_run_all_refuses_a_single_block(m):
    # the suite's orthogonality and discriminant checks need an orthogonal pair
    with pytest.raises(DimensionError, match="k >= 2"):
        run_all(Dims.from_mk(m, 1), samples=1)


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (3, 2)])
@pytest.mark.parametrize("sigma", list(SigmaFlag))
def test_random_preserver_is_the_dense_adjoint_preserver(m, k, sigma, rng):
    dims = Dims.from_mk(m, k)
    phi = _random_preserver(dims, sigma, 3, 106, 0)
    dense = make_adjoint_preserver(phi.u, phi.v, sigma)
    assert phi.dims == dense.dims
    assert phi.matrix.tobytes() == dense.matrix.tobytes()
    ext, dense_ext = extend(phi, sigma), extend(dense, sigma)
    assert ext.matrix.tobytes() == dense_ext.matrix.tobytes()
    for _ in range(3):
        M = complex_gaussian(rng, dims.mn, dims.mn)
        big = complex_gaussian(rng, dims.n**2, dims.n**2)
        for got, want in [(apply(phi, M), apply(dense, M)), (apply(ext, big), apply(dense_ext, big))]:
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


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
