
import numpy as np
import pytest

from meskit import DimensionError, Dims, lemmas
from meskit.lemmas import run_all
from conftest import peak_traced_bytes


@pytest.mark.parametrize("m", [1, 2])
def test_run_all_refuses_a_single_block(m):
    # the suite's orthogonality and discriminant checks need an orthogonal pair
    with pytest.raises(DimensionError, match="k >= 2"):
        run_all(Dims.from_mk(m, 1), samples=1)


@pytest.mark.parametrize(
    "settings,message",
    [
        ({"samples": 0}, "samples must be >= 1"),
        ({"samples": -3}, "samples must be >= 1"),
        ({"tol": np.inf}, "tol must be finite and positive"),
        ({"tol": np.nan}, "tol must be finite and positive"),
        ({"tol": 0.0}, "tol must be finite and positive"),
        ({"tol": -1e-9}, "tol must be finite and positive"),
        ({"samples": True}, "samples must be >= 1"),
        ({"tol": True}, "tol must be finite and positive, got True"),
    ],
)
def test_run_all_refuses_settings_that_pass_every_row_unchecked(settings, message, monkeypatch):
    # no sample, or an infinite tol, would report every row passing whatever its residual
    def check(dims, samples, seed):
        raise AssertionError("a check ran")

    monkeypatch.setattr(lemmas, "_CHECKS", [("any", check)])
    with pytest.raises(ValueError, match=f"^{message}"):
        run_all(Dims(2, 4), **settings)


def test_suite_peak_memory_below_one_dense_preserver():
    dims = Dims(3, 6)
    dense_nbytes = dims.mn**4 * np.dtype(complex).itemsize  # 1.68 MB at (3,2)
    assert peak_traced_bytes(lambda: run_all(dims, samples=2))[1] < dense_nbytes


@pytest.mark.parametrize("seed", [2.7, "1", True])
def test_seed_must_be_an_integer(seed):
    with pytest.raises(TypeError, match="seed must be an integer"):
        run_all(Dims.from_mk(2, 2), samples=1, seed=seed)
