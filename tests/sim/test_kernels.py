"""Unit tests for the kernel backends themselves.

The backend contract is *bit identity*: every kernel returns exact
integers/booleans, or floating-point segment sums folded in the same
input order as the pure-python reference, so swapping backends can never
change a SimulationReport.  These tests pin that contract kernel by
kernel on adversarial random inputs; the end-to-end report equality
across whole simulations lives in ``test_backend_identity.py``.
"""

import numpy as np
import pytest

from repro.sim import kernels
from repro.sim.kernels import (
    BACKENDS,
    NUMPY_KERNELS,
    PYTHON_KERNELS,
    active,
    resolve_backend,
    use_backend,
)


def _backends():
    return [("numpy", NUMPY_KERNELS), ("python", PYTHON_KERNELS)]


def _cases(rng):
    """Adversarial shapes: empty, singleton, all-one-group, high-card."""
    yield np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    yield np.zeros(1, dtype=np.int64), np.asarray([7], dtype=np.int64)
    n = 4096
    yield (
        np.zeros(n, dtype=np.int64),
        rng.integers(0, 17, size=n, dtype=np.int64),
    )
    yield (
        rng.integers(0, 5, size=n, dtype=np.int64),
        rng.integers(0, 1 << 40, size=n, dtype=np.int64),
    )
    yield (
        rng.integers(0, 700, size=n, dtype=np.int64),
        rng.integers(0, 97, size=n, dtype=np.int64),
    )


@pytest.mark.parametrize("name", [p[0] for p in _backends()])
def test_prev_in_group_matches_python(name):
    impl = dict(_backends())[name]
    rng = np.random.default_rng(11)
    for group, value in _cases(rng):
        got_idx, got_val = impl.prev_in_group(group, value)
        ref_idx, ref_val = PYTHON_KERNELS.prev_in_group(group, value)
        np.testing.assert_array_equal(got_idx, ref_idx)
        np.testing.assert_array_equal(got_val, ref_val)


@pytest.mark.parametrize("name", [p[0] for p in _backends()])
def test_direct_mapped_hits_matches_python(name):
    impl = dict(_backends())[name]
    rng = np.random.default_rng(12)
    for slots, tags in _cases(rng):
        got = impl.direct_mapped_hits(slots, tags)
        ref = PYTHON_KERNELS.direct_mapped_hits(slots, tags)
        np.testing.assert_array_equal(got, ref)
        assert got.dtype == bool


@pytest.mark.parametrize("name", [p[0] for p in _backends()])
@pytest.mark.parametrize("window", [0, 1, 3, 64, 100_000])
def test_window_hits_grouped_matches_python(name, window):
    impl = dict(_backends())[name]
    rng = np.random.default_rng(13)
    for groups, keys in _cases(rng):
        got = impl.window_hits_grouped(keys, groups, window)
        ref = PYTHON_KERNELS.window_hits_grouped(keys, groups, window)
        np.testing.assert_array_equal(got, ref)


def test_window_hits_grouped_huge_keys_fall_back_to_dense_reid():
    """Keys too wide for the bit-packed composite still give exact
    results via the np.unique re-id path."""
    keys = np.asarray([0, 1 << 62, 0, 1 << 62, 5], dtype=np.int64)
    groups = np.asarray([0, 0, 0, 0, 0], dtype=np.int64)
    got = NUMPY_KERNELS.window_hits_grouped(keys, groups, window=4)
    ref = PYTHON_KERNELS.window_hits_grouped(keys, groups, window=4)
    np.testing.assert_array_equal(got, ref)
    assert list(got) == [False, False, True, True, False]


def test_window_hits_grouped_respects_supplied_order():
    rng = np.random.default_rng(14)
    n = 2000
    groups = rng.integers(0, 9, size=n, dtype=np.int64)
    keys = rng.integers(0, 50, size=n, dtype=np.int64)
    order = np.argsort(groups, kind="stable")
    with_order = NUMPY_KERNELS.window_hits_grouped(
        keys, groups, 16, order=order
    )
    without = NUMPY_KERNELS.window_hits_grouped(keys, groups, 16)
    np.testing.assert_array_equal(with_order, without)


@pytest.mark.parametrize("name", [p[0] for p in _backends()])
def test_segment_sum_bitwise_matches_inorder_python_fold(name):
    """The float contract: segment_sum folds addends per bucket in input
    order, bitwise equal to a python running sum.  np.bincount guarantees
    this; the test pins it so a backend swap (or a numpy upgrade that
    changes bincount's accumulation order) cannot silently shift
    last-ulp report values between backends."""
    impl = dict(_backends())[name]
    rng = np.random.default_rng(15)
    index = rng.integers(0, 37, size=10_000, dtype=np.int64)
    weights = rng.normal(scale=1e9, size=10_000) + rng.normal(size=10_000)
    got = impl.segment_sum(index, weights, 37)
    ref = PYTHON_KERNELS.segment_sum(index, weights, 37)
    np.testing.assert_array_equal(got, ref)  # exact, not allclose


@pytest.mark.parametrize("name", [p[0] for p in _backends()])
def test_segment_count_matches_python(name):
    impl = dict(_backends())[name]
    rng = np.random.default_rng(16)
    index = rng.integers(0, 13, size=5000, dtype=np.int64)
    got = impl.segment_count(index, 13)
    ref = PYTHON_KERNELS.segment_count(index, 13)
    np.testing.assert_array_equal(got, ref)
    assert got.dtype == np.int64


def test_resolve_backend_known_names():
    assert BACKENDS == ("numpy", "python")
    assert resolve_backend("numpy") is NUMPY_KERNELS
    assert resolve_backend("python") is PYTHON_KERNELS
    with pytest.raises(ValueError):
        resolve_backend("fortran")


def test_engine_options_reject_numba_backend():
    from repro.sim.engine import EngineOptions

    with pytest.raises(ValueError, match=r"\('numpy', 'python'\)"):
        EngineOptions(backend="numba")


def test_engine_options_reject_unknown_backend():
    from repro.sim.engine import EngineOptions

    with pytest.raises(ValueError):
        EngineOptions(backend="cuda")


def test_use_backend_restores_on_exit():
    before = active()
    with use_backend(PYTHON_KERNELS):
        assert active() is PYTHON_KERNELS
        with use_backend(NUMPY_KERNELS):
            assert active() is NUMPY_KERNELS
        assert active() is PYTHON_KERNELS
    assert active() is before


def test_use_backend_restores_on_exception():
    before = active()
    with pytest.raises(RuntimeError):
        with use_backend(PYTHON_KERNELS):
            raise RuntimeError("boom")
    assert active() is before


def test_module_default_backend_is_numpy():
    assert kernels.active() is NUMPY_KERNELS
