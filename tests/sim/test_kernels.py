"""Unit tests for the epoch kernels themselves.

The kernels' contract is *bit identity* with the pure-python reference
(``kernels_reference.py``): every kernel returns exact integers/booleans,
or floating-point segment sums folded in the same input order as the
reference, so patching the reference in can never change a
SimulationReport.  These tests pin that contract kernel by kernel, as
properties over generated inputs with the adversarial ``_cases`` as
explicit examples; the end-to-end report equality across whole
simulations lives in ``test_backend_identity.py``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.stream_cache import _pair_keys, pack_set_id
from repro.sim import kernels
from repro.sim.kernels import _HASH_CHUNK, _SMALL_SORT, hash_argsort, stable_argsort
from tests.sim.kernels_reference import PythonKernels as reference


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
    # Wide keys, too wide to pack with an index: hashed (set, tag) pairs
    # with repeats, as the stream cache's warm-start scans use them, ...
    pairs = _pair_keys(
        rng.integers(0, 300, size=n), rng.integers(0, 5, size=n)
    )
    yield pairs, pairs
    # ... and packed (partition, unit, set) ids, including the baselines'
    # shared partition id 1 << 11.
    packed = pack_set_id(
        rng.choice([0, 1, 2, 1 << 11], size=n),
        rng.integers(0, 32, size=n),
        rng.integers(0, 1 << 12, size=n),
    )
    yield packed, rng.integers(0, 4, size=n, dtype=np.int64)


def with_cases(seed, windows=()):
    """Add every ``_cases`` pair (drawn from ``seed``) as an explicit
    ``columns`` example, once per entry of ``windows`` when given."""

    def decorate(test):
        for columns in _cases(np.random.default_rng(seed)):
            for extra in [{"window": w} for w in windows] or [{}]:
                test = example(columns=columns, **extra)(test)
        return test

    return decorate


# Both sides of the small-input sort cutoff, plus empty and singleton.
KEYED_SIZES = st.sampled_from(
    [0, 1, 2, 7, 100, _SMALL_SORT - 1, _SMALL_SORT, _SMALL_SORT + 1, 3000]
)
# One value, a few, or nearly all distinct.
SPANS = st.sampled_from([1, 2, 17, 700, 1 << 20, 1 << 40, 1 << 62])


@st.composite
def int_columns(draw):
    """Two equal-length int64 arrays, each drawn from its own span at a
    random (possibly negative) offset."""
    n = draw(KEYED_SIZES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(2):
        span = draw(SPANS)
        low = draw(st.integers(-(1 << 62), (1 << 62) - span))
        columns.append(rng.integers(low, low + span, size=n, dtype=np.int64))
    return tuple(columns)


WINDOWS = st.one_of(st.sampled_from([0, 1, 3, 64, 100_000]), st.integers(0, 40))


@settings(max_examples=100, deadline=None)
@given(columns=int_columns())
@with_cases(11)
def test_prev_in_group_matches_python(columns):
    group, value = columns
    got_idx, got_val = kernels.prev_in_group(group, value)
    ref_idx, ref_val = reference.prev_in_group(group, value)
    np.testing.assert_array_equal(got_idx, ref_idx)
    np.testing.assert_array_equal(got_val, ref_val)
    assert got_idx.dtype == np.int64 and got_val.dtype == value.dtype


@settings(max_examples=100, deadline=None)
@given(columns=int_columns())
@with_cases(12)
def test_direct_mapped_hits_matches_python(columns):
    """Also the DRAM row-buffer check: (bank, row) as (slot, tag)."""
    slots, tags = columns
    got = kernels.direct_mapped_hits(slots, tags)
    ref = reference.direct_mapped_hits(slots, tags)
    np.testing.assert_array_equal(got, ref)
    assert got.dtype == bool


@pytest.mark.parametrize("impl", [kernels], ids=["numpy"])
@pytest.mark.parametrize("window", [0, 1, 3, 64, 100_000])
def test_window_hits_grouped_matches_python(impl, window):
    """Every adversarial ``_cases`` pair at each fixed window."""
    for groups, keys in _cases(np.random.default_rng(13)):
        got = impl.window_hits_grouped(keys, groups, window)
        ref = reference.window_hits_grouped(keys, groups, window)
        np.testing.assert_array_equal(got, ref)


@settings(max_examples=100, deadline=None)
@given(columns=int_columns(), window=WINDOWS)
def test_window_hits_grouped_matches_python_on_generated_inputs(columns, window):
    groups, keys = columns
    got = kernels.window_hits_grouped(keys, groups, window)
    ref = reference.window_hits_grouped(keys, groups, window)
    np.testing.assert_array_equal(got, ref)


@settings(max_examples=100, deadline=None)
@given(columns=int_columns(), window=WINDOWS)
@with_cases(14, windows=[0, 16])
def test_window_hits_grouped_respects_supplied_order(columns, window):
    """Callers may pass the stable sort of ``groups`` they already hold
    (the engine sorts every epoch at once); the result must not change."""
    groups, keys = columns
    order = np.argsort(groups, kind="stable")
    got = kernels.window_hits_grouped(keys, groups, window, order=order)
    ref = reference.window_hits_grouped(keys, groups, window)
    np.testing.assert_array_equal(got, ref)


def test_window_hits_grouped_huge_keys_fall_back_to_dense_reid():
    """Keys too wide for the bit-packed composite still give exact
    results via the np.unique re-id path."""
    keys = np.asarray([0, 1 << 62, 0, 1 << 62, 5], dtype=np.int64)
    groups = np.asarray([0, 0, 0, 0, 0], dtype=np.int64)
    got = kernels.window_hits_grouped(keys, groups, window=4)
    ref = reference.window_hits_grouped(keys, groups, window=4)
    np.testing.assert_array_equal(got, ref)
    assert list(got) == [False, False, True, True, False]


@st.composite
def weighted_index(draw):
    """Bucket ids and float64 addends of any finite magnitude or sign."""
    buckets = draw(st.integers(1, 40))
    n = draw(st.integers(0, 300))
    index = draw(hnp.arrays(np.int64, n, elements=st.integers(0, buckets - 1)))
    weights = draw(
        hnp.arrays(
            np.float64,
            n,
            elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
        )
    )
    return index, weights, buckets


_rng = np.random.default_rng(15)
_BIG_INDEX = _rng.integers(0, 37, size=10_000, dtype=np.int64)
_BIG_WEIGHTS = _rng.normal(scale=1e9, size=10_000) + _rng.normal(size=10_000)


@settings(max_examples=200, deadline=None)
@given(case=weighted_index())
@example(case=(_BIG_INDEX, _BIG_WEIGHTS, 37))
@example(case=(np.empty(0, np.int64), np.empty(0, np.float64), 5))
def test_segment_sum_bitwise_matches_inorder_python_fold(case):
    """The float contract: segment_sum folds addends per bucket in input
    order, bitwise equal to a python running sum.  np.bincount guarantees
    this; the test pins it so a numpy upgrade that changes bincount's
    accumulation order cannot silently shift last-ulp report values."""
    index, weights, buckets = case
    got = kernels.segment_sum(index, weights, buckets)
    ref = reference.segment_sum(index, weights, buckets)
    # Exact to the bit (so 0.0 and -0.0 differ), not allclose.  The bits
    # of int64 zeros equal those of float64 zeros, so pin the dtype too.
    assert got.dtype == ref.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


@settings(max_examples=100, deadline=None)
@given(case=weighted_index())
def test_segment_count_matches_python(case):
    index, _, buckets = case
    got = kernels.segment_count(index, buckets)
    ref = reference.segment_count(index, buckets)
    np.testing.assert_array_equal(got, ref)
    assert got.dtype == np.int64


def _assert_stable_argsort(keys):
    got = stable_argsort(keys)
    np.testing.assert_array_equal(got, np.argsort(keys, kind="stable"))
    assert got.dtype == np.int64


INT_DTYPES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
]
# Both sides of the small-input cutoff, plus empty and singleton.
SIZES = st.sampled_from(
    [0, 1, 2, _SMALL_SORT - 1, _SMALL_SORT, _SMALL_SORT + 1, 3 * _SMALL_SORT]
)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), dtype=st.sampled_from(INT_DTYPES), n=SIZES)
def test_stable_argsort_full_range(data, dtype, n):
    """Any value of any integer dtype, from its min to its max (so
    negative keys, values >= 2**63 and full-width hashes)."""
    keys = data.draw(hnp.arrays(dtype, n, elements=hnp.from_dtype(np.dtype(dtype))))
    _assert_stable_argsort(keys)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    dtype=st.sampled_from(INT_DTYPES),
    n=SIZES,
    distinct=st.integers(1, 8),
)
def test_stable_argsort_heavy_ties(data, dtype, n, distinct):
    """A few distinct values, drawn anywhere in the dtype's range, each
    repeated many times: only stability decides the order."""
    values = data.draw(
        hnp.arrays(dtype, distinct, elements=hnp.from_dtype(np.dtype(dtype)))
    )
    picks = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    _assert_stable_argsort(values[picks.integers(0, distinct, size=n)])


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    n=SIZES,
    seed=st.integers(0, 2**32 - 1),
    signed=st.booleans(),
)
def test_stable_argsort_every_key_span(data, n, seed, signed):
    """Keys spanning up to ``width`` bits at a random offset.  Half the
    widths sit within two bits of where key span + index bits stops
    fitting in 64, so both sides of that line are hit at every size."""
    edge = 64 - max(1, (n - 1).bit_length())
    width = data.draw(
        st.one_of(st.integers(0, 64), st.integers(edge - 2, min(64, edge + 2)))
    )
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    raw = raw >> np.uint64(64 - width) if width else np.zeros(n, dtype=np.uint64)
    keys = raw + np.uint64(int(rng.integers(0, 2**64 - 2**width + 1, dtype=np.uint64)))
    if signed:
        # Flipping the top bit maps uint64 order onto int64 order.
        keys = (keys ^ np.uint64(1 << 63)).view(np.int64)
    _assert_stable_argsort(keys)


@pytest.mark.parametrize(
    "keys",
    [
        np.arange(5000, dtype=np.int64)[::-1],
        np.full(5000, -(1 << 63), dtype=np.int64),
        np.asarray([0, (1 << 64) - 1] * 2500, dtype=np.uint64),
        np.asarray([-(1 << 63), (1 << 63) - 1] * 2500, dtype=np.int64),
        np.random.default_rng(3).integers(0, 2, size=5000).astype(bool),
    ],
    ids=["descending", "all-equal-min", "uint64-extremes", "int64-extremes", "bool"],
)
def test_stable_argsort_edge_inputs(keys):
    _assert_stable_argsort(keys)


def test_stable_argsort_rejects_non_integer_keys():
    with pytest.raises(TypeError):
        stable_argsort(np.zeros(4))



def _assert_hash_argsort(keys):
    got = hash_argsort(keys)
    np.testing.assert_array_equal(got, np.argsort(keys, kind="stable"))
    assert got.dtype == np.int64


@settings(max_examples=100, deadline=None)
@given(
    n=SIZES,
    prefixes=st.integers(1, 4),
    low_bits=st.integers(0, 64),
    duplicates=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_hash_argsort_forced_prefix_ties(n, prefixes, low_bits, duplicates, seed):
    """Keys drawn from a few shared high prefixes with random low bits,
    plus exact duplicates: every prefix-tied run must come out ordered
    by (full key, index)."""
    rng = np.random.default_rng(seed)
    high = rng.integers(0, 2**64, size=prefixes, dtype=np.uint64)
    keys = high[rng.integers(0, prefixes, size=n)]
    if low_bits:
        keep = np.uint64(((1 << 64) - 1) ^ ((1 << low_bits) - 1))
        keys = (keys & keep) | (
            rng.integers(0, 2**64, size=n, dtype=np.uint64) >> np.uint64(64 - low_bits)
        )
    if n:
        copies = rng.integers(0, n, size=(2, duplicates))
        keys[copies[0]] = keys[copies[1]]
    _assert_hash_argsort(keys)


@settings(max_examples=40, deadline=None)
@given(n=SIZES, seed=st.integers(0, 2**32 - 1))
def test_hash_argsort_random_hashes(n, seed):
    keys = np.random.default_rng(seed).integers(0, 2**64, size=n, dtype=np.uint64)
    _assert_hash_argsort(keys)


def test_hash_argsort_ties_across_chunks():
    """Tied runs that straddle the slices the tie scan walks."""
    rng = np.random.default_rng(5)
    n = 2 * _HASH_CHUNK + 3
    keys = rng.integers(0, 2**64, size=n, dtype=np.uint64) >> np.uint64(62)
    keys |= np.uint64(1 << 63)
    _assert_hash_argsort(keys)


def test_hash_argsort_rejects_other_dtypes():
    with pytest.raises(TypeError):
        hash_argsort(np.arange(4, dtype=np.int64))
