"""The batched sampler must measure every curve exactly as the per-group
reference did.

``sampler_reference.py`` keeps ``sample_curve`` as it was before one
call sampled every stream or partition of an epoch.  For any grouping,
interleaving, granularity mix and tag distribution, each curve that
:func:`sample_curves` returns must equal the reference run on that
group's accesses alone, in trace order: the same capacities and the
same miss counts, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.sampler import MissCurveSampler, SamplerParams, sample_curves
from tests.core import sampler_reference as ref

# The paper's sampler (k=32, c=64 over 32 kB..64 MB): most capacity
# cases sample a small fraction of the sets.  The ``small`` preset's
# (k=256, c=16 over 2 kB..8 MB): every set of the small cases is sampled.
PAPER = SamplerParams(max_capacity=64 * 1024 * 1024)
SMALL = SamplerParams(
    sample_sets=256, capacity_points=16, min_capacity=2 * 1024, max_capacity=8 * 1024 * 1024
)
GRANULARITIES = (1, 4, 64, 256, 1024, 4096)

params_strategy = st.one_of(
    st.sampled_from([PAPER, SMALL]),
    st.builds(
        lambda k, points, lo, factor: SamplerParams(
            sample_sets=k, capacity_points=points, min_capacity=lo, max_capacity=lo * factor
        ),
        st.integers(1, 300),
        st.integers(2, 24),
        st.integers(1, 4096),
        st.integers(2, 4096),
    ),
)


@st.composite
def epochs(draw):
    """Up to 20 groups of mixed granularities, interleaved, over a few
    tags reused often.  A ``wide`` epoch spreads the same tags over all
    of int64, so the tag span cannot be packed beside the group id and
    dense tag ranks are used instead."""
    n_groups = draw(st.integers(0, 20))
    granularities = draw(
        st.lists(st.sampled_from(GRANULARITIES), min_size=n_groups, max_size=n_groups)
    )
    if n_groups == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), granularities
    n_tags = draw(st.integers(1, 64))
    accesses = draw(
        st.lists(
            st.tuples(st.integers(0, n_groups - 1), st.integers(0, n_tags - 1)),
            max_size=400,
        )
    )
    groups = np.array([g for g, _ in accesses], dtype=np.int64)
    tags = np.array([t for _, t in accesses], dtype=np.int64)
    if draw(st.booleans()):
        tags = (tags - 32) * 2**58 + tags
    return groups, tags, granularities


def assert_matches_reference(groups, tags, granularities, params):
    curves = sample_curves(groups, tags, granularities, params)
    assert len(curves) == len(granularities)
    for g, curve in enumerate(curves):
        want = ref.sample_curve(tags[groups == g], granularities[g], params)
        assert np.array_equal(curve.capacities, want.capacities)
        assert np.array_equal(curve.misses, want.misses), g


class TestOracle:
    @settings(max_examples=150, deadline=None)
    @given(epoch=epochs(), params=params_strategy)
    @example(
        epoch=(np.empty(0, np.int64), np.empty(0, np.int64), []), params=PAPER
    )
    @example(epoch=(np.empty(0, np.int64), np.empty(0, np.int64), [64, 1024]), params=SMALL)
    def test_every_curve_matches_reference(self, epoch, params):
        groups, tags, granularities = epoch
        assert_matches_reference(groups, tags, granularities, params)

    @pytest.mark.parametrize("params", [PAPER, SMALL], ids=["paper", "small"])
    def test_larger_epoch_with_mixed_granularities(self, params):
        """Thousands of distinct tags, interleaved groups of three
        granularities: many sampled sets hold several tags."""
        rng = np.random.default_rng(7)
        n_groups = 9
        groups = rng.integers(0, n_groups, 30_000)
        tags = rng.zipf(1.3, 30_000) % 5_000 + (groups % 3) * 10_000
        granularities = [64, 1024, 4] * 3
        assert_matches_reference(groups, tags, granularities, params)

    @pytest.mark.parametrize("params", [PAPER, SMALL], ids=["paper", "small"])
    def test_tag_span_beyond_64_bits_uses_dense_ranks(self, params):
        rng = np.random.default_rng(11)
        groups = rng.integers(0, 3, 5_000)
        tags = rng.integers(-(2**63), 2**63 - 1, 300)[rng.integers(0, 300, 5_000)]
        assert_matches_reference(groups, tags, [64, 64, 1024], params)

    def test_key_wider_than_64_bits_splits_groups(self):
        """45 sampled-set bits, 7 cell bits and 13 position bits do not
        fit one key; the groups are split and each half still matches."""
        params = SamplerParams(
            sample_sets=2**45, capacity_points=4, min_capacity=2**40, max_capacity=2**46
        )
        rng = np.random.default_rng(3)
        groups = rng.integers(0, 20, 8192)
        tags = rng.integers(0, 300, 8192)
        assert_matches_reference(groups, tags, [1] * 20, params)

    def test_observe_is_sample_curves(self):
        rng = np.random.default_rng(5)
        groups = rng.integers(0, 4, 2_000)
        tags = rng.integers(0, 500, 2_000)
        got = MissCurveSampler(SMALL).observe(groups, tags, [64, 64, 256, 4])
        want = sample_curves(groups, tags, [64, 64, 256, 4], SMALL)
        for a, b in zip(got, want):
            assert np.array_equal(a.misses, b.misses)


class TestValidation:
    def test_rejects_group_out_of_range(self):
        with pytest.raises(ValueError):
            sample_curves(np.array([0, 2]), np.array([1, 1]), [64, 64], SMALL)

    def test_rejects_non_positive_granularity(self):
        with pytest.raises(ValueError):
            sample_curves(np.array([0]), np.array([1]), [0], SMALL)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            sample_curves(np.array([0, 0]), np.array([1]), [64], SMALL)
