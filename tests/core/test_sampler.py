"""Tests for the set-based miss-curve samplers."""

import numpy as np
import pytest

from repro.core.sampler import SamplerParams, sample_curves, stream_tags
from repro.core.stream import StreamConfig, StreamKind
from repro.sim.cachesim import direct_mapped_hits
from repro.util.curves import MissCurve
from repro.util.hashing import mix64_array


def make_stream(elem=64, n_elems=4096):
    return StreamConfig(
        sid=1,
        kind=StreamKind.INDIRECT,
        base=1 << 16,
        size=elem * n_elems,
        elem_size=elem,
    )


def sample_curve(tags, granularity, params):
    """Set-sampled direct-mapped miss curve over one tag trace: the
    one-group call of :func:`sample_curves`."""
    tags = np.asarray(tags, dtype=np.int64)
    groups = np.zeros(len(tags), dtype=np.int64)
    (curve,) = sample_curves(groups, tags, [granularity], params)
    return curve


def exact_curve(tags, granularity, params):
    """Reference: the full (unsampled) direct-mapped miss curve."""
    capacities = params.capacities()
    misses = np.zeros(len(capacities))
    hashed = mix64_array(tags.astype(np.uint64), salt=1)
    for i, capacity in enumerate(capacities):
        n_sets = max(1, int(capacity) // granularity)
        sets = (hashed % np.uint64(n_sets)).astype(np.int64)
        misses[i] = int((~direct_mapped_hits(sets, tags)).sum())
    return MissCurve(capacities, misses)


def zipf_elems(n, size, seed=0, s=1.2):
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1, dtype=float)
    cdf = np.cumsum(ranks**-s)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(size)).astype(np.int64)


class TestSamplerParams:
    def test_paper_storage(self):
        """k=32 sets x c=64 capacities x 4 B = 8 kB per sampler."""
        params = SamplerParams()
        assert params.storage_bytes == 8 * 1024

    @pytest.mark.parametrize("k", [0, -3])
    def test_rejects_non_positive_sample_sets(self, k):
        with pytest.raises(ValueError, match="sample_sets"):
            SamplerParams(sample_sets=k)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(min_capacity=0),
            dict(min_capacity=4096, max_capacity=4096),
            dict(capacity_points=1),
        ],
    )
    def test_rejects_bad_capacity_range_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            SamplerParams(**kwargs)

    def test_capacities_geometric(self):
        caps = SamplerParams().capacities()
        assert caps[0] == 32 * 1024
        assert caps[-1] == 256 * 1024 * 1024
        assert len(caps) == 64


class TestSampleCurve:
    def params(self, k=64):
        return SamplerParams(
            sample_sets=k, capacity_points=8, min_capacity=1024, max_capacity=1 << 20
        )

    def test_misses_decrease_with_capacity_for_reuse(self):
        tags = zipf_elems(4096, 30_000)
        curve = sample_curve(tags, 64, self.params())
        assert curve.misses[0] > curve.misses[-1]

    def test_streaming_trace_flat(self):
        """A pure scan has only compulsory misses at every capacity below
        its footprint."""
        tags = np.arange(20_000, dtype=np.int64)
        curve = sample_curve(tags, 64, self.params())
        assert curve.misses.min() > 0.8 * curve.misses.max()

    def test_scaling_matches_exact_roughly(self):
        """K/k set sampling approximates the full simulation (Sec V-A)."""
        tags = stream_tags(make_stream(), zipf_elems(4096, 40_000, seed=3), 64)
        sampled = sample_curve(tags, 64, self.params(k=256))
        exact = exact_curve(tags, 64, self.params(k=256))
        for cap in sampled.capacities[2:]:
            est, ref = sampled.misses_at(cap), exact.misses_at(cap)
            if ref > 500:
                assert abs(est - ref) / ref < 0.5

    def test_empty_trace(self):
        curve = sample_curve(np.empty(0, dtype=np.int64), 64, self.params())
        assert curve.misses.sum() == 0


class TestMissCurveSampler:
    """What the sampler is fed: a stream's tags at its caching granularity."""

    def test_granularity_groups_elements(self):
        stream = make_stream(elem=4, n_elems=1024)
        tags = stream_tags(stream, np.array([0, 15, 16, 31, 32]), 64)
        assert list(tags) == [0, 0, 1, 1, 2]

    def test_rejects_bad_granularity(self):
        with pytest.raises(ValueError):
            stream_tags(make_stream(), np.array([0]), 0)
