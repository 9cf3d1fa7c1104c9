"""NDPExt core: streams, remap table, stream cache, samplers, runtime."""

from repro.core.annotate import (
    AnnotatorParams,
    annotate_workload,
    annotation_report,
    detect_streams,
)
from repro.core.assignment import AssignmentResult, SamplerAssigner
from repro.core.ata import AffineTagArray
from repro.core.configure import (
    CacheConfigurator,
    ConfigResult,
    equal_share_allocations,
)
from repro.core.consistent import ConsistentRing, preserved_mask, spots_of_group
from repro.core.remap import RemapTable
from repro.core.runtime import NdpExtPolicy
from repro.core.sampler import MissCurveSampler, SamplerParams
from repro.core.slb import StreamLookaheadBuffer
from repro.core.stream import (
    StreamConfig,
    StreamKind,
    StreamTable,
    configure_stream,
)
from repro.core.stream_cache import StreamCacheMapper

__all__ = [
    "AnnotatorParams",
    "annotate_workload",
    "annotation_report",
    "detect_streams",
    "AssignmentResult",
    "SamplerAssigner",
    "AffineTagArray",
    "CacheConfigurator",
    "ConfigResult",
    "equal_share_allocations",
    "ConsistentRing",
    "preserved_mask",
    "spots_of_group",
    "RemapTable",
    "NdpExtPolicy",
    "MissCurveSampler",
    "SamplerParams",
    "StreamLookaheadBuffer",
    "StreamConfig",
    "StreamKind",
    "StreamTable",
    "configure_stream",
    "StreamCacheMapper",
]
