"""Baseline DRAM-cache policies: S-NUCA, Jigsaw, Whirlpool, Nexus, host."""

from repro.baselines.common import (
    MetadataCache,
    PartitionedNucaPolicy,
    PartitionSpec,
    RegionCopy,
)
from repro.baselines.host import HostJigsawPolicy, host_config
from repro.baselines.jigsaw import JigsawPolicy
from repro.baselines.nexus import NexusPolicy
from repro.baselines.static_nuca import StaticNucaPolicy
from repro.baselines.whirlpool import WhirlpoolPolicy

__all__ = [
    "MetadataCache",
    "PartitionedNucaPolicy",
    "PartitionSpec",
    "RegionCopy",
    "HostJigsawPolicy",
    "host_config",
    "JigsawPolicy",
    "NexusPolicy",
    "StaticNucaPolicy",
    "WhirlpoolPolicy",
]
