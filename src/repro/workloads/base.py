"""Workload construction helpers shared by every generator.

A generator allocates its data structures in a flat physical address
space, annotates each with ``configure_stream`` (exactly the paper's API,
averaging a handful of annotations per workload), emits per-core address
sequences, and interleaves them into a global trace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.stream import StreamConfig, StreamTable, configure_stream
from repro.sim.params import MB
from repro.workloads.trace import Workload, interleave

PAGE = 4096


@dataclass(frozen=True)
class WorkloadScale:
    """Knobs that size a workload relative to the simulated system.

    ``footprint_bytes`` is the TOTAL across all processes and should
    exceed the system's NDP cache so the extended memory is exercised
    (the paper runs processes "until the total footprint exceeds the NDP
    memory").  ``processes`` independent instances are merged by the
    registry, each with its own address space, streams, and core subset.
    """

    n_cores: int = 16
    accesses_per_core: int = 20_000
    footprint_bytes: int = 16 * MB
    seed: int = 1
    processes: int = 1

    def per_process(self, index: int) -> "WorkloadScale":
        """The scale of one process instance."""
        if self.processes <= 1:
            return self
        return self.scaled(
            processes=1,
            n_cores=max(1, self.n_cores // self.processes),
            footprint_bytes=max(4096, self.footprint_bytes // self.processes),
            accesses_per_core=self.accesses_per_core,
            seed=self.seed + 13 * index,
        )

    def scaled(self, **overrides) -> "WorkloadScale":
        return replace(self, **overrides)


SMALL = WorkloadScale(
    n_cores=16, accesses_per_core=20_000, footprint_bytes=3 * MB, processes=4
)
TINY = WorkloadScale(
    n_cores=4, accesses_per_core=3_000, footprint_bytes=128 * 1024
)
PAPER = WorkloadScale(
    n_cores=128,
    accesses_per_core=1_000_000,
    footprint_bytes=32 * 1024 * MB,
    processes=8,
)


class StreamHandle:
    """A configured stream plus address helpers for trace generation."""

    def __init__(self, config: StreamConfig) -> None:
        self.config = config

    @property
    def sid(self) -> int:
        return self.config.sid

    @property
    def n_elements(self) -> int:
        return self.config.n_elements

    def addr(self, storage_index: np.ndarray) -> np.ndarray:
        """Byte address of elements by *storage* index."""
        idx = np.asarray(storage_index, dtype=np.int64)
        if np.any((idx < 0) | (idx >= self.config.n_elements)):
            raise ValueError(
                f"index outside stream {self.config.name} "
                f"(0..{self.config.n_elements - 1})"
            )
        return self.config.base + idx * self.config.elem_size


class WorkloadBuilder:
    """Accumulates streams and per-core access chunks into a Workload."""

    def __init__(self, name: str, scale: WorkloadScale) -> None:
        self.name = name
        self.scale = scale
        self.streams = StreamTable()
        self._next_base = PAGE
        self._chunks: list[list[tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in range(scale.n_cores)
        ]
        self._emitted = [0] * scale.n_cores
        self.phases: list[tuple[int, str]] = []

    def add_stream(
        self,
        name: str,
        kind: str,
        n_elements: int,
        elem_size: int,
        dims: tuple[int, ...] = (),
        order: int = 0,
        read_only: bool = True,
    ) -> StreamHandle:
        if n_elements <= 0:
            raise ValueError(f"stream {name} needs at least one element")
        size = n_elements * elem_size
        config = configure_stream(
            self.streams,
            kind,
            base=self._next_base,
            size=size,
            elem_size=elem_size,
            dims=dims,
            order=order,
            read_only=read_only,
            name=name,
        )
        self._next_base += (size + PAGE - 1) // PAGE * PAGE + PAGE
        return StreamHandle(config)

    def emit(self, core: int, addrs: np.ndarray, write: bool | np.ndarray = False) -> None:
        """Append an address chunk to a core's sequence.

        Chunks beyond ~1.2x the per-core access budget are dropped — the
        final build truncates to the budget anyway, so generating more
        would only waste memory.
        """
        if self.saturated(core):
            return
        addrs = np.asarray(addrs, dtype=np.int64)
        if isinstance(write, (bool, np.bool_)):
            writes = np.full(len(addrs), bool(write))
        else:
            writes = np.asarray(write, dtype=bool)
            if len(writes) != len(addrs):
                raise ValueError("write mask length mismatch")
        self._chunks[core].append((addrs, writes))
        self._emitted[core] += len(addrs)

    def emitted(self, core: int) -> int:
        return self._emitted[core]

    def saturated(self, core: int) -> bool:
        """True once every further :meth:`emit` to ``core`` is dropped.

        A generator may stop building a core's chunks from here on: the
        trace it produces is the same.
        """
        return self._emitted[core] >= self.scale.accesses_per_core * 1.2

    def full(self) -> bool:
        """True when every core has reached its access budget."""
        return all(
            count >= self.scale.accesses_per_core for count in self._emitted
        )

    def mark_phase(self, name: str) -> None:
        """Record a phase boundary at the current trace position."""
        done = sum(len(a) for a, _ in self._chunks[0])
        self.phases.append((done, name))

    def build(
        self, compute_cycles_per_access: float = 2.0, description: str = ""
    ) -> Workload:
        per_core = []
        limit = self.scale.accesses_per_core
        for chunks in self._chunks:
            if chunks:
                addrs = np.concatenate([a for a, _ in chunks])[:limit]
                writes = np.concatenate([w for _, w in chunks])[:limit]
            else:
                addrs = np.empty(0, dtype=np.int64)
                writes = np.empty(0, dtype=bool)
            per_core.append((addrs, writes))
        trace = interleave(per_core, seed=self.scale.seed)
        return Workload(
            name=self.name,
            streams=self.streams,
            trace=trace,
            compute_cycles_per_access=compute_cycles_per_access,
            description=description,
            phases=self.phases,
        )


def interleave_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two equal-length address arrays as a1 b1 a2 b2 ...

    Models loops that alternate between two structures (e.g. reading an
    edge id and then gathering the rank it points to).
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError("interleave_pairs needs equal-length arrays")
    out = np.empty(2 * len(a), dtype=np.int64)
    out[0::2] = a
    out[1::2] = b
    return out


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Vectorised ``concatenate([arange(s, s+l) for s, l in zip(...)])``.

    The workhorse for CSR traversals: given per-vertex edge-list starts
    and degrees, produce all edge ids without a Python-level loop.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if starts.shape != lengths.shape:
        raise ValueError("starts and lengths must have the same shape")
    if np.any(lengths < 0):
        raise ValueError("lengths cannot be negative")
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    offsets_in_concat = np.arange(total) - np.repeat(ends - lengths, lengths)
    return np.repeat(starts, lengths) + offsets_in_concat


def partition_range(n: int, parts: int, index: int) -> tuple[int, int]:
    """Contiguous partition [start, stop) of range(n) for worker ``index``."""
    if not 0 <= index < parts:
        raise ValueError("partition index out of range")
    base, extra = divmod(n, parts)
    start = index * base + min(index, extra)
    stop = start + base + (1 if index < extra else 0)
    return start, stop
