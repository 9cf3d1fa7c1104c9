"""Affine tag array (ATA): SRAM tags for affine-stream blocks (Section IV-C).

Affine streams are cached in 1 kB blocks whose tags live in on-chip SRAM —
a 4-byte tag per block.  To keep the tag SRAM bounded, the total DRAM
cache space usable by *all* affine streams in a unit is capped (16 MB in
the paper, yielding 64 kB of tags); allocations beyond the cap simply
don't happen, and the overflowing accesses stream from extended memory.

The ATA itself is a set-associative structure; the simulator models its
hit/miss behaviour through the shared cache primitives, so this module
carries the sizing math and the per-unit tag-cost accounting.  The
configurator enforces the affine-space cap when it allocates rows
(``CacheConfigurator.affine_rows_cap``).
"""

from __future__ import annotations

from dataclasses import dataclass

TAG_BYTES = 4


@dataclass(frozen=True)
class AffineTagArray:
    """Sizing/accounting for one unit's affine tag array."""

    block_bytes: int = 1024
    space_bytes: int = 16 * 1024 * 1024
    ways: int = 4

    def __post_init__(self) -> None:
        if self.block_bytes <= 0 or self.block_bytes & (self.block_bytes - 1):
            raise ValueError("block_bytes must be a positive power of two")
        if self.space_bytes < self.block_bytes:
            raise ValueError("affine space must hold at least one block")
        if self.ways < 1:
            raise ValueError("associativity must be at least 1")

    @property
    def n_blocks(self) -> int:
        return self.space_bytes // self.block_bytes

    @property
    def sram_bytes(self) -> int:
        """Tag SRAM cost: 4 bytes per block (64 kB at paper scale)."""
        return self.n_blocks * TAG_BYTES
