"""Tests for the affine tag array sizing."""

import pytest

from repro.core.ata import AffineTagArray


class TestSizing:
    def test_paper_configuration(self):
        """16 MB affine space / 1 kB blocks -> 16k tags -> 64 kB SRAM."""
        ata = AffineTagArray(block_bytes=1024, space_bytes=16 * 1024 * 1024)
        assert ata.n_blocks == 16 * 1024
        assert ata.sram_bytes == 64 * 1024

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ValueError):
            AffineTagArray(block_bytes=1000, space_bytes=1 << 20)

    def test_rejects_space_below_block(self):
        with pytest.raises(ValueError):
            AffineTagArray(block_bytes=1024, space_bytes=512)

    def test_rejects_zero_ways(self):
        with pytest.raises(ValueError):
            AffineTagArray(ways=0)

