"""Tests for the Table II parameter presets."""

import dataclasses

import pytest

from repro.sim.params import (
    DDR5_4800,
    HBM3,
    HMC2,
    KB,
    MB,
    CoreParams,
    CxlParams,
    NocParams,
    SramCacheParams,
    StreamCacheParams,
    paper_hbm,
    paper_hmc,
    small,
    tiny,
)


class TestDramTimings:
    def test_hbm3_table_ii(self):
        assert HBM3.freq_mhz == 1600.0
        assert (HBM3.t_rcd, HBM3.t_cas, HBM3.t_rp) == (24, 24, 24)
        assert HBM3.rd_wr_pj_per_bit == 1.7
        assert HBM3.act_pre_nj == 0.6

    def test_hmc2_table_ii(self):
        assert HMC2.freq_mhz == 1250.0
        assert (HMC2.t_rcd, HMC2.t_cas, HMC2.t_rp) == (14, 14, 14)

    def test_ddr5_table_ii(self):
        assert DDR5_4800.freq_mhz == 2400.0
        assert (DDR5_4800.t_rcd, DDR5_4800.t_cas, DDR5_4800.t_rp) == (40, 40, 40)
        assert DDR5_4800.rd_wr_pj_per_bit == 3.2
        assert DDR5_4800.act_pre_nj == 3.3

    def test_row_hit_faster_than_miss(self):
        for timing in (HBM3, HMC2, DDR5_4800):
            assert timing.row_hit_ns < timing.row_miss_ns

    def test_hbm_row_hit_ns(self):
        # 24 cycles at 1600 MHz = 15 ns.
        assert HBM3.row_hit_ns == pytest.approx(15.0)
        assert HBM3.row_miss_ns == pytest.approx(45.0)

    def test_access_energy(self):
        hit = HBM3.access_energy_nj(64, row_miss=False)
        miss = HBM3.access_energy_nj(64, row_miss=True)
        assert miss == pytest.approx(hit + 0.6)
        assert hit == pytest.approx(64 * 8 * 1.7 / 1000.0)


class TestPaperPresets:
    def test_paper_hbm_scale(self):
        config = paper_hbm()
        assert config.n_stacks == 8
        assert config.units_per_stack == 16
        assert config.n_units == 128
        assert config.n_cores == 128
        assert config.unit_cache_bytes == 256 * MB
        assert config.total_cache_bytes == 32 * 1024 * MB  # 32 GB across units

    def test_paper_hmc_uses_hmc_timing(self):
        assert paper_hmc().ndp_dram.name == "hmc2"
        assert paper_hmc().memory_style == "hmc"

    def test_core_params(self):
        core = paper_hbm().core
        assert core.freq_ghz == 2.0
        assert core.l1i.size_bytes == 32 * KB
        assert core.l1i.ways == 2
        assert core.l1d.size_bytes == 64 * KB
        assert core.l1d.ways == 4

    def test_noc_table_ii(self):
        noc = paper_hbm().noc
        assert noc.intra_hop_ns == 1.5
        assert noc.inter_hop_ns == 10.0
        assert noc.inter_bw_gbps == 32.0

    def test_cxl_table_ii(self):
        cxl = paper_hbm().cxl
        assert cxl.link_ns == 200.0
        assert cxl.pj_per_bit == 11.4
        assert cxl.lanes == 16

    def test_stream_params(self):
        stream = paper_hbm().stream
        assert stream.slb_entries == 32
        assert stream.affine_block_bytes == 1 * KB
        assert stream.affine_space_bytes == 16 * MB
        assert stream.samplers_per_unit == 4
        assert stream.sampler_sets == 32
        assert stream.sampler_points == 64
        assert stream.max_streams == 512


class TestScaledPresets:
    def test_small_is_smaller(self):
        assert small().total_cache_bytes < paper_hbm().total_cache_bytes

    def test_small_hmc_variant(self):
        assert small("hmc").ndp_dram.name == "hmc2"

    def test_tiny_runs_few_units(self):
        assert tiny().n_units == 4

    def test_rows_per_unit(self):
        config = small()
        assert (
            config.rows_per_unit * config.ndp_dram.row_bytes
            == config.unit_cache_bytes
        )

    def test_scaled_override(self):
        config = small().scaled(epoch_accesses=123)
        assert config.epoch_accesses == 123

    def test_invalid_memory_style_rejected(self):
        with pytest.raises(ValueError):
            small().scaled(memory_style="weird")

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            small().scaled(stacks_x=0)


class TestParamValidation:
    def test_dram_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            dataclasses.replace(HBM3, freq_mhz=0.0)

    def test_dram_rejects_negative_timing(self):
        with pytest.raises(ValueError):
            dataclasses.replace(HBM3, t_cas=-1)

    def test_dram_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            dataclasses.replace(HBM3, row_bytes=0)
        with pytest.raises(ValueError):
            dataclasses.replace(HBM3, banks=0)

    def test_dram_rejects_negative_energy(self):
        with pytest.raises(ValueError):
            dataclasses.replace(HBM3, act_pre_nj=-0.1)

    def test_cxl_rejects_zero_lanes(self):
        with pytest.raises(ValueError):
            CxlParams(lanes=0)
        with pytest.raises(ValueError):
            CxlParams(channels=0)

    def test_cxl_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            CxlParams(link_ns=-1.0)

    def test_noc_rejects_negative_hop(self):
        with pytest.raises(ValueError):
            NocParams(intra_hop_ns=-1.0)

    def test_noc_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            NocParams(inter_bw_gbps=0.0)
        with pytest.raises(ValueError):
            NocParams(link_bits=0)

    def test_sram_rejects_degenerate_geometry(self):
        with pytest.raises(ValueError):
            SramCacheParams(size_bytes=0, ways=2)
        with pytest.raises(ValueError):
            SramCacheParams(size_bytes=1 * KB, ways=0)
        # Fewer lines than ways: not even one full set.
        with pytest.raises(ValueError):
            SramCacheParams(size_bytes=128, ways=4, line_bytes=64)

    def test_sram_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            SramCacheParams(size_bytes=1 * KB, ways=2, hit_ns=-0.5)

    def test_core_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            CoreParams(freq_ghz=0.0)

    @pytest.mark.parametrize("k", [0, -3])
    def test_stream_rejects_non_positive_sampler_sets(self, k):
        with pytest.raises(ValueError, match="sampler_sets"):
            StreamCacheParams(sampler_sets=k)

    def test_all_presets_pass_validation(self):
        # Construction itself runs every __post_init__.
        for preset in (paper_hbm, paper_hmc, small, tiny):
            preset()
