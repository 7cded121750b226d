"""Titan IV grain mesh configuration and generation."""

import math

import numpy as np
import pytest

from repro.gen.titan import (
    TitanConfig,
    titan_block,
    titan_blocks,
)


class TestConfig:
    def test_full_scale_matches_paper(self):
        """Paper: 120 blocks, 679 008 elements. Ours: 120 blocks,
        680 400 elements (within 0.5 %)."""
        config = TitanConfig()
        assert config.n_blocks == 120
        total = config.n_blocks * config.tets_per_block
        assert abs(total - 679_008) / 679_008 < 0.005
        assert total == 680_400

    def test_scaled_reduces_size(self):
        small = TitanConfig.scaled(0.2)
        assert small.n_blocks < 120
        assert small.tets_per_block < TitanConfig().tets_per_block

    def test_scaled_one_is_full(self):
        assert TitanConfig.scaled(1.0) == TitanConfig()

    def test_scaled_never_degenerate(self):
        for scale in (0.01, 0.05, 0.1, 0.3):
            config = TitanConfig.scaled(scale)
            assert config.cells_theta >= 2
            assert config.cells_z >= 2
            assert config.n_blocks >= 1

    def test_scaled_invalid(self):
        with pytest.raises(ValueError):
            TitanConfig.scaled(0.0)
        with pytest.raises(ValueError):
            TitanConfig.scaled(-1.0)

    def test_star_bore_radius_oscillates(self):
        config = TitanConfig()
        theta = np.linspace(0, 2 * math.pi, 100)
        radii = config.inner_radius(theta)
        assert radii.max() > config.r_bore
        assert radii.min() < config.r_bore
        assert radii.min() > 0


class TestBlockGeneration:
    @pytest.fixture(scope="class")
    def config(self):
        return TitanConfig.scaled(0.2)

    def test_block_count(self, config):
        blocks = list(titan_blocks(config))
        assert len(blocks) == config.n_blocks
        assert blocks[0].block_id == "block_0000"

    def test_blocks_valid_and_positive_volume(self, config):
        for block in titan_blocks(config):
            block.mesh.validate()
            assert block.mesh.total_volume() > 0

    def test_block_index_bounds(self, config):
        with pytest.raises(ValueError):
            titan_block(config, -1)
        with pytest.raises(ValueError):
            titan_block(config, config.n_blocks)

    def test_nodes_inside_annulus(self, config):
        for index in (0, config.n_blocks - 1):
            block = titan_block(config, index)
            radii = np.linalg.norm(block.mesh.nodes[:, :2], axis=1)
            assert radii.max() <= config.r_outer + 1e-9
            assert radii.min() >= config.r_bore * (
                1 - config.star_depth
            ) - 1e-9

    def test_axial_extent(self, config):
        z_all = []
        for block in titan_blocks(config):
            z_all.append(block.mesh.nodes[:, 2])
        z_all = np.concatenate(z_all)
        assert z_all.min() == pytest.approx(0.0)
        assert z_all.max() == pytest.approx(config.length)

    def test_neighbouring_blocks_share_interface_nodes(self, config):
        """Adjacent circumferential blocks duplicate their interface
        nodes — the paper's boundary duplication."""
        a = titan_block(config, 0)
        b = titan_block(config, 1)
        a_set = {tuple(np.round(p, 9)) for p in a.mesh.nodes}
        b_set = {tuple(np.round(p, 9)) for p in b.mesh.nodes}
        assert a_set & b_set

    def test_total_volume_close_to_annulus(self):
        """At decent angular resolution the mesh volume approaches
        pi (R^2 - r^2) L (chordal approximation from below)."""
        config = TitanConfig.scaled(0.6)
        total = sum(
            b.mesh.total_volume() for b in titan_blocks(config)
        )
        exact = math.pi * (
            config.r_outer ** 2 - config.r_bore ** 2
        ) * config.length
        assert 0.75 * exact < total < 1.02 * exact
