"""Matrix multiplication application tests."""

import math

import numpy as np
import pytest

from repro.apps import matmul
from repro.core.registry import get_strategy
from repro.network.machine import GCEL, ZERO_COST
from repro.network.mesh import Mesh2D


class TestSetup:
    def test_blocks_deterministic(self):
        mesh = Mesh2D(2, 2)
        a = matmul.make_blocks(mesh, 16, seed=3)
        b = matmul.make_blocks(mesh, 16, seed=3)
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_blocks_differ_across_seeds(self):
        mesh = Mesh2D(2, 2)
        a = matmul.make_blocks(mesh, 16, seed=3)
        b = matmul.make_blocks(mesh, 16, seed=4)
        assert not all(np.array_equal(a[k], b[k]) for k in a)

    def test_non_square_block_rejected(self):
        with pytest.raises(ValueError):
            matmul.make_blocks(Mesh2D(2, 2), 10)

    def test_non_square_mesh_rejected(self):
        with pytest.raises(ValueError):
            matmul.run_handopt(Mesh2D(2, 4), 16)

    def test_expected_square_matches_full_numpy(self):
        mesh = Mesh2D(2, 2)
        blocks = matmul.make_blocks(mesh, 16, seed=0)
        s = 4
        full = np.block([[blocks[(i, j)] for j in range(2)] for i in range(2)])
        sq = full @ full
        expect = matmul.expected_square(mesh, blocks)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(expect[(i, j)], sq[i * s : (i + 1) * s, j * s : (j + 1) * s])

    @pytest.mark.parametrize("side,block_entries", [(2, 16), (4, 1024), (16, 1024)])
    def test_expected_square_equals_an_int64_blocked_loop(self, side, block_entries):
        """The float64 blocks are exact (``make_blocks``' bound): the BLAS
        square equals a blocked square over int64 copies, entry for entry,
        at the benchmark's largest matrix (512 x 512) too."""
        mesh = Mesh2D(side, side)
        blocks = matmul.make_blocks(mesh, block_entries, seed=7)
        ints = {k: b.astype(np.int64) for k, b in blocks.items()}
        assert all(np.array_equal(ints[k], blocks[k]) for k in blocks)
        expect = matmul.expected_square(mesh, blocks)
        for i in range(side):
            for j in range(side):
                acc = np.zeros_like(ints[(0, 0)])
                for k in range(side):
                    acc += ints[(i, k)] @ ints[(k, j)]
                assert expect[(i, j)].dtype == np.float64
                assert np.array_equal(expect[(i, j)], acc)

    def test_block_multiply_ops(self):
        assert matmul.block_multiply_ops(16) == 2 * 4**3


@pytest.mark.parametrize("strategy", ["2-ary", "4-ary", "16-ary", "2-4-ary", "fixed-home"])
def test_diva_verifies_on_all_strategies(strategy):
    """The built-in verification compares against numpy; it raises on any
    mismatch, so success means the distributed result is exact."""
    mesh = Mesh2D(4, 4)
    res = matmul.run_diva(mesh, get_strategy(strategy, mesh), block_entries=16)
    assert res.extra["verified"]


def test_handopt_verifies():
    res = matmul.run_handopt(Mesh2D(4, 4), block_entries=16)
    assert res.extra["verified"]


class TestHandoptTraffic:
    def test_congestion_matches_closed_form(self):
        """Paper: the hand-optimized congestion is m*sqrtP entries -- per
        directed link, (sqrtP - 1) blocks of (payload + header) bytes (plus
        a few control-sized barrier messages sharing the phase)."""
        q, m = 4, 64
        mesh = Mesh2D(q, q)
        res = matmul.run_handopt(mesh, m, machine=GCEL)
        dist = [p for p in res.phases if p.name == "distribute"][0]
        wire = m * GCEL.word_bytes + GCEL.header_bytes
        expect = (q - 1) * wire
        assert expect <= dist.stats.congestion_bytes <= expect + q * q * GCEL.ctrl_bytes

    def test_total_load_is_4_directions(self):
        """Each row link direction carries sum_j (j+1) blocks; closed form
        total = 2 * q * 2 * sum_{k=1}^{q-1} k * wire for rows+columns (the
        trailing barrier adds a bounded control term)."""
        q, m = 4, 64
        mesh = Mesh2D(q, q)
        res = matmul.run_handopt(mesh, m, machine=GCEL)
        dist = [p for p in res.phases if p.name == "distribute"][0]
        wire = m * GCEL.word_bytes + GCEL.header_bytes
        per_line = sum(range(1, q)) * 2  # both directions of one row
        expect = per_line * q * 2 * wire  # rows + columns
        slack = 4 * q * q * GCEL.ctrl_bytes * 4  # barrier sweep bound
        assert expect <= dist.stats.total_bytes <= expect + slack

    def test_startups_about_2_sqrtp_per_node(self):
        """Paper: about 2*sqrt(P) (data) startups per node; forwarding plus
        injections stay within a small multiple of that."""
        q = 4
        res = matmul.run_handopt(Mesh2D(q, q), 64, machine=GCEL)
        dist = [p for p in res.phases if p.name == "distribute"][0]
        assert dist.stats.max_startups <= 4 * q + 4


class TestDivaTraffic:
    def test_access_tree_beats_fixed_home_congestion(self):
        mesh = Mesh2D(8, 8)
        at = matmul.run_diva(mesh, get_strategy("4-ary", mesh), 256)
        fh = matmul.run_diva(mesh, get_strategy("fixed-home", mesh), 256)
        assert at.congestion_bytes < fh.congestion_bytes
        assert at.stats.total_bytes < fh.stats.total_bytes

    def test_write_phase_is_control_dominated(self):
        """Paper: 'In the write phase, both strategies send only small
        invalidation messages.'"""
        mesh = Mesh2D(4, 4)
        res = matmul.run_diva(mesh, get_strategy("4-ary", mesh), 256)
        read = res.phase("read")
        write = res.phase("write")
        assert write.stats.congestion_bytes < 0.1 * read.stats.congestion_bytes

    def test_copies_return_to_initial_configuration(self):
        """Paper: 'At the end of the execution, the copies are left in the
        same configuration' -- the writer's sole copy."""
        mesh = Mesh2D(4, 4)
        strat = get_strategy("4-ary", mesh)
        res = matmul.run_diva(mesh, strat, 16)
        rt = res.extra["runtime"]
        for var in rt.registry:
            assert strat.copy_procs(var) == {var.creator}

    def test_communication_time_mode_has_zero_compute(self):
        mesh = Mesh2D(4, 4)
        res = matmul.run_diva(mesh, get_strategy("4-ary", mesh), 64, charge_compute=False)
        assert res.compute_time == 0.0

    def test_execution_time_mode_charges_compute(self):
        mesh = Mesh2D(4, 4)
        res = matmul.run_diva(mesh, get_strategy("4-ary", mesh), 64, charge_compute=True)
        assert res.compute_time > 0.0

    def test_larger_blocks_mean_more_congestion(self):
        mesh = Mesh2D(4, 4)
        small = matmul.run_diva(mesh, get_strategy("4-ary", mesh), 64)
        large = matmul.run_diva(mesh, get_strategy("4-ary", mesh), 256)
        assert large.congestion_bytes > 2 * small.congestion_bytes

    def test_deterministic_across_runs(self):
        mesh = Mesh2D(4, 4)
        a = matmul.run_diva(mesh, get_strategy("4-ary", mesh, seed=5), 64, seed=1)
        b = matmul.run_diva(mesh, get_strategy("4-ary", mesh, seed=5), 64, seed=1)
        assert a.time == b.time
        assert a.congestion_bytes == b.congestion_bytes
        assert a.stats.total_msgs == b.stats.total_msgs
