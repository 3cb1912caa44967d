import numpy as np
import pytest

from repro.core import FAST, MINIMAL, STRONG, KappaPartitioner, metrics, partition_graph
from repro.generators import (
    delaunay_graph,
    preferential_attachment,
    random_geometric_graph,
    road_network,
)
from repro.graph import from_edge_list, grid2d_graph, validate_partition


class TestSequentialPipeline:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_feasible_partitions(self, k):
        g = delaunay_graph(800, seed=1)
        res = partition_graph(g, k, config=FAST, seed=0)
        validate_partition(g, res.partition.part, k, epsilon=0.03)
        assert res.levels > 1
        assert res.time_s > 0

    def test_quality_vs_trivial(self):
        # multilevel must beat a naive numbering split by a wide margin
        g = delaunay_graph(800, seed=1)
        res = partition_graph(g, 4, config=FAST, seed=0)
        naive = np.minimum(np.arange(g.n) * 4 // g.n, 3)
        assert res.cut < 0.5 * metrics.cut_value(g, naive)

    def test_strong_beats_minimal_on_average(self):
        g = delaunay_graph(800, seed=2)
        cuts_m, cuts_s = [], []
        for seed in range(3):
            cuts_m.append(partition_graph(g, 4, config=MINIMAL, seed=seed).cut)
            cuts_s.append(partition_graph(g, 4, config=STRONG, seed=seed).cut)
        assert np.mean(cuts_s) <= np.mean(cuts_m)

    def test_deterministic(self):
        g = random_geometric_graph(500, seed=3)
        a = partition_graph(g, 4, config=FAST, seed=7)
        b = partition_graph(g, 4, config=FAST, seed=7)
        assert np.array_equal(a.partition.part, b.partition.part)

    def test_seed_variation(self):
        g = random_geometric_graph(500, seed=3)
        a = partition_graph(g, 4, config=FAST, seed=1)
        b = partition_graph(g, 4, config=FAST, seed=2)
        # different seeds explore differently (cuts may tie, parts rarely)
        assert not np.array_equal(a.partition.part, b.partition.part)

    def test_k1(self):
        g = grid2d_graph(5, 5)
        res = partition_graph(g, 1, config=MINIMAL)
        assert res.cut == 0.0
        assert np.all(res.partition.part == 0)

    def test_k_equals_n_guard(self):
        g = grid2d_graph(2, 2)
        with pytest.raises(ValueError):
            partition_graph(g, 5)
        with pytest.raises(ValueError):
            partition_graph(g, 0)

    def test_invalid_execution(self):
        g = grid2d_graph(3, 3)
        with pytest.raises(ValueError):
            KappaPartitioner(FAST).partition(g, 2, execution="quantum")

    def test_social_network_no_coords(self):
        g = preferential_attachment(600, m_per_node=3, seed=4)
        res = partition_graph(g, 4, config=MINIMAL, seed=0)
        validate_partition(g, res.partition.part, 4, epsilon=0.03)

    def test_road_network(self):
        g = road_network(800, n_cities=6, seed=5)
        res = partition_graph(g, 4, config=FAST, seed=0)
        validate_partition(g, res.partition.part, 4, epsilon=0.03)

    def test_weighted_graph(self):
        rng = np.random.default_rng(6)
        g0 = delaunay_graph(300, seed=6)
        from repro.graph import Graph

        g = Graph(g0.xadj, g0.adjncy,
                  rng.integers(1, 10, 2 * g0.m).astype(float)[
                      np.argsort(np.argsort(np.arange(2 * g0.m)))],
                  rng.integers(1, 4, g0.n).astype(float),
                  validate=False)
        # symmetrise edge weights: rebuild through edge list
        us, vs, _ = g0.edge_array()
        from repro.graph import from_edge_list as fel

        g = fel(g0.n, np.stack([us, vs], axis=1),
                rng.integers(1, 10, g0.m).astype(float),
                rng.integers(1, 4, g0.n).astype(float))
        res = partition_graph(g, 4, config=FAST, seed=0)
        validate_partition(g, res.partition.part, 4, epsilon=0.03)


class TestClusterPipeline:
    @pytest.mark.parametrize("k", [2, 4])
    def test_cluster_matches_constraints(self, k):
        g = delaunay_graph(400, seed=7)
        res = KappaPartitioner(MINIMAL).partition(
            g, k, seed=0, execution="cluster"
        )
        validate_partition(g, res.partition.part, k, epsilon=0.03)
        assert res.sim_time_s is not None and res.sim_time_s > 0
        assert res.stats["messages_sent"] > 0

    def test_cluster_deterministic(self):
        g = delaunay_graph(300, seed=8)
        a = KappaPartitioner(MINIMAL).partition(g, 2, seed=3,
                                                execution="cluster")
        b = KappaPartitioner(MINIMAL).partition(g, 2, seed=3,
                                                execution="cluster")
        assert np.array_equal(a.partition.part, b.partition.part)
        assert a.sim_time_s == b.sim_time_s

    @pytest.mark.parametrize("family,k,expected", [
        ("delaunay", 2, "0x1.f3f725f0adc5ep-9"),
        ("delaunay", 4, "0x1.ad3fd7792d15cp-8"),
        ("rgg", 2, "0x1.3fc3573721c81p-9"),
        ("rgg", 4, "0x1.27ab0930f3f2bp-8"),
    ])
    def test_sim_clock_golden(self, family, k, expected):
        """Simulated makespans are bit-exact: Figure 3 plots them, so any
        change to the cost-model clock must show up here."""
        gen = {"delaunay": delaunay_graph,
               "rgg": random_geometric_graph}[family]
        res = partition_graph(gen(2000, seed=3), k, config=FAST, seed=1,
                              execution="cluster", engine="sim")
        assert res.sim_time_s.hex() == expected

    def test_cluster_quality_comparable_to_sequential(self):
        g = delaunay_graph(400, seed=9)
        seq = KappaPartitioner(FAST).partition(g, 4, seed=0)
        clu = KappaPartitioner(FAST).partition(g, 4, seed=0,
                                               execution="cluster")
        # both are full KaPPa runs; quality within 2x of each other
        assert clu.cut <= 2.0 * seq.cut
        assert seq.cut <= 2.0 * clu.cut


class TestInstrumentation:
    def test_level_cuts_trajectory(self):
        from repro.generators import delaunay_graph

        g = delaunay_graph(600, seed=5)
        res = partition_graph(g, 4, config=FAST, seed=0)
        # one entry for the coarsest initial partition plus one per level
        assert len(res.level_cuts) == res.levels
        # the finest entry matches the final result (up to the feasibility
        # repair, which rarely triggers)
        assert res.level_cuts[-1] >= res.cut - 1e9
        assert all(c >= 0 for c in res.level_cuts)

    def test_phase_times_sum(self):
        from repro.generators import delaunay_graph

        g = delaunay_graph(600, seed=5)
        res = partition_graph(g, 4, config=FAST, seed=0)
        total_phases = (res.stats["time_coarsen_s"]
                        + res.stats["time_initial_s"]
                        + res.stats["time_refine_s"])
        assert total_phases <= res.time_s + 1e-6
        assert total_phases >= 0.5 * res.time_s
