import hashlib
import tracemalloc

import numpy as np
import pytest

import netloc.features
from netloc.features import (
    FEATURE_COLUMNS,
    avg_neighbor_degree,
    betweenness_centrality,
    build_feature_matrices,
    build_feature_matrix,
    closeness_centrality,
    clustering_coefficient,
    degree_centrality,
    pagerank,
)
from netloc.graphs import Graph, draw_connected_er, is_connected, make_cycle, make_er, make_path, make_scale_free, make_star, make_wheel

from oracles import (
    adjacency_lists,
    adjacency_matrix,
    avg_neighbor_degree_dense,
    betweenness_by_enumeration,
    closeness_by_bfs,
    clustering_by_enumeration,
    clustering_dense,
    pagerank_by_solve,
    pagerank_dense,
)


def complete_graph(n):
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def random_connected(n, p, seed):
    for s in range(seed, seed + 50):
        g = make_er(n, p, seed=s)
        if is_connected(g):
            return g
    raise AssertionError("no connected sample found")


def six_families(n, seed=0):
    """One graph of each family DatasetSpec knows, all on n nodes (no wheel below 4)."""
    graphs = {
        "cycle": make_cycle(n),
        "path": make_path(n),
        "star": make_star(n),
        "er": random_connected(n, min(1.0, 4.0 / n), seed),
        "scale_free": make_scale_free(n, 2, seed=seed),
    }
    if n >= 4:
        graphs["wheel"] = make_wheel(n)
    return graphs


def csr_column_graphs():
    """Every family at n = 3..60, plus the shapes the CSR columns must not trip on."""
    graphs = [g for n in range(3, 61) for g in six_families(n, seed=n).values()]
    return graphs + [
        complete_graph(9),
        Graph(1),
        Graph(5),
        Graph(8, ((0, 1), (0, 2), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6))),
    ]


def relabelled(g, perm):
    """``g`` with node i renamed ``perm[i]``."""
    return Graph(g.n, tuple(tuple(sorted((int(perm[i]), int(perm[j])))) for i, j in g.edges))


def assert_matches_oracles(g):
    """Betweenness equals the enumeration oracle's, and closeness the BFS oracle's (or -1 sums if disconnected)."""
    adj = adjacency_lists(g)
    np.testing.assert_allclose(betweenness_centrality(g), betweenness_by_enumeration(adj), rtol=0.0, atol=1e-15)
    if is_connected(g):
        np.testing.assert_array_equal(closeness_centrality(g), closeness_by_bfs(adj))
    else:
        np.testing.assert_array_equal(netloc.features._shortest_paths(g)[1], np.full(g.n, -1))


def swept_sources(monkeypatch, g):
    """The BFS sources the betweenness pass sweeps on ``g``, in order."""
    seen = []
    sweep = netloc.features._sweep

    def spy(indptr, indices, deg, sources, *rest):
        seen.append(sources.copy())
        return sweep(indptr, indices, deg, sources, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(netloc.features, "_sweep", spy)
        betweenness_centrality(g)
    return np.concatenate(seen).tolist()


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, tuple(tuple(sorted(e)) for e in outer + spokes + inner))


def pendant_graphs():
    """Graphs with degree-1 nodes wherever the BFS pass can meet them."""
    clique = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    ring = [(i, i + 1) for i in range(5)] + [(0, 5)]
    return [
        *(make_path(n) for n in (2, 3, 4, 7)),
        # A clique with a three-edge tail: one pendant, anchored on the tail.
        Graph(8, tuple(clique) + ((4, 5), (5, 6), (6, 7))),
        # A 6-cycle with three pendants on node 0 and one on node 3.
        Graph(10, tuple(ring) + ((0, 6), (0, 7), (0, 8), (3, 9))),
        *(make_scale_free(30, 1, seed=s) for s in range(3)),
        # Path 0-1-2, a K2 component 3-4 and an isolated node 5.
        Graph(6, ((0, 1), (1, 2), (3, 4))),
        # A star beside a K2: its leaves' component is smaller than n.
        Graph(7, ((0, 1), (0, 2), (0, 3), (0, 4), (5, 6))),
    ]


class TestClustering:
    def test_complete_graph_all_ones(self):
        np.testing.assert_array_equal(clustering_coefficient(complete_graph(4)), np.ones(4))

    def test_wheel5_hub(self):
        # Hub of the 5-node wheel touches a 4-cycle rim: 2 closed pairs of 6.
        c = clustering_coefficient(make_wheel(5))
        assert abs(c[0] - 2.0 / 3.0) < 1e-12

    def test_wheel6_hub(self):
        # 5-node rim: 5 hub triangles out of C(5,2)=10 neighbor pairs.
        c = clustering_coefficient(make_wheel(6))
        assert abs(c[0] - 0.5) < 1e-12

    def test_triangle_free_zero(self):
        np.testing.assert_array_equal(clustering_coefficient(make_cycle(8)), np.zeros(8))
        np.testing.assert_array_equal(clustering_coefficient(make_star(8)), np.zeros(8))

    def test_matches_enumeration_oracle(self):
        for seed in range(5):
            g = make_er(12, 0.4, seed=seed)
            np.testing.assert_allclose(
                clustering_coefficient(g),
                clustering_by_enumeration(adjacency_lists(g)),
                atol=1e-12,
            )


class TestPagerank:
    def test_cycle_uniform(self):
        np.testing.assert_allclose(pagerank(make_cycle(10)), np.full(10, 0.1), atol=1e-9)

    def test_sums_to_one(self):
        g = random_connected(25, 0.2, seed=3)
        assert abs(pagerank(g).sum() - 1.0) < 1e-8

    def test_path3_matches_solve_oracle(self):
        g = make_path(3)
        np.testing.assert_allclose(pagerank(g), pagerank_by_solve(adjacency_matrix(g)), atol=1e-9)

    def test_random_matches_solve_oracle(self):
        for seed in range(4):
            g = random_connected(15, 0.25, seed=10 * seed)
            np.testing.assert_allclose(pagerank(g), pagerank_by_solve(adjacency_matrix(g)), atol=1e-8)

    def test_star_hub_dominates(self):
        p = pagerank(make_star(20))
        assert p[0] > p[1:].max()

    def test_isolated_node_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            pagerank(Graph(3, ((0, 1),)))


class TestDegreeCentrality:
    def test_star(self):
        d = degree_centrality(make_star(5))
        assert d[0] == 1.0
        np.testing.assert_allclose(d[1:], 0.25)

    def test_complete(self):
        np.testing.assert_array_equal(degree_centrality(complete_graph(6)), np.ones(6))


class TestBetweenness:
    def test_star_hub_one(self):
        for n in (5, 500):
            b = betweenness_centrality(make_star(n))
            assert abs(b[0] - 1.0) < 1e-12
            np.testing.assert_allclose(b[1:], 0.0, atol=1e-12)

    def test_path4_inner(self):
        # Inner nodes of a 4-path sit on 2 of the 3 pairs they can broker.
        b = betweenness_centrality(make_path(4))
        np.testing.assert_allclose(b, [0.0, 2.0 / 3.0, 2.0 / 3.0, 0.0], atol=1e-12)

    def test_cycle5(self):
        # Each node bisects exactly one opposing pair's two equal routes.
        np.testing.assert_allclose(betweenness_centrality(make_cycle(5)), np.full(5, 1.0 / 6.0), atol=1e-12)

    def test_matches_enumeration_oracle(self):
        graphs = [random_connected(11, 0.3, seed=seed * 7) for seed in range(6)]
        for n in (5, 12):
            graphs.extend(six_families(n, seed=n).values())
        for g in graphs:
            np.testing.assert_allclose(
                betweenness_centrality(g),
                betweenness_by_enumeration(adjacency_lists(g)),
                atol=1e-10,
            )

    def test_path500_closed_form(self):
        # Node i brokers every pair with one end on each side: i * (n-1-i) pairs.
        n = 500
        i = np.arange(n)
        expected = i * (n - 1 - i) / ((n - 1) * (n - 2) / 2.0)
        np.testing.assert_allclose(betweenness_centrality(make_path(n)), expected, rtol=1e-12, atol=0.0)

    def test_disconnected_graph_allowed(self):
        # Path 0-1-2, edge 3-4, isolated node 5: only node 1 brokers a pair.
        g = Graph(6, ((0, 1), (1, 2), (3, 4)))
        b = betweenness_centrality(g)
        np.testing.assert_allclose(b, [0.0, 0.1, 0.0, 0.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(b, betweenness_by_enumeration(adjacency_lists(g)), atol=1e-15)

    def test_tiny_graphs_zero(self):
        np.testing.assert_array_equal(betweenness_centrality(make_path(2)), np.zeros(2))
        np.testing.assert_array_equal(betweenness_centrality(Graph(1)), np.zeros(1))


class TestCloseness:
    def test_star(self):
        c = closeness_centrality(make_star(8))
        assert abs(c[0] - 1.0) < 1e-12
        # A leaf is 1 hop from the hub and 2 from the other six leaves.
        np.testing.assert_allclose(c[1:], 7.0 / 13.0, atol=1e-12)

    def test_path3_center(self):
        np.testing.assert_allclose(closeness_centrality(make_path(3)), [2.0 / 3.0, 1.0, 2.0 / 3.0])

    def test_star500_closed_form(self):
        n = 500
        c = closeness_centrality(make_star(n))
        assert c[0] == 1.0
        np.testing.assert_array_equal(c[1:], (n - 1) / (1 + 2 * (n - 2)))

    def test_path500_closed_form(self):
        # Node i sums 1..i to the left and 1..(n-1-i) to the right.
        n = 500
        i = np.arange(n)
        totals = i * (i + 1) // 2 + (n - 1 - i) * (n - i) // 2
        np.testing.assert_array_equal(closeness_centrality(make_path(n)), (n - 1) / totals)

    def test_matches_bfs_oracle(self):
        for n in (4, 12, 60):
            for g in six_families(n, seed=n).values():
                np.testing.assert_array_equal(closeness_centrality(g), closeness_by_bfs(adjacency_lists(g)))

    def test_single_node_zero(self):
        np.testing.assert_array_equal(closeness_centrality(Graph(1)), np.zeros(1))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            closeness_centrality(Graph(4, ((0, 1), (2, 3))))


class TestAvgNeighborDegree:
    def test_star(self):
        a = avg_neighbor_degree(make_star(6))
        assert a[0] == 1.0
        np.testing.assert_array_equal(a[1:], 5.0)

    def test_regular_graph_constant(self):
        np.testing.assert_array_equal(avg_neighbor_degree(make_cycle(9)), np.full(9, 2.0))


class TestCsrColumns:
    """The CSR columns against their dense-matrix forms, and what they allocate."""

    def test_clustering_and_neighbor_degree_bit_equal_dense(self):
        for g in csr_column_graphs():
            a = adjacency_matrix(g)
            np.testing.assert_array_equal(clustering_coefficient(g), clustering_dense(a))
            np.testing.assert_array_equal(avg_neighbor_degree(g), avg_neighbor_degree_dense(a))

    def test_clustering_blocks_match_dense(self, monkeypatch):
        graphs = list(six_families(60, seed=4).values()) + [complete_graph(12)]
        # One candidate edge per block, then blocks of a few edges each.
        for budget in (1, 50):
            monkeypatch.setattr(netloc.features, "_BLOCK_PAIRS", budget)
            for g in graphs:
                np.testing.assert_array_equal(clustering_coefficient(g), clustering_dense(adjacency_matrix(g)))

    def test_pagerank_matches_dense_iteration(self):
        # Only the summation order differs from the dense matvec.
        for g in csr_column_graphs():
            if g.n > 1 and g.degrees.min() > 0:
                np.testing.assert_allclose(pagerank(g), pagerank_dense(adjacency_matrix(g)), rtol=4e-15, atol=0.0)

    def test_feature_pass_builds_no_dense_adjacency(self, monkeypatch):
        graphs = [g for n in (4, 60) for g in six_families(n, seed=n).values()]

        def refuse(self, values):
            raise AssertionError("the feature pass built a dense adjacency")

        monkeypatch.setattr(Graph, "dense", refuse)
        for g in graphs:
            assert build_feature_matrix(g).shape == (g.n, len(FEATURE_COLUMNS))

    def test_csr_columns_stay_small_at_n3000(self):
        # A dense n x n float64 adjacency alone would take 72 MB here.
        g = make_scale_free(3000, 2, seed=1)
        tracemalloc.start()
        try:
            clustering_coefficient(g)
            pagerank(g)
            avg_neighbor_degree(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestFeatureMatrix:
    def test_shape_and_range(self):
        g = random_connected(30, 0.15, seed=2)
        x = build_feature_matrix(g)
        assert x.shape == (30, len(FEATURE_COLUMNS))
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_cycle_is_all_zero(self):
        # Vertex-transitive graph: every column is constant, so scaling zeroes it.
        np.testing.assert_array_equal(build_feature_matrix(make_cycle(12)), np.zeros((12, 7)))

    def test_star_scaled_endpoints(self):
        x = build_feature_matrix(make_star(10))
        # Hub maxes degree-like columns; leaves share the minimum.
        assert x[0, 2] == 1.0 and np.all(x[1:, 2] == 0.0)
        assert x[0, 3] == 1.0

    def test_constant_column_zeroed(self):
        x = build_feature_matrix(make_star(10))
        # Every star node has clustering 0, so the scaled column is all zeros.
        np.testing.assert_array_equal(x[:, 0], np.zeros(10))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            build_feature_matrix(Graph(4, ((0, 1), (2, 3))))

    def test_source_blocks_match_one_sweep(self, monkeypatch):
        graphs = list(six_families(60, seed=3).values()) + [Graph(7, ((0, 1), (1, 2), (4, 5)))]
        whole = [(betweenness_centrality(g), g) for g in graphs]
        # One source per block, then 60 nodes in blocks of 7 (the last holds 4).
        for budget in (1, 420):
            monkeypatch.setattr(netloc.features, "_BLOCK_PAIRS", budget)
            for b, g in whole:
                np.testing.assert_allclose(betweenness_centrality(g), b, rtol=1e-12, atol=1e-15)
                if g.n == 60:
                    np.testing.assert_array_equal(closeness_centrality(g), closeness_by_bfs(adjacency_lists(g)))

    @pytest.mark.parametrize("budget", [1, 50, netloc.features._BLOCK_PAIRS], ids=["1", "50", "default"])
    def test_pendant_fold_matches_oracles(self, monkeypatch, budget):
        # Budgets of 1 and 50 pairs put anchors and plain sources in different blocks.
        monkeypatch.setattr(netloc.features, "_BLOCK_PAIRS", budget)
        for g in pendant_graphs():
            assert_matches_oracles(g)

    def test_pendants_are_not_swept(self, monkeypatch):
        cases = [
            (make_star(500), [0]),
            # One source per orbit: the rotation makes the cycle one orbit,
            # and fails on the path, whose middle node no automorphism moves.
            (make_cycle(40), [0]),
            (make_path(5), [1, 2, 3]),
            # The K2 component's two degree-1 nodes are both swept.
            (Graph(6, ((0, 1), (1, 2), (3, 4))), [1, 3, 4, 5]),
        ]
        for g, sources in cases:
            assert swept_sources(monkeypatch, g) == sources

    def test_permutation_invariance(self):
        g = random_connected(14, 0.3, seed=5)
        x = build_feature_matrix(g)
        perm = np.random.default_rng(0).permutation(g.n)
        xp = build_feature_matrix(relabelled(g, perm))
        np.testing.assert_allclose(xp[perm], x, atol=1e-10)


class TestOrbitSweep:
    """One BFS source per orbit of a verified automorphism."""

    def test_one_source_per_orbit(self, monkeypatch):
        cases = [
            (make_cycle(40), [0]),
            # The hub, then one rim node for the whole rim.
            (make_wheel(30), [0, 1]),
            # The rotation swaps 0 with 3 and 1 with 2; pendants 0 and 3 fold into 1 and 2.
            (make_path(4), [1]),
            # The rotation does not map the edges of a relabelled cycle onto themselves.
            (relabelled(make_cycle(40), np.random.default_rng(1).permutation(40)), list(range(40))),
        ]
        for g, sources in cases:
            assert swept_sources(monkeypatch, g) == sources

    @pytest.mark.parametrize("family", ["cycle", "path", "star", "wheel"])
    def test_relabelled_graph_gives_the_permuted_features(self, family):
        # The original is swept from one source per orbit. The rotation fails on
        # most relabelled graphs, which are swept from every source, but holds on
        # a relabelled star (its leaves are one degree class) and on n <= 4.
        make = {"cycle": make_cycle, "path": make_path, "star": make_star, "wheel": make_wheel}[family]
        for n in [*range(4 if family == "wheel" else 3, 81), 450]:
            g = make(n)
            perm = np.random.default_rng(n).permutation(n)
            x, xp = build_feature_matrix(g), build_feature_matrix(relabelled(g, perm))[perm]
            if family == "wheel":
                # The rim's PageRank and betweenness sums run in another order.
                np.testing.assert_allclose(xp, x, rtol=0.0, atol=1e-15)
            else:
                np.testing.assert_array_equal(xp, x)

    def test_rejected_candidate_is_never_used(self, monkeypatch):
        # The Petersen graph is 3-regular, so the rotation maps degrees, but it
        # takes edge 0-4 to 1-5.
        ring = relabelled(make_cycle(12), np.random.default_rng(2).permutation(12))
        for g in (petersen(), ring):
            assert swept_sources(monkeypatch, g) == list(range(g.n))
            assert_matches_oracles(g)

    @pytest.mark.parametrize("budget", [1, 50, 420])
    def test_orbit_blocks_match_the_oracles(self, monkeypatch, budget):
        # Small budgets split one orbit's representatives over several blocks.
        monkeypatch.setattr(netloc.features, "_BLOCK_PAIRS", budget)
        for g in [make_cycle(31), make_cycle(32), make_wheel(25)]:
            assert_matches_oracles(g)


class TestGroupPass:
    """Many graphs in one pass over their disjoint union."""

    @staticmethod
    def mixed_group():
        """Every shape the per-graph tests meet, shuffled into one group."""
        graphs = [g for n in range(3, 61) for g in six_families(n, seed=n).values()]
        graphs += [Graph(1), Graph(2, ((0, 1),)), make_path(3), complete_graph(3), Graph(2), Graph(3), Graph(5)]
        graphs += pendant_graphs() + [petersen(), relabelled(make_cycle(40), np.random.default_rng(1).permutation(40))]
        return [graphs[i] for i in np.random.default_rng(0).permutation(len(graphs))]

    @pytest.mark.parametrize("budget", [1, 50, 420, netloc.features._BLOCK_PAIRS], ids=["1", "50", "420", "default"])
    def test_group_equals_alone(self, monkeypatch, budget):
        # Budgets of 1 to 420 pairs split graphs into source blocks, put one
        # graph in a block, or a few small ones.
        monkeypatch.setattr(netloc.features, "_BLOCK_PAIRS", budget)
        graphs = self.mixed_group()
        for g, b, t in zip(graphs, *netloc.features._group_shortest_paths(graphs)):
            alone = netloc.features._shortest_paths(g)
            np.testing.assert_array_equal(b, alone[0])
            np.testing.assert_array_equal(t, alone[1])
        ranked = [g for g in graphs if g.n == 1 or g.degrees.min() > 0]
        for g, p in zip(ranked, netloc.features._group_pagerank(ranked)):
            np.testing.assert_array_equal(p, pagerank(g))
        built = [g for g in ranked if is_connected(g)]
        for g, x in zip(built, build_feature_matrices(built)):
            np.testing.assert_array_equal(x, build_feature_matrix(g))

    def test_blocks_take_whole_graphs_up_to_the_largest_squared(self, monkeypatch):
        # A 40-cycle sweeps one source, a relabelled one all 40, so a block of
        # 40**2 pairs holds 40 cycles, or one relabelled cycle alone.
        ring = relabelled(make_cycle(40), np.random.default_rng(1).permutation(40))
        rows = []
        sweep = netloc.features._sweep

        def spy(indptr, indices, deg, sources, *rest):
            rows.append(sources.size)
            return sweep(indptr, indices, deg, sources, *rest)

        monkeypatch.setattr(netloc.features, "_sweep", spy)
        netloc.features._group_shortest_paths([make_cycle(40)] * 41 + [ring, ring])
        assert rows == [40, 1, 40, 40]

    def test_group_peak_memory_is_that_of_its_largest_graph(self):
        # No block holds more pairs than the largest graph sweeps alone, so 200
        # cycles and stars add little to the peak of one ER graph of that size.
        rng = np.random.default_rng(0)
        graphs = [(make_cycle if i % 2 else make_star)(int(rng.integers(30, 41))) for i in range(200)]
        n = max(g.n for g in graphs)
        graphs.append(random_connected(n, 8.0 / n, seed=0))
        for g in graphs:
            g.csr, g.csr_rows
        # numpy imports some modules on first use; keep them out of the peaks.
        build_feature_matrices(graphs[:2] + graphs[-1:])

        def peak(group):
            tracemalloc.start()
            try:
                build_feature_matrices(group)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(graphs) <= 2 * peak(graphs[-1:])


def test_feature_bits_are_pinned():
    # The four deterministic families at every size from their smallest to 80,
    # then seeded ER (mean degree 8) and scale-free (m = 2) graphs at n = 60 and 150.
    families = ((make_cycle, 3), (make_path, 2), (make_star, 2), (make_wheel, 4))
    graphs = [make(n) for make, lo in families for n in range(lo, 81)]
    for n in (60, 150):
        graphs.append(draw_connected_er(n, 8.0 / n, np.random.default_rng(n), 100)[0])
        graphs.append(make_scale_free(n, 2, seed=n))
    digest = hashlib.sha256()
    for g, x in zip(graphs, build_feature_matrices(graphs)):
        digest.update(f"{g.n} {g.m}\n".encode() + x.tobytes())
    assert digest.hexdigest() == "732d963aca380f0eb340b576973ddd0a1b43f491f1f3d4e2a066c0c6ba8bf607"
