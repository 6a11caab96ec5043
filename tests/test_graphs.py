import re
from pathlib import Path

import numpy as np
import pytest

from netloc.graphs import (
    Graph,
    draw_connected_er,
    equitable_partition,
    is_connected,
    make_cycle,
    make_er,
    make_path,
    make_scale_free,
    make_star,
    make_wheel,
    naming,
    read_edgelist,
    write_edgelist,
)

from oracles import (
    adjacency_lists,
    adjacency_matrix,
    attention_neighborhoods,
    canonical_edges,
    colour_refinement,
    principal_eigenpair,
)


class TestGraphContainer:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self loop"):
            Graph(3, ((1, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, ((0, 3),))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, ((0, 1), (0, 1)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Graph(0)

    def test_neighbors_and_degrees(self):
        g = Graph(4, ((0, 1), (1, 2), (1, 3)))
        indptr, indices = g.csr
        lists = [sorted(indices[indptr[u] : indptr[u + 1]].tolist()) for u in range(g.n)]
        assert lists == [[1], [0, 2, 3], [1], [1]]
        assert g.degrees.tolist() == [1, 3, 1, 1]

    def test_adjacency_symmetric_zero_diag(self):
        g = make_wheel(9)
        a = adjacency_matrix(g)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0.0)
        assert a.sum() == 2 * g.m

    @pytest.mark.parametrize(
        "g",
        [
            make_cycle(7),
            make_path(6),
            make_star(9),
            make_wheel(8),
            make_er(30, 0.2, seed=4),
            make_scale_free(25, 2, seed=3),
            Graph(1),
            Graph(6, ((0, 1), (0, 2), (3, 5))),
        ],
        ids=["cycle", "path", "star", "wheel", "er", "scale_free", "n1", "disconnected"],
    )
    def test_loops_match_per_node_loop(self, g):
        expected = attention_neighborhoods(adjacency_lists(g))
        for name, got, want in zip(("tgt", "nbr", "starts"), g.loops, expected):
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_dense_places_each_pair_once(self):
        g = make_wheel(9)
        tgt, nbr, _ = g.loops
        np.testing.assert_array_equal(g.dense(np.ones(tgt.size)), adjacency_matrix(g) + np.eye(g.n))
        stacked = g.dense(np.stack([1.0 * (tgt != nbr), np.arange(1.0, tgt.size + 1)]))
        assert stacked.shape == (2, g.n, g.n)
        np.testing.assert_array_equal(stacked[0], adjacency_matrix(g))
        assert np.count_nonzero(stacked[1]) == tgt.size
        np.testing.assert_array_equal(stacked[1][tgt, nbr], np.arange(1.0, tgt.size + 1))


class TestDeterministicFamilies:
    def test_cycle_is_2_regular(self):
        g = make_cycle(7)
        assert g.m == 7
        assert np.all(g.degrees == 2)

    def test_path_endpoints(self):
        g = make_path(6)
        assert g.m == 5
        assert g.degrees.tolist() == [1, 2, 2, 2, 2, 1]

    def test_star_hub_is_node_zero(self):
        g = make_star(5)
        assert g.degrees.tolist() == [4, 1, 1, 1, 1]
        assert g.edges == ((0, 1), (0, 2), (0, 3), (0, 4))

    def test_wheel_degrees(self):
        # Hub degree n-1, rim degree 3, 2(n-1) edges.
        g = make_wheel(5)
        assert g.degrees.tolist() == [4, 3, 3, 3, 3]
        assert g.m == 8

    def test_size_validation(self):
        with pytest.raises(ValueError):
            make_cycle(2)
        with pytest.raises(ValueError):
            make_path(1)
        with pytest.raises(ValueError):
            make_star(1)
        with pytest.raises(ValueError):
            make_wheel(3)

    @pytest.mark.parametrize("n", [3, 4, 250])
    def test_cycle_edges_are_canonical(self, n):
        assert make_cycle(n).edges == canonical_edges((i, (i + 1) % n) for i in range(n))

    @pytest.mark.parametrize("n", [4, 5, 250])
    def test_wheel_edges_are_canonical(self, n):
        rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
        assert make_wheel(n).edges == canonical_edges([(i, 0) for i in range(1, n)] + rim)

    def test_cycle_200_principal_eigenvalue_is_two(self):
        # 2-regular graph: leading adjacency eigenvalue equals the degree.
        lam, _ = principal_eigenpair(adjacency_matrix(make_cycle(30)))
        assert abs(lam - 2.0) < 1e-10


class TestErdosRenyi:
    def test_p_one_is_complete(self):
        g = make_er(20, 1.0, seed=0)
        assert g.m == 20 * 19 // 2

    def test_p_zero_is_empty(self):
        assert make_er(20, 0.0, seed=0).m == 0

    def test_probability_validated(self):
        with pytest.raises(ValueError, match="probability"):
            make_er(5, 1.5, seed=0)

    def test_same_seed_same_graph(self):
        assert make_er(50, 0.1, seed=3).edges == make_er(50, 0.1, seed=3).edges

    def test_different_seed_usually_differs(self):
        assert make_er(50, 0.1, seed=3).edges != make_er(50, 0.1, seed=4).edges

    def test_draw_connected_er_keeps_the_first_connected_seed(self):
        rng, replay = np.random.default_rng(4), np.random.default_rng(4)
        g, seed = draw_connected_er(12, 0.2, rng, 1000)
        seeds = [int(replay.integers(2**63))]
        while not is_connected(make_er(12, 0.2, seeds[-1])):
            seeds.append(int(replay.integers(2**63)))
        assert len(seeds) > 1 and seed == seeds[-1] and g == make_er(12, 0.2, seed)
        assert rng.integers(2**63) == replay.integers(2**63)

    def test_draw_connected_er_gives_up_after_its_attempts(self):
        rng, replay = np.random.default_rng(0), np.random.default_rng(0)
        with pytest.raises(RuntimeError, match=re.escape("no connected G(5, 0.0000) instance in 3 attempts")):
            draw_connected_er(5, 0.0, rng, 3)
        replay.integers(2**63, size=3)
        assert rng.integers(2**63) == replay.integers(2**63)

    def test_mean_edge_count_200_seeds(self):
        # Mean over 200 instances within 3 sigma of C(n,2) p.
        n, p, reps = 1000, 0.01, 200
        mean_m = np.mean([make_er(n, p, seed=s).m for s in range(reps)])
        expect = n * (n - 1) / 2 * p
        sigma_mean = np.sqrt(n * (n - 1) / 2 * p * (1 - p) / reps)
        assert abs(mean_m - expect) <= 3 * sigma_mean


class TestScaleFree:
    def test_edge_count_exact(self):
        # Star seed on m+1 nodes (m edges) + m edges per grown node.
        n, m = 100, 2
        g = make_scale_free(n, m, seed=7)
        assert g.m == m * (n - m - 1) + m == 196

    def test_seed_graph_returned_unchanged(self):
        assert make_scale_free(3, 2, seed=0).edges == make_star(3).edges

    def test_connected_by_construction(self):
        for seed in range(10):
            assert is_connected(make_scale_free(60, 1, seed=seed))

    def test_params_validated(self):
        with pytest.raises(ValueError):
            make_scale_free(5, 0, seed=0)
        with pytest.raises(ValueError):
            make_scale_free(2, 2, seed=0)

    def test_same_seed_same_graph(self):
        assert make_scale_free(80, 3, seed=11).edges == make_scale_free(80, 3, seed=11).edges

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("at", ["smallest", "250"])
    def test_edges_are_canonical(self, m, at):
        n = m + 1 if at == "smallest" else 250
        g = make_scale_free(n, m, seed=m)
        # Each edge reversed and the list shuffled: only the canonical form is left to compare.
        flipped = [(j, i) for i, j in g.edges]
        np.random.default_rng(m).shuffle(flipped)
        assert g.edges == canonical_edges(flipped)
        # The seed star, then m edges from each grown node to m distinct earlier ones.
        assert g.edges[:m] == tuple((0, i) for i in range(1, m + 1))
        assert np.bincount([j for _, j in g.edges], minlength=n)[m + 1 :].tolist() == [m] * (n - m - 1)

    def test_heavier_degree_tail_than_er(self):
        # Same mean degree 2m; preferential attachment grows much larger hubs.
        n, m, reps = 200, 3, 50
        sf_max = np.mean([make_scale_free(n, m, seed=s).degrees.max() for s in range(reps)])
        er_max = np.mean([make_er(n, 2 * m / n, seed=s).degrees.max() for s in range(reps)])
        assert sf_max / er_max > 2.0


class TestInvariants:
    def test_degree_sum_is_twice_edges(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(5, 40))
            g = make_er(n, float(rng.uniform(0.05, 0.5)), seed=int(rng.integers(2**31)))
            assert int(g.degrees.sum()) == 2 * g.m

    def test_generated_graphs_are_simple(self):
        for seed in range(10):
            g = make_scale_free(50, 2, seed=seed)
            assert len(set(g.edges)) == g.m
            assert all(i < j for i, j in g.edges)


class TestConnectivity:
    def test_families_connected(self):
        for g in (make_cycle(9), make_path(9), make_star(9), make_wheel(9)):
            assert is_connected(g)

    def test_single_node(self):
        assert is_connected(Graph(1))

    def test_disconnected(self):
        assert not is_connected(Graph(4, ((0, 1), (2, 3))))
        assert not is_connected(Graph(3, ((0, 1),)))

    def test_too_few_edges_decided_without_a_search(self):
        # A per-node array for 10**12 nodes could not be allocated; the edge count settles it first.
        assert not is_connected(Graph(10**12))
        assert not is_connected(Graph(10**12, ((0, 1),)))


PARTITION_GRAPHS = {
    "cycle": lambda: make_cycle(12),
    "path": lambda: make_path(13),
    "star": lambda: make_star(9),
    "wheel": lambda: make_wheel(10),
    "er": lambda: make_er(30, 0.1, seed=3),
    "scale_free": lambda: make_scale_free(40, 1, seed=6),
    "disconnected": lambda: Graph(7, ((0, 1), (2, 3), (3, 4))),
}


class TestEquitablePartition:
    @pytest.mark.parametrize("start", ["uniform", "two-colours", "rows"])
    @pytest.mark.parametrize("family", sorted(PARTITION_GRAPHS))
    def test_classes_are_equitable_and_refine_the_start(self, family, start):
        g = PARTITION_GRAPHS[family]()
        colours = {
            "uniform": np.zeros(g.n),
            "two-colours": np.arange(g.n) % 2 == 0,
            "rows": np.column_stack([np.arange(g.n) % 3 == 0, np.arange(g.n) % 2 == 0]).astype(float),
        }[start]
        cls, s, b = equitable_partition(g, colours)
        assert s.tolist() == np.bincount(cls).tolist()
        # Every node of a class has the same count row, and b holds it.
        counts = adjacency_matrix(g) @ np.eye(s.size)[cls]
        np.testing.assert_array_equal(counts, b[cls])
        # Nodes of one class started with one colour.
        rows = np.asarray(colours, dtype=float).reshape(g.n, -1)
        for i in range(s.size):
            assert len({tuple(r) for r in rows[cls == i]}) == 1
        # The coarsest such partition, numbered by smallest node, as naive 1-WL finds it.
        assert cls.tolist() == colour_refinement(adjacency_lists(g), [tuple(r) for r in rows])

    @pytest.mark.parametrize(
        "g, k", [(make_cycle(30), 1), (make_star(30), 2), (make_wheel(30), 2)], ids=["cycle", "star", "wheel"]
    )
    def test_uniform_start_class_counts(self, g, k):
        assert equitable_partition(g, np.zeros(g.n))[1].size == k

    @pytest.mark.parametrize("n", [2, 3, 30, 31])
    def test_path_classes_are_mirror_pairs(self, n):
        cls, s, _ = equitable_partition(make_path(n), np.zeros(n))
        assert s.size == (n + 1) // 2
        np.testing.assert_array_equal(cls, np.minimum(np.arange(n), n - 1 - np.arange(n)))

    def test_discrete_partition_is_the_identity(self):
        g = make_er(25, 0.2, seed=9)
        cls, s, b = equitable_partition(g, np.random.default_rng(0).random((g.n, 3)))
        np.testing.assert_array_equal(cls, np.arange(g.n))
        np.testing.assert_array_equal(s, np.ones(g.n))
        np.testing.assert_array_equal(b, adjacency_matrix(g))

    def test_long_path_ends_with_mirror_classes(self):
        n = 2000
        cls, s, b = equitable_partition(make_path(n), np.zeros(n))
        np.testing.assert_array_equal(cls, np.minimum(np.arange(n), n - 1 - np.arange(n)))
        assert s.tolist() == [2] * (n // 2) and b[-1, -1] == 1.0


class TestEdgelistIO:
    def test_round_trip(self, tmp_path):
        g = make_scale_free(40, 2, seed=9)
        path = tmp_path / "g.edges"
        write_edgelist(g, path)
        assert read_edgelist(path) == g

    def test_format_shape(self, tmp_path):
        path = tmp_path / "g.edges"
        write_edgelist(make_path(3), path)
        assert path.read_text() == "3 2\n0 1\n1 2\n"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("3\n0 1\n")
        with pytest.raises(ValueError, match="header"):
            read_edgelist(path)

    def test_edge_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("3 2\n0 1\n")
        with pytest.raises(ValueError, match="claims 2 edges"):
            read_edgelist(path)

    def test_unordered_edge_rejected(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("3 1\n2 1\n")
        with pytest.raises(ValueError, match="i < j"):
            read_edgelist(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3 2\n\n0 1\n1 x\n", r":4: edge endpoints must be integers"),
            ("3 2\n0 1\n1 5\n", r":3: edge \(1,5\) out of range for n=3"),
            ("3 2\n0 1\n\n0 1\n", r":4: duplicate edge \(0,1\)"),
            ("\n0 0\n", r":2: graph needs at least one node, got n=0"),
            ("\n3 2\n0 1\n\n", r":2: header claims 2 edges, found 1"),
            ("3 2\n0 1\n\n\udcff 2\n", r":4: not UTF-8 text"),
        ],
        ids=["after-blank-line", "out-of-range", "duplicate", "no-nodes", "edge-count", "not-utf8"],
    )
    def test_errors_name_the_original_line(self, tmp_path, text, message):
        path = tmp_path / "bad.edges"
        # A lone surrogate U+DCXX is written as the raw byte 0xXX.
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}{message}"):
            read_edgelist(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.edges"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_edgelist(path)

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("Edge-list files are plain text") :]
        example = re.search(r"```text\n(.*?)```", section, re.S).group(1)
        path = tmp_path / "readme.edges"
        path.write_text(example)
        assert read_edgelist(path) == Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))


class TestNaming:
    @pytest.mark.parametrize("error", [ValueError("bad"), RuntimeError("bad"), MemoryError("bad")])
    def test_prefixes_the_path(self, error):
        with pytest.raises(type(error)) as info:
            with naming("a.edges"):
                raise error
        assert str(info.value) == "a.edges: bad"

    @pytest.mark.parametrize("error", [ValueError("bad"), RuntimeError("bad"), MemoryError("bad")])
    def test_inner_path_is_kept_alone(self, error):
        with pytest.raises(type(error)) as info:
            with naming("model.json"):
                with naming("a.edges"):
                    raise error
        assert str(info.value) == "a.edges: bad"

    def test_other_errors_pass_unchanged(self):
        with pytest.raises(KeyError) as info:
            with naming("a.edges"):
                raise KeyError("bad")
        assert info.value.args == ("bad",)
