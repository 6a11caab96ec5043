import hashlib

import numpy as np
import pytest

from netloc.data import (
    FAMILIES,
    DatasetFormatError,
    DatasetSpec,
    LabeledGraph,
    ParseError,
    build_synthetic,
    feature_matrices,
    ingest_tu_dataset,
    load_dataset,
    preprocess,
    save_dataset,
    split,
)
import netloc.features
from netloc.features import build_feature_matrix
from netloc.graphs import Graph, make_cycle, make_er, make_star
from netloc.spectral import ConvergenceError, ipr, power_iteration


def small_spec(**overrides):
    base = dict(
        families=("cycle", "star"),
        train_count=6,
        test_count=4,
        train_size_range=(10, 14),
        test_size_range=(15, 20),
        seed=0,
    )
    base.update(overrides)
    return DatasetSpec(**base)


class TestDatasetSpec:
    def test_round_trip(self):
        spec = small_spec(families=("er", "scale_free"), er_mean_degree=6.0, sf_m=3)
        assert DatasetSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            small_spec(families=("cycle", "hypercube"))

    def test_size_range_respects_family_minimum(self):
        with pytest.raises(ValueError, match="n >="):
            small_spec(families=("wheel",), train_size_range=(3, 10))

    def test_negative_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            small_spec(train_count=-1)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -5$"):
            small_spec(seed=-5)

    @pytest.mark.parametrize(
        "overrides, reason",
        [
            (dict(label_tol=0.0), "label_tol must be positive, got 0.0"),
            (dict(label_tol=float("nan")), "label_tol must be positive, got nan"),
            (dict(label_max_iter=0), "label_max_iter must be >= 1, got 0"),
            (dict(families=("er",), train_size_range=(5, 6)), "starts at 5, but these families need n >= 8"),
            (dict(families=("er",), er_mean_degree=7.5, test_size_range=(7, 9)), "starts at 7, but .* need n >= 8"),
            (dict(families=("er",), er_mean_degree=float("inf")), "er_mean_degree must be positive and finite"),
        ],
        ids=["tol-zero", "tol-nan", "max-iter", "er-train-range", "er-fractional-degree", "er-inf-degree"],
    )
    def test_values_that_would_fail_the_build(self, overrides, reason):
        with pytest.raises(ValueError, match=reason):
            small_spec(**overrides)

    def test_er_range_may_start_at_its_mean_degree(self):
        spec = small_spec(families=("er",), er_mean_degree=4.0, train_size_range=(4, 5), train_count=3, test_count=0)
        train, _ = build_synthetic(spec)
        assert [it.family for it in train] == ["er"] * 3


class TestBuildSynthetic:
    def test_counts_and_round_robin(self):
        train, test = build_synthetic(small_spec())
        assert len(train) == 6 and len(test) == 4
        assert [it.family for it in train] == ["cycle", "star"] * 3

    def test_sizes_within_ranges(self):
        train, test = build_synthetic(small_spec())
        assert all(10 <= it.graph.n <= 14 for it in train)
        assert all(15 <= it.graph.n <= 20 for it in test)

    def test_deterministic(self):
        spec = small_spec()
        a_train, a_test = build_synthetic(spec)
        b_train, b_test = build_synthetic(spec)
        assert a_train == b_train and a_test == b_test

    def test_train_and_test_differ(self):
        train, test = build_synthetic(small_spec(train_size_range=(10, 20), test_size_range=(10, 20)))
        assert [it.graph for it in train[:4]] != [it.graph for it in test[:4]]

    def test_targets_match_spectral_oracle(self):
        train, _ = build_synthetic(small_spec(train_count=4, test_count=0))
        for it in train:
            fresh = ipr(power_iteration(it.graph).pev)
            assert abs(it.target - fresh) < 1e-12

    def test_er_items_connected_with_seeds(self):
        spec = small_spec(families=("er",), train_count=3, test_count=0, train_size_range=(12, 16))
        train, _ = build_synthetic(spec)
        from netloc.graphs import is_connected

        for it in train:
            assert is_connected(it.graph)
            assert it.seed is not None

    def test_edge_files_are_pinned(self, tmp_path):
        # Edges only: a path's target comes from LAPACK's eigh, whose last bits may differ between builds.
        spec = small_spec(
            families=FAMILIES,
            train_count=18,
            test_count=12,
            train_size_range=(8, 16),
            test_size_range=(16, 24),
            seed=5,
            er_mean_degree=4.0,
        )
        digest = hashlib.sha256()
        for name, items in zip(("train", "test"), build_synthetic(spec)):
            save_dataset(items, tmp_path / name, spec=spec)
            for path in sorted((tmp_path / name / "graphs").iterdir()):
                digest.update(f"{name}/{path.name}\n".encode() + path.read_bytes())
        assert digest.hexdigest() == "139c051ff1d493f73a5351d02f0e2aef0068cbe0bba4e0f79be7d9b16d3082f5"

    def test_deterministic_families_have_no_seed(self):
        train, _ = build_synthetic(small_spec(train_count=2, test_count=0))
        assert all(it.seed is None for it in train)

    def test_features_derive_from_the_graph(self):
        train, _ = build_synthetic(small_spec(families=("cycle", "er"), train_count=2, test_count=0))
        for it, h in zip(train, feature_matrices(train)):
            np.testing.assert_array_equal(h, build_feature_matrix(it.graph))
        assert not hasattr(train[0], "features")


def write_bytes(path, text):
    """Write ``text`` as UTF-8, each lone surrogate U+DCXX as the raw byte 0xXX."""
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


def write_tu_fixture(root, name="TOY", a_lines=None, ind_lines=None):
    """Triangle (nodes 1-3) plus square (nodes 4-7), edges in both directions."""
    root.mkdir(parents=True, exist_ok=True)
    if a_lines is None:
        a_lines = [
            "1, 2", "2, 1", "2, 3", "3, 2", "1, 3", "3, 1",
            "4, 5", "5, 4", "5, 6", "6, 5", "6, 7", "7, 6", "4, 7", "7, 4",
        ]
    if ind_lines is None:
        ind_lines = ["1", "1", "1", "2", "2", "2", "2"]
    write_bytes(root / f"{name}_A.txt", "\n".join(a_lines) + "\n")
    write_bytes(root / f"{name}_graph_indicator.txt", "\n".join(ind_lines) + "\n")


class TestIngestTu:
    def test_fixture_parses_to_expected_graphs(self, tmp_path):
        write_tu_fixture(tmp_path)
        graphs = ingest_tu_dataset(tmp_path)
        assert len(graphs) == 2
        assert graphs[0] == Graph(3, ((0, 1), (0, 2), (1, 2)))
        assert graphs[1] == Graph(4, ((0, 1), (0, 3), (1, 2), (2, 3)))

    def test_name_autodiscovery_requires_single_candidate(self, tmp_path):
        write_tu_fixture(tmp_path, name="A1")
        write_tu_fixture(tmp_path, name="A2")
        with pytest.raises(ParseError, match="exactly one"):
            ingest_tu_dataset(tmp_path)
        assert len(ingest_tu_dataset(tmp_path, name="A1")) == 2

    def test_name_matches_the_file_stem_regardless_of_case(self, tmp_path):
        write_tu_fixture(tmp_path / "tu2", name="ENZ")
        write_tu_fixture(tmp_path / "tu2", name="OTHER")
        for name in ("ENZ", "enz", "Enz"):
            assert len(ingest_tu_dataset(tmp_path / "tu2", name=name)) == 2
        with pytest.raises(ParseError, match=r"tu2: expected exactly one enzymes_A\.txt file, found 0"):
            ingest_tu_dataset(tmp_path / "tu2", name="enzymes")

    def test_graph_id_without_nodes_names_the_indicator(self, tmp_path):
        write_tu_fixture(tmp_path, a_lines=["1, 2", "3, 4"], ind_lines=["1", "1", "3", "3"])
        with pytest.raises(ParseError, match=r"TOY_graph_indicator\.txt: graph id 2 has no nodes"):
            ingest_tu_dataset(tmp_path)

    def test_self_loops_dropped(self, tmp_path):
        write_tu_fixture(
            tmp_path,
            a_lines=["1, 2", "2, 1", "2, 2"],
            ind_lines=["1", "1"],
        )
        graphs = ingest_tu_dataset(tmp_path)
        assert graphs[0] == Graph(2, ((0, 1),))

    def test_cross_graph_edge_reports_line(self, tmp_path):
        write_tu_fixture(
            tmp_path,
            a_lines=["1, 2", "2, 1", "2, 3"],
            ind_lines=["1", "1", "2"],
        )
        with pytest.raises(ParseError, match=r"_A\.txt:3: .*spans graphs"):
            ingest_tu_dataset(tmp_path)

    def test_ragged_line_reports_line(self, tmp_path):
        write_tu_fixture(tmp_path, a_lines=["1, 2", "2 1 7"], ind_lines=["1", "1"])
        with pytest.raises(ParseError, match=r"_A\.txt:2: expected two integers"):
            ingest_tu_dataset(tmp_path)

    def test_missing_indicator_file(self, tmp_path):
        write_tu_fixture(tmp_path)
        (tmp_path / "TOY_graph_indicator.txt").unlink()
        with pytest.raises(ParseError, match="not found"):
            ingest_tu_dataset(tmp_path)

    def test_unknown_node_id(self, tmp_path):
        write_tu_fixture(tmp_path, a_lines=["1, 9"], ind_lines=["1", "1"])
        with pytest.raises(ParseError, match="node id 9"):
            ingest_tu_dataset(tmp_path)

    @pytest.mark.parametrize(
        "a_lines, ind_lines, pattern",
        [
            (["1, 2"], ["1", "one"], r"_graph_indicator\.txt:2: expected a graph id, got 'one'"),
            (["1, 2"], ["1", "0"], r"_graph_indicator\.txt:2: graph ids are 1-indexed, got 0"),
            (["1, 2"], [""], r"_graph_indicator\.txt: no nodes listed"),
            (["1, 2", "2, x"], ["1", "1"], r"_A\.txt:2: expected two integers, got '2, x'"),
            (["1, 2", "", "2, \udcff"], ["1", "1"], r"_A\.txt:3: not UTF-8 text"),
            (["1, 2"], ["1", "\udcff"], r"_graph_indicator\.txt:2: not UTF-8 text"),
        ],
        ids=["graph-id-not-int", "graph-id-zero", "empty-indicator", "endpoint-not-int", "edges-not-utf8", "ids-not-utf8"],
    )
    def test_malformed_line_reports_file_and_line(self, tmp_path, a_lines, ind_lines, pattern):
        write_tu_fixture(tmp_path, a_lines=a_lines, ind_lines=ind_lines)
        with pytest.raises(ParseError, match=pattern):
            ingest_tu_dataset(tmp_path)

    def test_blank_lines_skipped(self, tmp_path):
        write_tu_fixture(tmp_path, a_lines=["", "1, 2", "  ", "2, 3", ""], ind_lines=["1", "", "1", "1", " "])
        assert ingest_tu_dataset(tmp_path) == [Graph(3, ((0, 1), (1, 2)))]


class TestPreprocess:
    def test_filters_small_and_disconnected(self):
        keep = make_star(12)
        too_small = make_star(5)
        disconnected = Graph(12, tuple((i, i + 1) for i in range(5)))
        out = preprocess([keep, too_small, disconnected], name="tu", min_nodes=10)
        assert len(out) == 1
        assert out[0].graph == keep
        assert abs(out[0].target - ipr(power_iteration(keep).pev)) < 1e-12

    def test_idempotent(self):
        graphs = [make_star(12), make_er(15, 0.4, seed=3)]
        once = preprocess(graphs, name="tu", min_nodes=10)
        twice = preprocess(once, name="tu", min_nodes=10)
        assert once == twice

    def test_family_tag(self):
        out = preprocess([make_star(12)], name="enzymes", min_nodes=10)
        assert out[0].family == "enzymes"


class TestSplit:
    def build_items(self, count):
        train, _ = build_synthetic(small_spec(train_count=count, test_count=0))
        return train

    def test_eighty_twenty_floor(self):
        items = self.build_items(10)
        train, test = split(items, fraction=0.8, seed=0)
        assert len(train) == 8 and len(test) == 2

    def test_partition_preserves_items(self):
        items = self.build_items(9)
        train, test = split(items, fraction=0.5, seed=1)
        assert len(train) == 4 and len(test) == 5
        recombined = train + test
        for it in items:
            assert any(it == other for other in recombined)

    def test_seed_determinism(self):
        items = self.build_items(8)
        a = split(items, seed=7)
        b = split(items, seed=7)
        c = split(items, seed=8)
        assert a == b
        assert a != c

    def test_fraction_validated(self):
        with pytest.raises(ValueError, match="fraction"):
            split(self.build_items(4), fraction=1.0)


class TestSaveLoad:
    def test_round_trip_equality(self, tmp_path):
        spec = small_spec(families=("cycle", "er"), train_count=4, test_count=0)
        items, _ = build_synthetic(spec)
        save_dataset(items, tmp_path / "ds", spec=spec, name="toy")
        loaded, manifest = load_dataset(tmp_path / "ds")
        assert loaded == items
        assert manifest["count"] == 4
        assert manifest["name"] == "toy"
        assert DatasetSpec.from_dict(manifest["spec"]) == spec

    @pytest.mark.parametrize("family", ["a,b", "a\nb", "a\r", "a\x0bb"], ids=["comma", "lf", "cr", "vt"])
    def test_family_that_targets_csv_cannot_hold_is_refused(self, tmp_path, family):
        # targets.csv splits rows at commas and lines at every break str.splitlines knows.
        items, _ = build_synthetic(small_spec(train_count=3, test_count=0))
        items[1] = LabeledGraph(graph=items[1].graph, target=items[1].target, family=family)
        with pytest.raises(ValueError) as info:
            save_dataset(items, tmp_path / "ds")
        assert str(info.value).startswith(f"{tmp_path / 'ds'}: item 1: family {family!r}")
        assert not (tmp_path / "ds").exists()

    def test_blank_lines_in_targets_are_skipped(self, tmp_path):
        items, _ = build_synthetic(small_spec(train_count=3, test_count=0))
        save_dataset(items, tmp_path / "ds")
        csv = tmp_path / "ds" / "targets.csv"
        csv.write_text("\n" + csv.read_text().replace("\n", "\n  \n"))
        assert load_dataset(tmp_path / "ds")[0] == items

    def test_build_save_load_preprocess_run_no_feature_pass(self, tmp_path, feature_builds):
        spec = small_spec(families=("cycle", "er"), train_count=4, test_count=2)
        train, _ = build_synthetic(spec)
        save_dataset(train, tmp_path / "ds", spec=spec)
        loaded, _ = load_dataset(tmp_path / "ds", verify=True)
        preprocess(loaded, name="tu", min_nodes=10)
        assert feature_builds == []

    def test_manifest_text_is_pinned(self, tmp_path):
        spec = small_spec(
            families=("cycle", "er"),
            train_count=2,
            test_count=1,
            train_size_range=(9, 10),
            test_size_range=(12, 12),
            seed=3,
            er_mean_degree=4.0,
        )
        items, _ = build_synthetic(spec)
        save_dataset(items, tmp_path, spec=spec, name="train")
        text = (
            '{\n'
            ' "count": 2,\n'
            ' "format": "netloc-dataset",\n'
            ' "name": "train",\n'
            ' "seeds": {\n'
            '  "0": null,\n'
            '  "1": 2184191404571879930\n'
            ' },\n'
            ' "spec": {\n'
            '  "er_mean_degree": 4.0,\n'
            '  "families": [\n'
            '   "cycle",\n'
            '   "er"\n'
            '  ],\n'
            '  "label_max_iter": 100000,\n'
            '  "label_tol": 1e-10,\n'
            '  "seed": 3,\n'
            '  "sf_m": 2,\n'
            '  "test_count": 1,\n'
            '  "test_size_range": [\n'
            '   12,\n'
            '   12\n'
            '  ],\n'
            '  "train_count": 2,\n'
            '  "train_size_range": [\n'
            '   9,\n'
            '   10\n'
            '  ]\n'
            ' },\n'
            ' "version": 1\n'
            '}\n'
        )
        assert (tmp_path / "manifest.json").read_text(encoding="utf-8") == text

    def test_layout_files(self, tmp_path):
        items, _ = build_synthetic(small_spec(train_count=3, test_count=0))
        save_dataset(items, tmp_path / "ds")
        assert (tmp_path / "ds" / "manifest.json").is_file()
        assert (tmp_path / "ds" / "targets.csv").is_file()
        edges = sorted(p.name for p in (tmp_path / "ds" / "graphs").iterdir())
        assert edges == ["000000.edges", "000001.edges", "000002.edges"]

    def test_saves_are_byte_identical(self, tmp_path):
        items, _ = build_synthetic(small_spec(train_count=4, test_count=0))
        save_dataset(items, tmp_path / "a")
        save_dataset(items, tmp_path / "b")
        for rel in ["manifest.json", "targets.csv", "graphs/000000.edges", "graphs/000003.edges"]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="manifest"):
            load_dataset(tmp_path)

    def test_unsupported_version(self, tmp_path):
        import json

        items, _ = build_synthetic(small_spec(train_count=2, test_count=0))
        save_dataset(items, tmp_path / "ds")
        man = tmp_path / "ds" / "manifest.json"
        blob = json.loads(man.read_text())
        blob["version"] = 99
        man.write_text(json.dumps(blob))
        with pytest.raises(DatasetFormatError, match="version"):
            load_dataset(tmp_path / "ds")

    def test_bad_header(self, tmp_path):
        items, _ = build_synthetic(small_spec(train_count=2, test_count=0))
        save_dataset(items, tmp_path / "ds")
        csv = tmp_path / "ds" / "targets.csv"
        csv.write_text("id;target\n" + csv.read_text().split("\n", 1)[1])
        with pytest.raises(DatasetFormatError, match="header"):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize(
        "column,value,reason",
        [(0, "x", "id"), (1, "abc", "target"), (3, "1.5", "node count")],
        ids=["id", "target", "n"],
    )
    def test_malformed_cell_names_file_and_line(self, tmp_path, column, value, reason):
        items, _ = build_synthetic(small_spec(train_count=3, test_count=0))
        save_dataset(items, tmp_path / "ds")
        csv = tmp_path / "ds" / "targets.csv"
        rows = csv.read_text().splitlines()
        parts = rows[2].split(",")
        parts[column] = value
        rows[2] = ",".join(parts)
        csv.write_text("\n".join(rows) + "\n")
        with pytest.raises(DatasetFormatError, match=rf"ds/targets\.csv:3: {reason} .*{value!r}"):
            load_dataset(tmp_path / "ds")

    def test_tampered_target_caught_by_verify(self, tmp_path):
        items, _ = build_synthetic(small_spec(train_count=2, test_count=0))
        save_dataset(items, tmp_path / "ds")
        csv = tmp_path / "ds" / "targets.csv"
        rows = csv.read_text().splitlines()
        parts = rows[1].split(",")
        parts[1] = repr(float(parts[1]) + 0.01)
        rows[1] = ",".join(parts)
        csv.write_text("\n".join(rows) + "\n")
        with pytest.raises(DatasetFormatError, match="disagrees"):
            load_dataset(tmp_path / "ds")
        loaded, _ = load_dataset(tmp_path / "ds", verify=False)
        assert len(loaded) == 2

    @staticmethod
    def save_with_broken_first_item(directory):
        """A saved split whose item 0 is 10 nodes and two edges; returns that item's edge file."""
        items, _ = build_synthetic(small_spec(train_count=2, test_count=0))
        save_dataset(items, directory)
        path = directory / "graphs" / "000000.edges"
        path.write_text("10 2\n0 1\n2 3\n")
        csv = directory / "targets.csv"
        rows = csv.read_text().splitlines()
        rows[1] = ",".join(rows[1].split(",")[:3] + ["10"])
        csv.write_text("\n".join(rows) + "\n")
        return path

    def test_verify_names_the_edge_file_the_oracle_refuses(self, tmp_path):
        path = self.save_with_broken_first_item(tmp_path / "ds")
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(tmp_path / "ds")
        assert str(info.value) == f"{path}: power iteration needs a connected graph"

    def test_feature_pass_names_the_edge_file(self, tmp_path):
        path = self.save_with_broken_first_item(tmp_path / "ds")
        items, _ = load_dataset(tmp_path / "ds", verify=False)
        with pytest.raises(ValueError) as info:
            feature_matrices(items)
        assert str(info.value) == f"{path}: pagerank needs every node to have degree >= 1"
        np.testing.assert_array_equal(feature_matrices(items[1:])[0], build_feature_matrix(items[1].graph))

    def test_verify_relabels_with_the_spec_tolerance(self, tmp_path):
        # A loose label_tol stores targets far from the default oracle's; the
        # verify pass must relabel with the tolerance the manifest records.
        spec = small_spec(families=("star",), train_count=2, test_count=0, label_tol=1e-4)
        items, _ = build_synthetic(spec)
        g = items[0].graph
        assert abs(items[0].target - ipr(power_iteration(g).pev)) > 1e-9
        save_dataset(items, tmp_path / "ds", spec=spec)
        loaded, _ = load_dataset(tmp_path / "ds")
        assert [it.target for it in loaded] == [it.target for it in items]

    def test_bad_spec_names_the_manifest(self, tmp_path):
        import json

        spec = small_spec(train_count=2, test_count=0)
        items, _ = build_synthetic(spec)
        save_dataset(items, tmp_path / "ds", spec=spec)
        man = tmp_path / "ds" / "manifest.json"
        blob = json.loads(man.read_text())
        blob["spec"]["families"] = ["bogus"]
        man.write_text(json.dumps(blob))
        with pytest.raises(DatasetFormatError, match="manifest.json: bad spec"):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize(
        "name, edit, pattern",
        [
            ("manifest.json", lambda text: "[1, 2]", r"manifest\.json: expected a JSON object, got list"),
            ("manifest.json", lambda text: text.replace('"count"', '"count":'), r"manifest\.json:2: Expecting value"),
            ("manifest.json", lambda text: text.replace("netloc-dataset", "csv"), r"manifest\.json: format is 'csv'"),
            (
                "manifest.json",
                lambda text: text.replace('"seeds": {', '"seeds": [1, 2], "old": {'),
                r"manifest\.json: seeds must be an object, got list",
            ),
            (
                "manifest.json",
                lambda text: text.replace('"0": null', '"0": "x"'),
                r"manifest\.json: seed of item 0 must be an integer or null, got 'x'",
            ),
            (
                "manifest.json",
                lambda text: text.replace('"spec": {', '"spec": [1], "old": {'),
                r"manifest\.json: bad spec \(expected a JSON object, got list\)",
            ),
            ("targets.csv", lambda text: text.replace(",cycle,", ",cycle,x,"), r"targets\.csv:2: expected 4 columns"),
            (
                "targets.csv",
                lambda text: text.replace(",cycle,10", ",cycle,11"),
                r"targets\.csv:2: node count 11 disagrees with edge file \(10\)",
            ),
            (
                "targets.csv",
                lambda text: text.replace("\n", "\n\n", 1).replace(",cycle,", ",cycle,x,"),
                r"targets\.csv:3: expected 4 columns",
            ),
            ("targets.csv", lambda text: text.replace(",cycle,", ",cycl\udcff,"), r"targets\.csv:2: not UTF-8 text"),
            (
                "targets.csv",
                lambda text: text.replace("\n1,", "\n0,"),
                r"targets\.csv:3: expected id 1 \(ids run 0\.\.count-1 in row order\), got 0",
            ),
            ("targets.csv", lambda text: None, r"ds: no targets\.csv$"),
            (
                "graphs/000001.edges",
                lambda text: text.replace("\n", "\nx", 1),
                r"graphs/000001\.edges:2: edge endpoints must be integers$",
            ),
            ("graphs/000001.edges", lambda text: None, r"ds: no graphs/000001\.edges$"),
        ],
        ids=[
            "not-object", "syntax", "format", "seeds-list", "seed-not-int", "spec-list",
            "columns", "node-count", "line-after-blank", "not-utf8", "repeated-id", "missing",
            "edges-line", "edges-missing",
        ],
    )
    def test_damaged_file_is_named(self, tmp_path, name, edit, pattern):
        spec = small_spec(train_count=2, test_count=0, train_size_range=(10, 10))
        items, _ = build_synthetic(spec)
        save_dataset(items, tmp_path / "ds", spec=spec)
        path = tmp_path / "ds" / name
        text = edit(path.read_text())
        if text is None:
            path.unlink()
        else:
            write_bytes(path, text)
        with pytest.raises(DatasetFormatError, match=pattern):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_target_names_file_and_line(self, tmp_path, text):
        # Item 1 is not among the every-20th items that verify re-labels.
        items, _ = build_synthetic(small_spec(train_count=3, test_count=0))
        save_dataset(items, tmp_path / "ds")
        csv = tmp_path / "ds" / "targets.csv"
        rows = csv.read_text().splitlines()
        cells = rows[2].split(",")
        rows[2] = ",".join([cells[0], text, *cells[2:]])
        csv.write_text("\n".join(rows) + "\n")
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(tmp_path / "ds")
        assert str(info.value) == f"{tmp_path / 'ds'}/targets.csv:3: target must be a finite number, got {text!r}"

    def test_count_mismatch(self, tmp_path):
        items, _ = build_synthetic(small_spec(train_count=3, test_count=0))
        save_dataset(items, tmp_path / "ds")
        csv = tmp_path / "ds" / "targets.csv"
        rows = csv.read_text().splitlines()
        csv.write_text("\n".join(rows[:-1]) + "\n")
        with pytest.raises(DatasetFormatError, match="manifest says 3"):
            load_dataset(tmp_path / "ds")


class TestFeatureMatrix:
    """:func:`feature_matrices`: one group feature pass over a split's items."""

    @staticmethod
    def named(graphs):
        return [
            LabeledGraph(graph=g, target=0.0, family="x", source=f"ds/graphs/{i:06d}.edges") for i, g in enumerate(graphs)
        ]

    def test_each_item_gets_the_matrix_it_builds_alone(self, feature_builds):
        items, _ = build_synthetic(small_spec(families=FAMILIES, train_count=12, test_count=0))
        matrices = feature_matrices(items)
        assert feature_builds == [[it.graph for it in items]]
        assert len(matrices) == len(items)
        for it, h in zip(items, matrices):
            np.testing.assert_array_equal(h, build_feature_matrix(it.graph))

    @pytest.mark.parametrize(
        "broken, kind, message",
        [
            # The group pass meets the huge graph first, but item 1 comes first.
            ("disconnected,huge", ValueError, "closeness centrality needs a connected graph"),
            ("huge,isolated", MemoryError, "Unable to allocate"),
            ("isolated,disconnected", ValueError, "pagerank needs every node to have degree >= 1"),
        ],
    )
    def test_first_refused_item_names_its_edge_file(self, broken, kind, message):
        shapes = {"disconnected": Graph(4, ((0, 1), (2, 3))), "huge": Graph(10**12), "isolated": Graph(10, ((0, 1), (2, 3)))}
        items = self.named([make_star(6), *(shapes[name] for name in broken.split(","))])
        with pytest.raises(kind) as info:
            feature_matrices(items)
        assert str(info.value).startswith(f"ds/graphs/000001.edges: {message}")
        assert str(info.value).count("ds/graphs/") == 1

    def test_pagerank_that_does_not_converge_names_its_edge_file(self, monkeypatch):
        # A cycle's PageRank is uniform and stops at once; a star's takes about 140 steps.
        monkeypatch.setattr(netloc.features, "_PAGERANK_MAX_ITER", 5)
        items = self.named([make_cycle(6), make_star(6), make_star(7)])
        with pytest.raises(ConvergenceError) as info:
            feature_matrices(items)
        assert str(info.value) == "ds/graphs/000001.edges: pagerank did not converge to 1e-10 in 5 iterations"
        assert info.value.residual > 1e-10 and info.value.iterations == 5
