import json
import tracemalloc
import warnings

import numpy as np
import pytest

from netloc.data import DatasetSpec, build_synthetic
from netloc.gat import GAT
from netloc.gcn import GCN
from netloc.models import load_checkpoint
from netloc.spectral import RegionThresholds
from netloc.train import (
    SNAPSHOT_EPOCHS,
    NumericFailure,
    TrainConfig,
    _kink_gap,
    build_model,
    evaluate,
    gradient_check,
    train,
    write_eval_report,
    write_training_artifacts,
)


def tiny_items(train_count=6, families=("cycle", "star"), size_range=(24, 30), seed=0):
    spec = DatasetSpec(
        families=families,
        train_count=train_count,
        test_count=0,
        train_size_range=size_range,
        test_size_range=size_range,
        seed=seed,
    )
    items, _ = build_synthetic(spec)
    return items


def tiny_config(**overrides):
    base = dict(model="gcn", epochs=5, k0=8, k1=8, k2=8, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_dict_round_trip(self):
        cfg = tiny_config(model="gat", loss="logmse", optimizer="adamw", lr=1e-5)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config(batch_size=32)
        assert TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("lr", float("nan"), "learning rate must be finite, got nan"),
            ("lr", float("inf"), "learning rate must be finite, got inf"),
            ("weight_decay", float("nan"), "weight decay must be finite, got nan"),
            ("weight_decay", float("inf"), "weight decay must be finite, got inf"),
        ],
        ids=["lr-nan", "lr-inf", "decay-nan", "decay-inf"],
    )
    def test_non_finite_rate_rejected(self, field, value, reason):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            TrainConfig(**{field: value})

    def test_validation(self):
        with pytest.raises(ValueError, match="model"):
            TrainConfig(model="mlp")
        with pytest.raises(ValueError, match="loss"):
            TrainConfig(loss="mae")
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
            TrainConfig(seed=-1)

    def test_version_rejected(self):
        blob = tiny_config().to_dict()
        blob["version"] = 9
        with pytest.raises(ValueError, match="version"):
            TrainConfig.from_dict(blob)


class TestTrainLoop:
    def test_zero_epochs_leaves_init_params(self):
        items = tiny_items()
        result = train(tiny_config(epochs=0), items)
        assert result.loss_curve.shape == (0,)
        assert set(result.snapshots) == {0}
        for name in result.model.param_names:
            np.testing.assert_array_equal(result.params[name], result.snapshots[0][name])

    def test_same_seed_same_curve(self):
        items = tiny_items()
        cfg = tiny_config(epochs=4)
        a = train(cfg, items)
        b = train(cfg, items)
        np.testing.assert_array_equal(a.loss_curve, b.loss_curve)
        for name in a.model.param_names:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_gat_dropout_run_is_reproducible(self):
        items = tiny_items(train_count=4, size_range=(12, 16))
        cfg = tiny_config(model="gat", heads=2, f1=4, f2=8, epochs=3, optimizer="adamw", lr=1e-3)
        a = train(cfg, items)
        b = train(cfg, items)
        np.testing.assert_array_equal(a.loss_curve, b.loss_curve)

    def test_minibatch_path_deterministic(self):
        items = tiny_items(train_count=5)
        cfg = tiny_config(epochs=4, batch_size=2)
        a = train(cfg, items)
        b = train(cfg, items)
        np.testing.assert_array_equal(a.loss_curve, b.loss_curve)
        assert np.all(np.isfinite(a.loss_curve))

    def test_loss_decreases_on_toy_set(self):
        items = tiny_items()
        result = train(tiny_config(epochs=40), items)
        assert result.loss_curve[-1] < result.loss_curve[0]

    def test_snapshot_epochs(self):
        items = tiny_items(train_count=2)
        result = train(tiny_config(epochs=6), items)
        assert set(result.snapshots) == set(SNAPSHOT_EPOCHS) | {6}

    def test_smoke_run_fits_small_cycle_star_set(self):
        # 20 graphs, default GCN recipe, 200 epochs: the train MSE should
        # drop well below 1e-4 (measured 1.5e-5 on this exact seed).
        spec = DatasetSpec(
            families=("cycle", "star"),
            train_count=20,
            test_count=0,
            train_size_range=(20, 30),
            test_size_range=(20, 30),
            seed=0,
        )
        items, _ = build_synthetic(spec)
        result = train(TrainConfig(model="gcn", epochs=200), items)
        assert result.loss_curve[-1] < 1e-4

    def test_curve_length_matches_epochs(self):
        items = tiny_items(train_count=2)
        result = train(tiny_config(epochs=7), items)
        assert result.loss_curve.shape == (7,)

    def test_absurd_lr_raises_numeric_failure(self):
        items = tiny_items(train_count=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericFailure) as info:
                train(tiny_config(epochs=50, lr=1e30, optimizer="gd", weight_decay=0.0), items)
        assert info.value.epoch >= 1
        assert not np.isfinite(info.value.loss_value)

    def test_train_then_evaluate_build_each_feature_matrix_once(self, feature_builds):
        # train builds its two items in one call; evaluate builds only the two it lacks.
        items = tiny_items(train_count=4)
        feature_builds.clear()
        result = train(tiny_config(epochs=1), items[:2])
        evaluate(result.model, result.params, items)
        assert feature_builds == [[it.graph for it in items[:2]], [it.graph for it in items[2:]]]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(tiny_config(), [])

    @pytest.mark.parametrize("model_kind", ["gat", "gcn"])
    def test_batch_step_peak_memory_is_that_of_one_graph(self, model_kind):
        # Each group's backward runs right after its forward, so a batch holds
        # one group's activations at a time, not the whole batch's. A GAT
        # group is one graph. A GCN group stacks graphs of equal class count
        # k, at most as many rows as the largest graph has nodes, so cycles
        # and stars weigh no more than one ER graph of that size, where k = n.
        if model_kind == "gat":
            items = tiny_items(train_count=50, families=("er", "scale_free"), size_range=(30, 40))
        else:
            # 200 graphs: about 300 rows in all, so one stack of every k would not pass.
            items = tiny_items(train_count=200, families=("cycle", "star"), size_range=(30, 40))
            n = max(it.graph.n for it in items)
            items += tiny_items(train_count=1, families=("er",), size_range=(n, n))
        model = build_model(TrainConfig(model=model_kind))
        params = model.init_params(0)
        inputs = [model.prepare(it.graph, it.features) for it in items]
        targets = np.array([it.target for it in items])
        if model_kind == "gcn":
            assert inputs[-1][2].size == items[-1].graph.n

        def peak(batch, ys):
            tracemalloc.start()
            try:
                model.batch_step(params, batch, ys, train=True, rng=np.random.default_rng(1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        k = len(inputs) - 1 if model_kind == "gcn" else int(np.argmax([graph.n for graph, _ in inputs]))
        assert peak(inputs, targets) <= 2 * peak(inputs[k : k + 1], targets[k : k + 1])


def constant_predictor(value):
    """A GCN whose output is exactly ``value`` for every graph."""
    model = GCN(d=7, k0=2, k1=2, k2=2)
    params = {name: np.zeros_like(p) for name, p in model.init_params(0).items()}
    params["b"] = np.array(value)
    return model, params


class TestEvaluate:
    def test_constant_predictor_confusion(self):
        # Stars here label as strongly localized, cycles as delocalized. A
        # constant 0.3 output lands in region 3 every time, so the row for
        # region 1 is 100% wrong and the row for region 3 is 100% right.
        items = tiny_items(train_count=6, families=("cycle", "star"), size_range=(24, 30))
        model, params = constant_predictor(0.3)
        report = evaluate(model, params, items)
        assert report.count == 6
        assert report.region_counts == (3, 0, 3)
        assert report.region_accuracy == pytest.approx(0.5)
        np.testing.assert_allclose(report.confusion[0], [0.0, 0.0, 100.0])
        np.testing.assert_allclose(report.confusion[1], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(report.confusion[2], [0.0, 0.0, 100.0])

    def test_perfect_on_single_region(self):
        items = tiny_items(train_count=3, families=("star",), size_range=(24, 30))
        model, params = constant_predictor(0.3)
        report = evaluate(model, params, items)
        assert report.region_accuracy == 1.0
        np.testing.assert_allclose(report.confusion[2], [0.0, 0.0, 100.0])

    def test_mse_matches_definition(self):
        items = tiny_items(train_count=4)
        model, params = constant_predictor(0.1)
        report = evaluate(model, params, items)
        expected = float(np.mean((report.predictions - report.targets) ** 2))
        assert report.mse == pytest.approx(expected, rel=1e-12)

    def test_non_finite_prediction_names_the_item(self):
        # Saturated head weights overflow the readout of the star, whose
        # features are not all zero, but leave the cycle's zero readout finite.
        items = tiny_items(train_count=2, families=("cycle", "star"), size_range=(24, 30))
        model = GCN(d=7, k0=2, k1=2, k2=2)
        params = {name: np.abs(p) for name, p in model.init_params(0).items()}
        params["w_lin"][:] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^item 1 \(star, n={items[1].graph.n}\): prediction is inf$"):
                evaluate(model, params, items)

    def test_overflowing_mse_raises(self):
        items = tiny_items(train_count=2)
        model, params = constant_predictor(1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^mse is inf$"):
                evaluate(model, params, items)

    def test_peak_memory_is_that_of_one_graph(self):
        # Each graph is prepared as it is predicted, so only one graph's
        # normalized adjacency is alive at a time.
        items = tiny_items(train_count=24, size_range=(100, 140))
        model, params = constant_predictor(0.1)
        for it in items:
            # Fill what the item and its graph cache, which outlives evaluate.
            model.prepare(it.graph, it.features)

        def peak(batch):
            tracemalloc.start()
            try:
                evaluate(model, params, batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        k = int(np.argmax([it.graph.n for it in items]))
        assert peak(items) <= 2 * peak(items[k : k + 1])


class TestArtifacts:
    def test_training_artifact_files(self, tmp_path):
        items = tiny_items(train_count=2)
        cfg = tiny_config(epochs=6, k0=2, k1=2, k2=2)
        result = train(cfg, items)
        write_training_artifacts(result, tmp_path)

        curve_rows = (tmp_path / "loss_curve.csv").read_text().splitlines()
        assert curve_rows[0] == "epoch,loss"
        assert len(curve_rows) == 7

        model, params, config = load_checkpoint(tmp_path / "checkpoint.json")
        assert config["epochs"] == 6
        for name in result.model.param_names:
            np.testing.assert_array_equal(params[name], result.params[name])

        # One histogram per snapshot epoch per parameter.
        hist_files = sorted(p.name for p in tmp_path.glob("weights_epoch*.csv"))
        epochs_seen = {name.split("_")[1] for name in hist_files}
        assert epochs_seen == {"epoch0000", "epoch0001", "epoch0002", "epoch0003", "epoch0004", "epoch0006"}

    def test_histogram_counts_sum_to_param_size(self, tmp_path):
        items = tiny_items(train_count=2)
        result = train(tiny_config(epochs=1, k0=4, k1=3, k2=2), items)
        write_training_artifacts(result, tmp_path)
        rows = (tmp_path / "weights_epoch0000_w0.csv").read_text().splitlines()
        assert rows[0] == "bin_lo,bin_hi,count"
        total = sum(int(r.split(",")[2]) for r in rows[1:])
        assert total == 7 * 4

    @pytest.mark.parametrize(
        "values, numpy_bins",
        [
            ([0.25], True),
            ([-1.0, 0.5, 2.0], True),
            ([1e29], False),
            ([1e29, np.nextafter(1e29, np.inf)], False),
            ([-1e308, 1e308], False),
        ],
        ids=["one-value", "spread", "one-value-1e29", "two-floats-1e29", "span-overflows"],
    )
    def test_every_finite_array_gets_thirty_bins(self, tmp_path, values, numpy_bins):
        result = train(tiny_config(epochs=0, k0=2, k1=2, k2=2), tiny_items(train_count=1))
        values = np.array(values)
        result.snapshots = {0: {"b": values}}
        write_training_artifacts(result, tmp_path)
        rows = [r.split(",") for r in (tmp_path / "weights_epoch0000_b.csv").read_text().splitlines()[1:]]
        edges = np.array([float(r[0]) for r in rows] + [float(rows[-1][1])])
        counts = [int(r[2]) for r in rows]
        assert len(rows) == 30 and sum(counts) == values.size
        assert np.isfinite(edges).all() and np.all(edges[:-1] < edges[1:])
        assert edges[0] <= values.min() and values.max() <= edges[-1]
        if numpy_bins:
            # Where numpy's default bins exist, they are the ones written.
            want_counts, want_edges = np.histogram(values, bins=30)
            assert edges.tolist() == want_edges.tolist() and counts == want_counts.tolist()

    def test_eval_report_files(self, tmp_path):
        items = tiny_items(train_count=4)
        model, params = constant_predictor(0.25)
        report = evaluate(model, params, items)
        write_eval_report(report, tmp_path)

        pred_rows = (tmp_path / "predictions.csv").read_text().splitlines()
        assert pred_rows[0] == "id,n,family,target,prediction,true_region,pred_region"
        assert len(pred_rows) == 5

        conf_rows = (tmp_path / "confusion.csv").read_text().splitlines()
        assert len(conf_rows) == 4

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == {"count", "mse", "region_accuracy", "region_counts"}
        assert "runtime" not in (tmp_path / "summary.json").read_text()


    def test_eval_report_regions_use_given_thresholds(self, tmp_path):
        # A 25-cycle has IPR 0.04: region 1 under the defaults, region 3 once
        # tau2 drops to 0.02. The constant 0.015 lands between 0.01 and 0.02.
        items = tiny_items(train_count=2, families=("cycle",), size_range=(25, 25))
        model, params = constant_predictor(0.015)
        report = evaluate(model, params, items, RegionThresholds(tau1=0.01, tau2=0.02))
        write_eval_report(report, tmp_path)
        rows = [r.split(",") for r in (tmp_path / "predictions.csv").read_text().splitlines()[1:]]
        assert [(r[5], r[6]) for r in rows] == [("3", "2"), ("3", "2")]

    def test_every_numeric_csv_cell_parses_as_float(self, tmp_path):
        items = tiny_items(train_count=2)
        result = train(tiny_config(epochs=2, k0=2, k1=2, k2=2), items)
        write_training_artifacts(result, tmp_path / "run")
        write_eval_report(evaluate(result.model, result.params, items), tmp_path / "eval")
        paths = sorted(tmp_path.rglob("*.csv"))
        assert {"loss_curve.csv", "predictions.csv", "confusion.csv", "weights_epoch0000_w0.csv"} <= {
            p.name for p in paths
        }
        for path in paths:
            header, *rows = path.read_text().splitlines()
            numeric = [k for k, name in enumerate(header.split(",")) if name != "family"]
            for row in rows:
                cells = row.split(",")
                for k in numeric:
                    float(cells[k])


class TestGradientCheck:
    def test_gcn_within_tolerance(self):
        assert gradient_check("gcn", seed=0) < 1e-4

    def test_gat_within_tolerance(self):
        assert gradient_check("gat", seed=0) < 1e-4

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="model"):
            gradient_check("mlp", seed=0)


class TestKinkGap:
    @pytest.mark.parametrize(
        "kind, name, column",
        [
            ("gcn", "w0", True),
            ("gcn", "w1", True),
            ("gcn", "w2", True),
            ("gat", "a1h0", False),
            ("gat", "w1h0", True),
            ("gat", "a2", False),
            ("gat", "w2", True),
        ],
        ids=["gcn-w0", "gcn-w1", "gcn-w2", "gat-a1h0", "gat-w1h0", "gat-a2", "gat-w2"],
    )
    def test_planted_zero_closes_the_gap(self, kind, name, column):
        # Zeroing a weight column (or an attention vector) puts one kink
        # array's column exactly at 0; the gap must find it.
        model = build_model(TrainConfig(model=kind, k0=8, k1=8, k2=8, heads=2, f1=4, f2=8, dropout=0.0))
        g = tiny_items(train_count=1, families=("scale_free",), size_range=(9, 9))[0].graph
        inputs = model.prepare(g, np.random.default_rng(5).random((g.n, model.d)))
        params = model.init_params(5)
        assert _kink_gap(model, params, inputs) > 0.0
        if column:
            params[name][:, 0] = 0.0
        else:
            params[name][:] = 0.0
        assert _kink_gap(model, params, inputs) == 0.0
