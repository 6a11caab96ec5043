import json
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from netloc.cli import main
from netloc.graphs import make_star, write_edgelist
from netloc.models import load_checkpoint


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectral:
    def test_star_500_json(self, tmp_path, capsys):
        write_edgelist(make_star(500), tmp_path / "star.edges")
        code, out, err = run(capsys, ["spectral", str(tmp_path / "star.edges")])
        assert code == 0 and err == ""
        blob = json.loads(out)
        assert blob["n"] == 500 and blob["m"] == 499
        assert blob["lambda1"] == pytest.approx(np.sqrt(499), abs=1e-9)
        assert blob["ipr"] == pytest.approx(0.25 + 1.0 / (4 * 499), abs=1e-9)
        assert blob["region"] == 3
        assert blob["region_name"] == "STRONGLY_LOCALIZED"
        assert blob["residual"] <= 1e-10

    def test_missing_file_is_json_error(self, tmp_path, capsys):
        code, out, err = run(capsys, ["spectral", str(tmp_path / "nope.edges")])
        assert code == 1 and out == ""
        blob = json.loads(err)
        assert "error" in blob and "type" in blob

    @pytest.mark.parametrize(
        "text, extra, reason, kind",
        [
            ("4 2\n0 1\n2 3\n", [], "power iteration needs a connected graph", "ValueError"),
            ("3 2\n0 1\n1 2\n", ["--max-iter", "1"], "power iteration did not reach", "ConvergenceError"),
            # Too few edges to connect 10**12 nodes: refused before any per-node array is allocated.
            ("1000000000000 0\n", [], "power iteration needs a connected graph", "ValueError"),
        ],
        ids=["disconnected", "max-iter", "huge-n"],
    )
    def test_unprocessable_graph_names_the_file(self, tmp_path, capsys, text, extra, reason, kind):
        path = tmp_path / "g.edges"
        path.write_text(text)
        code, out, err = run(capsys, ["spectral", str(path), *extra])
        assert code == 1 and out == ""
        blob = json.loads(err)
        assert blob["error"].startswith(f"{path}: {reason}")
        assert blob["error"].count(str(path)) == 1
        assert blob["type"] == kind

    def test_undecodable_byte_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_bytes(b"3 2\n0 1\n1 \xff2\n")
        code, out, err = run(capsys, ["spectral", str(path)])
        assert code == 1 and out == "" and err.count("\n") == 1
        assert json.loads(err) == {"error": f"{path}:3: not UTF-8 text", "type": "ValueError"}

    @pytest.mark.parametrize(
        "flag, value, reason",
        [
            ("--tol", "nan", "tolerance must be positive, got nan"),
            ("--epsilon", "nan", "epsilon must be positive, got nan"),
            ("--max-iter", "0", "max_iter must be >= 1, got 0"),
        ],
        ids=["tol", "epsilon", "max-iter"],
    )
    def test_invalid_flag_is_json_error(self, tmp_path, capsys, flag, value, reason):
        # A flag's fault is reported before the edge list is read, without its name.
        code, out, err = run(capsys, ["spectral", str(tmp_path / "missing.edges"), flag, value])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": reason, "type": "ValueError"}


class TestFeatures:
    def test_csv_to_stdout(self, tmp_path, capsys):
        write_edgelist(make_star(9), tmp_path / "g.edges")
        code, out, _ = run(capsys, ["features", str(tmp_path / "g.edges")])
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[0].startswith("clustering,pagerank,")
        assert len(rows) == 10
        assert all(len(r.split(",")) == 7 for r in rows[1:])

    def test_out_flag_writes_file(self, tmp_path, capsys):
        write_edgelist(make_star(5), tmp_path / "g.edges")
        out_path = tmp_path / "feats.csv"
        code, out, _ = run(capsys, ["features", str(tmp_path / "g.edges"), "--out", str(out_path)])
        assert code == 0
        assert json.loads(out)["rows"] == 5
        assert out_path.read_text().count("\n") == 6

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("4 2\n0 1\n2 3\n", "closeness centrality needs a connected graph"),
            ("3 1\n0 1\n", "pagerank needs every node to have degree >= 1"),
        ],
        ids=["disconnected", "isolated-node"],
    )
    def test_unprocessable_graph_names_the_file(self, tmp_path, capsys, text, reason):
        path = tmp_path / "g.edges"
        path.write_text(text)
        code, out, err = run(capsys, ["features", str(path)])
        assert code == 1 and out == ""
        blob = json.loads(err)
        assert blob["error"] == f"{path}: {reason}"
        assert blob["type"] == "ValueError"

    @pytest.mark.parametrize(
        "text, where",
        [
            ("99999999999999999999 1\n0 99999999999999999998\n", ":1: node count n=99999999999999999999 does not fit in int64"),
            ("3 1\n0 99999999999999999999\n", ":2: edge (0,99999999999999999999) out of range for n=3"),
        ],
        ids=["node-count", "endpoint"],
    )
    def test_integer_beyond_int64_names_file_and_line(self, tmp_path, capsys, text, where):
        path = tmp_path / "g.edges"
        path.write_text(text)
        code, out, err = run(capsys, ["features", str(path)])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": f"{path}{where}", "type": "ValueError"}

    def test_unallocatable_node_count_names_the_file(self, tmp_path, capsys):
        # 10**12 nodes need terabytes per feature column; the allocation is refused outright.
        path = tmp_path / "g.edges"
        path.write_text("1000000000000 0\n")
        code, out, err = run(capsys, ["features", str(path)])
        assert code == 1 and out == ""
        blob = json.loads(err)
        assert blob["error"].startswith(f"{path}: Unable to allocate")
        assert blob["type"] == "MemoryError"


class TestConfigFile:
    @pytest.mark.parametrize(
        "command, text, where, reason",
        [
            ("generate", '{"famlies": ["cycle"]}', ": ", "'famlies'"),
            ("generate", '{"seed": 1,\n}', ":2: ", "Expecting property name"),
            ("generate", '{"train_count": "x"}', ": ", "train_count: expected int, got str"),
            ("train", '{"modle": "gat"}', ": ", "'modle'"),
            ("train", '{"seed": 1,\n}', ":2: ", "Expecting property name"),
            ("train", '{"epochs": "x"}', ": ", "epochs: expected int, got str"),
            ("generate", '{"er_mean_degree": "8"}', ": ", "er_mean_degree: expected float, got str"),
            ("generate", '{"families": "cycle"}', ": ", "families: expected tuple[str, ...], got str"),
            ("generate", '{"families": ["cycle", 3]}', ": ", "families: expected str, got int"),
            ("generate", '{"train_size_range": [10, "x"]}', ": ", "train_size_range: expected int, got str"),
            ("generate", '{"test_size_range": [10]}', ": ", "test_size_range: expected 2 items, got 1"),
            ("train", '{"lr": "x"}', ": ", "lr: expected float, got str"),
            ("train", '{"epochs": 2.5}', ": ", "epochs: expected int, got float"),
            ("train", '{"seed": true}', ": ", "seed: expected int, got bool"),
            ("train", '{"model": 3}', ": ", "model: expected str, got int"),
            ("train", '{"batch_size": "x"}', ": ", "batch_size: expected int | None, got str"),
            ("train", '{"optimizer": "sgd"}', ": ", "unknown optimizer kind 'sgd'"),
            ("train", '{"lr": -1.0}', ": ", "learning rate must be positive, got -1.0"),
            ("train", '{"model": "gat", "dropout": 1.5}', ": ", "dropout must lie in [0,1), got 1.5"),
            ("train", '{"k0": 0}', ": ", "widths must be positive"),
            ("train", '{"optimizer": "gd"}', ": ", "gradient descent here takes no weight decay"),
            ("generate", '{"label_tol": 0.0}', ": ", "label_tol must be positive, got 0.0"),
            ("generate", '{"label_max_iter": 0}', ": ", "label_max_iter must be >= 1, got 0"),
            (
                "generate",
                '{"families": ["er"], "train_size_range": [5, 6]}',
                ": ",
                "size range starts at 5, but these families need n >= 8",
            ),
            ("train", "[1]", ": ", "expected a JSON object, got list"),
            ("generate", '{"seed": -5}', ": ", "seed must be nonnegative, got -5"),
            ("train", '{"seed": -1}', ": ", "seed must be nonnegative, got -1"),
        ],
        ids=[
            "generate-key", "generate-syntax", "generate-value", "train-key", "train-syntax", "train-value",
            "generate-float", "generate-tuple", "generate-tuple-item", "generate-range-item", "generate-range-length",
            "train-float", "train-int", "train-bool", "train-str", "train-optional",
            "train-optimizer", "train-lr", "train-dropout", "train-width", "train-gd-decay",
            "generate-label-tol", "generate-label-max-iter", "generate-er-range", "train-list",
            "generate-seed", "train-seed",
        ],
    )
    def test_errors_name_the_file(self, tmp_path, capsys, command, text, where, reason):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command == "train":
            argv += ["--data", str(tmp_path / "data")]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        message = json.loads(err)["error"]
        assert message.startswith(f"{cfg}{where}")
        assert reason in message

    def test_flag_rejected_before_dataset_load(self, tmp_path, capsys):
        # Gradient descent takes no weight decay, so the default 5e-4 fails
        # when the config is built, not after loading the missing dataset.
        argv = ["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "out"), "--optimizer", "gd"]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "gradient descent here takes no weight decay"

    @pytest.mark.parametrize(
        "flag, value, reason",
        [
            ("--lr", "nan", "learning rate must be finite, got nan"),
            ("--lr", "inf", "learning rate must be finite, got inf"),
            ("--weight-decay", "nan", "weight decay must be finite, got nan"),
            ("--weight-decay", "inf", "weight decay must be finite, got inf"),
        ],
        ids=["lr-nan", "lr-inf", "decay-nan", "decay-inf"],
    )
    def test_non_finite_rate_rejected_before_dataset_load(self, tmp_path, capsys, flag, value, reason):
        argv = ["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "out"), "--epochs", "1"]
        code, out, err = run(capsys, argv + [flag, value])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": reason, "type": "ValueError"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_negative_seed_flag_rejected_before_any_work(self, tmp_path, capsys, command):
        argv = [command, "--out", str(tmp_path / "out"), "--seed", "-5"]
        if command == "train":
            argv += ["--data", str(tmp_path / "nope")]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "seed must be nonnegative, got -5", "type": "ValueError"}
        assert not (tmp_path / "out").exists()

    def test_empty_families_rejected(self, tmp_path, capsys):
        code, out, err = run(capsys, ["generate", "--out", str(tmp_path / "data"), "--families", ""])
        assert code == 1 and out == ""
        assert json.loads(err)["error"].startswith("unknown family ''")

    def test_damaged_manifest_names_the_file(self, tmp_path, capsys):
        manifest = tmp_path / "data" / "manifest.json"
        manifest.parent.mkdir()
        manifest.write_text("[1, 2]\n")
        code, out, err = run(capsys, ["train", "--data", str(manifest.parent), "--out", str(tmp_path / "run")])
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": f"{manifest}: expected a JSON object, got list",
            "type": "DatasetFormatError",
        }

    @pytest.mark.parametrize("batch_flag, batch_size", [("0", None), ("3", 3)], ids=["full", "three"])
    def test_each_flag_sets_its_field(self, tmp_path, capsys, batch_flag, batch_size):
        data_dir = tmp_path / "data"
        argv = ["generate", "--out", str(data_dir), "--families", "er,scale_free", "--train-count", "2"]
        argv += ["--test-count", "1", "--train-sizes", "9", "10", "--test-sizes", "11", "12", "--seed", "4"]
        assert run(capsys, argv + ["--er-mean-degree", "3.5", "--sf-m", "3"])[0] == 0
        spec = json.loads((data_dir / "test" / "manifest.json").read_text())["spec"]
        assert spec == {
            "families": ["er", "scale_free"],
            "train_count": 2,
            "test_count": 1,
            "train_size_range": [9, 10],
            "test_size_range": [11, 12],
            "seed": 4,
            "er_mean_degree": 3.5,
            "sf_m": 3,
            "label_tol": 1e-10,
            "label_max_iter": 100000,
        }
        argv = ["train", "--data", str(data_dir / "train"), "--out", str(tmp_path / "run"), "--model", "gat"]
        argv += ["--loss", "logmse", "--optimizer", "adamw", "--lr", "0.5", "--weight-decay", "0.25"]
        argv += ["--dropout", "0.125", "--epochs", "0", "--batch-size", batch_flag, "--seed", "9"]
        code, _, err = run(capsys, argv)
        assert code == 0, err
        config = json.loads((tmp_path / "run" / "checkpoint.json").read_text())["config"]
        given = {"model": "gat", "loss": "logmse", "optimizer": "adamw", "lr": 0.5, "weight_decay": 0.25}
        given.update(dropout=0.125, epochs=0, batch_size=batch_size, seed=9)
        assert {key: config[key] for key in given} == given

    def test_flag_error_does_not_name_the_file(self, tmp_path, capsys):
        # Only the flag's value is rejected: the first file is valid on its
        # own, and in the second a flag fixes the file's own fault.
        cfg = tmp_path / "cfg.json"
        argv = ["train", "--config", str(cfg), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")]
        for text, flags in [('{"epochs": 1}', ["--lr", "-1"]), ('{"optimizer": "gd"}', ["--weight-decay", "0", "--lr", "-1"])]:
            cfg.write_text(text)
            code, out, err = run(capsys, argv + flags)
            assert code == 1 and out == ""
            assert json.loads(err)["error"] == "learning rate must be positive, got -1.0"

    def test_file_error_named_beside_failing_flags(self, tmp_path, capsys):
        # --optimizer gd fails alone on the default weight decay, which the
        # file sets to 0; the file's own lr is what the merged config rejects.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"weight_decay": 0.0, "lr": -1.0}')
        argv = ["train", "--config", str(cfg), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")]
        code, out, err = run(capsys, argv + ["--optimizer", "gd"])
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == f"{cfg}: learning rate must be positive, got -1.0"

    def test_flag_completes_file(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        argv = ["generate", "--out", str(data_dir), "--families", "cycle", "--train-count", "2", "--test-count", "0"]
        assert run(capsys, argv + ["--train-sizes", "6", "8", "--test-sizes", "6", "8"])[0] == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"optimizer": "gd", "lr": 0.1, "epochs": 1}')
        argv = ["train", "--config", str(cfg), "--data", str(data_dir / "train"), "--out", str(tmp_path / "run")]
        code, _, err = run(capsys, argv + ["--weight-decay", "0"])
        assert code == 0, err
        config = json.loads((tmp_path / "run" / "checkpoint.json").read_text())["config"]
        assert (config["optimizer"], config["weight_decay"], config["lr"]) == ("gd", 0.0, 0.1)


class TestCheckpointFile:
    def write_checkpoint(self, tmp_path, edit):
        from netloc.gcn import GCN
        from netloc.models import save_checkpoint

        model = GCN(d=7, k0=2, k1=3, k2=2)
        path = tmp_path / "ck.json"
        save_checkpoint(path, model, model.init_params(0))
        blob = json.loads(path.read_text())
        edit(blob)
        path.write_text(json.dumps(blob))
        return path

    def run_eval(self, tmp_path, capsys, path):
        argv = ["eval", "--checkpoint", str(path), "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "out")]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        return json.loads(err)

    def test_syntax_error_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\n")
        blob = self.run_eval(tmp_path, capsys, path)
        assert blob["error"].startswith(f"{path}:2: Expecting property name")
        assert blob["type"] == "ValueError"

    def test_json_list_is_not_a_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]\n")
        blob = self.run_eval(tmp_path, capsys, path)
        assert blob["error"] == f"{path}: not a checkpoint file (format=None)"

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda b: b.pop("widths"), "missing key 'widths'"),
            (lambda b: b["params"].pop("w1"), "missing key 'w1'"),
            (lambda b: b["params"]["w0"]["data"].pop(), "parameter 'w0' holds 13 values, but its shape (7, 2) needs 14"),
            (lambda b: b["params"]["w1"].update(shape=[3, 2], data=[0.0] * 6), "parameter 'w1' has shape (3, 2)"),
            (lambda b: b.update(model="mlp"), "unknown model kind 'mlp'"),
            (lambda b: b["widths"].update(k0=0), "widths must be positive"),
            (lambda b: b["params"]["w0"]["data"].__setitem__(3, float("nan")), "parameter 'w0' holds a non-finite value"),
            (lambda b: b["params"]["b"].update(data=[float("-inf")]), "parameter 'b' holds a non-finite value"),
        ],
        ids=["widths", "param", "data-length", "param-shape", "model-kind", "width-value", "param-nan", "param-inf"],
    )
    def test_content_errors_name_the_file(self, tmp_path, capsys, edit, reason):
        path = self.write_checkpoint(tmp_path, edit)
        blob = self.run_eval(tmp_path, capsys, path)
        assert blob["error"].startswith(f"{path}: ")
        assert reason in blob["error"]
        assert blob["error"].count(str(path)) == 1

    def test_overflowing_prediction_names_checkpoint_and_item(self, tmp_path, capsys):
        # A saved GCN with saturated head weights: the cycle's all-zero
        # features keep its readout at b, the star's overflow it.
        data_dir = tmp_path / "data"
        argv = ["generate", "--out", str(data_dir), "--families", "cycle,star", "--train-count", "2"]
        assert run(capsys, argv + ["--test-count", "2", "--train-sizes", "12", "14", "--test-sizes", "12", "14"])[0] == 0
        argv = ["train", "--data", str(data_dir / "train"), "--out", str(tmp_path / "run"), "--epochs", "0"]
        assert run(capsys, argv)[0] == 0
        path = tmp_path / "run" / "checkpoint.json"
        blob = json.loads(path.read_text())
        for name in ("w_lin", "b"):
            blob["params"][name]["data"] = [1e308] * len(blob["params"][name]["data"])
        path.write_text(json.dumps(blob))
        n_star = int((data_dir / "test" / "targets.csv").read_text().splitlines()[2].split(",")[3])
        argv = ["eval", "--checkpoint", str(path), "--data", str(data_dir / "test"), "--out", str(tmp_path / "out")]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": f"{path}: item 1 (star, n={n_star}): prediction is inf",
            "type": "ValueError",
        }
        assert not (tmp_path / "out").exists()

    def test_overflowing_mse_names_checkpoint(self, tmp_path, capsys):
        # Every prediction of an untrained GCN on cycles is b, here finite,
        # but its squared error overflows.
        data_dir = tmp_path / "data"
        argv = ["generate", "--out", str(data_dir), "--families", "cycle", "--train-count", "2"]
        assert run(capsys, argv + ["--test-count", "2", "--train-sizes", "12", "14", "--test-sizes", "12", "14"])[0] == 0
        argv = ["train", "--data", str(data_dir / "train"), "--out", str(tmp_path / "run"), "--epochs", "0"]
        assert run(capsys, argv)[0] == 0
        path = tmp_path / "run" / "checkpoint.json"
        blob = json.loads(path.read_text())
        blob["params"]["b"]["data"] = [1e200]
        path.write_text(json.dumps(blob))
        argv = ["eval", "--checkpoint", str(path), "--data", str(data_dir / "test"), "--out", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": f"{path}: mse is inf", "type": "ValueError"}
        assert not (tmp_path / "out").exists()

    def test_nan_epsilon_is_json_error(self, tmp_path, capsys):
        path = self.write_checkpoint(tmp_path, lambda b: None)
        argv = ["eval", "--checkpoint", str(path), "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "out")]
        code, out, err = run(capsys, argv + ["--epsilon", "nan"])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "epsilon must be positive, got nan", "type": "ValueError"}


class TestPipeline:
    def test_generate_train_eval(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        code, out, _ = run(
            capsys,
            [
                "generate",
                "--out", str(data_dir),
                "--families", "cycle,star",
                "--train-count", "4",
                "--test-count", "2",
                "--train-sizes", "12", "16",
                "--test-sizes", "18", "22",
                "--seed", "0",
            ],
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["train"] == 4 and blob["test"] == 2
        assert (data_dir / "train" / "manifest.json").is_file()
        assert (data_dir / "test" / "targets.csv").is_file()

        run_dir = tmp_path / "run"
        code, out, _ = run(
            capsys,
            [
                "train",
                "--data", str(data_dir / "train"),
                "--out", str(run_dir),
                "--model", "gcn",
                "--epochs", "2",
                "--batch-size", "0",
                "--seed", "1",
            ],
        )
        assert code == 0
        assert json.loads(out)["epochs"] == 2
        assert (run_dir / "checkpoint.json").is_file()
        assert (run_dir / "loss_curve.csv").is_file()

        eval_dir = tmp_path / "eval"
        code, out, _ = run(
            capsys,
            [
                "eval",
                "--checkpoint", str(run_dir / "checkpoint.json"),
                "--data", str(data_dir / "test"),
                "--out", str(eval_dir),
            ],
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["count"] == 2
        assert 0.0 <= blob["region_accuracy"] <= 1.0
        assert blob["seconds"] > 0.0
        summary = json.loads((eval_dir / "summary.json").read_text())
        assert summary["count"] == 2

    def test_diverging_train_fails_before_writing(self, tmp_path, capsys):
        # A huge plain-gd step turns the weights to NaN at epoch 3 while that
        # epoch's loss is still finite; no artifact may hold the NaN weights.
        data_dir = tmp_path / "data"
        argv = ["generate", "--out", str(data_dir), "--families", "cycle,star", "--train-count", "6"]
        assert run(capsys, argv + ["--test-count", "2", "--train-sizes", "12", "18", "--test-sizes", "12", "18"])[0] == 0
        argv = ["train", "--data", str(data_dir / "train"), "--out", str(tmp_path / "run"), "--optimizer", "gd"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv + ["--weight-decay", "0", "--lr", "1e30", "--epochs", "3"])
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "parameter 'w0' became non-finite at epoch 3 (lr=1e+30, optimizer=gd); lower the learning rate",
            "type": "NumericFailure",
        }
        assert not (tmp_path / "run").exists()

    def test_empty_dataset_names_the_data_directory(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        argv = ["generate", "--out", str(data_dir), "--families", "cycle,star", "--train-count", "2"]
        assert run(capsys, argv + ["--test-count", "0", "--train-sizes", "12", "14", "--test-sizes", "12", "14"])[0] == 0
        empty = str(data_dir / "test")
        code, out, err = run(capsys, ["train", "--data", empty, "--out", str(tmp_path / "none"), "--epochs", "0"])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": f"{empty}: cannot train on an empty dataset", "type": "ValueError"}
        argv = ["train", "--data", str(data_dir / "train"), "--out", str(tmp_path / "run"), "--epochs", "0"]
        assert run(capsys, argv)[0] == 0
        argv = ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"), "--data", empty]
        code, out, err = run(capsys, argv + ["--out", str(tmp_path / "eval")])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": f"{empty}: cannot evaluate an empty dataset", "type": "ValueError"}

    @pytest.mark.parametrize(
        "text, n, reason, kind",
        [
            ("10 2\n0 1\n2 3\n", 10, "pagerank needs every node to have degree >= 1", "ValueError"),
            ("1000000000000 0\n", 10**12, "Unable to allocate", "MemoryError"),
        ],
        ids=["isolated-nodes", "huge-n"],
    )
    def test_unprocessable_item_names_its_edge_file(self, tmp_path, capsys, text, n, reason, kind):
        data_dir = tmp_path / "data"
        argv = ["generate", "--out", str(data_dir), "--families", "cycle,star", "--train-count", "2"]
        assert run(capsys, argv + ["--test-count", "3", "--train-sizes", "12", "14", "--test-sizes", "12", "14"])[0] == 0
        argv = ["train", "--data", str(data_dir / "train"), "--out", str(tmp_path / "run"), "--epochs", "0"]
        assert run(capsys, argv)[0] == 0
        checkpoint = str(tmp_path / "run" / "checkpoint.json")
        # Item 0, then item 1 of 3, of a copy of the test split becomes a graph
        # with no oracle label and no features. The verify pass re-labels
        # every 20th item, so it refuses item 0 and leaves item 1 to the
        # feature pass, which takes all three items in one group.
        refused = ("power iteration needs a connected graph", "DatasetFormatError")
        for index, verified in [(0, refused), (1, (reason, kind))]:
            split_dir = tmp_path / f"test{index}"
            shutil.copytree(data_dir / "test", split_dir)
            path = split_dir / "graphs" / f"{index:06d}.edges"
            path.write_text(text)
            csv = split_dir / "targets.csv"
            rows = csv.read_text().splitlines()
            rows[1 + index] = ",".join(rows[1 + index].split(",")[:3] + [str(n)])
            csv.write_text("\n".join(rows) + "\n")
            train = ["train", "--data", str(split_dir), "--out", str(tmp_path / "again"), "--epochs", "0"]
            evaluate = ["eval", "--checkpoint", checkpoint, "--data", str(split_dir), "--out", str(tmp_path / "eval")]
            for argv, message, error in [
                (train, *verified),
                (train + ["--no-verify"], reason, kind),
                (evaluate, *verified),
                (evaluate + ["--no-verify"], reason, kind),
            ]:
                code, out, err = run(capsys, argv)
                assert code == 1 and out == ""
                blob = json.loads(err)
                assert blob["error"].startswith(f"{path}: {message}")
                assert blob["error"].count(str(path)) == 1 and str(checkpoint) not in blob["error"]
                assert blob["type"] == error
            assert not (tmp_path / "again").exists() and not (tmp_path / "eval").exists()

    def test_huge_finite_weights_get_every_histogram(self, tmp_path, capsys):
        # One huge plain-gd step leaves b near 1e29: finite, but ±0.5 around
        # one value is below float64 spacing there.
        data_dir = tmp_path / "data"
        argv = ["generate", "--out", str(data_dir), "--families", "cycle,star", "--train-count", "6"]
        assert run(capsys, argv + ["--test-count", "2", "--train-sizes", "12", "18", "--test-sizes", "12", "18"])[0] == 0
        argv = ["train", "--data", str(data_dir / "train"), "--out", str(tmp_path / "run"), "--optimizer", "gd"]
        code, out, err = run(capsys, argv + ["--weight-decay", "0", "--lr", "1e30", "--epochs", "1"])
        assert code == 0, err
        b = load_checkpoint(tmp_path / "run" / "checkpoint.json")[1]["b"]
        assert 1e20 < abs(float(b)) < np.inf
        names = ("w0", "w1", "w2", "w_lin", "b")
        assert {p.name for p in (tmp_path / "run").glob("weights_*.csv")} == {
            f"weights_epoch{e:04d}_{name}.csv" for e in (0, 1) for name in names
        }
        rows = (tmp_path / "run" / "weights_epoch0001_b.csv").read_text().splitlines()[1:]
        assert len(rows) == 30 and sum(int(r.split(",")[2]) for r in rows) == 1

    def test_generate_is_deterministic(self, tmp_path, capsys):
        argv = [
            "generate",
            "--families", "cycle,er",
            "--train-count", "3",
            "--test-count", "0",
            "--train-sizes", "12", "16",
            "--test-sizes", "12", "16",
            "--seed", "5",
        ]
        assert run(capsys, argv + ["--out", str(tmp_path / "a")])[0] == 0
        assert run(capsys, argv + ["--out", str(tmp_path / "b")])[0] == 0
        for rel in ("train/targets.csv", "train/graphs/000001.edges"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_generate_paths_at_default_sizes(self, tmp_path, capsys):
        # Default test sizes (400-500) give paths whose spectral gap is too
        # small for power iteration alone within the default budget.
        argv = ["generate", "--out", str(tmp_path), "--families", "path"]
        code, out, err = run(capsys, argv + ["--train-count", "2", "--test-count", "2"])
        assert code == 0, err
        assert json.loads(out)["test"] == 2


class TestIngestTu:
    @staticmethod
    def write_rings(directory):
        """Two 12-cycles and one triangle in TU format, named RINGS."""
        from test_data import write_tu_fixture

        a_lines = []
        ind_lines = []
        node = 0
        for gid, size in ((1, 12), (2, 3), (3, 12)):
            first = node + 1
            for k in range(size):
                u = first + k
                v = first + (k + 1) % size
                a_lines.extend([f"{u}, {v}", f"{v}, {u}"])
                ind_lines.append(str(gid))
            node += size
        write_tu_fixture(directory, name="RINGS", a_lines=a_lines, ind_lines=ind_lines)

    def test_ingest_filters_and_saves(self, tmp_path, capsys):
        # min-nodes 10 keeps only the cycles.
        self.write_rings(tmp_path / "raw")
        code, out, _ = run(
            capsys,
            ["ingest-tu", str(tmp_path / "raw"), "--out", str(tmp_path / "ds"), "--name", "RINGS"],
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["raw"] == 3 and blob["kept"] == 2
        from netloc.data import load_dataset

        items, _ = load_dataset(tmp_path / "ds")
        assert [it.graph.n for it in items] == [12, 12]
        assert all(it.family == "RINGS" for it in items)

    def test_defaults_bind(self, tmp_path, capsys):
        from netloc.data import load_dataset

        self.write_rings(tmp_path / "raw")
        for extra, sizes in (([], [12, 12]), (["--min-nodes", "3"], [12, 3, 12])):
            out_dir = tmp_path / f"ds{len(extra)}"
            code, _, err = run(capsys, ["ingest-tu", str(tmp_path / "raw"), "--out", str(out_dir), *extra])
            assert code == 0, err
            items, manifest = load_dataset(out_dir)
            assert [it.graph.n for it in items] == sizes
            assert manifest["name"] == "tu"
            assert all(it.family == "tu" for it in items)

    def test_name_in_any_case_finds_the_files_and_tags_as_given(self, tmp_path, capsys):
        from netloc.data import load_dataset

        self.write_rings(tmp_path / "raw")
        code, _, err = run(capsys, ["ingest-tu", str(tmp_path / "raw"), "--out", str(tmp_path / "ds"), "--name", "rings"])
        assert code == 0, err
        items, manifest = load_dataset(tmp_path / "ds")
        assert [it.graph.n for it in items] == [12, 12]
        assert manifest["name"] == "rings"
        assert all(it.family == "rings" for it in items)

    @pytest.mark.parametrize("name", ["a,b", "a\nb"], ids=["comma", "line-break"])
    def test_family_that_targets_csv_cannot_hold_is_refused(self, tmp_path, capsys, name):
        from test_data import write_tu_fixture

        write_tu_fixture(tmp_path / "raw", name=name)
        code, out, err = run(
            capsys, ["ingest-tu", str(tmp_path / "raw"), "--out", str(tmp_path / "ds"), "--name", name, "--min-nodes", "3"]
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"].startswith(f"{tmp_path / 'ds'}: item 0: family {name!r}")
        assert not (tmp_path / "ds").exists()


class TestGradcheck:
    def test_exit_zero_within_tolerance(self, capsys):
        code, out, _ = run(capsys, ["gradcheck", "--model", "gcn", "--seeds", "2"])
        assert code == 0
        blob = json.loads(out)
        assert blob["max_rel_err"] < 1e-4

    def test_negative_seed_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gradcheck", "--seed", "-1"])
        assert info.value.code == 2
        assert "--seed: must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_seeds_below_one_exit_2(self, capsys, seeds):
        with pytest.raises(SystemExit) as info:
            main(["gradcheck", "--seeds", seeds])
        assert info.value.code == 2
        assert "--seeds" in capsys.readouterr().err


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["orbit"])
        assert info.value.code == 2

    def test_parser_reuse_keeps_no_flag_values(self, tmp_path, capsys):
        # The star on 6 nodes has IPR 0.3: weak below tau2 = 0.35, strong above the default 0.2.
        write_edgelist(make_star(6), tmp_path / "star6.edges")
        argv = ["spectral", str(tmp_path / "star6.edges")]
        regions = []
        for extra in (["--tau2", "0.35"], []):
            code, out, _ = run(capsys, argv + extra)
            assert code == 0
            regions.append(json.loads(out)["region"])
        assert regions == [2, 3]

    def test_usage_error_after_success_exits_2(self, tmp_path, capsys):
        write_edgelist(make_star(6), tmp_path / "star6.edges")
        assert run(capsys, ["spectral", str(tmp_path / "star6.edges")])[0] == 0
        with pytest.raises(SystemExit) as info:
            main(["spectral", str(tmp_path / "star6.edges"), "--tau2"])
        assert info.value.code == 2

    def test_module_entry_point(self, tmp_path):
        write_edgelist(make_star(6), tmp_path / "g.edges")
        proc = subprocess.run(
            [sys.executable, "-m", "netloc.cli", "spectral", str(tmp_path / "g.edges")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n"] == 6
