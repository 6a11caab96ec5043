import numpy as np
import pytest

from netloc.data import FAMILIES
from netloc.features import build_feature_matrix
from netloc.gcn import GCN
from netloc.graphs import Graph, make_cycle, make_er, make_path, make_scale_free, make_star, make_wheel
from netloc.kernels import LOG_MSE, MSE, loss, loss_grad, normalized_adjacency
from netloc.optim import GradientDescent

from oracles import fd_gradient, gcn_straight_line


def connected_er(n, p, seed):
    from netloc.graphs import is_connected

    for s in range(seed, seed + 50):
        g = make_er(n, p, seed=s)
        if is_connected(g):
            return g
    raise AssertionError("no connected sample found")


def zero_params(model):
    return {name: np.zeros_like(p) for name, p in model.init_params(0).items()}


class TestForward:
    def test_zero_weights_output_is_bias(self):
        model = GCN(d=7, k0=4, k1=4, k2=4)
        params = zero_params(model)
        params["b"] = np.array(0.7)
        g = make_star(6)
        inputs = model.prepare(g, np.zeros((6, 7)))
        yhat, _ = model.forward(params, inputs)
        assert yhat == 0.7

    def test_first_layer_matches_integer_chain(self):
        # Drive layer 1 with hand-checkable integers: the propagation input is
        # fed in directly as a 2x2 "adjacency", so q1 = (A @ H0) @ W0 must come
        # out bit-for-bit.
        model = GCN(d=3, k0=2, k1=2, k2=2)
        params = zero_params(model)
        params["w0"] = np.array([[1.0, 2.0], [0.0, 1.0], [-1.0, 0.0]])
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        h0 = np.array([[1.0, 0.0, 2.0], [-1.0, 3.0, 1.0]])
        _, acts = model.forward(params, (a, h0, np.ones(2, dtype=np.int64)))
        assert acts.p[0].tolist() == [[-1.0, 6.0, 4.0], [-1.0, 12.0, 10.0]]
        assert acts.q[0].tolist() == [[-5.0, 4.0], [-11.0, 10.0]]

    def test_readout_is_mean_of_last_layer(self):
        model = GCN(d=7, k0=3, k1=3, k2=2)
        params = model.init_params(3)
        g = connected_er(8, 0.4, seed=1)
        inputs = model.prepare(g, np.random.default_rng(0).uniform(size=(8, 7)))
        yhat, acts = model.forward(params, inputs)
        np.testing.assert_allclose(acts.z, np.maximum(acts.q[2], 0.0).mean(axis=0))
        assert yhat == pytest.approx(float(acts.z @ params["w_lin"][:, 0] + params["b"]))

    def test_prepare_validates_feature_shape(self):
        model = GCN(d=7, k0=64, k1=64, k2=64)
        with pytest.raises(ValueError, match="features"):
            model.prepare(make_star(5), np.zeros((5, 6)))

    def test_init_is_deterministic(self):
        model = GCN(d=7, k0=8, k1=8, k2=8)
        p1 = model.init_params(42)
        p2 = model.init_params(42)
        for name in model.param_names:
            np.testing.assert_array_equal(p1[name], p2[name])

    def test_width_validation(self):
        with pytest.raises(ValueError, match="widths"):
            GCN(d=0, k0=64, k1=64, k2=64)


class TestLayerLoop:
    GRAPHS = {
        "cycle": lambda: make_cycle(11),
        "path": lambda: make_path(11),
        "star": lambda: make_star(11),
        "wheel": lambda: make_wheel(11),
        "er": lambda: connected_er(11, 0.35, seed=3),
        "scale_free": lambda: make_scale_free(11, 2, seed=4),
    }

    @pytest.mark.parametrize("kind", [MSE, LOG_MSE], ids=["mse", "logmse"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_straight_line_reference_bit_for_bit(self, family, kind):
        model = GCN(d=7, k0=6, k1=5, k2=4)
        params = model.init_params(21)
        # A positive bias keeps yhat above the log loss's floor, so dy != 0.
        params["b"] = np.array(0.5)
        g = self.GRAPHS[family]()
        ahat, h0, s = model.prepare(g, build_feature_matrix(g))
        yhat, acts = model.forward(params, (ahat, h0, s))
        dy = float(loss_grad(np.array([yhat]), np.array([0.2]), kind)[0])
        assert dy != 0.0
        ref_yhat, ref_grads = gcn_straight_line(params, ahat, h0, s, dy)
        grads = model.backward(params, acts, dy)
        assert yhat == ref_yhat
        assert set(grads) == set(ref_grads) == set(model.param_names)
        for name in model.param_names:
            assert np.array_equal(grads[name], ref_grads[name]), name


class TestQuotient:
    # Class counts of the feature-started partition at n = 11.
    CLASSES = {"cycle": 1, "path": 6, "star": 2, "wheel": 2, "er": 11, "scale_free": 10}

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_per_node_network(self, family):
        # The quotient network against the per-node one: Ahat of the whole
        # graph and the full feature matrix, every row standing for one node.
        model = GCN(d=7, k0=6, k1=5, k2=4)
        params = model.init_params(22)
        g = TestLayerLoop.GRAPHS[family]()
        h0 = build_feature_matrix(g)
        inputs = model.prepare(g, h0)
        assert inputs[2].size == self.CLASSES[family] and inputs[2].sum() == g.n
        yhat, acts = model.forward(params, inputs)
        grads = model.backward(params, acts, 0.7)
        ref_yhat, ref_grads = gcn_straight_line(params, normalized_adjacency(g), h0, np.ones(g.n), 0.7)
        assert abs(yhat - ref_yhat) <= 1e-14 * abs(ref_yhat)
        for name in model.param_names:
            assert np.max(np.abs(grads[name] - ref_grads[name])) <= 1e-13 * np.max(np.abs(ref_grads[name])), name

    def test_er_inputs_are_the_per_node_network(self):
        model = GCN(d=7, k0=4, k1=4, k2=4)
        g = connected_er(40, 0.15, seed=7)
        for h0 in (build_feature_matrix(g), np.random.default_rng(8).random((g.n, 7))):
            ahat, rows, s = model.prepare(g, h0)
            assert np.array_equal(ahat, normalized_adjacency(g))
            assert np.array_equal(rows, h0) and np.array_equal(s, np.ones(g.n))

    def test_cycle_runs_on_one_row(self):
        model = GCN(d=7, k0=4, k1=4, k2=4)
        ahat, rows, s = model.prepare(make_cycle(300), build_feature_matrix(make_cycle(300)))
        assert ahat.shape == (1, 1) and ahat[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert rows.shape == (1, 7) and s.tolist() == [300]


class TestBatchGradients:
    def build_batch(self, model, n_graphs=3, seed=0):
        rng = np.random.default_rng(seed)
        inputs, targets = [], []
        for k in range(n_graphs):
            g = connected_er(6, 0.5, seed=100 * seed + k)
            inputs.append(model.prepare(g, rng.uniform(size=(6, model.d))))
            targets.append(rng.uniform(0.05, 0.5))
        return inputs, np.array(targets)

    def test_head_gradient_accumulates_per_graph_terms(self):
        # For MSE over 3 graphs the w_lin gradient must be the literal sum of
        # (2/3)(yhat_k - y_k) z_k, and b's the sum of (2/3)(yhat_k - y_k).
        model = GCN(d=7, k0=5, k1=4, k2=3)
        params = model.init_params(7)
        inputs, targets = self.build_batch(model, n_graphs=3, seed=2)
        _, grads = model.batch_step(params, inputs, targets, MSE)

        dw_lin = np.zeros_like(params["w_lin"])
        db = 0.0
        for inp, y in zip(inputs, targets):
            yhat, acts = model.forward(params, inp)
            coeff = (2.0 / 3.0) * (yhat - y)
            dw_lin += coeff * acts.z[:, None]
            db += coeff
        np.testing.assert_allclose(grads["w_lin"], dw_lin, atol=1e-14)
        np.testing.assert_allclose(grads["b"], db, atol=1e-14)

    def test_gradients_match_finite_differences(self):
        model = GCN(d=7, k0=5, k1=4, k2=3)
        params = model.init_params(11)
        inputs, targets = self.build_batch(model, n_graphs=2, seed=5)
        _, grads = model.batch_step(params, inputs, targets, MSE)

        for name in model.param_names:
            def f(flat, name=name):
                trial = dict(params)
                trial[name] = flat.reshape(params[name].shape)
                preds = model.predict(trial, inputs)
                return loss(preds, targets, MSE)

            num = fd_gradient(f, params[name].ravel()).reshape(params[name].shape)
            scale = np.maximum(1e-6, np.abs(grads[name]) + np.abs(num))
            worst = float((np.abs(grads[name] - num) / scale).max())
            assert worst < 1e-4, f"{name}: max relative error {worst}"

    def test_batch_size_mismatch_rejected(self):
        model = GCN(d=7, k0=3, k1=3, k2=3)
        params = model.init_params(0)
        inputs, _ = self.build_batch(model, n_graphs=2, seed=1)
        with pytest.raises(ValueError, match="batch size"):
            model.batch_step(params, inputs, np.array([0.1]))


class TestBehaviour:
    def test_permutation_invariance(self):
        model = GCN(d=7, k0=6, k1=6, k2=6)
        params = model.init_params(9)
        g = connected_er(10, 0.3, seed=4)
        feats = np.random.default_rng(1).uniform(size=(10, 7))
        yhat, _ = model.forward(params, model.prepare(g, feats))

        perm = np.random.default_rng(2).permutation(10)
        remapped = Graph(
            g.n,
            tuple(tuple(sorted((int(perm[i]), int(perm[j])))) for i, j in g.edges),
        )
        feats_p = np.empty_like(feats)
        feats_p[perm] = feats
        yhat_p, _ = model.forward(params, model.prepare(remapped, feats_p))
        assert abs(yhat - yhat_p) < 1e-10

    def test_gradient_descent_reduces_loss(self):
        model = GCN(d=7, k0=8, k1=8, k2=8)
        params = model.init_params(13)
        rng = np.random.default_rng(3)
        inputs, targets = [], []
        for k in range(4):
            g = connected_er(8, 0.4, seed=200 + k)
            inputs.append(model.prepare(g, rng.uniform(size=(8, 7))))
            targets.append(rng.uniform(0.1, 0.4))
        targets = np.array(targets)

        opt = GradientDescent(lr=0.05)
        first, _ = model.batch_step(params, inputs, targets, MSE)
        for _ in range(60):
            _, grads = model.batch_step(params, inputs, targets, MSE)
            opt.step(params, grads)
        last, _ = model.batch_step(params, inputs, targets, MSE)
        assert last < first * 0.5

    def test_checkpoint_round_trip(self):
        from netloc.models import load_checkpoint, save_checkpoint

        model = GCN(d=7, k0=4, k1=5, k2=6)
        params = model.init_params(17)
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ck.json"
            save_checkpoint(path, model, params, {"note": "test"})
            loaded_model, loaded, config = load_checkpoint(path)
        assert isinstance(loaded_model, GCN)
        assert loaded_model.widths() == model.widths()
        assert config == {"note": "test"}
        for name in model.param_names:
            np.testing.assert_array_equal(loaded[name], params[name])
