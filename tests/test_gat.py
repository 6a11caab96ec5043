import numpy as np
import pytest

from netloc.gat import GAT
from netloc.graphs import Graph, make_er, make_path, make_star
from netloc.kernels import MSE, loss

from oracles import adjacency_lists, attention_scores, fd_gradient, softmax


N1 = Graph(1)
DISCONNECTED = Graph(6, ((0, 1), (0, 2), (3, 5)))


def connected_er(n, p, seed):
    from netloc.graphs import is_connected

    for s in range(seed, seed + 50):
        g = make_er(n, p, seed=s)
        if is_connected(g):
            return g
    raise AssertionError("no connected sample found")


class TestScoreHelpers:
    """The reference scores and softmax that the per-node attention test trusts."""

    def test_all_ones_score(self):
        f = 5
        wh = np.ones(f)
        a = np.ones(2 * f)
        assert attention_scores(wh, wh, a) == pytest.approx(2.0 * f)

    def test_negative_side_uses_leaky_slope(self):
        f = 3
        wh = np.ones(f)
        a = -np.ones(2 * f)
        assert attention_scores(wh, wh, a) == pytest.approx(-0.2 * 2.0 * f)

    def test_batched_rows(self):
        rng = np.random.default_rng(0)
        wh_i = rng.normal(size=(4, 3))
        wh_j = rng.normal(size=(4, 3))
        a = rng.normal(size=6)
        batched = attention_scores(wh_i, wh_j, a)
        singles = [attention_scores(wh_i[k], wh_j[k], a) for k in range(4)]
        np.testing.assert_allclose(batched, singles)

    def test_vector_length_validated(self):
        with pytest.raises(ValueError, match="length"):
            attention_scores(np.ones(3), np.ones(3), np.ones(5))

    def test_normalize_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(4)), np.full(4, 0.25))

    def test_normalize_sums_to_one(self):
        alpha = softmax(np.array([1.0, -2.0, 0.5]))
        assert abs(alpha.sum() - 1.0) < 1e-12
        assert np.all(alpha > 0)

    def test_normalize_shift_invariant(self):
        s = np.array([0.2, -1.0, 3.0])
        np.testing.assert_allclose(softmax(s), softmax(s + 50.0), atol=1e-12)

    def test_normalize_rejects_empty(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))


def segment(values, starts, i, total):
    end = starts[i + 1] if i + 1 < len(starts) else total
    return values[starts[i] : end]


class TestForward:
    def test_single_node_attention_is_one(self):
        model = GAT(d=7, heads=2, f1=3, f2=4, dropout=0.0)
        params = model.init_params(0)
        inputs = model.prepare(Graph(1, ()), np.random.default_rng(0).uniform(size=(1, 7)))
        _, acts = model.forward(params, inputs)
        np.testing.assert_array_equal(acts.attn[0].alpha, [[1.0, 1.0]])
        np.testing.assert_array_equal(acts.attn[1].alpha, [[1.0]])

    def test_alpha_matches_scalar_helpers(self):
        # The stacked segment softmax and the dense aggregation must agree,
        # head by head, with an explicit per-node loop over the reference
        # scores: s_i = sum_j alpha_ij Wh_j.
        model = GAT(d=7, heads=2, f1=3, f2=4, dropout=0.6)
        params = model.init_params(5)
        g = connected_er(9, 0.35, seed=2)
        adj = adjacency_lists(g)
        feats = np.random.default_rng(1).uniform(size=(9, 7))
        _, acts = model.forward(params, model.prepare(g, feats))
        _, _, starts = g.loops

        for h in range(model.heads):
            wh = feats @ params[f"w1h{h}"]
            a = params[f"a1h{h}"]
            np.testing.assert_allclose(acts.attn[0].wh[:, h], wh, atol=1e-12)
            for i in range(g.n):
                hood = sorted(adj[i] + (i,))
                scores = attention_scores(np.tile(wh[i], (len(hood), 1)), wh[list(hood)], a)
                expected = softmax(scores)
                got = segment(acts.attn[0].alpha[:, h], starts, i, len(acts.attn[0].alpha))
                np.testing.assert_allclose(got, expected, atol=1e-12)
                s_i = sum(alpha * wh[j] for alpha, j in zip(expected, hood))
                np.testing.assert_allclose(acts.attn[0].s[i, h], s_i, atol=1e-12)

    def test_alpha_segments_sum_to_one(self):
        model = GAT(d=7, heads=3, f1=4, f2=5, dropout=0.6)
        params = model.init_params(8)
        g = make_star(12)
        _, acts = model.forward(params, model.prepare(g, np.random.default_rng(3).uniform(size=(12, 7))))
        for cache in acts.attn:
            sums = np.add.reduceat(cache.alpha, g.loops[2])
            np.testing.assert_allclose(sums, np.ones((12, cache.alpha.shape[1])), atol=1e-12)

    def test_eval_mode_deterministic(self):
        model = GAT(d=7, heads=2, f1=4, f2=4, dropout=0.6)
        params = model.init_params(2)
        inputs = model.prepare(make_path(6), np.random.default_rng(4).uniform(size=(6, 7)))
        y1, _ = model.forward(params, inputs)
        y2, _ = model.forward(params, inputs)
        assert y1 == y2

    def test_train_mode_reproducible_given_seed(self):
        model = GAT(d=7, heads=2, f1=4, f2=4, dropout=0.6)
        params = model.init_params(2)
        inputs = model.prepare(make_path(6), np.random.default_rng(4).uniform(size=(6, 7)))
        y1, _ = model.forward(params, inputs, train=True, rng=np.random.default_rng(7))
        y2, _ = model.forward(params, inputs, train=True, rng=np.random.default_rng(7))
        y3, _ = model.forward(params, inputs, train=True, rng=np.random.default_rng(8))
        assert y1 == y2
        assert y1 != y3

    def test_attention_dropout_draws_head_by_head(self):
        # Training runs depend on the rng stream: the input mask first, then
        # each head's attention mask over all edges in turn, then layer 2's
        # input mask and its one attention mask.
        model = GAT(d=7, heads=3, f1=2, f2=2, dropout=0.5)
        params = model.init_params(1)
        g = make_star(5)
        inputs = model.prepare(g, np.random.default_rng(2).uniform(size=(5, 7)))
        _, acts = model.forward(params, inputs, train=True, rng=np.random.default_rng(7))
        pairs = g.loops[0].size
        replay = np.random.default_rng(7)
        np.testing.assert_array_equal(acts.masks[0], replay.random((5, 7)) < 0.5)
        for h in range(model.heads):
            expected = replay.random(pairs) < 0.5
            np.testing.assert_array_equal(acts.attn[0].amask[:, h], expected)
        np.testing.assert_array_equal(acts.masks[1], replay.random((5, model.heads * model.f1)) < 0.5)
        np.testing.assert_array_equal(acts.attn[1].amask[:, 0], replay.random(pairs) < 0.5)

    def test_train_mode_requires_rng(self):
        model = GAT(d=7, heads=1, f1=2, f2=2, dropout=0.6)
        params = model.init_params(0)
        inputs = model.prepare(make_path(3), np.zeros((3, 7)))
        with pytest.raises(ValueError, match="rng"):
            model.forward(params, inputs, train=True)

    def test_zero_dropout_train_equals_eval(self):
        model = GAT(d=7, heads=2, f1=3, f2=3, dropout=0.0)
        params = model.init_params(6)
        inputs = model.prepare(make_star(5), np.random.default_rng(5).uniform(size=(5, 7)))
        y_eval, _ = model.forward(params, inputs)
        y_train, _ = model.forward(params, inputs, train=True, rng=np.random.default_rng(0))
        assert y_eval == y_train

    def test_dropout_validation(self):
        with pytest.raises(ValueError, match="dropout"):
            GAT(d=7, heads=4, f1=16, f2=64, dropout=1.0)


class TestSoftmaxJacobian:
    def test_matches_finite_differences(self):
        # The backward pass uses de = alpha * (dalpha - <alpha, dalpha>),
        # i.e. J = diag(alpha) - alpha alpha^T. Check J column by column.
        rng = np.random.default_rng(9)
        s = rng.normal(size=5)
        alpha = softmax(s)
        jac_analytic = np.diag(alpha) - np.outer(alpha, alpha)
        for k in range(5):
            col = fd_gradient(lambda x, k=k: softmax(x)[k], s)
            np.testing.assert_allclose(jac_analytic[k], col, atol=1e-8)


class TestGradients:
    def build_batch(self, model, n_graphs=2, seed=0):
        rng = np.random.default_rng(seed)
        inputs, targets = [], []
        for k in range(n_graphs):
            g = connected_er(6, 0.5, seed=300 * seed + k)
            inputs.append(model.prepare(g, rng.uniform(size=(6, model.d))))
            targets.append(rng.uniform(0.05, 0.5))
        return inputs, np.array(targets)

    def test_eval_gradients_match_finite_differences(self):
        model = GAT(d=7, heads=2, f1=3, f2=4, dropout=0.6)
        params = model.init_params(21)
        inputs, targets = self.build_batch(model, seed=3)
        # A single node and a disconnected graph have one-pair and isolated
        # softmax segments; their gradients go through the same operator.
        rng = np.random.default_rng(4)
        for g in (N1, DISCONNECTED):
            inputs.append(model.prepare(g, rng.uniform(size=(g.n, model.d))))
        targets = np.append(targets, [0.3, 0.2])
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

    def test_train_gradients_match_finite_differences_with_fixed_masks(self):
        # Freeze the dropout masks by replaying the same rng seed inside the
        # probe, so the FD target is the same stochastic function each call.
        model = GAT(d=7, heads=2, f1=3, f2=3, dropout=0.4)
        params = model.init_params(31)
        inputs, targets = self.build_batch(model, n_graphs=1, seed=6)

        def run(trial):
            rng = np.random.default_rng(1234)
            preds = np.array([model.forward(trial, inp, train=True, rng=rng)[0] for inp in inputs])
            return preds

        rng = np.random.default_rng(1234)
        _, grads = model.batch_step(params, inputs, targets, MSE, train=True, rng=rng)
        for name in ("w2", "w_lin", "a1h0"):
            def f(flat, name=name):
                trial = dict(params)
                trial[name] = flat.reshape(params[name].shape)
                return loss(run(trial), targets, MSE)

            num = fd_gradient(f, params[name].ravel()).reshape(params[name].shape)
            scale = np.maximum(1e-6, np.abs(grads[name]) + np.abs(num))
            worst = float((np.abs(grads[name] - num) / scale).max())
            assert worst < 1e-4, f"{name}: max relative error {worst}"


class TestBehaviour:
    def test_permutation_invariance(self):
        model = GAT(d=7, heads=2, f1=4, f2=4, dropout=0.6)
        params = model.init_params(12)
        g = connected_er(8, 0.4, seed=9)
        feats = np.random.default_rng(2).uniform(size=(8, 7))
        yhat, _ = model.forward(params, model.prepare(g, feats))

        perm = np.random.default_rng(3).permutation(8)
        remapped = Graph(
            g.n,
            tuple(tuple(sorted((int(perm[i]), int(perm[j])))) for i, j in g.edges),
        )
        feats_p = np.empty_like(feats)
        feats_p[perm] = feats
        yhat_p, _ = model.forward(params, model.prepare(remapped, feats_p))
        assert abs(yhat - yhat_p) < 1e-10

    def test_checkpoint_round_trip(self):
        import tempfile
        from pathlib import Path

        from netloc.models import load_checkpoint, save_checkpoint

        model = GAT(d=7, heads=3, f1=5, f2=6, dropout=0.25)
        params = model.init_params(14)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ck.json"
            save_checkpoint(path, model, params)
            loaded_model, loaded, _ = load_checkpoint(path)
        assert isinstance(loaded_model, GAT)
        assert loaded_model.widths() == model.widths()
        for name in model.param_names:
            np.testing.assert_array_equal(loaded[name], params[name])
