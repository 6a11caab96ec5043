import numpy as np
import pytest

from netloc.graphs import make_cycle, make_er, make_path, make_scale_free, make_star, make_wheel
from netloc.kernels import (
    LOG_FLOOR,
    LOG_MSE,
    MSE,
    LossKind,
    glorot_init,
    leaky_relu,
    leaky_relu_grad,
    loss,
    loss_grad,
    normalized_adjacency,
    relu,
    relu_grad,
)

from netloc.models import GraphRegressor

from oracles import adjacency_matrix, fd_gradient, principal_eigenpair, softmax


class TestMatmul:
    def test_integer_chain_exact(self):
        # Hand-checkable integer chain; float64 keeps small integers exact,
        # so this must match bit for bit.
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        h = np.array([[1.0, 0.0, 2.0], [-1.0, 3.0, 1.0]])
        w = np.array([[1.0, 2.0], [0.0, 1.0], [-1.0, 0.0]])
        e = a @ h
        assert e.tolist() == [[-1.0, 6.0, 4.0], [-1.0, 12.0, 10.0]]
        d = e @ w
        assert d.tolist() == [[-5.0, 4.0], [-11.0, 10.0]]

    def test_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(np.eye(2) @ x, x)

    def test_associativity_to_tolerance(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b, c = (rng.normal(size=(7, 7)) for _ in range(3))
            left = (a @ b) @ c
            right = a @ (b @ c)
            np.testing.assert_allclose(left, right, rtol=1e-9, atol=1e-9)


class TestNormalizedAdjacency:
    def test_single_edge(self):
        from netloc.graphs import Graph

        ahat = normalized_adjacency(Graph(2, ((0, 1),)))
        np.testing.assert_allclose(ahat, np.full((2, 2), 0.5))

    def test_symmetric(self):
        ahat = normalized_adjacency(make_er(30, 0.2, seed=1))
        np.testing.assert_array_equal(ahat, ahat.T)

    def test_leading_eigenvalue_is_one(self):
        for g in (make_cycle(12), make_star(12), make_wheel(12)):
            lam, _ = principal_eigenpair(normalized_adjacency(g))
            assert abs(lam - 1.0) < 1e-10

    def test_diagonal_positive(self):
        ahat = normalized_adjacency(make_star(6))
        assert np.all(np.diag(ahat) > 0)

    @pytest.mark.parametrize(
        "g",
        [make_cycle(40), make_path(40), make_star(40), make_wheel(40), make_er(60, 0.1, seed=2), make_scale_free(60, 2, seed=5)],
        ids=["cycle", "path", "star", "wheel", "er", "scale_free"],
    )
    def test_bit_equal_to_dense_formula(self, g):
        # D^(-1/2) (A + I) D^(-1/2) with D the row sums of A + I, from the 0/1 matrix.
        a = adjacency_matrix(g) + np.eye(g.n)
        d_inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
        np.testing.assert_array_equal(normalized_adjacency(g), a * d_inv_sqrt[:, None] * d_inv_sqrt[None, :])


class TestActivations:
    def test_relu_values(self):
        np.testing.assert_array_equal(relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])

    def test_relu_grad_zero_at_kink(self):
        np.testing.assert_array_equal(relu_grad(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 1.0])

    def test_leaky_relu_slope(self):
        np.testing.assert_allclose(leaky_relu(np.array([-1.0, 2.0])), [-0.2, 2.0])
        np.testing.assert_allclose(leaky_relu_grad(np.array([-1.0, 2.0])), [0.2, 1.0])

    def test_softmax_shift_invariant(self):
        x = np.array([0.3, -1.2, 2.0, 0.0])
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), atol=1e-12)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = softmax(rng.normal(size=9) * 10)
            assert abs(s.sum() - 1.0) < 1e-12
            assert np.all(s > 0)


class TestReadout:
    """``GraphRegressor._readout``: the pooling and linear head both models end in."""

    @staticmethod
    def head(f, seed=0):
        rng = np.random.default_rng(seed)
        return {"w_lin": rng.normal(size=(f, 1)), "b": np.array(rng.normal())}

    def test_unit_sizes_give_the_column_mean(self):
        params = {"w_lin": np.array([[1.0], [-2.0]]), "b": np.array(0.5)}
        yhat, z = GraphRegressor._readout(params, np.array([[1.0, 2.0], [3.0, 4.0]]), np.ones(2))
        np.testing.assert_array_equal(z, [2.0, 3.0])
        assert yhat == 2.0 - 6.0 + 0.5
        rng = np.random.default_rng(3)
        for _ in range(300):
            n, f = (int(v) for v in rng.integers(1, 80, size=2))
            h = rng.normal(size=(n, f)) * 10.0 ** rng.uniform(-3, 3)
            params = self.head(f)
            yhat, z = GraphRegressor._readout(params, h, np.ones(n))
            assert z.tobytes() == h.mean(axis=0).tobytes()
            assert yhat == z @ params["w_lin"][:, 0] + params["b"]

    def test_class_sizes_weight_rows_as_the_nodes_they_stand_for(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k, f = (int(v) for v in rng.integers(1, 12, size=2))
            h, s = rng.normal(size=(k, f)), rng.integers(1, 9, size=k).astype(np.float64)
            _, z = GraphRegressor._readout(self.head(f), h, s)
            np.testing.assert_allclose(z, np.repeat(h, s.astype(int), axis=0).mean(axis=0), rtol=1e-13, atol=1e-15)

    def test_stack_pools_each_graph(self):
        rng = np.random.default_rng(5)
        h, s = rng.normal(size=(6, 4, 3)), rng.integers(1, 9, size=(6, 4)).astype(np.float64)
        params = self.head(3)
        yhat, z = GraphRegressor._readout(params, h, s)
        assert yhat.shape == (6,) and z.shape == (6, 3)
        for g in range(6):
            y1, z1 = GraphRegressor._readout(params, h[g], s[g])
            np.testing.assert_allclose(z[g], z1, rtol=1e-15)
            np.testing.assert_allclose(yhat[g], y1, rtol=1e-14, atol=1e-15)


class TestGlorot:
    def test_bounds_and_determinism(self):
        w = glorot_init(7, 64, rng=0)
        limit = np.sqrt(6 / (7 + 64))
        assert w.shape == (7, 64)
        assert np.all(np.abs(w) <= limit)
        np.testing.assert_array_equal(w, glorot_init(7, 64, rng=0))

    def test_mean_near_zero(self):
        w = glorot_init(200, 200, rng=1)
        limit = np.sqrt(6 / 400)
        assert abs(w.mean()) < limit / 10

    def test_fan_validation(self):
        with pytest.raises(ValueError):
            glorot_init(0, 4, rng=0)


class TestLoss:
    def test_mse_value(self):
        assert loss(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == 2.5

    def test_mse_zero_at_fit(self):
        assert loss(np.array([0.3, 0.4]), np.array([0.3, 0.4])) == 0.0

    def test_logmse_decade_off(self):
        val = loss(np.array([0.1]), np.array([0.01]), LOG_MSE)
        assert abs(val - np.log(10.0) ** 2) < 1e-12

    def test_logmse_floor_applies(self):
        # Prediction below the floor behaves as if it sat at the floor.
        v1 = loss(np.array([0.0]), np.array([0.01]), LOG_MSE)
        v2 = loss(np.array([1e-12]), np.array([0.01]), LOG_MSE)
        assert v1 == v2

    def test_mse_grad_coefficient(self):
        g = loss_grad(np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(g, [2 / 3, 4 / 3, 2.0])

    def test_grads_match_finite_differences(self):
        rng = np.random.default_rng(7)
        target = rng.uniform(0.01, 0.5, size=6)
        pred = rng.uniform(0.01, 0.5, size=6)
        for kind in (MSE, LOG_MSE):
            ana = loss_grad(pred, target, kind)
            num = fd_gradient(lambda p: loss(p, target, kind), pred)
            np.testing.assert_allclose(ana, num, rtol=1e-6, atol=1e-9)

    def test_logmse_grad_zero_below_floor(self):
        g = loss_grad(np.array([-0.5, 0.1]), np.array([0.1, 0.1]), LOG_MSE)
        assert g[0] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            loss(np.ones(3), np.ones(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            loss(np.array([]), np.array([]))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown loss"):
            LossKind("huber")

    def test_batch_step_derivative_matches_loss_grad(self):
        # batch_step takes each graph's dL/dyhat from a scalar form of loss_grad;
        # it must be the same float as the one-element loss_grad divided by N.
        # libm's log rounds differently from numpy's in about 1 case in 2,000.
        class Recorder(GraphRegressor):
            param_names = ("w",)

            def forward(self, params, inputs, train=False, rng=None):
                return inputs, None

            def backward(self, params, acts, dy):
                seen.append(dy)
                return {"w": np.zeros(1)}

        rng = np.random.default_rng(11)
        pred = np.concatenate([10.0 ** rng.uniform(-16, 1, 20000), rng.uniform(-1, 1, 1000), [0.0, 1e-12, 1e-13]])
        target = 10.0 ** rng.uniform(-14, 0, pred.size)
        rng.shuffle(pred)
        for kind in (MSE, LOG_MSE):
            seen = []
            Recorder().batch_step({"w": np.zeros(1)}, list(pred), target, kind)
            want = [loss_grad(pred[k : k + 1], target[k : k + 1], kind)[0] / pred.size for k in range(pred.size)]
            assert np.array(seen).tobytes() == np.array(want).tobytes()
        assert (pred < LOG_FLOOR).sum() > 100
