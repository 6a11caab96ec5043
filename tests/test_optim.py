import numpy as np
import pytest

from netloc.optim import Adam, AdamW, GradientDescent, make_optimizer


def ones_grads(params):
    return {name: np.ones_like(p) for name, p in params.items()}


def zero_grads(params):
    return {name: np.zeros_like(p) for name, p in params.items()}


class TestGradientDescent:
    def test_update_rule(self):
        params = {"w": np.array([1.0, 2.0])}
        GradientDescent(lr=0.1).step(params, {"w": np.array([10.0, -10.0])})
        np.testing.assert_allclose(params["w"], [0.0, 3.0])

    def test_lr_validated(self):
        with pytest.raises(ValueError, match="learning rate"):
            GradientDescent(lr=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ValueError, match=f"^learning rate must be finite, got {lr}$"):
            GradientDescent(lr=lr)


class TestAdam:
    def test_first_step_hand_unrolled(self):
        # t=1, g=1: m_hat = 1, v_hat = 1, so the update is lr / (1 + eps)
        # no matter the starting parameter value.
        lr = 0.01
        params = {"w": np.array([5.0])}
        Adam(lr=lr, weight_decay=0.0).step(params, {"w": np.array([1.0])})
        expected = 5.0 - lr / (1.0 + 1e-8)
        np.testing.assert_allclose(params["w"], [expected], rtol=0, atol=1e-16)

    def test_two_steps_hand_unrolled(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        params = {"w": np.array([0.0])}
        opt = Adam(lr=lr, weight_decay=0.0)
        g1, g2 = 1.0, -0.5
        opt.step(params, {"w": np.array([g1])})
        opt.step(params, {"w": np.array([g2])})

        m = (1 - b1) * g1
        v = (1 - b2) * g1 * g1
        w = 0.0 - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        m = b1 * m + (1 - b1) * g2
        v = b2 * v + (1 - b2) * g2 * g2
        w = w - lr * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)
        np.testing.assert_allclose(params["w"], [w], atol=1e-15)

    def test_zero_gradient_is_fixed_point(self):
        params = {"w": np.array([3.0, -2.0])}
        opt = Adam(lr=0.5, weight_decay=0.0)
        for _ in range(5):
            opt.step(params, zero_grads(params))
        np.testing.assert_array_equal(params["w"], [3.0, -2.0])

    def test_coupled_decay_moves_zero_grad_params(self):
        params = {"w": np.array([4.0])}
        Adam(lr=0.1, weight_decay=0.01).step(params, {"w": np.array([0.0])})
        # Decay enters the gradient, so the step is -lr * sign-ish, not -lr*wd*w.
        assert params["w"][0] < 4.0

    def test_quadratic_convergence(self):
        params = {"w": np.array([10.0])}
        opt = Adam(lr=0.3, weight_decay=0.0)
        for _ in range(400):
            opt.step(params, {"w": 2.0 * params["w"]})
        assert abs(params["w"][0]) < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError, match="decay"):
            Adam(lr=0.1, weight_decay=-1.0)

    @pytest.mark.parametrize(
        "lr, weight_decay, reason",
        [
            (float("nan"), 0.0, "learning rate must be finite, got nan"),
            (float("inf"), 0.0, "learning rate must be finite, got inf"),
            (0.1, float("nan"), "weight decay must be finite, got nan"),
            (0.1, float("inf"), "weight decay must be finite, got inf"),
        ],
        ids=["lr-nan", "lr-inf", "decay-nan", "decay-inf"],
    )
    def test_non_finite_rejected(self, lr, weight_decay, reason):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            Adam(lr=lr, weight_decay=weight_decay)

    def test_shape_mismatch_rejected(self):
        opt = Adam(lr=0.1, weight_decay=0.0)
        with pytest.raises(ValueError, match="shape mismatch"):
            opt.step({"w": np.zeros(3)}, {"w": np.zeros(2)})
        with pytest.raises(KeyError, match="unknown parameter"):
            opt.step({"w": np.zeros(3)}, {"q": np.zeros(3)})


class TestAdamW:
    def test_decoupled_decay_is_geometric(self):
        # With zero gradients the moments stay zero, so each step only applies
        # the multiplicative decay factor (1 - lr*wd).
        lr, wd = 0.1, 0.5
        params = {"w": np.array([8.0])}
        opt = AdamW(lr=lr, weight_decay=wd)
        for _ in range(3):
            opt.step(params, zero_grads(params))
        np.testing.assert_allclose(params["w"], [8.0 * (1 - lr * wd) ** 3], atol=1e-12)

    def test_matches_adam_at_zero_decay(self):
        rng = np.random.default_rng(0)
        pa = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=2)}
        pw = {name: p.copy() for name, p in pa.items()}
        oa = Adam(lr=0.05, weight_decay=0.0)
        ow = AdamW(lr=0.05, weight_decay=0.0)
        for _ in range(20):
            grads = {name: rng.normal(size=p.shape) for name, p in pa.items()}
            oa.step(pa, grads)
            ow.step(pw, {name: g.copy() for name, g in grads.items()})
        for name in pa:
            np.testing.assert_allclose(pa[name], pw[name], atol=1e-15)

    def test_differs_from_adam_with_decay(self):
        pa = {"w": np.array([2.0])}
        pw = {"w": np.array([2.0])}
        Adam(lr=0.1, weight_decay=0.1).step(pa, {"w": np.array([1.0])})
        AdamW(lr=0.1, weight_decay=0.1).step(pw, {"w": np.array([1.0])})
        assert pa["w"][0] != pw["w"][0]


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_optimizer("gd", 0.1, 0.0), GradientDescent)
        assert isinstance(make_optimizer("adam", 0.1, 0.0), Adam)
        opt = make_optimizer("adamw", 0.1, weight_decay=0.01)
        assert isinstance(opt, AdamW)
        assert opt.weight_decay == 0.01

    def test_gd_rejects_decay(self):
        with pytest.raises(ValueError, match="no weight decay"):
            make_optimizer("gd", 0.1, weight_decay=0.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            make_optimizer("sgd-momentum", 0.1, 0.0)
