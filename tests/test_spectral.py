import numpy as np
import pytest

from netloc.graphs import (
    Graph,
    is_connected,
    make_cycle,
    make_er,
    make_path,
    make_scale_free,
    make_star,
    make_wheel,
)
from netloc.spectral import (
    ConvergenceError,
    DynamicsParams,
    Region,
    RegionThresholds,
    classify_region,
    integrate_dynamics,
    ipr,
    label_graph,
    power_iteration,
)

from oracles import adjacency_matrix, ipr_direct, principal_eigenpair


def cosine(u, v):
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


class TestPowerIteration:
    def test_cycle_eigenvalue_exact(self):
        res = power_iteration(make_cycle(200))
        assert abs(res.eigenvalue - 2.0) < 1e-10
        np.testing.assert_allclose(res.pev, np.full(200, 1 / np.sqrt(200)), atol=1e-10)

    def test_star_eigenpair(self):
        n = 5
        res = power_iteration(make_star(n))
        assert abs(res.eigenvalue - 2.0) < 1e-8
        expected = np.array([1 / np.sqrt(2)] + [1 / np.sqrt(2 * (n - 1))] * (n - 1))
        np.testing.assert_allclose(res.pev, expected, atol=1e-8)

    def test_path3_eigenpair(self):
        res = power_iteration(make_path(3))
        assert abs(res.eigenvalue - np.sqrt(2)) < 1e-8
        np.testing.assert_allclose(res.pev, [0.5, 1 / np.sqrt(2), 0.5], atol=1e-8)

    def test_pev_positive_unit_norm(self):
        for seed in range(5):
            g = make_er(40, 0.2, seed=seed)
            if not all(g.degrees > 0):
                continue
            try:
                res = power_iteration(g)
            except ValueError:
                continue
            assert np.all(res.pev > 0)
            assert abs(np.linalg.norm(res.pev) - 1.0) < 1e-12

    def test_residual_definition(self):
        g = make_wheel(30)
        res = power_iteration(g, tol=1e-11)
        a = adjacency_matrix(g)
        r = np.linalg.norm(a @ res.pev - res.eigenvalue * res.pev)
        assert r <= 1e-11

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 20:
            n = int(rng.integers(5, 40))
            g = make_er(n, 0.3, seed=int(rng.integers(2**31)))
            if not is_connected(g):
                continue
            res = power_iteration(g)
            lam, vec = principal_eigenpair(adjacency_matrix(g))
            assert abs(res.eigenvalue - lam) < 1e-8
            assert cosine(res.pev, vec) > 1 - 1e-10
            checked += 1

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            power_iteration(Graph(4, ((0, 1), (2, 3))))

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")], ids=["zero", "negative", "nan"])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            power_iteration(make_star(6), tol=tol)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(ConvergenceError) as err:
            power_iteration(make_path(60), tol=1e-13, max_iter=3)
        assert err.value.iterations == 3
        assert err.value.residual > 0

    def test_single_node(self):
        res = power_iteration(Graph(1))
        assert res.eigenvalue == 0.0
        np.testing.assert_allclose(res.pev, [1.0])


def connected_er(n, seed):
    while True:
        g = make_er(n, 8 / n, seed=seed)
        if is_connected(g):
            return g
        seed += 1000


class TestDenseFinish:
    """Power iteration hands slowly contracting graphs to one dense eigensolve."""

    def test_path_500_reaches_analytic_pair(self):
        n = 500
        res = power_iteration(make_path(n))
        assert abs(ipr(res.pev) - 3 / (2 * (n + 1))) < 1e-12
        assert abs(res.eigenvalue - 2 * np.cos(np.pi / (n + 1))) < 1e-12
        assert res.iterations <= 2 * n
        assert res.residual <= 1e-10
        assert np.all(res.pev > 0)
        assert abs(np.linalg.norm(res.pev) - 1.0) < 1e-12

    @pytest.mark.parametrize("g", [make_path(60), connected_er(40, 5)], ids=["path", "er"])
    def test_unreachable_tol_fails_early(self, g):
        with pytest.raises(ConvergenceError) as err:
            power_iteration(g, tol=1e-18)
        assert 2 * g.n <= err.value.iterations <= 3 * g.n
        assert err.value.residual > 1e-18

    @pytest.mark.parametrize("n", [50, 100, 200, 500])
    @pytest.mark.parametrize("family", ["cycle", "star", "wheel", "er", "scale_free"])
    def test_fast_families_never_call_eigh(self, family, n, monkeypatch):
        makers = {
            "cycle": make_cycle,
            "star": make_star,
            "wheel": make_wheel,
            "er": lambda n: connected_er(n, n),
            "scale_free": lambda n: make_scale_free(n, 2, seed=n),
        }
        g = makers[family](n)

        def no_eigh(a):
            raise AssertionError(f"eigh called for {family} n={n}")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        assert power_iteration(g).residual <= 1e-10


class TestIpr:
    def test_uniform_vector(self):
        assert abs(ipr(np.full(50, 0.37)) - 1 / 50) < 1e-15

    def test_basis_vector(self):
        v = np.zeros(9)
        v[4] = 2.5
        assert ipr(v) == 1.0

    def test_star_formula(self):
        for n in (5, 50, 500):
            y, _ = label_graph(make_star(n))
            assert abs(y - (0.25 + 1 / (4 * (n - 1)))) < 1e-9

    def test_path3_value(self):
        assert abs(ipr(np.array([0.5, 1 / np.sqrt(2), 0.5])) - 0.375) < 1e-15

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.normal(size=17)
            c = float(rng.uniform(0.1, 10))
            assert abs(ipr(v) - ipr(c * v)) < 1e-12

    def test_range_on_pevs(self):
        for g in (make_cycle(30), make_star(30), make_wheel(30), make_path(30)):
            y = ipr(power_iteration(g).pev)
            assert 1 / g.n - 1e-12 <= y < 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            ipr(np.zeros(4))

    def test_agrees_with_direct_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            v = rng.normal(size=23)
            assert abs(ipr(v) - ipr_direct(v)) < 1e-15


class TestClassifyRegion:
    def test_boundaries(self):
        th = RegionThresholds()
        assert classify_region(0.05 - 1e-6, th) == Region.DELOCALIZED
        assert classify_region(0.05, th) == Region.WEAKLY_LOCALIZED
        assert classify_region(0.2, th) == Region.WEAKLY_LOCALIZED
        assert classify_region(0.2 + 1e-6, th) == Region.STRONGLY_LOCALIZED

    def test_typical_values(self):
        assert classify_region(0.01) == Region.DELOCALIZED
        assert classify_region(0.1) == Region.WEAKLY_LOCALIZED
        assert classify_region(0.3) == Region.STRONGLY_LOCALIZED

    def test_monotone(self):
        ys = np.linspace(0.0, 0.99, 500)
        regions = [int(classify_region(float(y))) for y in ys]
        assert all(a <= b for a, b in zip(regions, regions[1:]))

    @pytest.mark.parametrize("y", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    def test_non_finite_ipr_has_no_region(self, y):
        with pytest.raises(ValueError, match=f"^IPR must be finite, got {y}$"):
            classify_region(y)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            RegionThresholds(tau1=0.3, tau2=0.2)
        with pytest.raises(ValueError):
            RegionThresholds(epsilon=0.0)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            RegionThresholds(epsilon=float("nan"))


class TestIntegrateDynamics:
    def test_star_converges_to_pev(self):
        g = make_star(100)
        rng = np.random.default_rng(0)
        x = integrate_dynamics(g, DynamicsParams(x0=rng.random(100), t_max=100.0))
        assert cosine(x, power_iteration(g).pev) > 1 - 1e-6

    def test_alpha_shift_leaves_direction(self):
        g = make_wheel(60)
        rng = np.random.default_rng(3)
        x0 = rng.random(60)
        xa = integrate_dynamics(g, DynamicsParams(alpha=0.0, x0=x0.copy(), t_max=200.0))
        xb = integrate_dynamics(g, DynamicsParams(alpha=-3.0, x0=x0.copy(), t_max=200.0))
        assert cosine(xa, xb) > 1 - 1e-6

    def test_single_node_stays_put(self):
        x = integrate_dynamics(Graph(1), DynamicsParams(alpha=-1.0, t_max=5.0))
        np.testing.assert_allclose(x, [1.0])

    def test_result_unit_norm(self):
        x = integrate_dynamics(make_cycle(20), DynamicsParams(t_max=10.0))
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12

    def test_param_validation(self):
        with pytest.raises(ValueError, match="beta"):
            DynamicsParams(beta=0.0)
        with pytest.raises(ValueError):
            DynamicsParams(dt=-0.1)
        with pytest.raises(ValueError, match="nonzero"):
            integrate_dynamics(make_cycle(5), DynamicsParams(x0=np.zeros(5)))

    def test_blowup_detected(self):
        # Magnitudes that overflow inside one RK4 step must raise, not return junk.
        with pytest.raises(ArithmeticError, match="normaliz"):
            integrate_dynamics(make_star(20), DynamicsParams(alpha=1e200, t_max=1.0, dt=0.5))


class TestLabelGraph:
    def test_families_land_in_expected_regions(self):
        y, r = label_graph(make_cycle(200))
        assert abs(y - 1 / 200) < 1e-10 and r == Region.DELOCALIZED
        y, r = label_graph(make_star(200))
        assert r == Region.STRONGLY_LOCALIZED
        y, r = label_graph(make_path(200))
        assert r == Region.DELOCALIZED
        y, r = label_graph(make_wheel(200))
        assert r == Region.STRONGLY_LOCALIZED

    def test_er_delocalized(self):
        seed = 0
        while True:
            g = make_er(200, 8 / 200, seed=seed)
            if is_connected(g):
                break
            seed += 1
        y, r = label_graph(g)
        assert r == Region.DELOCALIZED
