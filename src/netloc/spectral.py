"""Principal eigenvector, localization score, and steady-state dynamics.

The linear dynamics dx/dt = M x with M = alpha*I + beta*A share eigenvectors
with A, so the normalized steady state of a connected graph is the principal
eigenvector (PEV) of its adjacency matrix. The inverse participation ratio of
that vector is the regression target used throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .graphs import Graph, is_connected

__all__ = [
    "Region",
    "RegionThresholds",
    "SpectralResult",
    "DynamicsParams",
    "ConvergenceError",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
    "check_stopping_rule",
    "power_iteration",
    "ipr",
    "classify_region",
    "integrate_dynamics",
    "label_graph",
]

# The oracle's stopping rule wherever a caller does not set its own.
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100000


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before the requested tolerance was met."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class Region(IntEnum):
    """Localization regime of an IPR value."""

    DELOCALIZED = 1
    WEAKLY_LOCALIZED = 2
    STRONGLY_LOCALIZED = 3


@dataclass(frozen=True)
class RegionThresholds:
    """Two-threshold band (tau1 < tau2) with a tie-break margin epsilon."""

    tau1: float = 0.05
    tau2: float = 0.2
    epsilon: float = 1e-6

    def __post_init__(self) -> None:
        if not (0.0 < self.tau1 < self.tau2 < 1.0):
            raise ValueError(
                f"thresholds must satisfy 0 < tau1 < tau2 < 1, got {self.tau1}, {self.tau2}"
            )
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class SpectralResult:
    """Converged principal eigenpair of an adjacency matrix."""

    eigenvalue: float
    pev: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True)
class DynamicsParams:
    """Parameters of dx/dt = (alpha*I + beta*A) x and its RK4 integration."""

    alpha: float = 0.0
    beta: float = 1.0
    t_max: float = 1000.0
    dt: float = 0.1
    x0: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        if self.beta == 0.0:
            raise ValueError("beta must be nonzero; beta=0 decouples the graph")
        if self.dt <= 0.0 or self.t_max <= 0.0:
            raise ValueError(f"dt and t_max must be positive, got dt={self.dt}, t_max={self.t_max}")


def check_stopping_rule(tol: float, max_iter: int) -> None:
    """Raise ValueError unless ``tol`` > 0 (NaN is not) and ``max_iter`` >= 1."""
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def power_iteration(g: Graph, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> SpectralResult:
    """Principal eigenpair of the adjacency matrix of a connected graph.

    Iterates on A + I (same eigenvectors as A, strictly dominant top
    eigenvalue even for bipartite graphs) from the all-ones start vector,
    one O(m) gather over ``g.csr`` per step. Converges when the residual
    ||A u - lambda u||_2 drops to ``tol``; the returned PEV has unit norm and
    positive entries.

    Every n steps from step 2n on, the residual's contraction over the last
    n steps is compared with what is still needed. When n more steps at that
    rate would not reach ``tol`` (a small spectral gap, as on long paths),
    the rest of the power steps would cost more than one dense ``eigh``, so
    the top eigenpair is taken from ``eigh`` instead and must pass the same
    residual test. ``iterations`` counts the power steps taken.
    """
    check_stopping_rule(tol, max_iter)
    if not is_connected(g):
        raise ValueError("power iteration needs a connected graph")
    n = g.n
    _, indices = g.csr
    rows = g.csr_rows
    u = np.full(n, 1.0 / np.sqrt(n))
    earlier = np.inf
    for it in range(1, max_iter + 1):
        w = np.bincount(rows, weights=u[indices], minlength=n)  # A u
        lam = float(u @ w)
        r = w - lam * u
        residual = math.sqrt(r @ r)
        if residual <= tol:
            break
        if it % n == 0:
            # With rho = (residual / earlier)**(1/n) the per-step contraction,
            # tol needs log(tol/residual)/log(rho) more steps; switch when that
            # exceeds n (or rho >= 1), i.e. when residual/earlier > tol/residual.
            if it >= 2 * n and residual * residual > tol * earlier:
                lam, u, residual = _dense_top_eigenpair(g)
                if residual > tol:
                    raise ConvergenceError(
                        f"dense eigensolve after {it} power steps left residual "
                        f"{residual:.3e} above tol={tol}",
                        residual=residual,
                        iterations=it,
                    )
                break
            earlier = residual
        v = w + u  # (A + I) u
        u = v / math.sqrt(v @ v)
    else:
        raise ConvergenceError(
            f"power iteration did not reach tol={tol} in {max_iter} iterations "
            f"(last residual {residual:.3e})",
            residual=residual,
            iterations=max_iter,
        )
    if u.sum() < 0.0:
        u = -u
    return SpectralResult(eigenvalue=lam, pev=u, iterations=it, residual=residual)


def _dense_top_eigenpair(g: Graph) -> tuple[float, np.ndarray, float]:
    """Top eigenvalue, its eigenvector and their residual, from one dense ``eigh``."""
    tgt, nbr, _ = g.loops
    a = g.dense(1.0 * (tgt != nbr))
    vals, vecs = np.linalg.eigh(a)
    lam, u = float(vals[-1]), vecs[:, -1].copy()
    r = a @ u - lam * u
    return lam, u, math.sqrt(r @ r)


def ipr(v: np.ndarray) -> float:
    """Inverse participation ratio sum(v^4) / sum(v^2)^2 of a nonzero vector.

    Scale invariant; equals 1/n for a uniform vector and 1 for a basis vector.
    """
    v = np.asarray(v, dtype=np.float64)
    s2 = float(np.sum(v * v))
    if s2 == 0.0:
        raise ValueError("IPR is undefined for the zero vector")
    return float(np.sum(v**4) / (s2 * s2))


def classify_region(y: float, thresholds: RegionThresholds = RegionThresholds()) -> Region:
    """Map an IPR value to its localization region.

    Delocalized for y <= tau1 - eps, strongly localized for y >= tau2 + eps,
    weakly localized in between. Monotone in y; a non-finite y has no region.
    """
    if not math.isfinite(y):
        raise ValueError(f"IPR must be finite, got {y}")
    if y <= thresholds.tau1 - thresholds.epsilon:
        return Region.DELOCALIZED
    if y >= thresholds.tau2 + thresholds.epsilon:
        return Region.STRONGLY_LOCALIZED
    return Region.WEAKLY_LOCALIZED


def integrate_dynamics(g: Graph, params: DynamicsParams = DynamicsParams()) -> np.ndarray:
    """Integrate dx/dt = (alpha*I + beta*A) x with RK4 and per-step renormalization.

    Returns the unit-norm state at t_max. With beta > 0 on a connected graph the
    direction converges to the PEV of A regardless of alpha (eigenvalues shift
    by alpha, eigenvectors do not move). Raises on numeric blow-up.
    """
    if not is_connected(g):
        raise ValueError("dynamics integration needs a connected graph")
    tgt, nbr, _ = g.loops
    m = g.dense(np.where(tgt == nbr, params.alpha, params.beta))
    if params.x0 is None:
        x = np.full(g.n, 1.0 / np.sqrt(g.n))
    else:
        x = np.asarray(params.x0, dtype=np.float64).copy()
        if x.shape != (g.n,):
            raise ValueError(f"x0 must have shape ({g.n},), got {x.shape}")
        nrm = np.linalg.norm(x)
        if nrm == 0.0:
            raise ValueError("x0 must be nonzero")
        x /= nrm
    steps = int(np.ceil(params.t_max / params.dt))
    dt = params.dt
    # Overflow is detected explicitly below; silence numpy's warning for it.
    with np.errstate(over="ignore", invalid="ignore"):
        return _rk4_loop(m, x, dt, steps, params)


def _rk4_loop(m, x, dt, steps, params):
    for _ in range(steps):
        k1 = m @ x
        k2 = m @ (x + 0.5 * dt * k1)
        k3 = m @ (x + 0.5 * dt * k2)
        k4 = m @ (x + dt * k3)
        x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        nrm = np.linalg.norm(x_new)
        if not np.isfinite(nrm) or nrm == 0.0:
            raise ArithmeticError(
                f"dynamics integration lost normalizability (norm={nrm}); "
                f"reduce dt={dt} or t_max={params.t_max}"
            )
        x_new /= nrm
        # The direction is a fixed point once converged; stop early when a
        # full step no longer moves it at machine precision.
        if float(np.max(np.abs(x_new - x))) < 1e-15:
            return x_new
        x = x_new
    return x


def label_graph(
    g: Graph,
    thresholds: RegionThresholds = RegionThresholds(),
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[float, Region]:
    """IPR of the principal eigenvector together with its region."""
    res = power_iteration(g, tol=tol, max_iter=max_iter)
    y = ipr(res.pev)
    return y, classify_region(y, thresholds)
