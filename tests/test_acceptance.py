"""Acceptance suite: ten end-to-end checks over the whole package.

Each test prints a single summary line (``criterion N: PASS/FAIL ...``,
visible under ``pytest -s``) and then asserts. Tolerances and budgets are
pinned in the test bodies. The two training criteria (5-7) run full
500-epoch recipes, so this module takes a few minutes; everything else is
seconds.
"""

import hashlib
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from netloc.data import DatasetSpec, build_synthetic, ingest_tu_dataset, preprocess
from netloc.gcn import GCN
from netloc.graphs import make_cycle, make_er, make_path, make_scale_free, make_star, make_wheel
from netloc.kernels import MSE, loss_grad
from netloc.spectral import DynamicsParams, integrate_dynamics, ipr, power_iteration
from netloc.train import TrainConfig, evaluate, gradient_check, train

from oracles import adjacency_matrix, principal_eigenpair

TU_ROOT = Path(__file__).resolve().parent.parent / "data" / "tu"


def _line(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_analytic_ipr_families():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (5, 100, 500):
        y = ipr(power_iteration(make_star(n)).pev)
        worst = max(worst, abs(y - (0.25 + 1.0 / (4.0 * (n - 1)))))
    for n in (10, 300):
        y = ipr(power_iteration(make_cycle(n)).pev)
        worst = max(worst, abs(y - 1.0 / n))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    assert _line(1, ok, f"star/cycle formula gap {worst:.2e} (<=1e-9), {elapsed:.2f}s (<1s)")


def test_criterion_02_steady_state_matches_eigenvector():
    t0 = time.perf_counter()
    graphs = {
        "cycle": make_cycle(60),
        "path": make_path(60),
        "star": make_star(60),
        "wheel": make_wheel(60),
        "scale_free": make_scale_free(60, 2, 0),
    }
    seed = 0
    while True:
        g = make_er(60, 8.0 / 59.0, seed)
        from netloc.graphs import is_connected

        if is_connected(g):
            graphs["er"] = g
            break
        seed += 1
    worst_cos = 1.0
    worst_shift = 1.0
    for g in graphs.values():
        pev = power_iteration(g).pev
        x = integrate_dynamics(g)
        x_shift = integrate_dynamics(g, DynamicsParams(alpha=2.5))
        worst_cos = min(worst_cos, float(x @ pev), float(x_shift @ pev))
        worst_shift = min(worst_shift, float(x @ x_shift))
    elapsed = time.perf_counter() - t0
    ok = worst_cos >= 1.0 - 1e-6 and worst_shift >= 1.0 - 1e-6 and elapsed < 10.0
    assert _line(
        2,
        ok,
        f"6 families: min cosine vs eigenvector {worst_cos:.9f}, "
        f"min cosine across alpha shift {worst_shift:.9f} (>=1-1e-6), {elapsed:.1f}s (<10s)",
    )


def test_criterion_03_reference_chain_and_accumulation():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    h = np.array([[1.0, 0.0, 2.0], [-1.0, 3.0, 1.0]])
    w = np.array([[1.0, 2.0], [0.0, 1.0], [-1.0, 0.0]])
    chain = (a @ h) @ w
    exact = chain.tolist() == [[-5.0, 4.0], [-11.0, 10.0]]

    model = GCN(d=3, k0=4, k1=4, k2=4)
    params = model.init_params(np.random.default_rng(3))
    rng = np.random.default_rng(7)
    prepared = []
    for n in (5, 6, 7):
        g = make_star(n)
        prepared.append(model.prepare(g, rng.random((n, 3))))
    targets = np.array([0.3, 0.1, 0.25])
    _, grads = model.batch_step(params, prepared, targets, MSE)
    preds = model.predict(params, prepared)
    dy = loss_grad(preds, targets, MSE)
    w_lin_sum = np.zeros_like(params["w_lin"])
    b_sum = 0.0
    for k, inp in enumerate(prepared):
        _, acts = model.forward(params, inp)
        z = np.maximum(acts.q[2], 0.0).mean(axis=0)
        w_lin_sum += dy[k] * z[:, None]
        b_sum += dy[k]
    gap = max(
        float(np.max(np.abs(grads["w_lin"] - w_lin_sum))),
        abs(float(grads["b"]) - b_sum),
    )
    weights_literal = np.allclose(dy, (2.0 / 3.0) * (preds - targets), rtol=0.0, atol=1e-15)
    ok = exact and weights_literal and gap <= 1e-15
    assert _line(
        3,
        ok,
        f"chain [[-5,4],[-11,10]] exact={exact}, "
        f"3-graph 2/3-weighted head accumulation gap {gap:.1e} (<=1e-15)",
    )


def test_criterion_04_gradients_match_finite_differences():
    worst = {"gcn": 0.0, "gat": 0.0}
    for kind in ("gcn", "gat"):
        for seed in range(20):
            worst[kind] = max(worst[kind], gradient_check(kind, seed=seed))
    ok = worst["gcn"] < 1e-4 and worst["gat"] < 1e-4
    assert _line(
        4,
        ok,
        f"20 seeds each: max rel err gcn {worst['gcn']:.2e}, gat {worst['gat']:.2e} (<1e-4)",
    )


def test_criterion_05_region_recovery_cycle_star():
    t0 = time.perf_counter()
    spec = DatasetSpec(
        families=("cycle", "star"),
        train_count=200,
        test_count=100,
        train_size_range=(50, 80),
        test_size_range=(100, 150),
        seed=0,
    )
    train_items, test_items = build_synthetic(spec)
    result = train(TrainConfig(model="gcn"), train_items)
    report = evaluate(result.model, result.params, test_items)
    elapsed = time.perf_counter() - t0
    ok = report.region_accuracy >= 0.99 and elapsed < 300.0
    assert _line(
        5,
        ok,
        f"cycle+star, larger unseen test graphs: region accuracy "
        f"{report.region_accuracy:.3f} (>=0.99), {elapsed:.0f}s (<300s)",
    )


def test_criterion_06_region_recovery_four_families():
    t0 = time.perf_counter()
    spec = DatasetSpec(
        families=("cycle", "path", "star", "wheel"),
        train_count=200,
        test_count=100,
        train_size_range=(50, 80),
        test_size_range=(100, 150),
        seed=0,
    )
    train_items, test_items = build_synthetic(spec)
    result = train(TrainConfig(model="gcn", seed=3), train_items)
    report = evaluate(result.model, result.params, test_items)
    elapsed = time.perf_counter() - t0
    true_regions = {int(r) for r in np.where(report.targets >= 0.2 + 1e-6, 3, 1)}
    regions_ok = true_regions == {1, 3} and not np.any(
        (report.targets > 0.05 - 1e-6) & (report.targets < 0.2 + 1e-6)
    )
    ok = report.region_accuracy >= 0.99 and regions_ok and elapsed < 300.0
    assert _line(
        6,
        ok,
        f"cycle+path+star+wheel: region accuracy {report.region_accuracy:.3f} (>=0.99), "
        f"true regions {sorted(true_regions)} (expected [1, 3]), {elapsed:.0f}s",
    )


def test_criterion_07_attention_model_orders_er_vs_scale_free():
    t0 = time.perf_counter()
    spec = DatasetSpec(
        families=("er", "scale_free"),
        train_count=200,
        test_count=100,
        train_size_range=(50, 80),
        test_size_range=(100, 150),
        seed=0,
    )
    train_items, test_items = build_synthetic(spec)
    config = TrainConfig(
        model="gat",
        loss="logmse",
        optimizer="adamw",
        lr=1e-5,
        weight_decay=5e-4,
        epochs=500,
        batch_size=None,
        dropout=0.6,
        seed=141,
    )
    result = train(config, train_items)
    report = evaluate(result.model, result.params, test_items)
    elapsed = time.perf_counter() - t0
    pearson = float(np.corrcoef(report.predictions, report.targets)[0, 1])
    # All test graphs here are delocalized (ER) or weakly localized (SF).
    assert np.all(report.targets < 0.2 + 1e-6)
    ok = pearson >= 0.9 and report.region_accuracy >= 0.85
    assert _line(
        7,
        ok,
        f"GAT log-loss run: pearson {pearson:.3f} (>=0.9), region accuracy "
        f"{report.region_accuracy:.3f} (>=0.85); thresholds are this package's "
        f"own acceptance targets, not externally reported figures; {elapsed:.0f}s",
    )


@pytest.mark.parametrize("name,expected", [("ENZYMES", 441), ("NCI1", 2796)])
def test_criterion_08_benchmark_preprocessing_counts(name, expected):
    raw = TU_ROOT / name
    if not raw.is_dir():
        pytest.skip(f"raw {name} data not present under {TU_ROOT}; see README for placement")
    kept = preprocess(ingest_tu_dataset(raw), name=name.lower(), min_nodes=10)
    ok = len(kept) == expected
    assert _line(8, ok, f"{name}: kept {len(kept)} graphs (expected {expected})")


def test_criterion_09_power_iteration_agrees_with_jacobi():
    rng = np.random.default_rng(0)
    from netloc.graphs import is_connected

    checked = 0
    attempt = 0
    worst_dl = 0.0
    worst_cos = 1.0
    while checked < 100:
        n = int(rng.integers(8, 51))
        k = float(rng.choice([4.0, 6.0, 8.0]))
        g = make_er(n, min(1.0, k / (n - 1)), attempt)
        attempt += 1
        if not is_connected(g):
            continue
        res = power_iteration(g)
        lam, vec = principal_eigenpair(adjacency_matrix(g))
        worst_dl = max(worst_dl, abs(res.eigenvalue - lam))
        worst_cos = min(worst_cos, float(res.pev @ vec))
        checked += 1
    ok = worst_dl <= 1e-8 and worst_cos >= 1.0 - 1e-10
    assert _line(
        9,
        ok,
        f"100 random connected graphs: max |eigenvalue gap| {worst_dl:.2e} (<=1e-8), "
        f"min eigenvector cosine {worst_cos:.12f} (>=1-1e-10)",
    )


def _run_cli(args: list[str]) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "netloc.cli", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def _tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_criterion_10_pipeline_runs_are_byte_identical(tmp_path):
    digests = []
    for run in ("first", "second"):
        base = tmp_path / run
        _run_cli(
            [
                "generate",
                "--out", str(base / "data"),
                "--families", "cycle,star",
                "--train-count", "6",
                "--test-count", "4",
                "--train-sizes", "12", "18",
                "--test-sizes", "12", "18",
                "--seed", "5",
            ]
        )
        _run_cli(
            [
                "train",
                "--data", str(base / "data" / "train"),
                "--out", str(base / "run"),
                "--model", "gcn",
                "--epochs", "3",
                "--seed", "0",
            ]
        )
        _run_cli(
            [
                "eval",
                "--checkpoint", str(base / "run" / "checkpoint.json"),
                "--data", str(base / "data" / "test"),
                "--out", str(base / "report"),
            ]
        )
        digests.append(_tree_digest(base))
    same = digests[0] == digests[1]
    ok = same and len(digests[0]) > 0
    assert _line(
        10,
        ok,
        f"generate/train/eval twice with fixed seeds: {len(digests[0])} artifact files, "
        f"byte-identical={same}",
    )
