"""Tests of the benchmark harness itself: statistics, spans, tracing, failure counting."""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import netloc.cli  # noqa: E402
import netloc.data  # noqa: E402
import netloc.features  # noqa: E402
import stats  # noqa: E402
from harness import Tally  # noqa: E402
from layers import Counters, layer_metrics, traced  # noqa: E402
from refclock import RefClock  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import check_spectral, make_graph, reference, run_spectral, write_edges  # noqa: E402

CLOCK = RefClock()  # not entered: measures wall time without sampling


@pytest.mark.parametrize(
    "n,expected",
    [(1000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    values = list(range(n))
    tail = stats.tail_percentile(values)
    if expected is None:
        assert tail is None
        return
    p, value = tail
    assert p == expected
    assert sum(v > value for v in values) >= 10


def test_self_time_subtracts_nested_children():
    ticks = itertools.count()
    rec = SpanRecorder("r", clock=lambda: float(next(ticks)))
    with rec.span("cli", "main"):  # 0 .. 9
        with rec.span("graphs", "read"):  # 1 .. 4
            with rec.span("graphs", "inner"):  # 2 .. 3
                pass
        with rec.span("spectral", "power"):  # 5 .. 6
            pass
        next(ticks), next(ticks)  # 7, 8: time spent in main itself
    assert rec.durations() == [9.0, 3.0, 1.0, 1.0]
    assert rec.self_times() == [5.0, 2.0, 1.0, 1.0]
    assert [s[4] for s in rec.spans] == [-1, 0, 1, 0]


def test_spans_must_close_in_order():
    rec = SpanRecorder("r")
    outer = rec.open("a", "outer")
    rec.open("b", "inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def _path_file(tmp_path: Path, n: int) -> Path:
    path = tmp_path / f"path{n}.edges"
    write_edges(path, n, make_graph("path", n, np.random.default_rng(0)))
    return path


def test_failed_spectral_command_counts_as_failed_and_attempted(tmp_path):
    n = 30
    commands = run_spectral(netloc.cli, CLOCK, [_path_file(tmp_path, n)], ("--max-iter", "1"))
    assert [c.rc for c in commands] == [1]
    assert json.loads(commands[0].stderr)["type"] == "ConvergenceError"
    assert check_spectral(commands[0], n, n - 1, *reference("path", n, None)) is None
    tally = Tally()
    tally.add(SimpleNamespace(commands=commands), bad={})
    assert (tally.attempted, tally.failed) == (1, 1)


def test_wrong_spectral_output_is_caught(tmp_path):
    n = 30
    commands = run_spectral(netloc.cli, CLOCK, [_path_file(tmp_path, n)])
    ipr, lam = reference("path", n, None)
    assert check_spectral(commands[0], n, n - 1, ipr, lam) is None
    assert "ipr" in check_spectral(commands[0], n, n - 1, ipr * 1.001, lam)
    tally = Tally()
    tally.add(SimpleNamespace(commands=commands), bad={commands[0].label: "wrong"})
    assert (tally.attempted, tally.failed) == (1, 1)


@pytest.mark.parametrize("family", ["cycle", "star", "path"])
def test_analytic_references_match_eigh(family):
    n = 17
    edges = make_graph(family, n, np.random.default_rng(0))
    a = np.zeros((n, n))
    a[edges[:, 0], edges[:, 1]] = a[edges[:, 1], edges[:, 0]] = 1.0
    w, v = np.linalg.eigh(a)
    pev = v[:, -1]
    ipr, lam = reference(family, n, edges)
    assert ipr == pytest.approx(float(np.sum(pev**4)), abs=1e-12)
    assert lam == pytest.approx(float(w[-1]), abs=1e-12)


def test_tracing_records_layers_and_restores_bindings(tmp_path):
    original = netloc.features.build_feature_matrix
    rec, counters = SpanRecorder("t"), Counters()
    with traced(rec, counters):
        assert netloc.data.build_feature_matrix is not original
        commands = run_spectral(netloc.cli, CLOCK, [_path_file(tmp_path, 12)])
    assert netloc.data.build_feature_matrix is original
    assert netloc.features.build_feature_matrix is original
    assert commands[0].rc == 0
    layers = {s[0] for s in rec.spans}
    assert {"cli", "graphs", "spectral"} <= layers
    m = layer_metrics([rec], counters)
    assert m["cli.calls"] == 1
    # The spectral command runs power iteration twice for one labelled graph.
    assert m["spectral.useful_ratio"] == pytest.approx(0.5)
    assert m["spectral.convergence_failures"] == 0
    assert m["cli.self_s"] > 0.0


def test_verdict_rules():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    faster = [v * 0.8 for v in parent]
    assert stats.verdict(parent, faster, "lower", 0.1)["verdict"] == "improved"
    assert stats.verdict(parent, list(parent), "lower", 0.1)["verdict"] == "no worse"
    assert stats.verdict(parent, [v * 1.3 for v in parent], "lower", 0.1)["verdict"] == "worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0, 9.0, 11.0]
    assert stats.verdict(noisy, list(noisy), "lower", 0.1)["verdict"] == "unresolved"
    # Fewer than ten pairs never make an improvement.
    assert stats.verdict(parent[:5], faster[:5], "lower", 0.1)["verdict"] == "no worse"
    assert stats.verdict(parent, faster, "higher", 0.1)["verdict"] == "worse"
