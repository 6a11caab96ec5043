"""Per-layer tracing of netloc from outside the package.

:func:`traced` wraps the public functions and methods of each netloc module so
that every call records a span in that module's layer and updates the counts
the per-layer metrics need. Names bound by ``from .x import y`` in other
netloc modules are rebound too, and everything is restored on exit, so
nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from spans import LAYER, NAME, SpanRecorder

LAYERS = ("cli", "graphs", "spectral", "features", "data", "kernels", "gcn", "gat", "models", "optim", "train")

# Layer -> wrapped callables: "name" is a module function, "Class.method" a method.
WRAPPED = {
    "cli": ("main",),
    "graphs": (
        "make_cycle",
        "make_path",
        "make_star",
        "make_wheel",
        "make_er",
        "make_scale_free",
        "is_connected",
        "read_edgelist",
        "write_edgelist",
    ),
    "spectral": ("power_iteration", "label_graph", "ipr", "integrate_dynamics"),
    "features": (
        "build_feature_matrix",
        "clustering_coefficient",
        "pagerank",
        "degree_centrality",
        "betweenness_centrality",
        "closeness_centrality",
        "avg_neighbor_degree",
    ),
    "data": ("build_synthetic", "save_dataset", "load_dataset", "preprocess", "ingest_tu_dataset", "split"),
    "kernels": ("normalized_adjacency", "loss", "loss_grad"),
    "gcn": ("GCN.prepare", "GCN.forward", "GCN.backward"),
    "gat": ("GAT.prepare", "GAT.forward", "GAT.backward"),
    "models": ("GraphRegressor.predict", "GraphRegressor.batch_step", "save_checkpoint", "load_checkpoint"),
    "optim": ("GradientDescent.step", "Adam.step", "make_optimizer"),
    "train": (
        "train",
        "evaluate",
        "write_training_artifacts",
        "write_eval_report",
        "build_model",
        "gradient_check",
    ),
}

MAKERS = ("make_cycle", "make_path", "make_star", "make_wheel", "make_er", "make_scale_free")
FEATURE_COLUMNS = {
    "clustering": "clustering_coefficient",
    "pagerank": "pagerank",
    "betweenness": "betweenness_centrality",
    "closeness": "closeness_centrality",
    "avg_neighbor_degree": "avg_neighbor_degree",
}


class Counters:
    """Work counts taken at the wrapped calls, for the per-layer ratios."""

    def __init__(self):
        self.iterations = 0
        self.convergence_failures = 0
        self.generated = 0
        self.spectral_ok = 0
        self.er_draws = 0
        self.er_connected = 0
        self.bytes_written = 0
        self._er_pending: dict[int, object] = {}

    def hooks(self, convergence_error) -> dict[str, callable]:
        def main(args, kwargs, result, exc):
            argv = args[0] if args else kwargs.get("argv")
            if argv and argv[0] == "spectral" and result == 0:
                self.spectral_ok += 1

        def power_iteration(args, kwargs, result, exc):
            if isinstance(exc, convergence_error):
                self.iterations += exc.iterations
                self.convergence_failures += 1
            elif exc is None:
                self.iterations += result.iterations

        def build_synthetic(args, kwargs, result, exc):
            if exc is None:
                self.generated += len(result[0]) + len(result[1])

        def make_er(args, kwargs, result, exc):
            if exc is None:
                self.er_draws += 1
                self._er_pending[id(result)] = result

        def is_connected(args, kwargs, result, exc):
            graph = args[0] if args else kwargs["g"]
            if self._er_pending.get(id(graph)) is graph:
                del self._er_pending[id(graph)]
                self.er_connected += bool(result)

        def save_dataset(args, kwargs, result, exc):
            directory = Path(args[1] if len(args) > 1 else kwargs["directory"])
            self.bytes_written += sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())

        return {
            "cli.main": main,
            "spectral.power_iteration": power_iteration,
            "data.build_synthetic": build_synthetic,
            "graphs.make_er": make_er,
            "graphs.is_connected": is_connected,
            "data.save_dataset": save_dataset,
        }


def _wrap(fn, layer: str, name: str, recorder: SpanRecorder, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            recorder.close(index)
            if hook is not None:
                hook(args, kwargs, None, exc)
            raise
        recorder.close(index)
        if hook is not None:
            hook(args, kwargs, result, None)
        return result

    return wrapper


@contextmanager
def traced(recorder: SpanRecorder, counters: Counters):
    """Record spans and counts for every wrapped netloc call made inside the block."""
    modules = [m for key, m in sys.modules.items() if key == "netloc" or key.startswith("netloc.")]
    hooks = counters.hooks(sys.modules["netloc.spectral"].ConvergenceError)
    restore: list[tuple[object, str, object]] = []
    try:
        for layer, names in WRAPPED.items():
            module = sys.modules[f"netloc.{layer}"]
            for qualname in names:
                hook = hooks.get(f"{layer}.{qualname}")
                if "." in qualname:
                    cls_name, method = qualname.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    restore.append((cls, method, original))
                    setattr(cls, method, _wrap(original, layer, qualname, recorder, hook))
                    continue
                original = getattr(module, qualname)
                wrapper = _wrap(original, layer, qualname, recorder, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def layer_metrics(recorders: list[SpanRecorder], counters: Counters) -> dict[str, float]:
    """Per-layer metrics per traced iteration, from one recorder per iteration.

    ``<layer>.self_s`` is the layer's self time and ``<layer>.calls`` its span
    count. A ``<layer>.<function>_s`` metric is the inclusive time of that
    function's spans, child spans included.
    """
    runs = len(recorders)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    incl: dict[tuple[str, str], float] = defaultdict(float)
    own: dict[tuple[str, str], float] = defaultdict(float)
    count: dict[tuple[str, str], int] = defaultdict(int)
    for rec in recorders:
        for span, dur, st in zip(rec.spans, rec.durations(), rec.self_times()):
            key = (span[LAYER], span[NAME])
            self_s[span[LAYER]] += st
            calls[span[LAYER]] += 1
            incl[key] += dur
            own[key] += st
            count[key] += 1

    def t(layer: str, *names: str) -> float:
        return sum(incl[(layer, n)] for n in names) / runs

    def n(layer: str, name: str) -> float:
        return count[(layer, name)] / runs

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer] / runs
        m[f"{layer}.calls"] = calls[layer] / runs
    m["graphs.make_s"] = t("graphs", *MAKERS)
    m["graphs.is_connected_s"] = t("graphs", "is_connected")
    m["graphs.er_connected_ratio"] = counters.er_connected / counters.er_draws if counters.er_draws else 0.0
    m["graphs.read_edgelist_s"] = t("graphs", "read_edgelist")
    m["graphs.write_edgelist_s"] = t("graphs", "write_edgelist")
    m["spectral.power_iteration_s"] = t("spectral", "power_iteration")
    m["spectral.iterations"] = counters.iterations / runs
    m["spectral.convergence_failures"] = counters.convergence_failures / runs
    # Labels a user asked for: one per generated graph, one per successful spectral command.
    pi_calls = count[("spectral", "power_iteration")]
    wanted = counters.generated + counters.spectral_ok
    m["spectral.useful_ratio"] = wanted / pi_calls if pi_calls else 0.0
    m["features.build_s"] = t("features", "build_feature_matrix")
    for column, fn in FEATURE_COLUMNS.items():
        m[f"features.{column}_s"] = t("features", fn)
    builds = count[("features", "build_feature_matrix")]
    m["features.recompute_ratio"] = builds / counters.generated if counters.generated else 0.0
    m["data.build_synthetic_s"] = t("data", "build_synthetic")
    m["data.save_s"] = t("data", "save_dataset")
    m["data.load_s"] = t("data", "load_dataset")
    m["data.bytes_written"] = counters.bytes_written / runs
    m["kernels.normalized_adjacency_s"] = t("kernels", "normalized_adjacency")
    for model, cls in (("gcn", "GCN"), ("gat", "GAT")):
        m[f"{model}.prepare_s"] = t(model, f"{cls}.prepare")
        m[f"{model}.forward_s"] = t(model, f"{cls}.forward")
        m[f"{model}.backward_s"] = t(model, f"{cls}.backward")
        m[f"{model}.forward_calls"] = n(model, f"{cls}.forward")
    m["models.batch_step_self_s"] = own[("models", "GraphRegressor.batch_step")] / runs
    m["models.predict_s"] = t("models", "GraphRegressor.predict")
    m["models.checkpoint_io_s"] = t("models", "save_checkpoint", "load_checkpoint")
    m["optim.step_s"] = t("optim", "GradientDescent.step", "Adam.step")
    m["optim.steps"] = n("optim", "GradientDescent.step") + n("optim", "Adam.step")
    m["train.write_artifacts_s"] = t("train", "write_training_artifacts", "write_eval_report")
    m["train.evaluate_s"] = t("train", "evaluate")
    return m
