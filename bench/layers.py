"""Per-layer metrics from the spans of one traced run.

A layer is a muonlab module or one of its functions.  For each layer named
in ``TIMED`` the metrics are ``<layer>.calls``, ``<layer>.total_ms`` (time
inside its outermost spans) and ``<layer>.self_ms`` (that time minus the
time its child spans cover).  A layer named by a module alone (``oracle``,
``lowerbounds``) spans all of that module's functions.  ``numpy.linalg.svd``
is the LAPACK layer: the decompositions of ``linalg.spectral_norm`` and
``linalg.svd`` are its spans, not their self time.  Its spans whose parent is
``optimizers.run_trajectory`` are the per-step grad sigma_min and are renamed
``optimizers.grad_sigma_min``.
"""

from __future__ import annotations

import numpy as np

from tracer import ROOT, SVD

GRAD_SIGMA_MIN = "optimizers.grad_sigma_min"
TIMED = (
    "linalg.check_matrix", "linalg.spectral_norm", "linalg.svd",
    "problems.mf_spectral_error", "problems.icl_spectral_error",
    "problems.mf_loss_grad", "problems.icl_loss_grad",
    GRAD_SIGMA_MIN, "msign.msign_exact", "msign.msign_newton_schulz",
    "optimizers.run_trajectory", "optimizers.muon_step", "optimizers.gd_step",
    "optimizers.signgd_step", "optimizers.schedule_eta",
    "experiments.write_records_csv", "svgplot.emit_svg_plot",
    "rng.RandomStream.gaussians", "rng.RandomStream.uniform",
    "rng.RandomStream.uniforms", "rng.RandomStream.haar_orthonormal",
    "oracle", "lowerbounds", "problems.icl_monte_carlo_loss",
    "problems.make_mf_instance", "problems.make_icl_instance", "experiments.parse_config",
    SVD,
)
SUITES = ("msign", "oracle", "lemmas", "lowerbounds", "gradients", "montecarlo")
ALGORITHMS = ("muon", "gd", "signgd")


def _members(layer: str, names: list[str]) -> np.ndarray:
    """Boolean mask over name ids: which span names belong to ``layer``."""
    if "." in layer:
        return np.array([n == layer for n in names])
    return np.array([n.split(".", 1)[0] == layer for n in names])


def _depths(parent: np.ndarray) -> np.ndarray:
    """Depth of every span; parents always precede their children."""
    depth = np.zeros(len(parent), dtype=np.int64)
    todo = parent >= 0
    level = np.zeros(len(parent), dtype=bool)
    level[0] = True
    d = 0
    while todo.any():
        d += 1
        level = todo & level[np.maximum(parent, 0)]
        depth[level] = d
        todo &= ~level
    return depth


class Spans:
    """Span arrays with durations, self times and nesting checks."""

    def __init__(self, data: dict):
        names = list(data["names"])
        name = data["name"].copy()
        parent = data["parent"]
        names.append(GRAD_SIGMA_MIN)
        if SVD in names and "optimizers.run_trajectory" in names:
            under_trajectory = name[np.maximum(parent, 0)] == names.index("optimizers.run_trajectory")
            name[(name == names.index(SVD)) & (parent >= 0) & under_trajectory] = len(names) - 1
        self.names, self.name, self.parent = names, name, parent
        self.start, self.end = data["start"], data["end"]
        self.dur = self.end - self.start
        child_time = np.bincount(parent[1:], weights=self.dur[1:], minlength=len(parent))
        self.self_ns = self.dur - child_time.astype(np.int64)
        self.counters = data["counters"]
        self.depth = _depths(parent)

    def problems(self) -> list[str]:
        """Ways in which the spans do not nest as one call stack would."""
        out = []
        if self.names[self.name[0]] != ROOT or self.parent[0] != -1:
            out.append("span 0 is not the root")
        if (self.parent[1:] < 0).any() or (self.parent[1:] >= np.arange(1, len(self.parent))).any():
            out.append("a span's parent does not precede it")
        if (self.dur < 0).any():
            out.append("a span ends before it starts")
        p = self.parent[1:]
        if (self.start[1:] < self.start[p]).any() or (self.end[1:] > self.end[p]).any():
            out.append("a span lies outside its parent")
        if (self.self_ns < 0).any():
            out.append("sibling spans overlap")
        return out

    def layer(self, layer: str) -> tuple[int, float, float]:
        """(calls, total ms, self ms) of one layer."""
        mask = _members(layer, self.names)[self.name]
        inside = np.zeros(len(mask), dtype=bool)  # has an ancestor in the layer
        for d in range(1, int(self.depth.max()) + 1):
            at = self.depth == d
            p = self.parent[at]
            inside[at] = inside[p] | mask[p]
        total = self.dur[mask & ~inside].sum()
        return int(mask.sum()), total / 1e6, self.self_ns[mask].sum() / 1e6


def per_layer(spans: Spans) -> dict[str, float]:
    """Every per-layer metric of one traced run, by name."""
    out: dict[str, float] = {}
    reported = np.zeros(len(spans.names), dtype=bool)
    for layer in TIMED:
        calls, total, self_ms = spans.layer(layer)
        out[f"{layer}.calls"] = calls
        out[f"{layer}.total_ms"] = total
        out[f"{layer}.self_ms"] = self_ms
        reported |= _members(layer, spans.names)
    for suite in SUITES:
        out[f"experiments.suite_{suite}.total_ms"] = spans.layer(f"experiments.suite_{suite}")[1]
    c = spans.counters
    for algo in ALGORITHMS:
        steps = c.get(f"optimizers.run_trajectory.{algo}.steps", 0)
        ns = c.get(f"optimizers.run_trajectory.{algo}.ns", 0)
        out[f"optimizers.us_per_step.{algo}"] = ns / steps / 1e3 if steps else 0.0
    for key in ("linalg.spectral_norm.bytes_in", "optimizers.grad_sigma_min.bytes_in",
                "optimizers.steps", "optimizers.plateau_decays", "experiments.csv_bytes",
                "svgplot.svg_bytes", "msign.ns_iterations"):
        out[key] = c.get(key, 0)
    ns_calls = out["msign.msign_newton_schulz.calls"]
    out["msign.ns_converged_ratio"] = c.get("msign.ns_converged", 0) / ns_calls if ns_calls else 0.0
    root = spans.name == spans.names.index(ROOT)
    out["bench.root_self_ms"] = spans.self_ns[root].sum() / 1e6
    out["bench.other_self_ms"] = spans.self_ns[~reported[spans.name] & ~root].sum() / 1e6
    out["bench.root_ms"] = spans.dur[0] / 1e6
    out["bench.spans"] = len(spans.name)
    return out


def self_time_sum_ms(metrics: dict[str, float]) -> float:
    """Every layer's self time plus that of the other spans and the root.

    Given spans that nest, this equals ``bench.root_ms`` unless two layers
    share spans; ``run.layer_metrics`` checks both that and how far it falls
    short of the traced wall time, which the parent process measures."""
    parts = sum(metrics[f"{layer}.self_ms"] for layer in TIMED)
    return parts + metrics["bench.other_self_ms"] + metrics["bench.root_self_ms"]
