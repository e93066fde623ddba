"""In-memory span recorder that wraps muonlab's public functions from outside.

``from .linalg import check_matrix`` gives every importing module its own
binding of the same function object, so a wrapper installed on
``muonlab.linalg`` alone would miss most calls.  ``Tracer.install`` therefore
rebinds every attribute, in every loaded ``muonlab`` module, that refers to a
wrapped function; methods (``RandomStream`` draws, schedule ``eta``) are
wrapped on their classes.  ``numpy.linalg.svd`` is wrapped too, so that the
per-step grad sigma_min SVD that ``run_trajectory`` calls directly shows up
as a span whose parent is ``optimizers.run_trajectory``.

A span is (name id, parent index, start ns, end ns).  Spans stay in memory
until ``write`` saves them, with the exact counters the hooks collected, to
one ``.npz`` file.  Index 0 is the root span, opened by ``start_root``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array

import numpy as np

# Modules whose public functions become spans, in muonlab's own names.
MODULES = (
    "linalg", "msign", "rng", "problems", "optimizers", "oracle",
    "lowerbounds", "experiments", "svgplot", "cli",
)
# Private functions worth a span of their own: the verification suites.
SUITE_PREFIX = "_suite_"
# Learning-rate schedules; ``eta`` is called once per optimizer step.
SCHEDULES = ("ExponentialSchedule", "PlateauSchedule", "ConstantSchedule", "SequenceSchedule")
ROOT = "bench.root"
SVD = "numpy.linalg.svd"


def _nbytes(a) -> int:
    return int(getattr(a, "nbytes", 0))


class Tracer:
    """Records nested spans and exact counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        # id of a PlateauSchedule -> (that schedule, its last eta); holding
        # the schedule keeps its id from going to a later one
        self._last_eta: dict[int, tuple[object, float]] = {}

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> int:
        end = time.perf_counter_ns()
        self.end[idx] = end
        self.stack.pop()
        return end - self.start[idx]

    def start_root(self) -> None:
        self._open(self._name_id(ROOT))

    def stop_root(self) -> None:
        self._close(0)

    def parent_name(self) -> str:
        """Name of the span that is open now (the caller of a hook)."""
        return self.names[self.name_of[self.stack[-1]]]

    def wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        opener, closer = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opener(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = closer(idx)
            if hook is not None:
                hook(args, result, elapsed)
            return result

        return traced

    # -- hooks: exact counts taken where the work happens ------------------

    def _hook_spectral_norm(self, args, result, elapsed):
        self.count("linalg.spectral_norm.bytes_in", _nbytes(args[0]))

    def _hook_svd(self, args, result, elapsed):
        if self.parent_name() == "optimizers.run_trajectory":
            self.count("optimizers.grad_sigma_min.bytes_in", _nbytes(args[0]))

    def _hook_run_trajectory(self, args, result, elapsed):
        algo = args[1].algorithm
        steps = len(result.records) - 1
        self.count("optimizers.steps", steps)
        self.count(f"optimizers.run_trajectory.{algo}.steps", steps)
        self.count(f"optimizers.run_trajectory.{algo}.ns", elapsed)

    def _hook_plateau_eta(self, args, result, elapsed):
        schedule = args[0]
        _, last = self._last_eta.get(id(schedule), (schedule, result))
        if result < last:
            self.count("optimizers.plateau_decays")
        self._last_eta[id(schedule)] = (schedule, result)

    def _hook_newton_schulz(self, args, result, elapsed):
        self.count("msign.ns_iterations", result.iterations)
        self.count("msign.ns_converged", int(result.converged))

    def _hook_csv(self, args, result, elapsed):
        self.count("experiments.csv_bytes", os.path.getsize(args[0]))

    def _hook_svg(self, args, result, elapsed):
        self.count("svgplot.svg_bytes", len(result.encode()))

    def install(self) -> None:
        """Wrap every public function and the listed methods, on every
        binding in every loaded muonlab module."""
        import muonlab
        from muonlab import optimizers, rng

        hooks = {
            "linalg.spectral_norm": self._hook_spectral_norm,
            "optimizers.run_trajectory": self._hook_run_trajectory,
            "msign.msign_newton_schulz": self._hook_newton_schulz,
            "experiments.write_records_csv": self._hook_csv,
            "svgplot.emit_svg_plot": self._hook_svg,
        }
        replaced: dict[int, object] = {}
        for short in MODULES:
            module = sys.modules[f"muonlab.{short}"]
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if attr.startswith(SUITE_PREFIX):
                    name = f"{short}.{attr[1:]}"
                elif attr.startswith("_"):
                    continue
                else:
                    name = f"{short}.{attr}"
                replaced[id(obj)] = self.wrap(name, obj, hooks.get(name))
        rebind(replaced, [muonlab] + [sys.modules[f"muonlab.{m}"] for m in MODULES])

        for cls_name in SCHEDULES:
            cls = getattr(optimizers, cls_name)
            hook = self._hook_plateau_eta if cls is optimizers.PlateauSchedule else None
            cls.eta = self.wrap("optimizers.schedule_eta", cls.eta, hook)
        for attr, obj in list(vars(rng.RandomStream).items()):
            if inspect.isfunction(obj) and not attr.startswith("_"):
                setattr(rng.RandomStream, attr, self.wrap(f"rng.RandomStream.{attr}", obj))
        np.linalg.svd = self.wrap(SVD, np.linalg.svd, self._hook_svd)

    def write(self, path: str) -> None:
        """Save spans and counters; called once, after the root closes."""
        header = json.dumps({"names": self.names, "counters": self.counters})
        np.savez(
            path,
            header=np.frombuffer(header.encode(), dtype=np.uint8),
            name=np.frombuffer(self.name_of, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )


def rebind(replaced: dict[int, object], modules) -> None:
    """Point every attribute of ``modules`` whose value is a key of
    ``replaced`` (by identity) at its replacement."""
    for module in modules:
        for attr, obj in list(vars(module).items()):
            new = replaced.get(id(obj))
            if new is not None:
                setattr(module, attr, new)


def read_spans(path: str) -> dict:
    """Load a file written by ``Tracer.write``."""
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        return {
            "names": header["names"],
            "counters": header["counters"],
            "name": data["name"],
            "parent": data["parent"],
            "start": data["start"],
            "end": data["end"],
        }
