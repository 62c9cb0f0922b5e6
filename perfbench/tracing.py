"""Span tracing of the library from outside, for the traced run.

The tracer replaces each named public function in every ``qdecoupling``
module namespace that binds it, plus ``numpy.linalg.eigh``/``eigvalsh`` and
the ``State``/``Channel`` constructors, with a wrapper that records a span
(name, start, end, parent, job id).  Spans are kept in memory in flat
arrays and written out once at the end.  A layer's self time is its span's
duration minus the time of its direct children.
"""

from __future__ import annotations

import array
import importlib
import pkgutil
import time
from pathlib import Path

import numpy as np

# Functions wrapped per module; ``Class.init`` wraps the dataclass
# validation hook that every construction runs.
TRACED = {
    "cli": ("main",),
    "exponents": ("standard_decoupling_exponents", "merging_exponents", "sup_on_interval",
                  "critical_rate"),
    "decoupling": ("mc_decoupling_error", "decoupling_error_sample",
                   "decoupling_error_upper_bound_optimized"),
    "condentropy": ("cond_entropy", "minimized_conditioning", "petz_up_closed_form",
                    "channel_coherent_info"),
    "divergences": ("umegaki", "sandwiched_renyi", "petz_renyi", "d_max", "support_contained"),
    "channels": ("apply_channel", "Channel.init"),
    "states": ("State.init", "haar_unitary"),
    "linalg": ("herm_eig", "mat_pow", "partial_trace"),
}
EIGENSOLVERS = ("eigh", "eigvalsh")

# Per-layer metrics: (span name, "calls" | "self_ms").
_CALLS_AND_SELF = [
    "exponents.standard_decoupling_exponents", "exponents.merging_exponents",
    "exponents.sup_on_interval", "decoupling.mc_decoupling_error",
    "decoupling.decoupling_error_sample", "decoupling.decoupling_error_upper_bound_optimized",
    "condentropy.cond_entropy", "condentropy.minimized_conditioning",
    "condentropy.petz_up_closed_form", "condentropy.channel_coherent_info",
    "divergences.umegaki", "divergences.sandwiched_renyi", "channels.apply_channel",
    "states.State.init", "states.haar_unitary", "linalg.herm_eig", "linalg.mat_pow",
    "linalg.partial_trace",
]
_CALLS_ONLY = [
    "exponents.critical_rate", "divergences.petz_renyi", "divergences.d_max",
    "divergences.support_contained", "channels.Channel.init",
]
ITERS = "condentropy.minimized_conditioning.iters"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = [("cli.main.self_ms", "ms")]
    for name in _CALLS_AND_SELF:
        out += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms")]
    out += [(f"{name}.calls", "count") for name in _CALLS_ONLY]
    out += [(ITERS, "count"), ("linalg.eigensolves", "count"), ("linalg.eigensolve_ms", "ms"),
            ("trace.overhead_pct", "%")]
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_col = array.array("i")
        self.start_col = array.array("q")
        self.end_col = array.array("q")
        self.parent_col = array.array("i")
        self.job_col = array.array("i")
        self.stack: list[int] = []
        self.job = -1  # spans are recorded only while a job runs
        self.iters = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn, on_result=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if self.job < 0:
                return fn(*args, **kwargs)
            idx = len(self.name_col)
            self.name_col.append(nid)
            self.start_col.append(clock())
            self.end_col.append(0)
            self.parent_col.append(self.stack[-1] if self.stack else -1)
            self.job_col.append(self.job)
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.end_col[idx] = clock()
            if on_result is not None:
                on_result(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _add_iters(self, result) -> None:
        self.iters += int(result.iters)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap the traced functions wherever a ``package`` module binds them."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m.name}")
                               for m in pkgutil.iter_modules(package.__path__)]
        for mod_name, names in TRACED.items():
            mod = importlib.import_module(f"{package.__name__}.{mod_name}")
            for name in names:
                span = f"{mod_name}.{name}"
                if name.endswith(".init"):
                    cls = getattr(mod, name.split(".")[0])
                    self._patch(cls, "__post_init__", self._wrap(span, cls.__post_init__))
                    continue
                fn = getattr(mod, name)
                hook = self._add_iters if span == "condentropy.minimized_conditioning" else None
                wrapped = self._wrap(span, fn, hook)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, attr, wrapped)
        for name in EIGENSOLVERS:
            self._patch(np.linalg, name, self._wrap(f"numpy.{name}", getattr(np.linalg, name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------------

    def _columns(self):
        name = np.frombuffer(self.name_col, dtype=np.int32)
        start = np.frombuffer(self.start_col, dtype=np.int64)
        end = np.frombuffer(self.end_col, dtype=np.int64)
        parent = np.frombuffer(self.parent_col, dtype=np.int32)
        return name, start, end, parent

    def self_ns(self) -> np.ndarray:
        name, start, end, parent = self._columns()
        dur = (end - start).astype(np.float64)
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        return dur - covered

    def counts(self) -> dict[str, int]:
        name = self._columns()[0]
        return {n: int(np.count_nonzero(name == i)) for i, n in enumerate(self.names)}

    def metrics(self, n_jobs: int, overhead_pct: float) -> dict[str, float]:
        """Per-job averages of every per-layer metric."""
        name, start, end, _ = self._columns()
        self_ms = self.self_ns() / 1e6
        total_ms = {n: float(np.sum(self_ms[name == i])) for i, n in enumerate(self.names)}
        calls = self.counts()
        solver_ids = [i for i, n in enumerate(self.names) if n.startswith("numpy.")]
        solver = np.isin(name, solver_ids)
        values = {
            "linalg.eigensolves": int(np.count_nonzero(solver)) / n_jobs,
            "linalg.eigensolve_ms": float(np.sum(end[solver] - start[solver])) / 1e6 / n_jobs,
            ITERS: self.iters / n_jobs,
            "trace.overhead_pct": overhead_pct,
        }
        for metric, _ in metric_names():
            if metric in values:
                continue
            span, kind = metric.rsplit(".", 1)
            values[metric] = (calls.get(span, 0) if kind == "calls"
                              else total_ms.get(span, 0.0)) / n_jobs
        return values

    def write(self, path: Path) -> None:
        name, start, end, parent = self._columns()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name=name, start_ns=start,
                            end_ns=end, parent=parent,
                            job=np.frombuffer(self.job_col, dtype=np.int32))
