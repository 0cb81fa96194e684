"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer wraps, from outside the package, every public function of each
``lyapinit`` module.  Functions are imported by name across modules, so
every module that holds a binding gets the same wrapper.  One private
boundary is wrapped as well: ``dynamics._run_blocks`` hands its block
function to the worker pool, and the tracer wraps that block function in a
``dynamics.block`` span so that work on pool threads is seen.  A span that
opens on a thread with no open span takes the innermost open ``dynamics``
span of the main thread as parent.

A span's self time is its duration minus the part of its interval covered
by its children, on any thread.  Summed over the spans of a layer on all
threads this is the layer's busy time per thread, added up.
"""

import functools
import inspect
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# Bindings the per-layer counts depend on; each must be wrapped.
REQUIRED_BINDINGS = (
    ("quad", "activation_log_norm"),
    ("analytic", "activation_log_norm"),
    ("cli", "activation_log_norm"),
    ("ensembles", "haar_orthogonal_batch"),
    ("dynamics", "haar_orthogonal_batch"),
    ("ensembles", "unit_sphere_batch"),
    ("dynamics", "unit_sphere_batch"),
    ("ensembles", "draw_stack_matrices"),
    ("initgen", "draw_stack_matrices"),
    ("ensembles", "sample_haar_orthogonal"),
)


@dataclass(eq=False)
class Span:
    name: str
    thread: int
    parent: "Span | None"
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    info: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        covered, reach = 0.0, self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration - covered


def _count_floats(obj) -> int:
    if isinstance(obj, (float, np.floating)):
        return 1
    if isinstance(obj, np.ndarray):
        return obj.size if obj.dtype.kind == "f" else 0
    if isinstance(obj, dict):
        return sum(_count_floats(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_count_floats(v) for v in obj)
    return 0


def _bound_arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _record_estimate(fn, span, args, kwargs, result):
    arguments = _bound_arguments(fn, args, kwargs)
    span.info["trial_steps"] = arguments["trials"] * arguments.get("depth", 1)
    span.info["workers"] = arguments["n_workers"] or 1


def _record_haar_batch(fn, span, args, kwargs, result):
    span.info["matrices"] = _bound_arguments(fn, args, kwargs)["count"]


def _record_sampled_init(fn, span, args, kwargs, result):
    stack, diagnostics = result
    span.info["probe_steps"] = diagnostics.candidate_count * diagnostics.probe_inputs * stack.depth


def _record_dumps(fn, span, args, kwargs, result):
    span.info["floats"] = _count_floats(args[0])
    span.info["bytes"] = len(result.encode("utf-8"))


# Counts taken after a call returns, outside its span.
_RECORDERS = {
    "dynamics.estimate_lambda_single_step": _record_estimate,
    "dynamics.estimate_lambda_deep": _record_estimate,
    "dynamics.estimate_clt": _record_estimate,
    "ensembles.haar_orthogonal_batch": _record_haar_batch,
    "initgen.sampled_lyapunov_init": _record_sampled_init,
    "jsonio.dumps": _record_dumps,
}


class Tracer:
    """Records spans while ``recording`` is true; otherwise the wrappers only forward."""

    def __init__(self):
        self.recording = False
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._pool_parents = []
        self._wrappers = {}
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._pool_parents[-1] if self._pool_parents else None)
        span = Span(name, threading.get_ident(), parent, time.perf_counter(), time.thread_time())
        stack.append(span)
        if span.thread == self._main and name.startswith("dynamics."):
            self._pool_parents.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu_end = time.thread_time()
        self._stack().pop()
        if self._pool_parents and self._pool_parents[-1] is span:
            self._pool_parents.pop()
        with self._lock:
            self.spans.append(span)
            if span.parent is not None:
                span.parent.children.append(span)

    def wrap(self, fn, name: str):
        tracer = self
        recorder = _RECORDERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if recorder is not None:
                recorder(fn, span, args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Patch every binding of every public ``lyapinit`` function in ``modules``."""
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("lyapinit."):
                    continue
                wrapper = self._wrappers.get(value)
                if wrapper is None:
                    name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                    wrapper = self._wrappers[value] = self.wrap(value, name)
                self._patch(module, attr, wrapper)
        dynamics = modules["dynamics"]
        run_blocks = getattr(dynamics, "_run_blocks", None)
        if run_blocks is not None:
            wrap_block = functools.partial(self.wrap, name="dynamics.block")

            @functools.wraps(run_blocks)
            def traced_run_blocks(block_fn, *args, **kwargs):
                return run_blocks(wrap_block(block_fn), *args, **kwargs)

            self._patch(dynamics, "_run_blocks", traced_run_blocks)
        missing = [f"{m}.{a}" for m, a in REQUIRED_BINDINGS
                   if getattr(getattr(modules[m], a, None), "__wrapped__", None) is None]
        if missing:
            raise RuntimeError(f"tracer could not wrap {', '.join(missing)}")

    def _patch(self, module, attr, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> list:
        """Spans recorded since the last call, and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def _per(total: float, count: int, unit: float) -> float:
    return total / count * unit if count else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer numbers of one traced iteration, keyed by metric name."""
    self_by_module = {}
    for span in spans:
        module = span.name.split(".", 1)[0]
        self_by_module[module] = self_by_module.get(module, 0.0) + span.self_time()

    def named(name):
        return [s for s in spans if s.name == name]

    quad = named("quad.activation_log_norm")
    batch = named("ensembles.haar_orthogonal_batch")
    single = named("ensembles.sample_haar_orthogonal")
    estimates = [s for s in spans if s.name.startswith("dynamics.estimate_")]
    dumps = named("jsonio.dumps")

    matrices = sum(s.info["matrices"] for s in batch)
    trial_steps = sum(s.info["trial_steps"] for s in estimates)
    floats = sum(s.info["floats"] for s in dumps)
    dumps_time = sum(s.duration for s in dumps)

    # Busy time is thread CPU time inside dynamics and ensembles spans: the
    # estimate span on the caller's thread plus the spans that opened on pool
    # threads below it.  Waiting for the pool or for the interpreter lock is
    # not busy.
    busy = capacity = 0.0
    for est in estimates:
        busy += est.cpu_end - est.cpu_start
        pending = list(est.children)
        while pending:
            span = pending.pop()
            if span.thread != span.parent.thread:
                busy += span.cpu_end - span.cpu_start
            pending.extend(span.children)
        capacity += est.duration * est.info["workers"]

    return {
        "quad.calls": len(quad),
        "quad.us_per_call": _per(sum(s.duration for s in quad), len(quad), 1e6),
        "analytic.self_s": self_by_module.get("analytic", 0.0),
        "ensembles.haar_batch.matrices": matrices,
        "ensembles.haar_batch.ns_per_matrix": _per(sum(s.duration for s in batch), matrices, 1e9),
        "ensembles.haar_single.calls": len(single),
        "ensembles.haar_single.us_per_call": _per(sum(s.duration for s in single), len(single), 1e6),
        "dynamics.trial_steps": trial_steps,
        "dynamics.self_ns_per_trial_step": _per(self_by_module.get("dynamics", 0.0), trial_steps, 1e9),
        "dynamics.thread_util": busy / capacity if capacity else 0.0,
        "initgen.self_s": self_by_module.get("initgen", 0.0),
        "initgen.probe_steps": sum(s.info["probe_steps"] for s in named("initgen.sampled_lyapunov_init")),
        "jsonio.floats": floats,
        "jsonio.bytes": sum(s.info["bytes"] for s in dumps),
        "jsonio.mfloats_per_s": floats / dumps_time / 1e6 if dumps_time else 0.0,
        "cli.self_s": self_by_module.get("cli", 0.0),
    }


COUNT_METRICS = (
    "quad.calls",
    "ensembles.haar_batch.matrices",
    "ensembles.haar_single.calls",
    "dynamics.trial_steps",
    "initgen.probe_steps",
    "jsonio.floats",
    "jsonio.bytes",
)


def combine(per_iteration: list):
    """Medians of the timed layer numbers, and the counts that did not repeat exactly."""
    combined, unrepeated = {}, []
    for name in per_iteration[0]:
        values = [m[name] for m in per_iteration]
        if name in COUNT_METRICS:
            if len(set(values)) != 1:
                unrepeated.append(name)
            combined[name] = values[0]
        else:
            combined[name] = statistics.median(values)
    return combined, unrepeated
