"""Span recorder for the traced benchmark run.

The recorder wraps functions of the ``isingbm`` modules from the outside: it
replaces a module attribute with a wrapper, and also every other binding of
the same function object in any loaded ``isingbm`` module (``from .model
import all_energies`` makes such a binding). Nothing under ``src/`` knows about
it. ``uninstall`` puts every original back.

Each call records one span: name, start, end, parent span, op id and thread.
Spans stay in memory until ``dump`` writes them out. A span opened on a
thread with no open span of its own (a request thread of the in-process mock
server) takes the innermost open span of the main thread as its parent; it is
marked as cross-thread, so it is not subtracted from that parent's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict


MODULES = ("model", "metrics", "samplers", "training", "mock_server", "datasets")

# Methods and factories traced in addition to every public module-level
# function. Per-layer metrics name some of these; a name that is missing from
# the source tree is reported as absent.
EXTRA_TARGETS = (
    ("metrics.Distribution.prob", "metrics", "Distribution", "prob"),
    ("samplers.SampleSet.init", "samplers", "SampleSet", "__init__"),
    ("datasets.Dataset.row", "datasets", "Dataset", "row"),
    ("datasets.Dataset.input_part", "datasets", "Dataset", "input_part"),
    ("datasets.Dataset.output_part", "datasets", "Dataset", "output_part"),
    # Wrapping the handler factory traces each request the mock server serves.
    ("mock_server.request", "mock_server", None, "_make_handler"),
)

# Names the per-layer metrics read; checked for presence after install.
NAMED = (
    "model.all_energies", "model.clamp_visible",
    "metrics.visible_marginal", "metrics.dkl_beta_derivatives",
    "metrics.conditional_probability", "metrics.kl_divergence",
    "metrics.Distribution.prob", "metrics.negative_conditional_log_likelihood",
    "metrics.fit_beta", "training.grad_dkl", "training.grad_ncll",
    "samplers.gibbs_sample", "samplers.remote_sample", "samplers.SampleSet.init",
    "mock_server.request",
)


def _all_energies_work(args, kwargs):
    bm = args[0] if args else kwargs["bm"]
    return 1 << bm.num_nodes


def _gibbs_work(args, kwargs):
    """Site updates implied by the call's config: chains x sites x sweeps."""
    bm = args[0] if args else kwargs["bm"]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    per_chain = -(-cfg.num_reads // cfg.num_chains)
    sweeps = cfg.burn_in + per_chain * cfg.thinning
    return cfg.num_chains * bm.num_nodes * sweeps


WORK = {"model.all_energies": _all_energies_work, "samplers.gibbs_sample": _gibbs_work}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "thread", "cross", "error", "work")

    def __init__(self, name, start, parent, op, thread, cross, work):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.thread = thread
        self.cross = cross
        self.error = None
        self.work = work

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self.absent: list[str] = []
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        work_of = WORK.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent, cross = stack[-1], False
            else:
                main = self._main_stack
                parent, cross = (main[-1], True) if stack is not main and main else (None, False)
            work = work_of(args, kwargs) if work_of else 0
            span = Span(name, 0.0, parent, self.op, threading.get_ident(), cross, work)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def reset(self) -> None:
        self.spans.clear()

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        mods = {short: sys.modules.get(f"isingbm.{short}") for short in MODULES}
        targets = []
        for short, mod in mods.items():
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    targets.append((f"{short}.{attr}", mod, None, attr))
        for label, short, cls_name, attr in EXTRA_TARGETS:
            owner = getattr(mods.get(short), cls_name, None) if cls_name else mods.get(short)
            if owner is not None and attr in vars(owner):
                targets.append((label, mods[short], owner if cls_name else None, attr))

        namespaces = [m for n, m in list(sys.modules.items()) if m and (n == "isingbm" or n.startswith("isingbm."))]
        for label, mod, cls, attr in targets:
            if cls is not None:
                self._patch(cls, attr, self.wrap(label, vars(cls)[attr]))
                continue
            original = getattr(mod, attr)
            if label == "mock_server.request":
                wrapped = self._wrap_handler_factory(original)
            else:
                wrapped = self.wrap(label, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapped)

        labels = {t[0] for t in targets}
        self.absent = [n for n in NAMED if n not in labels]

    def _wrap_handler_factory(self, factory):
        """Trace each request the mock server handles as ``mock_server.request``."""

        @functools.wraps(factory)
        def make_handler(*args, **kwargs):
            handler = factory(*args, **kwargs)
            handler.do_POST = self.wrap("mock_server.request", handler.do_POST)
            return handler

        return make_handler

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, errors, total and self seconds, durations and work."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None and not s.cross:
                child[id(s.parent)] += s.seconds
        out: dict[str, dict] = {}
        for s in self.spans:
            d = out.setdefault(s.name, {"calls": 0, "errors": 0, "self_s": 0.0, "durations": [], "work": 0})
            d["calls"] += 1
            d["errors"] += s.error is not None
            d["self_s"] += s.seconds - child[id(s)]
            d["durations"].append(s.seconds)
            d["work"] += s.work
        return out

    def remote_breakdown(self) -> tuple[float, list[float]]:
        """Server compute seconds (model calls made by request handlers) and,
        per remote_sample call, its round trip minus the compute it caused."""
        compute_of_request = defaultdict(float)
        for s in self.spans:
            if s.parent is not None and s.parent.name == "mock_server.request" and not s.cross:
                compute_of_request[id(s.parent)] += s.seconds
        compute_of_call = defaultdict(float)
        for s in self.spans:
            if s.name == "mock_server.request" and s.parent is not None:
                compute_of_call[id(s.parent)] += compute_of_request[id(s)]
        overheads = [s.seconds - compute_of_call[id(s)] for s in self.spans if s.name == "samplers.remote_sample"]
        return float(sum(compute_of_request.values())), overheads

    def dump(self, path, header: dict) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name,
                    "start_ms": round((s.start - t0) * 1e3, 4), "end_ms": round((s.end - t0) * 1e3, 4),
                    "parent": ids.get(id(s.parent)), "cross_thread": s.cross,
                    "op": s.op, "thread": s.thread, "error": s.error,
                }) + "\n")
