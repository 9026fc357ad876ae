"""Runtime span tracing for the benchmark's traced run.

The program under test is not modified: :class:`Tracer` wraps the public
entry points of each layer at run time (class methods on the class, and a
function imported by name on every ``repro`` module that bound it) and
restores the originals on :meth:`Tracer.uninstall`.  Each call records a
span ``(id, name, start, end, parent, query id, elements)``; spans stay in
memory until the run writes them out.

Engine tasks run on worker threads, where the caller's span stack is not
visible.  The wrapper around ``ExecutionEngine.run`` therefore wraps each
task so that, on the worker, it opens a span whose parent is the
``engine`` span and whose name is the layer that submitted the tasks (the
tensor join's GEMM blocks count as ``core.tensor_join``).

:func:`attribute` turns spans into per-layer *self time* that adds up to
the traced wall time: at every instant some query is in flight, the wall
clock is split evenly among the innermost active spans (those with no
active child) across all threads.  Time where the benchmark's own
per-query span is innermost is *unattributed*.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: The benchmark's own per-query root span; its self time is glue code
#: outside every wrapped layer and is reported as unattributed.
ROOT = "bench.query"


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.hooks: dict[str, list] = defaultdict(list)

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> tuple[int | None, object, str | None]:
        """(parent span id, query id, parent name) for a span opened now."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", (None, None, None))

    def call(self, name: str, fn, args, kwargs, elements=None, qid=None):
        """Run ``fn`` inside a span named ``name``.

        The span inherits its parent's query id unless ``qid`` is given.
        """
        parent, parent_qid, _ = self._parent()
        qid = parent_qid if qid is None else qid
        sid = next(self._ids)
        stack = self._stack()
        stack.append((sid, qid, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            n = elements(args, kwargs) if elements is not None else 0
            self.spans.append((sid, name, start, end, parent, qid, n))
        for hook in self.hooks.get(name, ()):
            hook(args, kwargs)
        return result

    def query(self, qid, fn, *args):
        """Run one benchmark query under a root span tagged ``qid``."""
        return self.call(ROOT, fn, args, {}, qid=qid)

    # -- patching -------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr: str, name: str, elements=None) -> None:
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, elements)

        self._set(cls, attr, wrapper)

    def wrap_function(self, original, name: str, elements=None) -> int:
        """Wrap ``original`` on every loaded ``repro`` module that binds it.

        Covers ``from x import f`` bindings and the defining module (which
        also serves function-local imports).  Returns the bindings patched.
        """

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, elements)

        patched = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                    patched += 1
        return patched

    def wrap_engine_run(self, cls) -> None:
        """Wrap ``cls.run`` and re-parent its tasks onto the worker threads."""
        original = cls.__dict__["run"]
        tracer = self

        def run_task(task, inherited):
            local = tracer._local
            saved = getattr(local, "inherited", (None, None, None))
            local.inherited = inherited
            try:
                return tracer.call(inherited[2], task, (), {})
            finally:
                local.inherited = saved

        @functools.wraps(original)
        def wrapper(engine, tasks, *args, **kwargs):
            _, qid, submitter = tracer._parent()

            def traced_run(engine, tasks, *args, **kwargs):
                sid = tracer._stack()[-1][0]
                inherited = (sid, qid, submitter or "engine")
                tasks = [functools.partial(run_task, t, inherited) for t in tasks]
                return original(engine, tasks, *args, **kwargs)

            return tracer.call("engine", traced_run, (engine, tasks, *args), kwargs)

        self._set(cls, "run", wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------
    def write(self, path) -> None:
        """Dump spans as JSON lines, start-ordered, times relative to the first."""
        spans = sorted(self.spans, key=lambda s: s[2])
        t0 = spans[0][2] if spans else 0.0
        with open(path, "w") as fh:
            for sid, name, start, end, parent, qid, n in spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start_s": round(start - t0, 9),
                            "end_s": round(end - t0, 9),
                            "parent": parent,
                            "query": qid,
                            "elements": n,
                        }
                    )
                    + "\n"
                )


def attribute(spans: list[tuple], window: tuple[float, float]) -> dict[str, float]:
    """Split the busy wall time inside ``window`` across span names.

    Returns seconds per span name.  Instants with no active span (the
    benchmark checking results between queries) count nowhere, so the
    values sum to the time during which some query was in flight; the
    ``ROOT`` entry is benchmark glue inside a query but outside every
    wrapped layer.
    """
    lo, hi = window
    events = []
    for sid, name, start, end, parent, _qid, _n in spans:
        start, end = max(start, lo), min(end, hi)
        if end > start:
            events.append((start, 1, sid, name, parent))
            events.append((end, 0, sid, name, parent))
    # Ends before starts at equal times: a span never parents one that
    # only touches it.
    events.sort(key=lambda e: (e[0], e[1]))
    shares: dict[str, float] = defaultdict(float)
    active: dict[int, str] = {}
    children: dict[int, int] = defaultdict(int)
    leaves: set[int] = set()
    now = lo
    for t, is_start, sid, name, parent in events:
        if t > now:
            if leaves:
                share = (t - now) / len(leaves)
                for leaf in leaves:
                    shares[active[leaf]] += share
            now = t
        if is_start:
            active[sid] = name
            leaves.add(sid)
            if parent in active:
                children[parent] += 1
                leaves.discard(parent)
        else:
            active.pop(sid, None)
            leaves.discard(sid)
            if parent in active:
                children[parent] -= 1
                if children[parent] == 0:
                    leaves.add(parent)
    return dict(shares)
