"""In-memory span tracing of the library, applied from outside.

A traced run replaces selected public functions of the ``repro`` layers
with wrappers that record one span per call: ``(id, parent, name, start,
end)``.  The parent is the innermost traced call still open on the same
thread, so self time is a span's duration minus the durations of its
direct children (children on one thread nest inside their parent).
Nothing in ``src/`` is edited; an untraced run installs no wrapper.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

Span = Tuple[int, int, str, float, float]  # id, parent, name, start, end


class Tracer:
    """Wraps library functions and keeps one span per call in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def wrap(self, name: str, fn: Callable,
             wrap_result: Optional[str] = None) -> Callable:
        """``fn`` recording one ``name`` span per call.  With
        ``wrap_result`` the callable ``fn`` returns is wrapped as well,
        under that span name."""
        spans, local, ids = self.spans, self._local, self._ids
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if wrap_result is not None:
                out = self.wrap(wrap_result, out)
            return out
        return traced

    def patch(self, owner, attr: str, name: str,
              wrap_result: Optional[str] = None) -> None:
        """Replace ``owner.attr`` by its traced version until
        :meth:`restore`."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, wrap_result))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patch_library(self) -> None:
        """Wrap the public entry points of every layer on the two hot
        paths (agents, core, backend, environments, execution, serving).
        Components run inside compiled plans and have no per-call Python
        entry point; their numbers come from the variable registry and
        from probes instead."""
        from repro.agents.agent import Agent
        from repro.agents.dqn_agent import DQNAgent
        from repro.backend.session import Session
        from repro.core.graph_builder import BuiltGraph
        from repro.environments.vector_env import SequentialVectorEnv
        from repro.execution.worker import SingleThreadedWorker
        from repro.serving.policy_server import PolicyServer, _BatchingFrontEnd

        self.patch(DQNAgent, "update", "agents.update")
        self.patch(DQNAgent, "get_actions", "agents.get_actions")
        self.patch(DQNAgent, "sync_target", "agents.sync_target")
        self.patch(Agent, "observe_batch", "agents.observe")
        self.patch(Agent, "set_weights", "agents.set_weights")
        self.patch(Agent, "serving_act_fn", "agents.serving_act_fn",
                   wrap_result="serving.act_batch")
        self.patch(BuiltGraph, "execute", "core.execute")
        self.patch(BuiltGraph, "make_callable", "core.make_callable",
                   wrap_result="core.callable")
        self.patch(Session, "run", "backend.run")
        self.patch(SequentialVectorEnv, "step_wait", "environments.step")
        self.patch(SingleThreadedWorker, "execute_timesteps",
                   "execution.execute_timesteps")
        self.patch(_BatchingFrontEnd, "submit", "serving.submit")
        self.patch(_BatchingFrontEnd, "set_weights", "serving.set_weights")
        for attr in ("submit", "set_weights"):
            if attr in PolicyServer.__dict__:
                raise RuntimeError(f"PolicyServer.{attr} shadows the "
                                   f"traced base-class method")

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one traced call adds over an untraced one, measured
        on a no-op (the per-span bookkeeping)."""
        probe = Tracer()
        noop = lambda: None  # noqa: E731
        traced = probe.wrap("probe", noop)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            base = time.perf_counter() - t0
            t0 = time.perf_counter()
            for _ in range(calls):
                traced()
            best = min(best, (time.perf_counter() - t0 - base) / calls)
            probe.spans.clear()
        return max(best, 0.0)

    def clear(self) -> None:
        self.spans.clear()


class SpanView:
    """Spans of one time window, indexed for per-layer statistics."""

    def __init__(self, spans: List[Span], t_start: float = float("-inf"),
                 t_end: float = float("inf")):
        self.spans = [s for s in spans if s[3] >= t_start and s[4] <= t_end]
        self.by_id: Dict[int, Span] = {s[0]: s for s in self.spans}
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        self.children: Dict[int, List[Span]] = defaultdict(list)
        for s in self.spans:
            self.by_name[s[2]].append(s)
            if s[1]:
                self.children[s[1]].append(s)

    def durations(self, name: str, parent: Optional[str] = None) -> np.ndarray:
        """Durations (s) of ``name`` spans, optionally only those whose
        direct parent is a ``parent`` span."""
        return np.asarray([s[4] - s[3] for s in self.select(name, parent)])

    def select(self, name: str, parent: Optional[str] = None) -> List[Span]:
        spans = self.by_name.get(name, [])
        if parent is None:
            return spans
        return [s for s in spans
                if s[1] in self.by_id and self.by_id[s[1]][2] == parent]

    def self_times(self, name: str, parent: Optional[str] = None
                   ) -> np.ndarray:
        """Self time (s) of each ``name`` span: its duration minus the
        durations of its direct children."""
        out = []
        for s in self.select(name, parent):
            child = sum(c[4] - c[3] for c in self.children.get(s[0], ()))
            out.append(s[4] - s[3] - child)
        return np.asarray(out)

    def has_ancestor(self, span: Span, name: str) -> bool:
        parent = self.by_id.get(span[1])
        while parent is not None:
            if parent[2] == name:
                return True
            parent = self.by_id.get(parent[1])
        return False
