"""The serving hot path: ``serve_inproc`` and ``serve_http``.

Both serve the learner's agent (same network) through a ``PolicyServer``
with ``batch_window=0`` and ``max_batch_size=32``.  A zero window
matters: with a 0.5 ms window every rate from 500 to 5,000 req/s gave
the same p50, which measured the timer rather than the path.

* ``serve_inproc`` is an open loop: one generator thread submits Poisson
  arrivals at 1,000 req/s to ``PolicyServer.submit`` (batches of mostly
  one request) and every request is timed from when it was due, so a
  stall also charges the requests queued behind it.
* ``serve_http`` is a closed loop of 2 keep-alive ``HttpPolicyClient``
  connections through an in-process ``HttpGateway``; one of the two
  load threads also hot-swaps weight set A or B every 50 ms.

No workload starts a process: the server, the gateway and every load
thread are threads of the benchmark process, stopped in ``finally``
blocks with bounded joins.
"""

from __future__ import annotations

import bisect
import ctypes
import functools
import threading
import time
from typing import List

import numpy as np

from common import (ReferenceTable, join_all, make_agent, observation_pool,
                    quantile, tail, timed_setups, weight_sets, windowed)
from spans import SpanView

MAX_BATCH = 32
OPEN_RATE = 1000.0       # req/s: batches of mostly one request
SWAP_PERIOD_S = 0.05
HTTP_CLIENTS = 2
JOIN_S = 10.0
DRAIN_S = 20.0
PR_SET_TIMERSLACK = 29


def _tight_timer() -> None:
    """Let the calling thread's sleeps overshoot by 1 us instead of the
    default 50 us timer slack, so the generator submits on time (its
    lateness counts in every request's latency).  Linux only."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_TIMERSLACK, 1000, 0, 0, 0)


class OpenLoop:
    """Poisson arrivals at ``rate`` for ``duration`` seconds, generated
    from the seed; the generator runs on its own thread.

    Completion callbacks keep only a timestamp and the action: holding
    every future would make the benchmark's own garbage, not the
    server's, dominate the collector's pauses."""

    def __init__(self, rng, rate: float, duration: float, pool_size: int):
        gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.3)
                               + 64)
        offsets = np.cumsum(gaps)
        self.offsets = offsets[offsets < duration]
        n = len(self.offsets)
        self.rate = rate
        self.obs_index = rng.integers(0, pool_size, n)
        self.due = np.zeros(n)
        self.late = np.zeros(n)
        self.done = np.full(n, np.nan)
        self.actions: List[object] = [None] * n
        self.submitted = np.zeros(n, bool)

    def _on_done(self, i: int, ref) -> None:
        self.done[i] = time.perf_counter()
        try:
            self.actions[i] = ref.result(0)
        except Exception as exc:  # noqa: BLE001 - checked as failed
            self.actions[i] = exc

    def _drive(self, server, pool) -> None:
        from repro.utils.errors import RLGraphError
        _tight_timer()
        perf, sleep = time.perf_counter, time.sleep
        base = perf() + 0.001
        due = self.due
        due[:] = base + self.offsets
        for i in range(len(due)):
            wait = due[i] - perf()
            if wait > 0:
                sleep(wait)
            self.late[i] = perf() - due[i]
            try:
                ref = server.submit(pool[self.obs_index[i]])
            except RLGraphError:
                continue
            self.submitted[i] = True
            ref.add_done_callback(functools.partial(self._on_done, i))

    def run(self, server, pool) -> None:
        thread = threading.Thread(target=self._drive, args=(server, pool),
                                  name="loadgen", daemon=True)
        thread.start()
        # Generous: the schedule's own length plus time to catch up.
        thread.join((self.offsets[-1] if len(self.offsets) else 0) + JOIN_S)
        if thread.is_alive():
            raise RuntimeError("load generator did not finish")
        deadline = time.perf_counter() + DRAIN_S
        while np.isnan(self.done[self.submitted]).any() \
                and time.perf_counter() < deadline:
            time.sleep(0.001)

    def check(self, table: ReferenceTable) -> int:
        """Requests refused, never completed, failed, or answered with an
        action other than the greedy reference (weights are fixed)."""
        failed = 0
        for i, action in enumerate(self.actions):
            if action is None or isinstance(action, Exception) \
                    or not table.matches(self.obs_index[i], action, (0,)):
                failed += 1
        return failed

    @property
    def span(self):
        return self.due[0], np.nanmax(self.done)


def _serving_setup(target_wrapper=None, gateway: bool = False):
    from repro.serving import HttpGateway, PolicyServer

    def setup():
        agent = make_agent()
        server = PolicyServer(agent, max_batch_size=MAX_BATCH,
                              batch_window=0.0)
        gw = None
        try:
            if gateway:
                target = target_wrapper(server) if target_wrapper else server
                gw = HttpGateway(target).start()
        except BaseException:
            server.stop()
            raise
        return agent, server, gw
    return setup


def _stop(bundle) -> None:
    _agent, server, gw = bundle
    try:
        if gw is not None:
            gw.stop()
    finally:
        server.stop()


def _act_layers(view: SpanView, phase: OpenLoop = None):
    """Per-layer numbers of the batched act path from a window's spans."""
    acts = view.select("serving.act_batch")
    out = {
        "serving.act_batch_us.p50": quantile(
            [s[4] - s[3] for s in acts], 0.5) * 1e6,
        "core.callable_self_us.p50": quantile(view.self_times(
            "core.callable", parent="serving.act_batch"), 0.5) * 1e6,
        "backend.run_us.act": quantile(view.durations(
            "backend.run", parent="core.callable"), 0.5) * 1e6,
    }
    if phase is not None:
        # A request's queue wait: its latency minus the act time of the
        # batch that served it (the last act to end before it resolved).
        acts = sorted(acts, key=lambda s: s[4])
        ends = [s[4] for s in acts]
        waits = []
        for due, done in zip(phase.due, phase.done):
            k = bisect.bisect_right(ends, done) - 1
            if k >= 0 and not np.isnan(done):
                waits.append(done - due - (acts[k][4] - acts[k][3]))
        out["serving.queue_wait_us.p50"] = quantile(waits, 0.5) * 1e6
    return out


def run_inproc(args, workspace, tracer):
    # Not pinned: with the generator and the server on one CPU, anything
    # else the machine ran there (a single busy thread was enough) held
    # them off for whole scheduler slices, and p90 rose 4-6x in that run.
    rng = np.random.default_rng([args.seed, 4])
    pool = observation_pool(args.seed)
    bundle, setup_s = timed_setups(workspace, _serving_setup(), _stop)
    agent, server, _ = bundle
    try:
        table = ReferenceTable(agent, [agent.get_weights(flat=True)], pool)
        phase = OpenLoop(rng, OPEN_RATE, args.seconds, len(pool))
        batches0 = server.stats.batches
        compiled0 = agent.graph.session.stats.plans_compiled
        tracer.clear()
        phase.run(server, pool)
        phase_batches = server.stats.batches - batches0
        t0, t1 = phase.span
        view = SpanView(tracer.spans, t0, t1) if args.trace else None
        ok = ~np.isnan(phase.done)
        done, due = phase.done[ok], phase.due[ok]
        latency = windowed(due, (done - due) * 1e6, t0, t1)
        failed = phase.check(table)
        attempted = len(phase.due)
        e2e = {"setup_s": setup_s,
               "throughput_per_s": windowed(done, done, t0, t1)["rate"],
               "p50_us": latency["p50"], "p90_us": latency["tail"]}
        layer = {
            "serving.batch_size.mean": len(done) / max(phase_batches, 1),
            "serving.rejected": server.stats.rejected,
            "serving.expired": server.stats.expired,
            "loadgen.late_us.tail": tail(phase.late) * 1e6,
            "backend.plans_compiled_window":
                agent.graph.session.stats.plans_compiled - compiled0,
            "backend.native_segments":
                agent.graph.session.stats.native_segments,
            "backend.native_py_steps":
                agent.graph.session.stats.native_py_steps,
        }
        if args.trace:
            layer.update(_act_layers(view, phase))
            layer["trace.overhead_frac"] = (len(view.spans)
                                            * tracer.span_cost()
                                            / (t1 - t0))
        detail = {"open_loop_requests": len(phase.due),
                  "rate": phase.rate, "attempted": attempted,
                  "reference_ties": table.tie_count()}
        return e2e, layer, attempted, failed, detail
    finally:
        _stop(bundle)


class _TimedTarget:
    """Gateway target that times each request inside the serving stack,
    from ``submit`` until its future resolves (traced runs only)."""

    def __init__(self, server):
        self.server = server
        self.state_space = server.state_space
        self.times = {}

    def submit(self, obs, deadline=None):
        t0 = time.perf_counter()
        ref = self.server.submit(obs, deadline=deadline)
        key = np.asarray(obs).tobytes()
        # Registered before the gateway's own callback, so the time is
        # stored before the response can reach the client.
        ref.add_done_callback(lambda _ref: self.times.__setitem__(
            key, time.perf_counter() - t0))
        return ref

    def metrics_snapshot(self):
        return self.server.metrics_snapshot()


def run_http(args, workspace, tracer):
    from repro.serving import (DeadlineExceededError, HttpPolicyClient,
                               OverloadError)
    from repro.utils.errors import RLGraphError

    # Not pinned either: on one CPU this path settled, per process, into
    # one of two speeds about 25% apart.
    pool = observation_pool(args.seed)
    rng = np.random.default_rng([args.seed, 5])
    wrapper = _TimedTarget if args.trace else None
    bundle, setup_s = timed_setups(
        workspace, _serving_setup(wrapper, gateway=True), _stop)
    agent, server, gw = bundle
    clients, threads = [], []
    stop = threading.Event()
    try:
        flat_a, flat_b = weight_sets(agent, args.seed)
        flats = (flat_a, flat_b)
        table = ReferenceTable(agent, list(flats), pool)
        # Disjoint observation streams per client keep the per-request
        # server timing of traced runs unambiguous.
        order = rng.permutation(len(pool))
        streams = [order[k::HTTP_CLIENTS] for k in range(HTTP_CLIENTS)]
        clients = [HttpPolicyClient.for_gateway(gw, timeout=10.0)
                   for _ in range(HTTP_CLIENTS)]
        records = [[] for _ in range(HTTP_CLIENTS)]
        errors = [{"5xx": 0, "other": 0} for _ in range(HTTP_CLIENTS)]
        swaps = []   # (requested, acknowledged, new version)
        target = gw.target

        def load(k: int) -> None:
            client, stream, out = clients[k], streams[k], records[k]
            version, n = 0, 0
            next_swap = time.perf_counter() + SWAP_PERIOD_S
            while not stop.is_set():
                if k == 0 and time.perf_counter() >= next_swap:
                    version = 1 - version
                    t_req = time.perf_counter()
                    server.set_weights(flats[version], wait=True)
                    swaps.append((t_req, time.perf_counter(), version))
                    next_swap += SWAP_PERIOD_S
                i = stream[n % len(stream)]
                n += 1
                t0 = time.perf_counter()
                try:
                    action = client.act(pool[i], deadline_ms=1000)
                except (OverloadError, DeadlineExceededError):
                    errors[k]["5xx"] += 1
                    continue
                except (RLGraphError, OSError):
                    errors[k]["other"] += 1
                    continue
                t1 = time.perf_counter()
                server_s = (target.times.pop(pool[i].tobytes(), None)
                            if args.trace else None)
                out.append((i, t0, t1, action, server_s))

        compiled0 = agent.graph.session.stats.plans_compiled
        tracer.clear()
        threads = [threading.Thread(target=load, args=(k,), daemon=True,
                                    name=f"http-load-{k}")
                   for k in range(HTTP_CLIENTS)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        time.sleep(args.seconds)
        stop.set()
        alive = join_all(threads, JOIN_S)
        t1 = time.perf_counter()
        if alive:
            raise RuntimeError(f"load threads did not stop: {alive}")
        view = SpanView(tracer.spans, t0, t1) if args.trace else None

        requests = [r for rec in records for r in rec]
        status_5xx = sum(e["5xx"] for e in errors)
        refused = status_5xx + sum(e["other"] for e in errors)
        failed = refused + sum(
            not table.matches(i, action, _versions(swaps, start, end))
            for i, start, end, action, _ in requests)
        attempted = len(requests) + refused
        rtt = windowed([start for _, start, _, _, _ in requests],
                       [(end - start) * 1e6
                        for _, start, end, _, _ in requests], t0, t1)
        swap_s = [ack - req for req, ack, _ in swaps]
        e2e = {"setup_s": setup_s, "throughput_per_s": rtt["rate"],
               "p50_us": rtt["p50"], "p90_us": rtt["tail"]}
        layer = {
            "serving.swap_ms.p50": quantile(swap_s, 0.5) * 1e3,
            "gateway.status_5xx": status_5xx,
            "serving.rejected": server.stats.rejected,
            "serving.expired": server.stats.expired,
            "backend.plans_compiled_window":
                agent.graph.session.stats.plans_compiled - compiled0,
            "backend.native_segments":
                agent.graph.session.stats.native_segments,
            "backend.native_py_steps":
                agent.graph.session.stats.native_py_steps,
        }
        if args.trace:
            layer.update(_act_layers(view))
            layer.update(_http_layers(view, requests))
            layer["serving.batch_size.mean"] = len(requests) / max(
                len(view.select("serving.act_batch")), 1)
            layer["trace.overhead_frac"] = (len(view.spans)
                                            * tracer.span_cost()
                                            / (t1 - t0))
        detail = {"requests": len(requests), "swaps": len(swaps),
                  "refused": refused, "reference_ties": table.tie_count()}
        return e2e, layer, attempted, failed, detail
    finally:
        stop.set()
        join_all(threads, JOIN_S)
        for client in clients:
            client.close()
        _stop(bundle)


def _versions(swaps, start: float, end: float):
    """Weight versions a request in flight over [start, end] may have
    been served with: the version in force at ``start`` plus both sides
    of every swap whose application overlaps the request."""
    versions = {0}
    for req, ack, new in swaps:
        if ack <= start:
            versions = {new}
        elif req >= end:
            break
        else:
            versions |= {1 - new, new}
    return versions


def _http_layers(view: SpanView, requests):
    server_us = [srv * 1e6 for _, _, _, _, srv in requests if srv is not None]
    http_us = [(end - start - srv) * 1e6
               for _, start, end, _, srv in requests if srv is not None]
    return {
        "gateway.server_us.p50": quantile(server_us, 0.5),
        "gateway.http_us.p50": quantile(http_us, 0.5),
        "agents.set_weights_us.p50": quantile(
            view.durations("agents.set_weights"), 0.5) * 1e6,
    }
