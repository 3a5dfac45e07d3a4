"""``learn_dqn``: the learner hot path.

``SingleThreadedWorker.execute_timesteps`` drives 8 sequential CartPoles
with the DQN agent (256x256, dueling, double-Q, prioritized replay, memory
prefilled to capacity) and one update per vector step, so the update path
(agents -> BuiltGraph.execute -> Session.run -> native plan -> fused Adam
and replay sampling) does most of the work.

Timing starts only after warm-up has passed the point where Adam's
moment slabs fill with subnormal floats: from there on an update costs
several times what it cost before, and a real training run spends almost
all of its time in that regime.
"""

from __future__ import annotations

import time

import numpy as np

from common import (MEMORY_CAPACITY, NUM_ENVS, make_agent, quantile,
                    subnormal_fraction, tail, timed_setups, windowed)
from spans import SpanView

WARMUP_CHUNK = 25        # updates between subnormal checks during warm-up
POST_ONSET = 300         # updates after the onset before timing starts
WARMUP_CAP = 3000        # start timing here if no subnormal ever appears
WINDOW_CHUNK = 25        # vector steps per execute_timesteps call
PARITY_UPDATES = 5
PARITY_TOL = dict(rtol=1e-5, atol=1e-6)   # the parity-matrix tolerance
PARITY_OUTLIERS = 0.05   # share of weights allowed outside it per update
BATCH = 32
PROBE_PAIRS = 40


def _stamped_vector_env(envs):
    """The sequential engine, plus a timestamp each time a vector step
    returns (the benchmark's own clock for per-step latency)."""
    from repro.environments.vector_env import SequentialVectorEnv

    class StampedVectorEnv(SequentialVectorEnv):
        def __init__(self, envs):
            super().__init__(envs=envs)
            self.stamps = []

        def step_wait(self):
            out = super().step_wait()
            self.stamps.append(time.perf_counter())
            return out

    return StampedVectorEnv(envs)


def _external_batches(seed: int, count: int):
    rng = np.random.default_rng([seed, 3])
    scale = np.asarray([0.8, 0.8, 0.08, 0.8], np.float32)
    out = []
    for _ in range(count):
        out.append({
            "states": (rng.standard_normal((BATCH, 4)) * scale)
            .astype(np.float32),
            "actions": rng.integers(0, 2, BATCH),
            "rewards": np.ones(BATCH, np.float32),
            "terminals": rng.random(BATCH) < 0.05,
            "next_states": (rng.standard_normal((BATCH, 4)) * scale)
            .astype(np.float32),
            "importance_weights": rng.uniform(0.5, 1.0, BATCH)
            .astype(np.float32),
        })
    return out


def _parity(seed: int):
    """Updates of a native agent that disagree with an
    ``optimize='basic'`` agent fed the same batch from the same state,
    plus the largest single-weight difference and the largest share of
    weights outside the parity-matrix tolerance seen in one update.

    Each update starts from the basic agent's full state, so the check
    compares one step at a time.  The loss and the TD errors must agree
    elementwise within the parity-matrix tolerance.  The weights cannot
    always: a ReLU input within rounding of zero can flip sign between
    the two backends, and Adam turns the gradient it lets through into a
    full step (seen: 1.8% of the weights, by up to 1.6e-3, in one
    update).  So at most :data:`PARITY_OUTLIERS` of the weights may leave
    the tolerance, and none by more than two of the largest steps Adam
    can take, ``lr * (1 - beta1) / sqrt(1 - beta2)``.  A wrong update
    moves most weights, or moves some further."""
    native, basic = make_agent(), make_agent(optimize="basic")
    adam = basic.root.optimizer
    step_bound = 2 * adam.learning_rate * (1 - adam.beta1) / np.sqrt(
        1 - adam.beta2)
    failures, max_diff, max_share = 0, 0.0, 0.0
    for batch in _external_batches(seed, PARITY_UPDATES):
        native.restore_full_state(basic.full_state())
        loss_n, td_n = native.update(batch)
        loss_b, td_b = basic.update(batch)
        w_n = native.get_weights(flat=True)
        w_b = basic.get_weights(flat=True)
        share = float(np.mean(~np.isclose(w_n, w_b, **PARITY_TOL)))
        diff = float(np.abs(w_n - w_b).max())
        max_diff, max_share = max(max_diff, diff), max(max_share, share)
        ok = (np.isfinite(loss_n)
              and np.allclose(loss_n, loss_b, **PARITY_TOL)
              and np.allclose(td_n, td_b, **PARITY_TOL)
              and share <= PARITY_OUTLIERS and diff <= step_bound)
        failures += not ok
    return failures, max_diff, max_share


def _all_finite(agent) -> bool:
    return all(np.all(np.isfinite(var.value)) for var in
               agent.root.variable_registry(trainable_only=False).values()
               if np.issubdtype(var.value.dtype, np.floating))


def run(args, workspace, tracer):
    from repro.environments import CartPole
    from repro.execution import SingleThreadedWorker

    def setup():
        agent = make_agent()
        envs = [CartPole(seed=args.seed * 1000 + i) for i in range(NUM_ENVS)]
        venv = _stamped_vector_env(envs)
        worker = SingleThreadedWorker(agent, venv)
        # The first vector step is never observed, so one extra step
        # fills the memory exactly to capacity.
        worker.execute_timesteps(MEMORY_CAPACITY + NUM_ENVS,
                                 update_interval=1 << 30,
                                 update_after=1 << 30)
        agent.update()  # compiles the update plan
        return agent, venv, worker

    (agent, venv, worker), setup_s = timed_setups(workspace, setup)
    session = agent.graph.session

    # Warm-up: train until the optimizer state has gone subnormal.
    onset = None
    while True:
        worker.execute_timesteps(WARMUP_CHUNK * NUM_ENVS, update_interval=1,
                                 update_after=0)
        if onset is None and subnormal_fraction(agent) > 0:
            onset = agent.updates
        if onset is not None and agent.updates >= onset + POST_ONSET:
            break
        if onset is None and agent.updates >= WARMUP_CAP:
            break

    # Timed window.
    window_start_update = agent.updates
    compiled_before = session.stats.plans_compiled
    tracer.clear()
    stamps, step_times = [], []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < args.seconds:
        venv.stamps.clear()
        begin = time.perf_counter()
        worker.execute_timesteps(WINDOW_CHUNK * NUM_ENVS, update_interval=1,
                                 update_after=0)
        stamps.extend(venv.stamps)
        step_times.extend(np.diff([begin] + venv.stamps))
    t1 = time.perf_counter()
    window_updates = agent.updates - window_start_update
    frames = len(step_times) * NUM_ENVS
    plans_compiled_window = session.stats.plans_compiled - compiled_before
    subnormal_end = subnormal_fraction(agent)

    # Correctness, outside the window.
    failed = 0 if _all_finite(agent) else window_updates
    losses = [agent.update()[0] for _ in range(10)]
    failed += sum(not np.isfinite(loss) for loss in losses)
    parity_failed, parity_max_diff, parity_share = _parity(args.seed)
    failed += parity_failed
    attempted = window_updates + len(losses) + PARITY_UPDATES

    steps = windowed(stamps, np.asarray(step_times) * 1e6, t0, t1)
    e2e = {
        "setup_s": setup_s,
        "throughput_per_s": steps["rate"] * NUM_ENVS,
        "p50_us": steps["p50"],
        "p90_us": steps["tail"],
    }
    layer = {
        "components.optimizer_subnormal_frac": subnormal_end,
        "components.subnormal_onset_update": -1 if onset is None else onset,
        "execution.window_start_update": window_start_update,
        "backend.plans_compiled_window": plans_compiled_window,
        "backend.native_segments": session.stats.native_segments,
        "backend.native_py_steps": session.stats.native_py_steps,
    }
    detail = {"window_updates": window_updates, "frames": frames,
              "window_s": t1 - t0, "parity_max_weight_diff": parity_max_diff,
              "parity_max_outside_share": parity_share}
    if args.trace:
        layer.update(_layers(tracer, t0, t1, window_updates))
        layer["components.memory_sample_ms"] = _memory_sample_ms(
            agent, args.seed)
    return e2e, layer, attempted, failed, detail


def _memory_sample_ms(agent, seed: int) -> float:
    """Update-from-memory minus update-from-an-external-batch of the same
    size, interleaved: the cost of sampling and re-prioritizing."""
    batch = _external_batches(seed, 1)[0]
    agent.update(batch)  # compiles the external-update plan
    memory, external = [], []
    for _ in range(PROBE_PAIRS):
        t = time.perf_counter()
        agent.update()
        memory.append(time.perf_counter() - t)
        t = time.perf_counter()
        agent.update(batch)
        external.append(time.perf_counter() - t)
    return (np.median(memory) - np.median(external)) * 1e3


def _layers(tracer, t0: float, t1: float, window_updates: int):
    view = SpanView(tracer.spans, t0, t1)
    wall = t1 - t0
    update = view.durations("agents.update")
    execute_ids = {s[0] for s in view.select("core.execute",
                                             parent="agents.update")}
    update_runs = [s for s in view.by_name.get("backend.run", [])
                   if view.has_ancestor(s, "agents.update")]
    run_update = [s[4] - s[3] for s in update_runs if s[1] in execute_ids]
    execs = view.durations("execution.execute_timesteps")
    return {
        "agents.update_ms.p50": quantile(update, 0.5) * 1e3,
        "agents.update_ms.tail": tail(update) * 1e3,
        "agents.update_share": float(update.sum()) / wall,
        "agents.self_us.p50": quantile(
            view.self_times("agents.update"), 0.5) * 1e6,
        "core.execute_self_us.p50": quantile(
            view.self_times("core.execute", parent="agents.update"),
            0.5) * 1e6,
        "backend.run_ms.update": quantile(run_update, 0.5) * 1e3,
        "backend.run_calls_per_update":
            len(update_runs) / max(window_updates, 1),
        "agents.get_actions_us.p50": quantile(view.durations(
            "agents.get_actions", parent="execution.execute_timesteps"),
            0.5) * 1e6,
        "agents.observe_us.p50": quantile(
            view.durations("agents.observe"), 0.5) * 1e6,
        "environments.step_us.p50": quantile(
            view.durations("environments.step"), 0.5) * 1e6,
        "execution.self_share": float(
            view.self_times("execution.execute_timesteps").sum()
            / max(execs.sum(), 1e-12)),
        "trace.overhead_frac": len(view.spans) * tracer.span_cost() / wall,
    }

