"""Shared pieces of the workloads: the agent under test, an isolated
native build cache, inputs generated from the seed, the greedy reference
policy, statistics and run provenance."""

from __future__ import annotations

import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from typing import Dict, List, Optional

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

NUM_ENVS = 8
MEMORY_CAPACITY = 10_000
SETUP_REPS = 5
# The agent's own initialisation is part of the system under test, not
# of its inputs: it stays fixed so that every seed trains and serves the
# same network, and the seed varies only the data (environment episodes,
# observations, arrival times, weight set B).  How many Adam moments go
# subnormal depends strongly on the initial weights.
AGENT_SEED = 0
# A served action may differ from the reference only when the two
# Q-values are this close (relative to the larger magnitude): native
# C loops and the float64 reference reassociate sums differently.
TIE_RTOL = 1e-4


class Workspace:
    """A private directory under ``.bench_work/`` of the checkout, deleted
    at exit.  Every set-up gets a fresh native cache inside it, so the C
    build is always cold and ``~/.cache`` is never touched."""

    def __init__(self):
        self.path = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        tmp = os.path.join(self.path, "tmp")
        os.makedirs(tmp)
        # The toolchain probe and the C compiler write temporary files.
        self._tmpdir = os.environ.get("TMPDIR")
        os.environ["TMPDIR"] = tmp
        tempfile.tempdir = tmp
        self._caches = 0

    def fresh_native_cache(self) -> str:
        self._caches += 1
        path = os.path.join(self.path, f"native-{self._caches}")
        os.makedirs(path)
        os.environ["REPRO_NATIVE_CACHE"] = path
        return path

    def close(self) -> None:
        tempfile.tempdir = None
        if self._tmpdir is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = self._tmpdir
        shutil.rmtree(self.path, ignore_errors=True)
        parent = os.path.dirname(self.path)
        try:
            os.rmdir(parent)  # only when no other run is using it
        except OSError:
            pass


class NativeFallbackError(RuntimeError):
    """optimize='native' silently degraded to the fused plan."""


def make_agent(optimize: str = "native"):
    """The agent every workload runs: default 256x256 network, dueling,
    double-Q, prioritized replay, on CartPole's spaces."""
    from repro.agents import DQNAgent
    from repro.environments import CartPole
    env = CartPole()
    return DQNAgent(env.state_space, env.action_space, dueling=True,
                    double_q=True, prioritized_replay=True,
                    memory_capacity=MEMORY_CAPACITY, optimize=optimize,
                    seed=AGENT_SEED)


def check_native(agent, caught: List[warnings.WarningMessage]) -> None:
    """Fail the run unless the agent's plans really run native code."""
    from repro.backend import native
    messages = [str(w.message) for w in caught
                if "native" in str(w.message) or "toolchain" in
                str(w.message)]
    stats = agent.graph.session.stats
    if messages or not native.toolchain_available() \
            or stats.plans_native == 0 or stats.native_segments == 0:
        raise NativeFallbackError(
            f"optimize='native' fell back (plans_native="
            f"{stats.plans_native}, warnings={messages})")


def timed_setups(workspace: Workspace, setup, teardown=None):
    """Run ``setup()`` :data:`SETUP_REPS` times, each into a fresh native
    cache; keep the last result.  Returns ``(result, median_seconds)``."""
    times, result = [], None
    for _ in range(SETUP_REPS):
        if result is not None and teardown is not None:
            teardown(result)
        result = None
        workspace.fresh_native_cache()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            result = setup()
            times.append(time.perf_counter() - t0)
        try:
            check_native(result[0], caught)
        except BaseException:
            if teardown is not None:
                teardown(result)
            raise
    return result, float(np.median(times))


def observation_pool(seed: int, size: int = 4096) -> np.ndarray:
    """CartPole-like observations (float32, shape (size, 4))."""
    rng = np.random.default_rng([seed, 1])
    scale = np.asarray([0.8, 0.8, 0.08, 0.8], np.float32)
    return (rng.standard_normal((size, 4)) * scale).astype(np.float32)


def weight_sets(agent, seed: int):
    """Two flat weight vectors: A is the agent's seeded initialisation,
    B a seeded perturbation of it large enough to flip many actions."""
    a = agent.get_weights(flat=True).copy()
    rng = np.random.default_rng([seed, 2])
    b = (a + rng.standard_normal(a.shape) * (0.5 * a.std())).astype(
        np.float32)
    return a, b


def reference_q(weights: Dict[str, np.ndarray], obs: np.ndarray,
                scope: str = "dqn-agent/policy") -> np.ndarray:
    """Float64 NumPy forward pass of the dueling policy network."""
    w = {k[len(scope) + 1:]: np.asarray(v, np.float64)
         for k, v in weights.items() if k.startswith(scope + "/")}
    h = np.asarray(obs, np.float64)
    h = np.maximum(h @ w["neural-network/dense/kernel"]
                   + w["neural-network/dense/bias"], 0.0)
    h = np.maximum(h @ w["neural-network/dense-1/kernel"]
                   + w["neural-network/dense-1/bias"], 0.0)
    v = np.maximum(h @ w["dueling-head/v_hidden"], 0.0) \
        @ w["dueling-head/v_out"]
    adv = np.maximum(h @ w["dueling-head/a_hidden"], 0.0) \
        @ w["dueling-head/a_out"]
    return v + adv - adv.mean(axis=-1, keepdims=True)


class ReferenceTable:
    """Greedy action per pool observation for each weight set, plus a
    mask of argmax near-ties exempt from the equality check."""

    def __init__(self, agent, flat_sets: List[np.ndarray], obs: np.ndarray):
        self.actions, self.ties = [], []
        current = agent.get_weights(flat=True).copy()
        for flat in flat_sets:
            agent.set_weights(flat)
            q = reference_q(agent.get_weights(), obs)
            top = np.sort(q, axis=-1)
            gap = top[:, -1] - top[:, -2]
            scale = np.maximum(np.abs(q).max(axis=-1), 1.0)
            self.actions.append(np.argmax(q, axis=-1))
            self.ties.append(gap <= TIE_RTOL * scale)
        agent.set_weights(current)

    def matches(self, obs_index: int, action, versions) -> bool:
        action = int(np.asarray(action).reshape(-1)[0])
        return any(self.ties[v][obs_index]
                   or self.actions[v][obs_index] == action
                   for v in versions)

    def tie_count(self) -> int:
        return int(sum(t.sum() for t in self.ties))


def quantile(values, q: float) -> float:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.quantile(arr, q))


# Every tail is p90.  On a shared 2-core machine, p99 was set by collector
# pauses and CPU steal of 10-50 ms and did not repeat within a tenth
# between runs.  p95 of the open loop, which turns every stall into a
# queue, still swung by a factor of 6 in stretches of outside contention.
TAIL_Q = 0.90
SUBWINDOWS = 10


def tail(values) -> float:
    return quantile(values, TAIL_Q)


def windowed(times, values, t0: float, t1: float) -> Dict[str, float]:
    """Split [t0, t1) into :data:`SUBWINDOWS` equal parts by event time;
    return, over the parts, the lower quartile of each part's p50 and
    tail and the upper quartile of its event rate (events/s between the
    part's first and last event): the least disturbed quarter of the run.

    Contention from outside the benchmark only ever makes a part slower.
    On a shared VM it came in episodes (a CPU serving one batch every
    48 ms for a second, every 10-15 s) that covered half the parts of
    some runs, and the median over parts of the open loop's p90 spread
    78% over 11 runs; the lower quartile spread 11%.  A slower
    program slows every part, so the quartile still moves with it."""
    times = np.asarray(times, np.float64)
    values = np.asarray(values, np.float64)
    edges = np.linspace(t0, t1, SUBWINDOWS + 1)
    p50, tails, rates = [], [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        inside = (times >= lo) & (times < hi)
        part = values[inside]
        if part.size:
            p50.append(np.quantile(part, 0.5))
            tails.append(np.quantile(part, TAIL_Q))
        stamps = times[inside]
        if stamps.size > 1:
            rates.append((stamps.size - 1) / (stamps.max() - stamps.min()))
    return {"p50": float(np.quantile(p50, 0.25)) if p50 else 0.0,
            "tail": float(np.quantile(tails, 0.25)) if tails else 0.0,
            "rate": float(np.quantile(rates, 0.75)) if rates else 0.0}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def subnormal_fraction(agent) -> float:
    """Share of the optimizer's float32 state values that are subnormal,
    read from the variable registry."""
    scope = agent.root.optimizer.global_scope + "/"
    tiny = np.finfo(np.float32).tiny
    total = sub = 0
    for name, var in agent.root.variable_registry(
            trainable_only=False).items():
        value = var.value
        if not name.startswith(scope) or value.dtype != np.float32 \
                or value.size < 2:
            continue
        total += value.size
        sub += int(np.count_nonzero((value != 0) & (np.abs(value) < tiny)))
    return sub / total if total else 0.0


def join_all(threads, timeout: float) -> List[str]:
    """Join every thread within ``timeout`` seconds in total; returns
    the names of any still alive."""
    deadline = time.monotonic() + timeout
    for t in threads:
        t.join(max(deadline - time.monotonic(), 0.0))
    return [t.name for t in threads if t.is_alive()]


def resources() -> Dict[str, set]:
    """Threads, child processes and sockets this process holds now."""
    children = set()
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as fh:
                children.update(fh.read().split())
        except OSError:
            pass
    sockets = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:"):
            sockets.add(target)
    return {"threads": {t for t in threading.enumerate() if t.is_alive()},
            "children": children, "sockets": sockets}


def leftovers(before: Dict[str, set]) -> Dict[str, list]:
    """What :func:`resources` holds now beyond the ``before`` snapshot."""
    now = resources()
    return {key: sorted(getattr(x, "name", x) for x in now[key] - before[key])
            for key in now}


def provenance(args) -> Dict[str, object]:
    def git(*cmd) -> Optional[str]:
        try:
            out = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    from repro.backend import native
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - provenance is best effort
        blas = "unknown"
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "nproc": args.nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "cc": native.find_cc(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv,
    }
