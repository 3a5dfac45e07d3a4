"""Checks of the benchmark itself.  The file name does not match
``test_*.py``, so the repository's default pytest run skips it; run it
with::

    python3 -m pytest -q e2ebench/check_e2ebench.py

Each workload must leave no child process, no extra thread and no
socket behind and exit promptly; the learner's timed window must start
after Adam's moments went subnormal; and without the library sources
the benchmark must fail without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets the BLAS thread variables first)
from common import ROOT, SRC, Workspace, leftovers, resources  # noqa: E402
from spans import Tracer  # noqa: E402

if SRC not in sys.path:
    sys.path.insert(0, SRC)

SECONDS = 1.5


def _in_process(workload: str, trace: int):
    args = argparse.Namespace(workload=workload, seed=7, seconds=SECONDS,
                              trace=trace, nproc=os.cpu_count())
    before = resources()
    tracer, workspace = Tracer(), Workspace()
    try:
        if trace:
            tracer.patch_library()
        try:
            result = run._run_workload(args, workspace, tracer)
        finally:
            tracer.restore()
    finally:
        workspace.close()
    return result, leftovers(before)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_leaves_nothing_behind(workload):
    (_, _, attempted, failed, _), left = _in_process(workload, trace=0)
    assert attempted > 0 and failed == 0
    assert left == {"threads": [], "children": [], "sockets": []}
    assert [t.name for t in threading.enumerate() if not t.daemon] \
        == [threading.main_thread().name]


def test_learner_window_starts_after_subnormal_onset():
    (_, layer, _, failed, _), left = _in_process("learn_dqn", trace=1)
    assert failed == 0
    assert not any(left.values())
    onset = layer["components.subnormal_onset_update"]
    assert onset > 0, "Adam's moments never went subnormal in warm-up"
    assert layer["execution.window_start_update"] > onset
    assert layer["components.optimizer_subnormal_frac"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_command_exits_promptly_with_all_metrics(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert time.monotonic() - t0 < 120
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}


def test_fails_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "learn_dqn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
