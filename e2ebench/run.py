"""End-to-end benchmark of the learner update and the serving request.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload learn_dqn --seed 1 --seconds 30

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with the library's layer entry
points wrapped and prints the per-layer metrics.  The last line of
standard output is the JSON result; the line before it carries run
provenance and workload detail.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# One BLAS thread unless the caller chose otherwise: with OpenBLAS's
# default pool, batched act calls on the server thread stall for 10-20 ms
# while the load generator runs (see README, "BLAS threads").  Set before
# NumPy is imported; every result records the values in force.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (ROOT, SRC, Workspace, leftovers, peak_rss_mb,  # noqa: E402
                    provenance, resources)

WORKLOADS = ("learn_dqn", "serve_inproc", "serve_http")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_workload(args, workspace, tracer):
    if args.workload == "learn_dqn":
        import learn
        return learn.run(args, workspace, tracer)
    import serve
    if args.workload == "serve_http":
        return serve.run_http(args, workspace, tracer)
    return serve.run_inproc(args, workspace, tracer)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"e2ebench: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = _spec()
    args.nproc = len(os.sched_getaffinity(0))
    baseline = resources()

    from spans import Tracer
    tracer = Tracer()
    workspace = Workspace()
    try:
        if args.trace:
            tracer.patch_library()
        try:
            e2e, layer, attempted, failed, detail = _run_workload(
                args, workspace, tracer)
        finally:
            tracer.restore()
    finally:
        workspace.close()
    e2e["peak_rss_mb"] = peak_rss_mb()

    left = leftovers(baseline)
    if any(left.values()):
        print(f"e2ebench: workload left resources behind: {left}",
              file=sys.stderr)
        return 3

    if args.trace:
        # Layers a workload does not exercise did no work: report 0.
        wanted = spec["per_layer"]
        values = {m["name"]: float(layer.get(m["name"], 0.0))
                  for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: float(e2e[m["name"]]) for m in wanted}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"provenance": provenance(args), "detail": detail,
                      "end_to_end": e2e, "per_layer": layer},
                     default=float))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": int(attempted), "failed": int(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
