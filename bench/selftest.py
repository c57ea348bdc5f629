"""Self-test of the tracer: one short traced run per workload.

Fails (exit 1) when a traced run reports a failed job, when the metric
names differ from tracer.METRICS or from BENCHMARK.json, when the layer
self times do not add up to the traced cli.run time, or when a declared
per-layer metric reads zero on the workload it should move (a wrapper that
no longer intercepts anything).

Usage, from the root of a checkout:  python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import HERE, ROOT
from tracer import LAYERS, METRICS, layer_self_key
from workloads import WORKLOADS


def main():
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [(m["name"], m["unit"], m["better"])
                    for m in json.load(fh)["per_layer"]]
    if declared != [m[:3] for m in METRICS]:
        problems.append("BENCHMARK.json per_layer differs from tracer.METRICS")
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "0", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            problems.append("%s: exit %d\n%s" % (workload, proc.returncode,
                                                 proc.stderr))
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if not result["correct"] or result["failed"]:
            problems.append("%s: %d failed jobs" % (workload, result["failed"]))
        if sorted(metrics) != sorted(m[0] for m in METRICS):
            problems.append("%s: reported metrics differ from tracer.METRICS"
                            % workload)
            continue
        selfs = sum(metrics[layer_self_key(layer)] for layer in LAYERS)
        if abs(selfs - metrics["cli.run.incl_s"]) > 1e-6 * max(1.0, selfs):
            problems.append("%s: layer self times sum to %.6f s, cli.run took"
                            " %.6f s" % (workload, selfs,
                                         metrics["cli.run.incl_s"]))
        for name, _, _, home in METRICS:
            if home == workload and not metrics[name]:
                problems.append("%s: %s reads zero" % (workload, name))
        print("%s: %d metrics checked" % (workload, len(metrics)))
    for p in problems:
        print("SELFTEST FAILED: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
