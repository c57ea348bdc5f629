"""Benchmark of the ringoids CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload k0-frontier --seed 1 --seconds 27 --trace 0

One client in a closed loop: each job is a fresh
``python -m ringoids.cli ... --format machine`` process, started when the
previous one has exited, as a CLI user runs it.  The seed only shuffles
the order of the jobs within each sweep.  Every output is checked against
the seed's references (see workloads.py).  Times are rescaled to a nominal
core speed, measured on the jobs' core as they run (see NominalClock).

``--trace 0`` times sweeps of job processes and reports the end-to-end
metrics; ``--trace 1`` runs the same jobs in this process through
``ringoids.cli.run`` with the tracer's wrappers installed, alternating
with untraced in-process sweeps, and reports the per-layer metrics.  The
last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from tracer import (LAYERS, METRICS, Tracer, layer_self_key,  # noqa: E402
                    sweep_metrics)
from workloads import WORKLOADS, check, job_argv, job_id, load_references  # noqa: E402

SETUP_REPEATS = 3
# Wall time of reference_loop() at the nominal core speed: about its median
# on the reference machine (shared 2-core Xeon, Python 3.11).
REFERENCE_NOMINAL_S = 0.042
E2E_UNITS = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "decided_frac": "ratio"}
# Longest a job runs between two reference loops.
SAMPLE_S = 1.0
JOB_TIMEOUT_S = 60.0
# Hard stop well inside the 180 s a run may take.
RUN_DEADLINE_S = 160.0


class JobFailed(Exception):
    pass


def pin_to_one_cpu():
    """Keep this process and its children on one core, so the reference
    loop measures the speed of the core the jobs run on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def reference_loop():
    """Fixed pure-Python work (tuple keys, dict stores, integer arithmetic,
    like the library's inner loops); returns its wall time."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(100_000):
        acc = (acc + i * i) % 1000003
        table[(i & 1023, i % 7)] = acc
    return time.perf_counter() - t0


class NominalClock:
    """Rescales wall time to the nominal core speed.

    The machine's speed drifts by tens of percent over seconds to minutes
    (its cores are shared), so a reference loop runs on the same core
    between stretches of measured work, and each stretch's wall time is
    scaled by the nominal over the mean of the reference times just before
    and after it."""

    def __init__(self):
        self.last = reference_loop()

    def rescale(self, wall):
        ref = reference_loop()
        scaled = wall * REFERENCE_NOMINAL_S / ((self.last + ref) / 2)
        self.last = ref
        return scaled


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_process(argv, deadline, out_path, err_path, clock):
    """Run one process to completion.  Every SAMPLE_S seconds it is stopped
    while ``clock`` times a reference loop, so that a long job is rescaled
    by the speed the core had while it ran.  Returns (exit code, or None if
    it had to be killed; wall seconds it ran; the same at nominal speed;
    max RSS in MB; stdout; stderr)."""
    kill_at = time.monotonic() + max(
        0.0, min(JOB_TIMEOUT_S, deadline - time.monotonic()))
    wall = nominal = 0.0
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while True:
                    t0 = time.perf_counter()
                    exited = select.select([pidfd], [], [], max(0.0, min(
                        SAMPLE_S, kill_at - time.monotonic())))[0]
                    if not exited:
                        os.kill(proc.pid, signal.SIGSTOP)
                    seg = time.perf_counter() - t0
                    wall += seg
                    nominal += clock.rescale(seg)
                    if exited:
                        break
                    if time.monotonic() >= kill_at:
                        proc.kill()
                        break
                    os.kill(proc.pid, signal.SIGCONT)
            finally:
                os.close(pidfd)
        except BaseException:
            proc.kill()
            raise
        finally:
            # The child is never reaped before this point, so its pid cannot
            # have been reused by any signal sent above.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    code = None if proc.returncode < 0 else proc.returncode
    return code, wall, nominal, usage.ru_maxrss / 1024.0, stdout, stderr


def setup_once(work, k, deadline, clock):
    """Generate the corpus and validate each file once.  Returns the corpus
    directory and the set-up's (wall, nominal-speed) seconds."""
    corpus = os.path.join(work, "corpus%d" % k)
    log = os.path.join(work, "setup.out"), os.path.join(work, "setup.err")
    code, wall, nominal, _, _, err = run_process(
        [sys.executable, os.path.join(HERE, "corpus.py"), corpus], deadline,
        *log, clock)
    if code != 0:
        raise JobFailed("corpus generation failed:\n" + err)
    for name in sorted(os.listdir(corpus)):
        path = os.path.join(corpus, name)
        code, w, n, _, out, err = run_process(
            [sys.executable, "-m", "ringoids.cli", "validate", "--input", path,
             "--format", "machine"], deadline, *log, clock)
        if code != 0 or not all(r["ok"] for r in json.loads(out)["results"]):
            raise JobFailed("warm-up validate of %s failed (exit %s):\n%s%s"
                            % (name, code, out, err))
        wall += w
        nominal += n
    return corpus, (wall, nominal)


def shuffled_sweeps(jobs, seed):
    rng = random.Random(seed)
    while True:
        order = list(jobs)
        rng.shuffle(order)
        yield order


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.undecided = 0

    def record(self, job, code, out, err, references):
        self.attempted += 1
        if code is None:
            reason, decided = "timed out or killed", False
        else:
            reason, decided = check(job, code, out, err, references)
        if reason is not None:
            self.failed += 1
            sys.stderr.write("FAILED %s: %s\n%s" % (job_id(job), reason,
                                                   err[-2000:]))
        elif not decided:
            self.undecided += 1


def keep_going(started, last_sweep, seconds):
    """Start another sweep only if, taking as long as the last one, it
    should end within the run length."""
    return time.perf_counter() - started + last_sweep <= seconds


def measure_processes(jobs, seed, seconds, corpus, work, references,
                      deadline, clock):
    """Sweeps of job processes; returns the tally, the (wall, nominal)
    seconds of each sweep (the jobs' own times, summed) and the peak RSS of
    any job."""
    tally = Tally()
    sweeps = []
    peak_rss = 0.0
    out_path, err_path = os.path.join(work, "job.out"), os.path.join(work, "job.err")
    started = time.perf_counter()
    for order in shuffled_sweeps(jobs, seed):
        t0 = time.perf_counter()
        wall = nominal = 0.0
        for job in order:
            argv = [sys.executable, "-m", "ringoids.cli", *job_argv(job, corpus)]
            code, job_wall, job_nominal, rss, out, err = run_process(
                argv, deadline, out_path, err_path, clock)
            wall += job_wall
            nominal += job_nominal
            peak_rss = max(peak_rss, rss)
            tally.record(job, code, out, err, references)
        sweeps.append((wall, nominal))
        if time.monotonic() >= deadline or not keep_going(
                started, time.perf_counter() - t0, seconds):
            break
    return tally, sweeps, peak_rss


def run_in_process(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed job, not a crash here
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def measure_traced(jobs, seed, seconds, corpus, references, deadline, clock):
    """Alternate untraced and traced in-process sweeps; returns the tally,
    per-layer metrics (medians over traced sweeps) and the spans.  Sweep
    times for the overhead ratio are at nominal speed, rescaled per job."""
    sys.path.insert(0, SRC)
    import ringoids.cli as cli

    tracer = Tracer()
    tally = Tally()
    missing = set()
    untraced, traced, per_sweep = [], [], []
    started = time.perf_counter()
    sweeps = shuffled_sweeps(jobs, seed)
    n = 0
    while True:
        pair_started = time.perf_counter()
        for is_traced in (False, True):
            order = next(sweeps)
            if is_traced:
                for path in set(tracer.install()) - missing:
                    missing.add(path)
                    sys.stderr.write("tracer: %s not found\n" % path)
                tracer.take_sweep()
            dt = 0.0
            for job in order:
                tracer.start_job("%d:%s" % (n, job_id(job)))
                t0 = time.perf_counter()
                code, out, err = run_in_process(cli, job_argv(job, corpus))
                dt += clock.rescale(time.perf_counter() - t0)
                tally.record(job, code, out, err, references)
            if is_traced:
                tracer.uninstall()
                per_sweep.append(sweep_metrics(tracer.take_sweep()))
                traced.append(dt)
            else:
                untraced.append(dt)
            n += 1
        if time.monotonic() >= deadline or not keep_going(
                started, time.perf_counter() - pair_started, seconds):
            break
    metrics = {key: statistics.median(m[key] for m in per_sweep)
               for key in per_sweep[0]}
    metrics["trace.traced_sweep_s"] = statistics.median(traced)
    metrics["trace.untraced_sweep_s"] = statistics.median(untraced)
    metrics["trace.overhead_ratio"] = (metrics["trace.traced_sweep_s"]
                                       / metrics["trace.untraced_sweep_s"])
    return tally, metrics, tracer.spans, len(traced)


def write_spans(spans, workload, seed):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trace-%s-seed%d.json.gz" % (workload, seed))
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job"],
                   "spans": spans}, fh)
    return path


def report_layers(metrics):
    total = metrics["cli.run.incl_s"]
    print("layer self times (median traced sweep), share of cli.run %.3f s:"
          % total)
    rows = sorted(((layer, metrics[layer_self_key(layer)]) for layer in LAYERS),
                  key=lambda kv: -kv[1])
    for name, value in rows:
        print("  %-10s %8.3f s  %5.1f%%"
              % (name, value, 100.0 * value / total if total else 0.0))
    print("  %-10s %8.3f s  (sum of layer self times)"
          % ("all", sum(v for _, v in rows)))
    print("tracing overhead (nominal speed): traced %.3f s / untraced %.3f s"
          " = %.2fx"
          % (metrics["trace.traced_sweep_s"], metrics["trace.untraced_sweep_s"],
             metrics["trace.overhead_ratio"]))


def end_to_end(tally, sweeps, setups, peak_rss):
    """sweeps and setups are lists of (wall, nominal-speed) seconds."""
    nominal = [s[1] for s in sweeps]
    metrics = {
        "sweep_s": statistics.median(nominal),
        "setup_s": statistics.median(s[1] for s in setups),
        "peak_rss_mb": peak_rss,
        "decided_frac": (tally.attempted - tally.failed - tally.undecided)
                        / tally.attempted,
    }
    n = len(sweeps)
    print("  sweep_s         median %.3f s at nominal speed over %d sweeps"
          " (min %.3f, max %.3f); wall median %.3f s"
          % (metrics["sweep_s"], n, min(nominal), max(nominal),
             statistics.median(s[0] for s in sweeps)))
    print("  setup_s         median %.3f s at nominal speed over %d set-ups;"
          " wall median %.3f s" % (metrics["setup_s"], len(setups),
                                   statistics.median(s[0] for s in setups)))
    print("  undecided_jobs  %g per sweep" % (tally.undecided / n))
    print("  failed_frac     %g (%d of %d jobs)"
          % (tally.failed / tally.attempted, tally.failed, tally.attempted))
    print("  peak_rss_mb     %.1f MB" % peak_rss)
    print("  decided_frac    %.4f" % metrics["decided_frac"])
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ringoids", "cli.py")):
        sys.stderr.write("bench: no ringoids sources under %s\n" % SRC)
        return 1
    deadline = time.monotonic() + RUN_DEADLINE_S
    pin_to_one_cpu()
    references = load_references()
    jobs = WORKLOADS[args.workload]
    work = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(work)
    try:
        clock = NominalClock()
        setups = []
        for k in range(1 if args.trace else SETUP_REPEATS):
            corpus, times = setup_once(work, k, deadline, clock)
            setups.append(times)
        if args.trace:
            tally, metrics, spans, n = measure_traced(
                jobs, args.seed, args.seconds, corpus, references, deadline,
                clock)
            path = write_spans(spans, args.workload, args.seed)
            print("workload %s, seed %d: %d traced sweeps of %d jobs, %d spans"
                  " in %s" % (args.workload, args.seed, n, len(jobs),
                              len(spans), os.path.relpath(path, ROOT)))
            report_layers(metrics)
            units = {name: unit for name, unit, _, _ in METRICS}
        else:
            tally, sweeps, peak_rss = measure_processes(
                jobs, args.seed, args.seconds, corpus, work, references,
                deadline, clock)
            print("workload %s, seed %d: %d sweeps of %d jobs"
                  % (args.workload, args.seed, len(sweeps), len(jobs)))
            metrics = end_to_end(tally, sweeps, setups, peak_rss)
            units = E2E_UNITS
    except JobFailed as exc:
        sys.stderr.write("bench: %s\n" % exc)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
