"""Record the reference output (exit code and stdout bytes) of every job of
every workload into references.json.

Usage, from the root of a checkout of the commit whose outputs are the
reference:  python3 bench/record.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from run import HERE, NominalClock, job_argv, job_id, run_process, setup_once
from workloads import REFERENCES, TARGET_RINGOID, WORKLOADS


def main():
    work = os.path.join(HERE, ".work", "record-%d" % os.getpid())
    os.makedirs(work)
    deadline = time.monotonic() + 3600
    refs = {}
    try:
        corpus, _ = setup_once(work, 0, deadline, NominalClock())
        out_path, err_path = os.path.join(work, "o"), os.path.join(work, "e")
        for jobs in WORKLOADS.values():
            for job in jobs:
                argv = [sys.executable, "-m", "ringoids.cli",
                        *job_argv(job, corpus)]
                code, wall, _, _, out, err = run_process(
                    argv, deadline, out_path, err_path, NominalClock())
                if code not in (0, 2) or "Traceback" in err:
                    sys.exit("%s: exit %s\n%s" % (job_id(job), code, err))
                if job[0] in ("k0", "k1") and (json.loads(out)["ringoid"]
                                               != TARGET_RINGOID[job[1]]):
                    sys.exit("%s computed the wrong ringoid" % job_id(job))
                refs[job_id(job)] = {"exit": code, "stdout": out}
                print("%-32s exit %d  %.2f s" % (job_id(job), code, wall))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
