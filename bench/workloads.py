"""The benchmark's jobs, the frontier jobs it leaves out, and the check of
each job's output against the references recorded from the seed."""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# (subcommand, corpus file stem, extra flags).  Every job also gets
# ``--format machine``.
WORKLOADS = {
    # Isomorphism search: find_isomorphism, is_invertible and matrix
    # compose do nearly all the work, with almost no SNF.  Holds the seed's
    # three undecided jobs, i.e. the decidable frontier.
    "k0-frontier": (
        ("k0", "disc2", ("--bound", "3")),
        ("k0", "disc2", ("--bound", "4")),
        ("k0", "disc2", ("--bound", "5")),
        ("k0", "disc3", ("--bound", "3")),
        ("k0", "disc3", ("--bound", "4")),
        ("k0", "c2free", ("--bound", "3")),
        ("k0", "c2free", ("--bound", "4")),
        ("assembly", "assembly", ("--bound", "3")),
        ("assembly", "assembly", ("--bound", "4")),
    ),
    # SNF heavy: intlinalg recomputes the SNF of the same relation lattices
    # hundreds of times inside hom_is_isomorphism.
    "oracle": (
        ("oracle-compare", "disc2", ("--bound", "4")),
        ("oracle-compare", "c2free", ("--bound", "3")),
    ),
    # Dense all-pairs compose table (every result kept) plus commutator
    # closure in groups.
    "k1-gl": (
        ("k1", "f2", ("--gl-max", "3")),
        ("k1", "z4", ("--gl-max", "2")),
        ("k1", "f3", ("--gl-max", "2")),
        ("k1", "f2xf2", ("--gl-max", "2")),
        ("k1", "f2c2", ("--gl-max", "2")),
        ("k1", "m2f2", ("--gl-max", "1")),
    ),
}

# Left out, each with its estimated cost on the seed (see NOTES.md); the
# change that brings one within reach adds it in a benchmark-only change:
#   k1 f3 --gl-max 3     |GL3(F3)| = 11232, 1.3e8-entry Cayley table, hours
#   k1 z4 --gl-max 3     |GL3(Z/4)| = 86016, 7.4e9 entries, days, ~59 GB
#   k1 m2f2 --gl-max 2   GL4(F2), order 20160, 4.1e8 entries, hours
#   oracle-compare disc3 --bound 3   about 13 s, too few sweeps per run

# Ringoid each corpus file is meant to feed to k0 / k1 (the first ringoid
# of the file, which is what the CLI reads).
TARGET_RINGOID = {
    "f2": "F2", "f3": "F3", "z4": "Z4", "f2xf2": "F2xF2", "m2f2": "M2F2",
    "f2c2": "F2C2", "disc2": "disc2", "disc3": "disc3", "c2free": "c2free",
    "assembly": "F2",
}

# Jobs undecided at the default ceiling on the seed, with the answer a
# change that decides them must print.
KNOWN_ANSWERS = {
    "k0 disc2 --bound 5": ("presentation", "Z^2"),
    "k0 c2free --bound 4": ("presentation", "Z"),
    "assembly assembly --bound 4": ("iso", True),
}


def job_id(job):
    cmd, stem, flags = job
    return " ".join((cmd, stem) + tuple(flags))


def job_argv(job, corpus_dir):
    cmd, stem, flags = job
    return [cmd, "--input", os.path.join(corpus_dir, stem + ".rgd"),
            *flags, "--format", "machine"]


def load_references():
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def check(job, code, out, err, references):
    """Classify a finished job: returns (failure reason or None, decided).

    A job passes when its exit code and stdout equal the seed's bytes, or,
    for a job undecided on the seed, when it exits 0 with the known answer.
    k0 and k1 must also name the intended ringoid: the CLI computes the
    first ringoid of the file, whatever else the file holds."""
    jid = job_id(job)
    if "Traceback" in err:
        return "traceback", False
    try:
        obj = json.loads(out)
    except ValueError:
        return "exit %d without one JSON object on stdout" % code, False
    if job[0] in ("k0", "k1") and obj.get("ringoid") != TARGET_RINGOID[job[1]]:
        return "computed ringoid %r" % (obj.get("ringoid"),), False
    ref = references.get(jid)
    if ref is None:
        return "no reference recorded", False
    if code == ref["exit"] and out == ref["stdout"]:
        return None, code == 0 and obj.get("truncated_at") is None
    if jid in KNOWN_ANSWERS and code == 0 and obj.get("undecided") is False:
        key, want = KNOWN_ANSWERS[jid]
        got = obj.get(key)
        if key == "presentation":
            got = got.get("text")
        if got == want:
            return None, True
        return "decided with a wrong answer: %s=%r" % (key, got), False
    return "exit %d, stdout differs from the reference" % code, False
