"""Golden replay of the benchmark jobs: every job of bench/workloads.py runs
in-process on the corpus of bench/corpus.py and must pass the benchmark's
own output check against bench/references.json (byte-identical stdout and
exit code, or the known answer of a job undecided on the seed)."""

import contextlib
import importlib.util
import io
import os

import pytest

from ringoids import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, os.path.join(BENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpus = _load("corpus")
workloads = _load("workloads")
JOBS = [job for jobs in workloads.WORKLOADS.values() for job in jobs]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("corpus"))
    corpus.write(out)
    return out


@pytest.fixture(scope="module")
def references():
    return workloads.load_references()


@pytest.mark.parametrize("job", JOBS, ids=workloads.job_id)
def test_benchmark_job_matches_reference(job, corpus_dir, references):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(workloads.job_argv(job, corpus_dir))
    failure, decided = workloads.check(job, code, out.getvalue(),
                                       err.getvalue(), references)
    assert failure is None
    assert decided
