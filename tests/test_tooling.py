"""The benchmark's layer tracer wraps spinlink functions by name, and its
runs check every value against a stored reference.

A renamed or deleted function makes `perfbench/tracer.py`'s `install` raise,
which breaks every traced benchmark run; these tests catch that in tier-1,
and a changed value of the spin matrix or the sl_N route on either pool of words.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_the_benchmark_tracer_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "perfbench"))))
    code = "import time, tracer; tracer.install(tracer.Tracer(time.perf_counter))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


TRACED_RUN = """
import time, tracer
t = tracer.Tracer(time.perf_counter)
tracer.install(t)
from spinlink import cli, schur, spinpoly
braid = spinpoly.parse_braid("1 2")
for engine in ("matrix", "symbolic"):
    spinpoly.eval_spin(braid, 2, engine=engine)
spinpoly.eval_spin(spinpoly.parse_braid("1 2 3"), 2)  # four strands: the matrix route on crossing data
schur.eval_slN(braid, (1, 1, 1), 2)
schur.eval_slN_annular(braid, (1, 1, 1), 2)
assert cli.main(["verify", "xcalc", "--n", "1"]) == 0
metrics = tracer.layer_metrics(t)
names = ("xcalc.build_X.calls", "spinpoly.crossing_data.nnz", "rep.linop_matmul.calls", "schur.annular_eval.calls",
         "iqsym.trace_word.calls", "iqsym.expanded_terms")
missing = {name: metrics[name] for name in names if not metrics[name] > 0}
assert not missing, missing
"""


def test_the_installed_tracer_runs_every_route():
    # a wrapper whose call no longer fits the wrapped function (its arguments,
    # or what it unpacks from the result) fails only when it runs
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "perfbench"))))
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def _check_pool(workload, pool):
    # every value of the pool against its stored reference, in fresh interpreters
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0",
           "--pool", pool]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


@pytest.mark.parametrize("pool", ("default", "heldout"))
def test_the_benchmark_checks_the_spin_matrix_route(pool):
    _check_pool("spin-matrix", pool)


@pytest.mark.parametrize("pool", ("default", "heldout"))
def test_the_benchmark_checks_the_sln_route(pool):
    _check_pool("sln-annular", pool)
